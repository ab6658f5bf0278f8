"""Architecture timing, area, and power models (the RTL-simulation substitute)."""

from .isa import (
    GemminiInstruction,
    GemminiOpcode,
    Instruction,
    InstructionStream,
    ScalarWork,
    VectorInstruction,
    VectorOpcode,
)
from .backend import Backend, CycleCategory, CycleReport
from .memory import MemoryModel
from .scalar import (
    LARGE_BOOM,
    MEDIUM_BOOM,
    MEGA_BOOM,
    ROCKET,
    SHUTTLE,
    SMALL_BOOM,
    ScalarCoreConfig,
    ScalarCoreModel,
)
from .vector import SaturnConfig, SaturnModel
from .systolic import GemminiConfig, GemminiModel
from .area import (
    design_point_area,
    gemmini_area,
    scalar_core_area,
    sram_area,
    vector_unit_area,
)
from .power import SoCPowerModel
from .configs import (
    ALL_DESIGN_POINTS,
    CYGNUS_VECTOR_CORE,
    GEMMINI_CONFIGS,
    SATURN_CONFIGS,
    SCALAR_CONFIGS,
    DesignPoint,
    get_design_point,
    list_design_points,
    make_backend,
)

__all__ = [
    "GemminiInstruction",
    "GemminiOpcode",
    "Instruction",
    "InstructionStream",
    "ScalarWork",
    "VectorInstruction",
    "VectorOpcode",
    "Backend",
    "CycleCategory",
    "CycleReport",
    "MemoryModel",
    "LARGE_BOOM",
    "MEDIUM_BOOM",
    "MEGA_BOOM",
    "ROCKET",
    "SHUTTLE",
    "SMALL_BOOM",
    "ScalarCoreConfig",
    "ScalarCoreModel",
    "SaturnConfig",
    "SaturnModel",
    "GemminiConfig",
    "GemminiModel",
    "design_point_area",
    "gemmini_area",
    "scalar_core_area",
    "sram_area",
    "vector_unit_area",
    "SoCPowerModel",
    "ALL_DESIGN_POINTS",
    "CYGNUS_VECTOR_CORE",
    "GEMMINI_CONFIGS",
    "SATURN_CONFIGS",
    "SCALAR_CONFIGS",
    "DesignPoint",
    "get_design_point",
    "list_design_points",
    "make_backend",
]
