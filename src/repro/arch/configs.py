"""Named design points used throughout the evaluation.

These are the hardware configurations the paper profiles: scalar RISC-V
cores (Rocket, Shuttle, the BOOM family), Saturn vector units with Rocket or
Shuttle frontends across VLEN/DLEN settings, and Gemmini systolic arrays in
output- and weight-stationary configurations.  The HIL chip (Cygnus) maps to
the Shuttle-fronted VLEN=512 / DLEN=256 Saturn configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from .area import design_point_area
from .backend import Backend
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
from .systolic import GemminiConfig, GemminiModel
from .vector import SaturnConfig, SaturnModel

__all__ = [
    "DesignPoint",
    "SCALAR_CONFIGS",
    "SATURN_CONFIGS",
    "GEMMINI_CONFIGS",
    "ALL_DESIGN_POINTS",
    "CYGNUS_VECTOR_CORE",
    "get_design_point",
    "make_backend",
    "list_design_points",
]

AnyConfig = Union[ScalarCoreConfig, SaturnConfig, GemminiConfig]


@dataclass(frozen=True)
class DesignPoint:
    """A named hardware configuration plus its category and area."""

    name: str
    category: str                 # "scalar" | "vector" | "systolic"
    config: AnyConfig

    @property
    def area_mm2(self) -> float:
        return design_point_area(self.config)

    def backend(self) -> Backend:
        if isinstance(self.config, ScalarCoreConfig):
            return ScalarCoreModel(self.config)
        if isinstance(self.config, SaturnConfig):
            return SaturnModel(self.config)
        if isinstance(self.config, GemminiConfig):
            return GemminiModel(self.config)
        raise TypeError("unknown config type")


# ---------------------------------------------------------------------------
# Scalar cores (Section 5.1.1)
# ---------------------------------------------------------------------------

SCALAR_CONFIGS: Dict[str, ScalarCoreConfig] = {
    "rocket": ROCKET,
    "shuttle": SHUTTLE,
    "small-boom": SMALL_BOOM,
    "medium-boom": MEDIUM_BOOM,
    "large-boom": LARGE_BOOM,
    "mega-boom": MEGA_BOOM,
}


# ---------------------------------------------------------------------------
# Saturn vector units (Sections 4.1, 5.1.2, 5.1.5)
# ---------------------------------------------------------------------------

def _saturn(name: str, vlen: int, dlen: int, frontend: ScalarCoreConfig) -> SaturnConfig:
    return SaturnConfig(name=name, vlen=vlen, dlen=dlen, frontend=frontend)


SATURN_CONFIGS: Dict[str, SaturnConfig] = {
    "saturn-v256-d128-rocket": _saturn("Saturn V256D128 (Rocket)", 256, 128, ROCKET),
    "saturn-v512-d128-rocket": _saturn("Saturn V512D128 (Rocket)", 512, 128, ROCKET),
    "saturn-v512-d256-rocket": _saturn("Saturn V512D256 (Rocket)", 512, 256, ROCKET),
    "saturn-v512-d256-shuttle": _saturn("Saturn V512D256 (Shuttle)", 512, 256, SHUTTLE),
    "saturn-v512-d512-rocket": _saturn("Saturn V512D512 (Rocket)", 512, 512, ROCKET),
    "saturn-v512-d512-shuttle": _saturn("Saturn V512D512 (Shuttle)", 512, 512, SHUTTLE),
}

# The fabricated Cygnus SoC's large RVV core: dual-issue in-order Shuttle
# frontend with a VLEN=512 / DLEN=256 vector unit (Section 5.2).
CYGNUS_VECTOR_CORE: SaturnConfig = SATURN_CONFIGS["saturn-v512-d256-shuttle"]


# ---------------------------------------------------------------------------
# Gemmini systolic arrays (Sections 4.2, 5.1.3)
# ---------------------------------------------------------------------------

GEMMINI_CONFIGS: Dict[str, GemminiConfig] = {
    "gemmini-4x4-os-64k-rocket": GemminiConfig(
        name="Gemmini 4x4 OS 64KB (Rocket)", mesh_rows=4, mesh_cols=4,
        dataflow="OS", scratchpad_kb=64, accumulator_kb=0, host=ROCKET),
    "gemmini-4x4-os-32k-rocket": GemminiConfig(
        name="Gemmini 4x4 OS 32KB (Rocket)", mesh_rows=4, mesh_cols=4,
        dataflow="OS", scratchpad_kb=32, accumulator_kb=0, host=ROCKET),
    "gemmini-4x4-ws-64k-rocket": GemminiConfig(
        name="Gemmini 4x4 WS 64KB (Rocket)", mesh_rows=4, mesh_cols=4,
        dataflow="WS", scratchpad_kb=64, accumulator_kb=1, host=ROCKET),
}


# ---------------------------------------------------------------------------
# Unified registry
# ---------------------------------------------------------------------------

def _build_registry() -> Dict[str, DesignPoint]:
    registry: Dict[str, DesignPoint] = {}
    for key, config in SCALAR_CONFIGS.items():
        registry[key] = DesignPoint(name=key, category="scalar", config=config)
    for key, config in SATURN_CONFIGS.items():
        registry[key] = DesignPoint(name=key, category="vector", config=config)
    for key, config in GEMMINI_CONFIGS.items():
        registry[key] = DesignPoint(name=key, category="systolic", config=config)
    return registry


ALL_DESIGN_POINTS: Dict[str, DesignPoint] = _build_registry()


def list_design_points(category: str = None) -> List[DesignPoint]:
    """All registered design points, optionally filtered by category."""
    points = list(ALL_DESIGN_POINTS.values())
    if category is not None:
        points = [p for p in points if p.category == category]
    return points


def get_design_point(name: str) -> DesignPoint:
    try:
        return ALL_DESIGN_POINTS[name]
    except KeyError:
        raise KeyError("unknown design point {!r}; available: {}".format(
            name, ", ".join(sorted(ALL_DESIGN_POINTS)))) from None


def make_backend(name: str) -> Backend:
    """Instantiate the timing model for a named design point."""
    return get_design_point(name).backend()
