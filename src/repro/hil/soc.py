"""SoC model: turns backend cycle counts into solve latency and power.

The HIL experiments run TinyMPC on a fabricated RISC-V vector SoC (Cygnus)
at a range of clock frequencies.  Here the SoC is represented by a design
point (a timing model from :mod:`repro.arch`), a software implementation
level (from :mod:`repro.codegen`), and a clock frequency.  The per-ADMM-
iteration cycle count is compiled once and cached; the closed loop then
charges ``iterations x cycles_per_iteration / f_clk`` per solve, which
captures the warm-start compounding the paper observes (faster designs
converge in fewer iterations, making them faster still).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Union

from ..arch import CycleReport, DesignPoint, SoCPowerModel, get_design_point
from ..codegen import CodegenFlow
from ..matlib import MatlibProgram
from ..tinympc import MPCProblem, build_iteration_program

__all__ = ["SoCModel", "SOFTWARE_IMPLEMENTATIONS"]


# The two on-chip software implementations evaluated in the HIL study.
SOFTWARE_IMPLEMENTATIONS: Dict[str, Dict[str, str]] = {
    "scalar": {"design_point": "shuttle", "level": "eigen"},
    "vector": {"design_point": "saturn-v512-d256-shuttle", "level": "fused"},
    "vector-unoptimized": {"design_point": "saturn-v512-d256-shuttle", "level": "library"},
}


@dataclass
class SoCModel:
    """An SoC design point running a specific TinyMPC software build."""

    design_point: DesignPoint
    level: str
    frequency_mhz: float
    power_model: SoCPowerModel = field(default_factory=SoCPowerModel)
    _iteration_report: Optional[CycleReport] = field(default=None, repr=False)

    # -- constructors -----------------------------------------------------------
    @classmethod
    def from_implementation(cls, implementation: str, frequency_mhz: float,
                            power_model: Optional[SoCPowerModel] = None) -> "SoCModel":
        """Build the SoC for a named HIL implementation ("scalar" / "vector")."""
        try:
            spec = SOFTWARE_IMPLEMENTATIONS[implementation]
        except KeyError:
            raise KeyError("unknown implementation {!r}; options: {}".format(
                implementation, ", ".join(SOFTWARE_IMPLEMENTATIONS))) from None
        return cls(design_point=get_design_point(spec["design_point"]),
                   level=spec["level"], frequency_mhz=frequency_mhz,
                   power_model=power_model or SoCPowerModel())

    def at_frequency(self, frequency_mhz: float) -> "SoCModel":
        """The same software build on another clock.

        The cycle report does not depend on the clock, so the new model
        shares this one's compiled report (if any) instead of compiling
        the problem again.
        """
        return replace(self, frequency_mhz=frequency_mhz)

    # -- timing -------------------------------------------------------------------
    @property
    def frequency_hz(self) -> float:
        return self.frequency_mhz * 1e6

    def compile_problem(self, problem: MPCProblem,
                        program: Optional[MatlibProgram] = None) -> CycleReport:
        """Compile one ADMM iteration of the problem and cache its timing."""
        if program is None:
            program = build_iteration_program(problem)
        flow = CodegenFlow()
        result = flow.compile(program, self.design_point, self.level)
        self._iteration_report = result.report
        return result.report

    @property
    def cycles_per_iteration(self) -> float:
        if self._iteration_report is None:
            raise RuntimeError("call compile_problem() before querying timing")
        return self._iteration_report.total_cycles

    def solve_latency(self, iterations: int) -> float:
        """Wall-clock seconds to run ``iterations`` ADMM iterations."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        return iterations * self.cycles_per_iteration / self.frequency_hz

    # -- power ---------------------------------------------------------------------
    @property
    def core_area_mm2(self) -> float:
        return self.design_point.area_mm2

    def power(self, activity: float) -> float:
        """SoC power in watts at a given busy fraction."""
        return self.power_model.power(self.frequency_mhz, self.core_area_mm2,
                                      activity=activity)

    def describe(self) -> str:
        return "{} @ {:.0f} MHz [{}]".format(self.design_point.name,
                                             self.frequency_mhz, self.level)
