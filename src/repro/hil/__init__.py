"""Hardware-in-the-loop system simulation: SoC, UART, RTOS, and closed loop."""

from .uart import UARTLink
from .dronet import DroNetWorkload
from .episode import EpisodeResult, EpisodeRunner, RecoveryEpisode, SolveRequest
from .faults import SensorFaults
from .soc import SOFTWARE_IMPLEMENTATIONS, SoCModel
from .rtos import ConcurrentTaskReport, RTOSModel
from .metrics import (
    ScenarioResult,
    SweepCell,
    aggregate_cell,
    mean_power,
    median_solve_time,
    solve_time_iqr,
    success_rate,
)
from .loop import HILConfig, HILLoop, build_variant_problem

__all__ = [
    "UARTLink",
    "DroNetWorkload",
    "EpisodeResult",
    "EpisodeRunner",
    "RecoveryEpisode",
    "SolveRequest",
    "SensorFaults",
    "SOFTWARE_IMPLEMENTATIONS",
    "SoCModel",
    "ConcurrentTaskReport",
    "RTOSModel",
    "ScenarioResult",
    "SweepCell",
    "aggregate_cell",
    "mean_power",
    "median_solve_time",
    "solve_time_iqr",
    "success_rate",
    "HILConfig",
    "HILLoop",
    "build_variant_problem",
]
