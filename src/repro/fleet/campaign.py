"""Declarative campaign specs: cross-product grids of heterogeneous episodes.

A *campaign* is the fleet-scale unit of work: thousands of closed-loop HIL
episodes spanning scenario difficulties, seeds, clock frequencies, drone
variants, software implementations, control rates, and solver settings —
the axes of the paper's system-level sweeps (Figures 15-18) and anything
beyond them.  :class:`CampaignSpec` expands the grid into deterministic
:class:`EpisodeSpec` rows; :class:`EpisodeFactory` turns each row into a
runnable :class:`~repro.fleet.scheduler.FleetEpisode`, memoizing the
expensive per-configuration artifacts (linearized MPC problems, LQR caches,
compiled SoC timing models) so a 10,000-episode campaign compiles each
distinct configuration exactly once.

Expansion order is the documented public contract: axes nest in the order
``difficulty > seed > implementation > frequency > variant > control rate >
max iterations > mass scale`` (with the disturbance axis ``category > kind >
direction > magnitude scale > start time`` nested innermost for recovery
campaigns), so
episode index ``i`` always means the same episode — that is what makes
sharded and resumed runs (:mod:`repro.fleet.workers`) reproducible.

A campaign runs one of three workloads, named by ``episode_kind``
(:data:`EPISODE_KINDS`): ``"waypoint"`` (the default — fly generated
waypoint scenarios), ``"recovery"`` (the Section 5.2 / Fig. 17 robustness
study — hold position, inject a disturbance, measure time-to-recovery) and
``"design_point"`` (solver-less design-space exploration, whose grid lives
in :mod:`repro.fleet.design_point`).  Recovery campaigns expand the
disturbance axis instead of varying scenario difficulty, and their
episodes produce :class:`~repro.drone.disturbance.RecoveryResult` rows
aggregated into per-category recovery statistics by the
:class:`~repro.fleet.aggregate.FleetAggregator`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

from ..drone import (
    Difficulty,
    Disturbance,
    DisturbanceCategory,
    DisturbanceType,
    all_variants,
    disturbance_grid,
    generate_scenario,
    wrench_from_dict,
    wrench_to_dict,
)
from ..hil.episode import EpisodeRunner, RecoveryEpisode
from ..hil.faults import SensorFaults
from ..hil.loop import HILConfig, build_variant_problem
from ..hil.soc import SOFTWARE_IMPLEMENTATIONS, SoCModel
from ..tinympc import SolverSettings, build_iteration_program
from ..tinympc.cache import compute_cache
from .scheduler import FleetEpisode

__all__ = ["EpisodeSpec", "CampaignSpec", "EpisodeFactory", "CELL_AXES",
           "RECOVERY_CELL_AXES", "EPISODE_KINDS", "SPEC_SCHEMA_VERSION"]

# Version of the serialized spec schema (EpisodeSpec.to_dict /
# CampaignSpec.to_dict).  Bump this whenever a field is added, removed, or
# changes meaning, so durable checkpoints written by an older build fail
# loudly with a migration error instead of silently mis-resuming.  Payloads
# with no ``schema_version`` key predate versioning and are read as the
# first version.
SPEC_SCHEMA_VERSION = 1


def _check_schema_version(payload: Dict, what: str) -> None:
    version = payload.get("schema_version", SPEC_SCHEMA_VERSION)
    if version != SPEC_SCHEMA_VERSION:
        raise ValueError(
            "{} was serialized with spec schema v{!r} but this build reads "
            "v{}; a stale checkpoint or fixture cannot be resumed — re-run "
            "the campaign from scratch (or migrate the payload by hand)"
            .format(what, version, SPEC_SCHEMA_VERSION))


# The configuration axes (everything but the seed) that define an aggregate
# cell: episodes differing only by seed are repetitions of one cell.
# ``mass_scale`` is the plant-vs-model payload mismatch factor and
# ``sensor_profile`` a compact rendering of the episode's sensor fault
# profile ("clean" when faults are off) — both split cells because they
# change the closed-loop plant, not just the repetition seed.
CELL_AXES: Tuple[str, ...] = ("difficulty", "implementation", "frequency_mhz",
                              "variant", "control_rate_hz",
                              "max_admm_iterations", "mass_scale",
                              "sensor_profile")

# Recovery cells additionally split per disturbance category and kind (the
# Fig. 17 grouping); direction, magnitude ladder rung, start time, and seed
# are the repetition axes aggregated within a cell.
RECOVERY_CELL_AXES: Tuple[str, ...] = CELL_AXES + (
    "disturbance_category", "disturbance_kind")

# The values of CampaignSpec.episode_kind (and of the CLI's --episode-kind).
EPISODE_KINDS = ("waypoint", "recovery", "design_point")


@dataclass(frozen=True)
class EpisodeSpec:
    """One fully-determined episode of a campaign.

    ``disturbance`` selects the episode kind: ``None`` is a waypoint
    scenario generated from ``(difficulty, seed)``; a wrench event (a
    :class:`~repro.drone.disturbance.Disturbance` or one of the
    :mod:`repro.drone.gusts` models) makes this a disturbance-recovery
    episode holding ``hold_position`` for ``recovery_duration`` seconds
    (``difficulty`` and ``seed`` then only label the cell — recovery
    physics is deterministic).

    ``mass_scale`` flies the *plant* at ``mass x scale`` with motors held
    fixed (thrust-to-weight divided by the same factor) while the
    controller keeps the nominal model — the payload/linearization
    mismatch axis.  ``sensor_faults`` corrupts what the solver sees (noise,
    latency, dropout) without touching the recorded truth.
    """

    difficulty: Difficulty
    seed: int
    implementation: str = "vector"
    frequency_mhz: float = 100.0
    variant: str = "CrazyFlie"
    control_rate_hz: float = 100.0
    max_admm_iterations: int = 10
    physics_dt: float = 0.002
    waypoint_tolerance: float = 0.20
    disturbance: Optional[Disturbance] = None
    hold_position: Tuple[float, float, float] = (0.0, 0.0, 0.75)
    recovery_duration: float = 3.0
    mass_scale: float = 1.0
    sensor_faults: Optional[SensorFaults] = None

    def __post_init__(self) -> None:
        scale = float(self.mass_scale)
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError("mass_scale must be finite and positive, got "
                             "{!r}".format(self.mass_scale))
        faults = self.sensor_faults
        if faults is not None and faults.is_null:
            # Canonicalize: a null fault profile IS clean sensing.  Keeping
            # one representation makes spec equality, cell keys, and fuzzer
            # shrinking well-behaved.
            object.__setattr__(self, "sensor_faults", None)

    @property
    def is_recovery(self) -> bool:
        return self.disturbance is not None

    @property
    def sensor_profile(self) -> str:
        """Compact cell-key rendering of the sensor fault profile.

        The fault *seed* is deliberately excluded: like the episode seed,
        it selects a repetition (one noise realization) within the cell,
        not a different configuration.
        """
        faults = self.sensor_faults
        if faults is None:
            return "clean"
        return "n{:g}/l{:g}/d{:g}".format(
            faults.noise_std, faults.latency_s, faults.dropout_rate)

    def hil_config(self) -> HILConfig:
        return HILConfig(
            implementation=self.implementation,
            frequency_mhz=self.frequency_mhz,
            control_rate_hz=self.control_rate_hz,
            physics_dt=self.physics_dt,
            max_admm_iterations=self.max_admm_iterations,
            waypoint_tolerance=self.waypoint_tolerance,
        )

    def cell_key(self) -> Tuple:
        """The aggregate cell this episode belongs to.

        Waypoint cells follow :data:`CELL_AXES`; recovery cells
        :data:`RECOVERY_CELL_AXES` (category and kind split cells, while
        direction, magnitude rung, start time, and seed repeat within one).
        """
        base = (self.difficulty.value, self.implementation, self.frequency_mhz,
                self.variant, self.control_rate_hz, self.max_admm_iterations,
                self.mass_scale, self.sensor_profile)
        if self.disturbance is None:
            return base
        return base + (self.disturbance.category.value,
                       self.disturbance.kind.value)

    def label(self) -> str:
        label = "{}/s{}/{}@{:g}MHz/{}/{:g}Hz".format(
            self.difficulty.value, self.seed, self.implementation,
            self.frequency_mhz, self.variant, self.control_rate_hz)
        if self.mass_scale != 1.0:
            label += "/mx{:g}".format(self.mass_scale)
        if self.sensor_faults is not None:
            label += "/" + self.sensor_profile
        if self.disturbance is not None:
            label += "/" + self.disturbance.describe()
        return label

    # -- (de)serialization -------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-safe rendering; exact inverse of :meth:`from_dict`.

        The fuzzer's shrunk regression fixtures persist episodes through
        this pair, so it must round-trip *every* field bit-for-bit.
        """
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "difficulty": self.difficulty.value,
            "seed": self.seed,
            "implementation": self.implementation,
            "frequency_mhz": self.frequency_mhz,
            "variant": self.variant,
            "control_rate_hz": self.control_rate_hz,
            "max_admm_iterations": self.max_admm_iterations,
            "physics_dt": self.physics_dt,
            "waypoint_tolerance": self.waypoint_tolerance,
            "disturbance": (None if self.disturbance is None
                            else wrench_to_dict(self.disturbance)),
            "hold_position": list(self.hold_position),
            "recovery_duration": self.recovery_duration,
            "mass_scale": self.mass_scale,
            "sensor_faults": (None if self.sensor_faults is None
                              else self.sensor_faults.to_dict()),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "EpisodeSpec":
        _check_schema_version(payload, "episode spec")
        known = {f.name for f in fields(cls)} | {"schema_version"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError("unknown episode fields: {}".format(
                ", ".join(sorted(unknown))))
        payload = dict(payload)
        payload.pop("schema_version", None)
        payload["difficulty"] = _as_difficulty(payload["difficulty"])
        if payload.get("disturbance") is not None:
            payload["disturbance"] = wrench_from_dict(payload["disturbance"])
        if payload.get("hold_position") is not None:
            payload["hold_position"] = tuple(
                float(p) for p in payload["hold_position"])
        if payload.get("sensor_faults") is not None:
            payload["sensor_faults"] = SensorFaults.from_dict(
                payload["sensor_faults"])
        return cls(**payload)


def _as_difficulty(value: Union[Difficulty, str]) -> Difficulty:
    return value if isinstance(value, Difficulty) else Difficulty(value)


def _tuple(values) -> Tuple:
    if isinstance(values, (str, int, float)):
        return (values,)
    return tuple(values)


def _opt_int_tuple(values) -> Tuple[Optional[int], ...]:
    """Like :func:`_tuple` for int axes where ``None`` means "backend
    default" — both a bare ``None`` scalar and ``None`` members are kept."""
    if values is None or isinstance(values, (int, float, str)):
        values = (values,)
    return tuple(None if v is None else int(v) for v in values)


@dataclass(frozen=True)
class CampaignSpec:
    """A cross-product grid of episodes over every configuration axis.

    Scalar values are accepted anywhere a sequence is expected; difficulty
    entries may be :class:`Difficulty` members or their string values.  The
    expansion (:meth:`expand`) is deterministic and documented — see the
    module docstring.

    ``episode_kind="recovery"`` switches the campaign to the Fig. 17
    disturbance-recovery workload: the ``disturbance_*`` axes expand to a
    suite of :class:`~repro.drone.disturbance.Disturbance` events (category
    x kind x standard directions x magnitude ladder x start time) attached
    to every configuration grid point.  Magnitudes are the per-category
    base (``disturbance_force_n`` / ``disturbance_torque_nm``) times each
    ladder rung in ``disturbance_scales``.  The ``difficulties`` axis must
    hold exactly one value for recovery campaigns (recovery episodes fly no
    waypoint scenario; the value only labels the aggregate cell), and seeds
    are pure repetitions of deterministic physics.

    ``mass_scales`` expands a payload-mismatch axis (the plant flies each
    scale while the controller keeps the nominal model); it nests after
    ``max_admm_iterations`` and before the innermost disturbance axis.  The
    ``sensor_*`` scalars apply one sensor fault profile campaign-wide
    (``0``/``0``/``0`` means clean sensing).
    """

    name: str = "campaign"
    difficulties: Tuple[Difficulty, ...] = (Difficulty.EASY,)
    seeds: Tuple[int, ...] = (0,)
    implementations: Tuple[str, ...] = ("vector",)
    frequencies_mhz: Tuple[float, ...] = (100.0,)
    variants: Tuple[str, ...] = ("CrazyFlie",)
    control_rates_hz: Tuple[float, ...] = (100.0,)
    max_admm_iterations: Tuple[int, ...] = (10,)
    physics_dt: float = 0.002
    waypoint_tolerance: float = 0.20
    episode_kind: str = "waypoint"
    disturbance_categories: Tuple[str, ...] = ("force", "torque", "combined")
    disturbance_kinds: Tuple[str, ...] = ("step", "impulse")
    disturbance_scales: Tuple[float, ...] = (1.0,)
    disturbance_start_times: Tuple[float, ...] = (0.5,)
    disturbance_force_n: float = 0.08
    disturbance_torque_nm: float = 0.002
    recovery_hold_position: Tuple[float, float, float] = (0.0, 0.0, 0.75)
    recovery_duration: float = 3.0
    mass_scales: Tuple[float, ...] = (1.0,)
    sensor_noise_std: float = 0.0
    sensor_latency_s: float = 0.0
    sensor_dropout_rate: float = 0.0
    sensor_fault_seed: int = 0
    # -- design-space exploration axes (episode_kind="design_point" only) ----
    # ``design_points=()`` means the whole catalog; ``codegen_levels`` may
    # hold "auto" (each point's per-category default level); ``fidelities``
    # picks trace (materialized instruction stream) or model (the same
    # lowering priced without building the stream) per grid point.  See
    # repro.fleet.design_point.
    programs: Tuple[str, ...] = ("iteration",)
    design_points: Tuple[str, ...] = ()
    codegen_levels: Tuple[str, ...] = ("auto",)
    fidelities: Tuple[str, ...] = ("trace",)
    sync_granularities: Tuple[Optional[int], ...] = (None,)
    lmuls: Tuple[int, ...] = (1,)
    solve_iterations: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "difficulties", tuple(
            _as_difficulty(d) for d in _tuple(self.difficulties)))
        object.__setattr__(self, "seeds", tuple(
            int(s) for s in _tuple(self.seeds)))
        object.__setattr__(self, "implementations",
                           _tuple(self.implementations))
        object.__setattr__(self, "frequencies_mhz", tuple(
            float(f) for f in _tuple(self.frequencies_mhz)))
        object.__setattr__(self, "variants", _tuple(self.variants))
        object.__setattr__(self, "control_rates_hz", tuple(
            float(r) for r in _tuple(self.control_rates_hz)))
        object.__setattr__(self, "max_admm_iterations", tuple(
            int(i) for i in _tuple(self.max_admm_iterations)))
        object.__setattr__(self, "disturbance_categories",
                           _tuple(self.disturbance_categories))
        object.__setattr__(self, "disturbance_kinds",
                           _tuple(self.disturbance_kinds))
        object.__setattr__(self, "disturbance_scales", tuple(
            float(s) for s in _tuple(self.disturbance_scales)))
        object.__setattr__(self, "disturbance_start_times", tuple(
            float(t) for t in _tuple(self.disturbance_start_times)))
        object.__setattr__(self, "recovery_hold_position", tuple(
            float(p) for p in _tuple(self.recovery_hold_position)))
        object.__setattr__(self, "mass_scales", tuple(
            float(s) for s in _tuple(self.mass_scales)))
        object.__setattr__(self, "programs", tuple(
            str(p) for p in _tuple(self.programs)))
        object.__setattr__(self, "design_points", tuple(
            str(p) for p in _tuple(self.design_points)))
        object.__setattr__(self, "codegen_levels", tuple(
            str(level) for level in _tuple(self.codegen_levels)))
        object.__setattr__(self, "fidelities", tuple(
            str(f) for f in _tuple(self.fidelities)))
        object.__setattr__(self, "sync_granularities",
                           _opt_int_tuple(self.sync_granularities))
        object.__setattr__(self, "lmuls", tuple(
            int(m) for m in _tuple(self.lmuls)))
        object.__setattr__(self, "solve_iterations",
                           int(self.solve_iterations))
        self.validate()

    @property
    def is_recovery(self) -> bool:
        return self.episode_kind == "recovery"

    # -- validation -------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` for an unknown ``episode_kind`` or an
        invalid axis of the campaign's workload."""
        if self.episode_kind not in EPISODE_KINDS:
            raise ValueError("unknown episode_kind {!r}; options: {}".format(
                self.episode_kind, ", ".join(EPISODE_KINDS)))
        if self.episode_kind == "design_point":
            from .design_point import validate_grid
            validate_grid(self)
            return
        for axis in ("difficulties", "seeds", "implementations",
                     "frequencies_mhz", "variants", "control_rates_hz",
                     "max_admm_iterations"):
            if not getattr(self, axis):
                raise ValueError("campaign axis {!r} is empty".format(axis))
        known_variants = set(all_variants())
        for variant in self.variants:
            if variant not in known_variants:
                raise ValueError("unknown drone variant {!r}; options: {}".format(
                    variant, ", ".join(sorted(known_variants))))
        allowed = set(SOFTWARE_IMPLEMENTATIONS) | {"ideal"}
        for implementation in self.implementations:
            if implementation not in allowed:
                raise ValueError(
                    "unknown implementation {!r}; options: {}".format(
                        implementation, ", ".join(sorted(allowed))))
        for frequency in self.frequencies_mhz:
            if frequency <= 0:
                raise ValueError("frequencies_mhz must be positive")
        for rate in self.control_rates_hz:
            if rate <= 0:
                raise ValueError("control_rates_hz must be positive")
        for iterations in self.max_admm_iterations:
            if iterations < 1:
                raise ValueError("max_admm_iterations must be at least 1")
        if not math.isfinite(self.physics_dt) or self.physics_dt <= 0:
            raise ValueError("physics_dt must be finite and positive")
        if not self.mass_scales:
            raise ValueError("campaign axis 'mass_scales' is empty")
        for scale in self.mass_scales:
            if not math.isfinite(scale) or scale <= 0:
                raise ValueError("mass_scales must be finite and positive")
        # SensorFaults.__post_init__ validates the scalar fault profile.
        self.sensor_faults()
        if not self.is_recovery:
            return
        for axis in ("disturbance_categories", "disturbance_kinds",
                     "disturbance_scales", "disturbance_start_times"):
            if not getattr(self, axis):
                raise ValueError("campaign axis {!r} is empty".format(axis))
        valid_categories = {c.value for c in DisturbanceCategory}
        for category in self.disturbance_categories:
            if category not in valid_categories:
                raise ValueError(
                    "unknown disturbance category {!r}; options: {}".format(
                        category, ", ".join(sorted(valid_categories))))
        valid_kinds = {k.value for k in DisturbanceType}
        for kind in self.disturbance_kinds:
            if kind not in valid_kinds:
                raise ValueError(
                    "unknown disturbance kind {!r}; options: {}".format(
                        kind, ", ".join(sorted(valid_kinds))))
        for scale in self.disturbance_scales:
            if scale <= 0:
                raise ValueError("disturbance_scales must be positive")
        for start in self.disturbance_start_times:
            if start < 0:
                raise ValueError("disturbance_start_times must be >= 0")
        if self.recovery_duration <= 0:
            raise ValueError("recovery_duration must be positive")
        if len(self.difficulties) != 1:
            raise ValueError(
                "recovery campaigns take exactly one difficulty (it only "
                "labels the cell; recovery episodes fly no waypoint scenario)")

    # -- expansion --------------------------------------------------------------
    def sensor_faults(self) -> Optional[SensorFaults]:
        """The campaign-wide sensor fault profile (``None`` when clean)."""
        faults = SensorFaults(noise_std=self.sensor_noise_std,
                              latency_s=self.sensor_latency_s,
                              dropout_rate=self.sensor_dropout_rate,
                              seed=self.sensor_fault_seed)
        return None if faults.is_null else faults

    def disturbances(self) -> List[Disturbance]:
        """The recovery campaign's disturbance suite, in expansion order
        (category > kind > direction > magnitude scale > start time).

        Delegates to :func:`repro.drone.disturbance.disturbance_grid`, so
        the defaults are exactly the paper's 14-event
        :func:`~repro.drone.disturbance.standard_disturbance_suite`.
        """
        if not self.is_recovery:
            return []
        return disturbance_grid(
            categories=tuple(DisturbanceCategory(c)
                             for c in self.disturbance_categories),
            kinds=tuple(DisturbanceType(k) for k in self.disturbance_kinds),
            force_magnitude=self.disturbance_force_n,
            torque_magnitude=self.disturbance_torque_nm,
            scales=self.disturbance_scales,
            start_times=self.disturbance_start_times)

    @property
    def size(self) -> int:
        if self.episode_kind == "design_point":
            return len(self.expand())
        base = (len(self.difficulties) * len(self.seeds)
                * len(self.implementations) * len(self.frequencies_mhz)
                * len(self.variants) * len(self.control_rates_hz)
                * len(self.max_admm_iterations) * len(self.mass_scales))
        if not self.is_recovery:
            return base
        return base * len(self.disturbances())

    def expand(self) -> List:
        """The campaign's episodes, in the documented deterministic order."""
        if self.episode_kind == "design_point":
            from .design_point import expand_grid
            return expand_grid(self)
        disturbance_axis: List[Optional[Disturbance]] = (
            self.disturbances() if self.is_recovery else [None])
        faults = self.sensor_faults()
        return [
            EpisodeSpec(
                difficulty=difficulty, seed=seed,
                implementation=implementation, frequency_mhz=frequency,
                variant=variant, control_rate_hz=rate,
                max_admm_iterations=iterations,
                physics_dt=self.physics_dt,
                waypoint_tolerance=self.waypoint_tolerance,
                disturbance=disturbance,
                hold_position=self.recovery_hold_position,
                recovery_duration=self.recovery_duration,
                mass_scale=mass_scale, sensor_faults=faults)
            for difficulty, seed, implementation, frequency, variant, rate,
                iterations, mass_scale, disturbance
            in itertools.product(self.difficulties, self.seeds,
                                 self.implementations, self.frequencies_mhz,
                                 self.variants, self.control_rates_hz,
                                 self.max_admm_iterations, self.mass_scales,
                                 disturbance_axis)
        ]

    # -- (de)serialization -------------------------------------------------------
    def to_dict(self) -> Dict:
        payload = {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "difficulties": [d.value for d in self.difficulties],
            "seeds": list(self.seeds),
            "implementations": list(self.implementations),
            "frequencies_mhz": list(self.frequencies_mhz),
            "variants": list(self.variants),
            "control_rates_hz": list(self.control_rates_hz),
            "max_admm_iterations": list(self.max_admm_iterations),
            "physics_dt": self.physics_dt,
            "waypoint_tolerance": self.waypoint_tolerance,
            "episode_kind": self.episode_kind,
            "disturbance_categories": list(self.disturbance_categories),
            "disturbance_kinds": list(self.disturbance_kinds),
            "disturbance_scales": list(self.disturbance_scales),
            "disturbance_start_times": list(self.disturbance_start_times),
            "disturbance_force_n": self.disturbance_force_n,
            "disturbance_torque_nm": self.disturbance_torque_nm,
            "recovery_hold_position": list(self.recovery_hold_position),
            "recovery_duration": self.recovery_duration,
            "mass_scales": list(self.mass_scales),
            "sensor_noise_std": self.sensor_noise_std,
            "sensor_latency_s": self.sensor_latency_s,
            "sensor_dropout_rate": self.sensor_dropout_rate,
            "sensor_fault_seed": self.sensor_fault_seed,
        }
        if self.episode_kind == "design_point":
            # Emitted only for design campaigns so that the serialized form
            # (and therefore the content-addressed run-dir digests of
            # existing HIL checkpoints) of older specs is unchanged.
            payload.update({
                "programs": list(self.programs),
                "design_points": list(self.design_points),
                "codegen_levels": list(self.codegen_levels),
                "fidelities": list(self.fidelities),
                "sync_granularities": list(self.sync_granularities),
                "lmuls": list(self.lmuls),
                "solve_iterations": self.solve_iterations,
            })
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignSpec":
        _check_schema_version(payload, "campaign spec")
        known = {f.name for f in fields(cls)} | {"schema_version"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError("unknown campaign fields: {}".format(
                ", ".join(sorted(unknown))))
        payload = dict(payload)
        payload.pop("schema_version", None)
        return cls(**payload)

    def describe(self) -> str:
        """One line: the episode count and the axis sizes it multiplies."""
        if self.episode_kind == "design_point":
            from .design_point import describe_grid
            return describe_grid(self)
        if self.is_recovery:
            head = "{} recovery episodes = {} disturbances".format(
                self.size, len(self.disturbances()))
        else:
            head = "{} episodes = {} difficulties".format(
                self.size, len(self.difficulties))
        return ("campaign {!r}: {} x {} seeds x {} impls x {} freqs x {} "
                "variants x {} rates x {} iter settings x {} mass scales"
                .format(self.name, head, len(self.seeds),
                        len(self.implementations), len(self.frequencies_mhz),
                        len(self.variants), len(self.control_rates_hz),
                        len(self.max_admm_iterations), len(self.mass_scales)))


class EpisodeFactory:
    """Builds runnable :class:`FleetEpisode` objects from specs, with memos.

    Distinct configurations are compiled once per factory: the linearized
    MPC problem, its LQR cache and its traced iteration program per
    (variant, control rate), and the SoC cycle report per (implementation,
    variant, control rate).  The report does not depend on the clock, so
    every frequency's :class:`SoCModel` shares it.  Each process's chunk
    runner holds its own factory, so memoization never crosses process
    boundaries.
    """

    def __init__(self) -> None:
        self._variants = all_variants()
        self._problems: Dict[Tuple, object] = {}
        self._caches: Dict[Tuple, object] = {}
        self._programs: Dict[Tuple, object] = {}
        self._compiled: Dict[Tuple, SoCModel] = {}
        self._socs: Dict[Tuple, SoCModel] = {}

    def problem_for(self, variant: str, control_rate_hz: float):
        key = (variant, control_rate_hz)
        if key not in self._problems:
            self._problems[key] = build_variant_problem(
                self._variants[variant], control_rate_hz=control_rate_hz)
        return self._problems[key]

    def cache_for(self, variant: str, control_rate_hz: float):
        key = (variant, control_rate_hz)
        if key not in self._caches:
            self._caches[key] = compute_cache(
                self.problem_for(variant, control_rate_hz))
        return self._caches[key]

    def soc_for(self, implementation: str, frequency_mhz: float,
                variant: str, control_rate_hz: float) -> Optional[SoCModel]:
        if implementation == "ideal":
            return None
        key = (implementation, frequency_mhz, variant, control_rate_hz)
        if key not in self._socs:
            build = (implementation, variant, control_rate_hz)
            compiled = self._compiled.get(build)
            if compiled is None:
                compiled = SoCModel.from_implementation(implementation,
                                                        frequency_mhz)
                compiled.compile_problem(
                    self.problem_for(variant, control_rate_hz),
                    program=self.program_for(variant, control_rate_hz))
                self._compiled[build] = compiled
            self._socs[key] = compiled.at_frequency(frequency_mhz)
        return self._socs[key]

    def program_for(self, variant: str, control_rate_hz: float):
        """The traced ADMM iteration program the SoC builds compile."""
        key = (variant, control_rate_hz)
        if key not in self._programs:
            self._programs[key] = build_iteration_program(
                self.problem_for(variant, control_rate_hz),
                cache=self.cache_for(variant, control_rate_hz))
        return self._programs[key]

    def plant_params_for(self, spec: EpisodeSpec):
        """The parameters the *plant* flies (the controller keeps nominal).

        ``mass_scale`` models a payload change the linearization does not
        know about: the vehicle mass scales while the physical motors stay
        fixed, so thrust-to-weight divides by the same factor and the
        per-rotor thrust ceiling is unchanged.
        """
        nominal = self._variants[spec.variant]
        if spec.mass_scale == 1.0:
            return None
        return dataclasses.replace(
            nominal, mass=nominal.mass * spec.mass_scale,
            thrust_to_weight=nominal.thrust_to_weight / spec.mass_scale)

    def build(self, spec: EpisodeSpec, episode_id: int) -> FleetEpisode:
        problem = self.problem_for(spec.variant, spec.control_rate_hz)
        config = spec.hil_config()
        if spec.disturbance is not None:
            mission = RecoveryEpisode(disturbance=spec.disturbance,
                                      hold_position=spec.hold_position,
                                      duration=spec.recovery_duration)
        else:
            mission = generate_scenario(spec.difficulty, spec.seed)
        runner = EpisodeRunner(
            config, self._variants[spec.variant], mission,
            soc=self.soc_for(spec.implementation, spec.frequency_mhz,
                             spec.variant, spec.control_rate_hz),
            episode_id=episode_id,
            plant_params=self.plant_params_for(spec),
            faults=spec.sensor_faults)
        settings = SolverSettings(max_iterations=spec.max_admm_iterations,
                                  warm_start=True)
        return FleetEpisode(
            episode_id=episode_id, runner=runner, problem=problem,
            settings=settings,
            cache=self.cache_for(spec.variant, spec.control_rate_hz))
