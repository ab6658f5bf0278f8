"""Experiment runner: cached, batch-routed execution of registry drivers.

The drivers in :mod:`repro.experiments.registry` are pure functions of their
keyword arguments plus the default quadrotor problem, so their rows can be
cached and replayed.  :class:`ExperimentRunner` adds two things on top of
``run_experiment``:

* **Result caching keyed on problem hash.**  Cache keys combine the
  experiment identifier, the (JSON-serializable) keyword arguments, and a
  fingerprint built from :func:`repro.tinympc.problem.problem_hash` of the
  default quadrotor problem *and* of every drone-variant HIL problem — so
  editing dynamics, costs, bounds, horizons, or variant parameters
  invalidates every cached sweep automatically, while re-running an
  unchanged Pareto sweep (``fig10``), kernel comparison (``fig13``), or HIL
  grid (``fig15``/``fig16``) is a dictionary lookup (plus an optional
  on-disk JSON store that survives across processes).  Model constants
  outside the MPC problems (SoC timing/power, UART latency) are *not*
  hashed; bump ``_CACHE_VERSION`` (or call :meth:`ExperimentRunner.invalidate`)
  after changing those.

* **Batch routing.**  Experiments whose drivers support the batched solver
  engine (the HIL grids) default to ``batched=True`` when run through the
  runner, so fleet-scale sweeps go through
  :class:`~repro.tinympc.batch.BatchTinyMPCSolver` instead of a Python loop
  of scalar solves.

Example::

    from repro.experiments import ExperimentRunner

    runner = ExperimentRunner(cache_dir=".repro-cache")
    rows = runner.run("fig10")        # compiles every design point
    rows = runner.run("fig10")        # instant: served from the cache
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional

from ..tinympc import default_quadrotor_problem, problem_hash

__all__ = ["ExperimentRunner", "BATCH_ROUTED_EXPERIMENTS", "run_cached",
           "workload_fingerprint"]


# Experiments that accept a ``batched`` keyword; the runner turns batching on
# by default for these (callers can still pass batched=False explicitly).
BATCH_ROUTED_EXPERIMENTS = ("fig16", "fig17", "fig18", "fleet_campaign")

# Bump to invalidate every existing cache entry when driver semantics change.
# v3: sha256-seeded scenario generation + scalar-form Quadrotor.derivatives
# changed HIL episode trajectories without touching the MPC problem hashes.
# v4: the recovery criterion now requires the full 250 ms hold window and
# measures max deviation from disturbance start, shifting Fig. 17 numbers.
# v5: cache keys now fold in the driver's default keyword arguments and the
# design-space fingerprint, so sweeps keyed on implicit design-point /
# engine / fidelity defaults invalidate when those defaults (or any hardware
# configuration) change.
_CACHE_VERSION = 5


def _jsonable(value) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _jsonable(v) for k, v in value.items())
    return False


def _normalize(value):
    """Canonical form for hashing and storage (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalize(val) for key, val in sorted(value.items())}
    if hasattr(value, "value") and not isinstance(value, (str, int, float, bool)):
        # Enum members (e.g. drone Difficulty) hash by their value.
        return _normalize(value.value)
    return value


@lru_cache(maxsize=1)
def workload_fingerprint() -> str:
    """Combined hash of every MPC problem the default-configured drivers use.

    Covers the default quadrotor problem plus each drone variant's
    hover-linearized HIL problem (what ``fig16``/``fig17``/``fig18`` solve),
    so cache keys change whenever dynamics, costs, bounds, horizons, or
    variant parameters do.  Memoized for the life of the process — the
    problems are built from module constants, so recomputing per lookup
    would only re-hash identical bytes.
    """
    from ..drone import all_variants
    from ..hil.loop import build_variant_problem

    digest = hashlib.sha256()
    digest.update(problem_hash(default_quadrotor_problem()).encode())
    for name, params in sorted(all_variants().items()):
        digest.update(name.encode())
        digest.update(problem_hash(build_variant_problem(params)).encode())
    return digest.hexdigest()


def _design_fingerprint() -> str:
    from ..arch import design_space_fingerprint
    return design_space_fingerprint()


def _effective_kwargs(identifier: str, kwargs: Dict) -> Dict:
    """Explicit kwargs merged over the driver's jsonable signature defaults."""
    from .registry import EXPERIMENTS

    experiment = EXPERIMENTS.get(identifier)
    if experiment is None:
        return dict(kwargs)
    merged: Dict = {}
    try:
        parameters = inspect.signature(experiment.driver).parameters
    except (TypeError, ValueError):
        return dict(kwargs)
    for name, parameter in parameters.items():
        if (parameter.default is not inspect.Parameter.empty
                and _jsonable(_normalize(parameter.default))):
            merged[name] = parameter.default
    merged.update(kwargs)
    return merged


def _sanitize_rows(rows: List[Dict]) -> List[Dict]:
    """Coerce row values to plain Python scalars for JSON storage."""
    sanitized = []
    for row in rows:
        clean = {}
        for key, value in row.items():
            if hasattr(value, "item"):       # numpy scalar
                value = value.item()
            clean[key] = value
        sanitized.append(clean)
    return sanitized


@dataclass
class ExperimentRunner:
    """Run registry experiments with result caching and batch routing.

    Args:
        cache_dir: directory for the persistent JSON result store; ``None``
            keeps the cache in memory only (per-runner).
        batched: route batch-capable experiments through the batched solver
            engine (default on).
    """

    cache_dir: Optional[str] = None
    batched: bool = True
    _memory: Dict[str, List[Dict]] = field(default_factory=dict, repr=False)
    hits: int = field(default=0, repr=False)
    misses: int = field(default=0, repr=False)

    # -- public API ---------------------------------------------------------
    def run(self, identifier: str, use_cache: bool = True, **kwargs) -> List[Dict]:
        """Run one experiment, serving repeated calls from the cache.

        Keyword arguments are forwarded to the registry driver.  Calls whose
        kwargs are not JSON-serializable (e.g. a pre-built ``program``
        object) always execute and are never cached.
        """
        from .registry import run_experiment

        if identifier in BATCH_ROUTED_EXPERIMENTS:
            kwargs.setdefault("batched", self.batched)
        key = self.cache_key(identifier, kwargs)
        if key is not None and use_cache:
            cached = self._lookup(key)
            if cached is not None:
                self.hits += 1
                return [dict(row) for row in cached]
        rows = run_experiment(identifier, **kwargs)
        if key is not None:
            self.misses += 1
            self._insert(key, _sanitize_rows(rows))
        return rows

    def cache_key(self, identifier: str, kwargs: Dict) -> Optional[str]:
        """Stable cache key, or ``None`` when the call is not cacheable.

        The key covers the *effective* call: explicit kwargs are merged over
        the driver's own defaults (resolved via ``inspect.signature``), so a
        sweep run with the default design point or fidelity is re-keyed
        when those defaults change in code — and an explicit
        ``fig6(design_point=<default>)`` shares its cache entry with the
        implicit call.  The design-space fingerprint ties every key to the
        hardware catalog contents.
        """
        normalized = _normalize(_effective_kwargs(identifier, kwargs))
        if not _jsonable(normalized):
            return None
        payload = json.dumps(
            {"version": _CACHE_VERSION, "experiment": identifier,
             "kwargs": normalized, "problem": workload_fingerprint(),
             "design_space": _design_fingerprint()},
            sort_keys=True)
        return "{}-{}".format(
            identifier, hashlib.sha256(payload.encode()).hexdigest()[:24])

    def invalidate(self) -> None:
        """Drop every cached result (memory and disk)."""
        self._memory.clear()
        if self.cache_dir and os.path.isdir(self.cache_dir):
            for name in os.listdir(self.cache_dir):
                if name.endswith(".json"):
                    os.remove(os.path.join(self.cache_dir, name))

    # -- cache internals -------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key + ".json")

    def _lookup(self, key: str) -> Optional[List[Dict]]:
        if key in self._memory:
            return self._memory[key]
        if self.cache_dir:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path) as handle:
                        rows = json.load(handle)
                except (OSError, ValueError):
                    return None
                self._memory[key] = rows
                return rows
        return None

    def _insert(self, key: str, rows: List[Dict]) -> None:
        self._memory[key] = rows
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(self._path(key), "w") as handle:
                json.dump(rows, handle)


_DEFAULT_RUNNER = ExperimentRunner()


def run_cached(identifier: str, **kwargs) -> List[Dict]:
    """Run an experiment through the shared in-memory default runner."""
    return _DEFAULT_RUNNER.run(identifier, **kwargs)
