"""Durable campaign runs: content-addressed run dirs + a checksummed journal.

This module is the persistence half of the fault-tolerant execution layer
(:mod:`repro.fleet.supervisor` is the process-supervision half).  A campaign
run with ``checkpoint_dir=`` set gets a *run directory* addressed by the
sha256 of its serialized spec::

    <checkpoint_dir>/<name>-<spec_sha256[:12]>/
        meta.json       # spec + execution plan, written once, atomic rename
        journal.jsonl   # append-only completion journal, crc per record
        result.json     # final rows, atomic rename on completion
        partial.json    # last partial rows, atomic rename on interrupt

The journal is the source of truth.  A committed chunk is an ``episode``
record per result (or a ``fail`` record per quarantined episode) followed
by one ``commit`` record carrying the chunk's scheduler stats; campaign
aggregates are recomputed from the results, never journaled.  Each result
type owns its wire format (``to_dict``/``from_dict``, tagged with the
workload under ``"kind"``); :func:`result_from_dict` picks the type by
that tag.  Every record is one JSON line carrying a CRC-32 of its
canonical serialization; a reader stops at the first record that fails to
parse or checksum and *truncates* the torn tail (a crash can only corrupt
the suffix of an append-only file, so everything before the first bad
record is intact).
Appends are fsync'd in bounded chunks — every ``fsync_every`` records and
at every chunk-commit record — so the window of episodes that can be lost
to a power cut is bounded and small.

Resumability is exact because execution is planned in deterministic
*chunks* (:func:`plan_chunks`): the chunk an episode belongs to depends
only on the spec and the recorded plan, never on which worker ran it or
when, and a chunk re-runs in full or not at all.  Batched-GEMM round-off
depends on batch shapes, so re-running a *whole* chunk reproduces its
results bit-for-bit — which is what makes ``interrupt anywhere + resume``
byte-identical to an uninterrupted run (``tests/fleet/test_chaos.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..drone.disturbance import RecoveryResult
from ..hil.metrics import ScenarioResult
from .campaign import SPEC_SCHEMA_VERSION, CampaignSpec, EpisodeSpec
from .design_point import DesignPointResult
from .scheduler import SchedulerStats

__all__ = [
    "RUN_SCHEMA_VERSION", "DEFAULT_LEASE_SIZE", "ExecutionPlan",
    "EpisodeFailure", "CampaignInterrupted", "RunJournal", "ReplayState",
    "atomic_write_json", "canonical_json", "spec_payload", "spec_digest",
    "resolve_run_dir", "prepare_run", "shard_indices", "plan_chunks",
    "ChunkPlan",
    "result_to_dict", "result_from_dict", "stats_to_dict", "stats_from_dict",
    "replay_journal",
]

# Version of the run-directory layout and journal record format.  Tracks the
# spec schema (a spec schema bump invalidates checkpoints anyway) but can
# move independently if only the journal format changes.
# v2 journals hold only ``episode``/``fail``/``commit`` records and v2 plans
# only shards, lease size and batching; v1 run directories are refused.
RUN_SCHEMA_VERSION = 2

# Episodes per chunk of a checkpointed run when the caller does not choose.
# The chunk is the atomic unit of both checkpointing and batched round-off.
# A chunk flies its episodes in lockstep, and one control tick (an ADMM
# dispatch plus the physics ticks up to the next) costs about the same at
# any width, so narrow chunks pay it for few episodes.  One in-process
# chunk of the Fig. 17 suite (84 episodes; 2-vCPU host, numpy kernels;
# medians of three runs, docs/perf.md#chunk-cost):
#     width          8     16     32     64     84
#     ms/episode   101     73     44     33     30
# A crash loses at most one chunk per worker: about 2.1 s of work at 64
# (1.2 s at 16), for an episode 2.2x cheaper than at 16.
DEFAULT_LEASE_SIZE = 64

_META_NAME = "meta.json"
_JOURNAL_NAME = "journal.jsonl"


# ---------------------------------------------------------------------------
# Small JSON plumbing
# ---------------------------------------------------------------------------

def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    Uses Python's JSON dialect (``Infinity``/``NaN`` literals allowed):
    journal payloads legitimately carry ``inf`` (e.g. ``max_deviation`` of
    an instantly-crashed episode) and the journal is read only by this
    module.  Files meant for external consumers (``result.json`` rows) are
    sanitized upstream.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def atomic_write_json(path: str, payload, indent: int = 2) -> None:
    """Write JSON via a same-directory temp file + atomic rename."""
    tmp = "{}.tmp.{}".format(path, os.getpid())
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Episode result (de)serialization
# ---------------------------------------------------------------------------

# The result type of each workload, keyed by the "kind" tag its to_dict
# writes.
_RESULT_TYPES = {"waypoint": ScenarioResult, "recovery": RecoveryResult,
                 "design_point": DesignPointResult}


def result_to_dict(result) -> Dict[str, object]:
    """JSON-safe rendering of an episode result of any workload.

    Exact inverse of :func:`result_from_dict`: every float survives the
    round trip bit-for-bit (JSON encodes doubles via ``repr``), so a
    journal-replayed result is indistinguishable from a freshly computed
    one — the property the crash-equivalence tests assert.
    """
    if not isinstance(result, tuple(_RESULT_TYPES.values())):
        raise TypeError("unknown episode result type: {!r}".format(
            type(result)))
    return result.to_dict()


def result_from_dict(payload: Dict[str, object]):
    """Inverse of :func:`result_to_dict`."""
    try:
        result_type = _RESULT_TYPES[payload["kind"]]
    except KeyError:
        raise ValueError("unknown episode result kind {!r}".format(
            payload.get("kind"))) from None
    return result_type.from_dict(payload)


def stats_to_dict(stats: SchedulerStats) -> Dict[str, object]:
    return {"episodes": stats.episodes, "groups": stats.groups,
            "dispatches": stats.dispatches, "solves": stats.solves,
            "batched_solves": stats.batched_solves,
            "scalar_solves": stats.scalar_solves,
            "batch_widths": [int(w) for w in stats.batch_widths]}


def stats_from_dict(payload: Dict[str, object]) -> SchedulerStats:
    return SchedulerStats(
        episodes=int(payload["episodes"]), groups=int(payload["groups"]),
        dispatches=int(payload["dispatches"]), solves=int(payload["solves"]),
        batched_solves=int(payload["batched_solves"]),
        scalar_solves=int(payload["scalar_solves"]),
        batch_widths=[int(w) for w in payload["batch_widths"]])


# ---------------------------------------------------------------------------
# Structured episode failure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpisodeFailure:
    """One quarantined episode: the structured row that replaces a crash.

    When an episode keeps failing after the supervisor's retries and chunk
    bisection have isolated it, the campaign records this row (journal +
    :attr:`CampaignResult.failures`) and carries on — a poisoned episode
    costs one row, not the other 999 episodes' work.
    """

    index: int
    label: str
    stage: str              # "build" | "run" | "worker-death" | "timeout"
    error_type: str
    message: str
    attempts: int
    chunk_id: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "label": self.label, "stage": self.stage,
                "error_type": self.error_type, "message": self.message,
                "attempts": self.attempts, "chunk_id": self.chunk_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EpisodeFailure":
        return cls(index=int(payload["index"]), label=payload["label"],
                   stage=payload["stage"], error_type=payload["error_type"],
                   message=payload["message"],
                   attempts=int(payload["attempts"]),
                   chunk_id=payload.get("chunk_id", ""))

    def as_row(self) -> Dict[str, object]:
        row = dict(self.to_dict())
        row["status"] = "quarantined"
        return row


class CampaignInterrupted(KeyboardInterrupt):
    """A supervised campaign was interrupted; progress is journaled.

    Raised out of the supervisor after workers are torn down and the
    journal is flushed.  ``partial_rows`` are the per-cell aggregate rows
    over every episode journaled so far; ``run_dir`` is what ``--resume``
    takes.  Subclasses ``KeyboardInterrupt`` so callers that do not know
    about checkpointing still unwind like a plain Ctrl-C.
    """

    def __init__(self, run_dir: str, completed: int, total: int,
                 partial_rows: Optional[List[Dict[str, object]]] = None):
        super().__init__("campaign interrupted at {}/{} episodes".format(
            completed, total))
        self.run_dir = run_dir
        self.completed = completed
        self.total = total
        self.partial_rows = partial_rows or []


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

def _record_crc(record: Dict[str, object]) -> int:
    return zlib.crc32(canonical_json(record).encode("utf-8")) & 0xFFFFFFFF


def _encode_record(record: Dict[str, object]) -> bytes:
    line = dict(record)
    line["crc"] = _record_crc(record)
    return (canonical_json(line) + "\n").encode("utf-8")


def _decode_record(line: bytes) -> Optional[Dict[str, object]]:
    """Parse + checksum one journal line; ``None`` if torn/corrupt."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    if crc != _record_crc(record):
        return None
    return record


def scan_journal(path: str) -> Tuple[List[Dict[str, object]], int, bool]:
    """Read every intact record; returns ``(records, good_bytes, torn)``.

    Stops at the first record that fails to parse or checksum: an
    append-only file damaged by a crash is intact up to some offset and
    garbage after it, so everything past the first bad record is the torn
    tail.  ``good_bytes`` is the offset the file should be truncated to
    before appending resumes.
    """
    records: List[Dict[str, object]] = []
    good_bytes = 0
    torn = False
    if not os.path.exists(path):
        return records, good_bytes, torn
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:          # unterminated final line: torn mid-append
            torn = True
            break
        line = data[offset:newline]
        record = _decode_record(line)
        if record is None:
            torn = True
            break
        records.append(record)
        offset = newline + 1
        good_bytes = offset
    if not torn and good_bytes < len(data):
        torn = True
    return records, good_bytes, torn


class RunJournal:
    """Append-only, checksummed, bounded-fsync episode-completion journal."""

    def __init__(self, path: str, fsync_every: int = 32) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be at least 1")
        self.path = path
        self.fsync_every = fsync_every
        self._handle = None
        self._since_sync = 0

    def open(self) -> List[Dict[str, object]]:
        """Recover every intact record, discard the torn tail, open for
        append.  Returns the recovered records."""
        records, good_bytes, torn = scan_journal(self.path)
        if torn:
            # Discard the tail in place so the next append starts at the
            # last intact record boundary.
            with open(self.path, "rb+") as handle:
                handle.truncate(good_bytes)
        self._handle = open(self.path, "ab")
        self._since_sync = 0
        return records

    def append(self, record: Dict[str, object], sync: bool = False) -> None:
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.write(_encode_record(record))
        self._since_sync += 1
        if sync or self._since_sync >= self.fsync_every:
            self.flush()

    def flush(self) -> None:
        if self._handle is None or self._since_sync == 0:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# Execution plan + chunking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPlan:
    """Everything that pins a run's numerics and outputs besides the spec.

    ``shards`` and ``lease_size`` fix chunk membership (and therefore the
    batched-GEMM round-off profile); ``batching``/``max_batch`` fix the
    solve path.  A resume must execute the recorded plan — the number of
    *live* workers may differ (any worker can run any chunk), the plan may
    not.
    """

    shards: int
    lease_size: int
    batching: bool = True
    max_batch: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {"shards": self.shards, "lease_size": self.lease_size,
                "batching": self.batching, "max_batch": self.max_batch}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExecutionPlan":
        return cls(shards=int(payload["shards"]),
                   lease_size=int(payload["lease_size"]),
                   batching=bool(payload["batching"]),
                   max_batch=payload["max_batch"])


@dataclass(frozen=True)
class ChunkPlan:
    """One atomic unit of execution: a lease, a journal commit, a re-run.

    ``batching=False`` children are produced by bisecting a failing chunk:
    the scalar path is bit-for-bit independent of grouping, so splitting a
    failing chunk any which way to isolate the poisoned episode cannot
    perturb the surviving episodes' numbers.
    """

    chunk_id: str
    indices: Tuple[int, ...]
    batching: bool

    def halves(self) -> Tuple["ChunkPlan", "ChunkPlan"]:
        if len(self.indices) < 2:
            raise ValueError("cannot bisect a singleton chunk")
        mid = len(self.indices) // 2
        return (ChunkPlan(self.chunk_id + "a", self.indices[:mid], False),
                ChunkPlan(self.chunk_id + "b", self.indices[mid:], False))


def shard_indices(count: int, shards: int) -> List[List[int]]:
    """Deterministic round-robin partition of ``range(count)``.

    Every index appears exactly once; shard ``s`` owns ``s, s+shards, ...``.
    Empty shards are dropped (when ``shards > count``).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    parts = [list(range(start, count, shards)) for start in range(shards)]
    return [part for part in parts if part]


def plan_chunks(count: int, plan: ExecutionPlan) -> List[ChunkPlan]:
    """Deterministic chunking: round-robin shards split into leases.

    The only partitioner of a campaign.  Shards are the
    :func:`shard_indices` round-robin (each shard sees a representative
    slice of the grid, so batch groups stay wide); each shard's index list
    is then cut into contiguous leases of ``lease_size``.  Chunk ids are
    zero-padded so lexicographic order *is* plan order — bisected children
    (``c0003a`` < ``c0003b``) sort inside their parent's slot, which is the
    deterministic merge order for chunk stats.
    """
    chunks: List[ChunkPlan] = []
    width = max(4, len(str(max(count, 1))))
    for shard in shard_indices(count, plan.shards):
        for start in range(0, len(shard), plan.lease_size):
            lease = tuple(shard[start:start + plan.lease_size])
            chunks.append(ChunkPlan("c{:0{}d}".format(len(chunks), width),
                                    lease, plan.batching))
    return chunks


# ---------------------------------------------------------------------------
# Run directory
# ---------------------------------------------------------------------------

def spec_payload(campaign: Optional[CampaignSpec],
                 episode_specs: Sequence[EpisodeSpec]) -> Dict[str, object]:
    """The serialized identity of a run's workload."""
    if campaign is not None:
        return {"kind": "campaign", "spec": campaign.to_dict()}
    return {"kind": "episodes",
            "episodes": [spec.to_dict() for spec in episode_specs]}


def spec_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def resolve_run_dir(checkpoint_dir: str, name: str, digest: str) -> str:
    """The run directory for a workload under ``checkpoint_dir``.

    If ``checkpoint_dir`` itself holds a ``meta.json`` it *is* a run
    directory (the ``--resume <dir>`` form); otherwise a content-addressed
    child directory is used, so distinct campaigns sharing one checkpoint
    root never collide.
    """
    if os.path.exists(os.path.join(checkpoint_dir, _META_NAME)):
        return checkpoint_dir
    safe_name = "".join(c if c.isalnum() or c in "-_." else "_"
                        for c in name) or "campaign"
    return os.path.join(checkpoint_dir, "{}-{}".format(safe_name, digest[:12]))


# How a caller sets each plan field: run_campaign keyword and CLI flag.
_PLAN_OPTIONS = {"shards": ("workers", "--workers"),
                 "lease_size": ("lease_size", "--lease-size"),
                 "batching": ("batching", "--no-batching"),
                 "max_batch": ("max_batch", "--max-batch")}


def _plan_option(name: str, value) -> str:
    """``lease_size=16 / --lease-size 16``: how to ask for a plan value."""
    keyword, flag = _PLAN_OPTIONS[name]
    if value is None or value is True:
        cli = "without " + flag
    elif value is False:
        cli = flag
    else:
        cli = "{} {}".format(flag, value)
    return "{}={!r} / {}".format(keyword, value, cli)


def prepare_run(checkpoint_dir: str, campaign: Optional[CampaignSpec],
                episode_specs: Sequence[EpisodeSpec],
                plan: ExecutionPlan) -> Tuple[str, Dict[str, object], bool]:
    """Create or validate a run directory; returns ``(run_dir, meta, fresh)``.

    A pre-existing run directory must match on schema version, workload,
    and execution plan — anything else is a loud error, never a silent
    mis-resume:

    * schema mismatch → migration error (stale checkpoint from another
      build);
    * spec mismatch → the directory belongs to a different campaign;
    * plan mismatch → the recorded plan pins chunk membership and solve
      numerics; resuming under a different plan would not be bit-identical.
    """
    workload = spec_payload(campaign, episode_specs)
    digest = spec_digest(workload)
    run_dir = resolve_run_dir(checkpoint_dir, getattr(campaign, "name", None)
                              or "episodes", digest)
    meta_path = os.path.join(run_dir, _META_NAME)
    if os.path.exists(meta_path):
        with open(meta_path) as handle:
            meta = json.load(handle)
        version = meta.get("run_schema_version")
        if version != RUN_SCHEMA_VERSION:
            raise ValueError(
                "checkpoint {} was written with run schema v{!r} but this "
                "build reads v{}; stale checkpoints cannot be resumed — "
                "delete the run directory and re-run from scratch"
                .format(run_dir, version, RUN_SCHEMA_VERSION))
        if meta.get("spec_sha256") != digest:
            raise ValueError(
                "checkpoint {} records a different campaign (spec sha256 "
                "{}.. != {}..); use a fresh --checkpoint-dir"
                .format(run_dir, str(meta.get("spec_sha256"))[:12],
                        digest[:12]))
        recorded = ExecutionPlan.from_dict(meta["plan"])
        if recorded != plan:
            requested = plan.to_dict()
            changed = [(name, value, requested[name])
                       for name, value in recorded.to_dict().items()
                       if value != requested[name]]
            raise ValueError(
                "checkpoint {} was created under a different execution "
                "plan ({}); the plan pins chunk membership and batch "
                "round-off, so resume with the recorded plan ({}) or use "
                "a fresh --checkpoint-dir".format(
                    run_dir,
                    "; ".join("{}: recorded {!r}, requested {!r}".format(*c)
                              for c in changed),
                    "; ".join(_plan_option(name, value)
                              for name, value, _ in changed)))
        return run_dir, meta, False
    os.makedirs(run_dir, exist_ok=True)
    meta = {
        "run_schema_version": RUN_SCHEMA_VERSION,
        "spec_schema_version": SPEC_SCHEMA_VERSION,
        "spec_sha256": digest,
        "workload": workload,
        "plan": plan.to_dict(),
        "episodes": len(episode_specs),
    }
    atomic_write_json(meta_path, meta)
    return run_dir, meta, True


def journal_path(run_dir: str) -> str:
    return os.path.join(run_dir, _JOURNAL_NAME)


# ---------------------------------------------------------------------------
# Journal replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayState:
    """Committed chunks and their outputs: recovered from a journal, or
    recorded live (:meth:`commit`) as a run completes chunks.

    Episode records belonging to a chunk with no commit record are
    discarded — a partially-journaled chunk re-runs in full, which is what
    keeps batched round-off identical to an uninterrupted run.
    """

    committed: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    results: Dict[int, Dict[str, object]] = field(default_factory=dict)
    failures: Dict[int, EpisodeFailure] = field(default_factory=dict)
    stats: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def completed_episodes(self) -> int:
        return (sum(len(indices) for indices in self.committed.values()))

    def commit(self, chunk: ChunkPlan, payload: Dict[str, object]) -> None:
        """Record a completed chunk's payload (results and stats) — the
        live counterpart of replaying its journal records."""
        self.committed[chunk.chunk_id] = chunk.indices
        self.results.update(zip(chunk.indices, payload["results"]))
        self.stats[chunk.chunk_id] = payload["stats"]


def replay_journal(records: Sequence[Dict[str, object]]) -> ReplayState:
    """Fold journal records into the set of durably-completed work."""
    staged_results: Dict[str, Dict[int, Dict[str, object]]] = {}
    staged_failures: Dict[str, Dict[int, EpisodeFailure]] = {}
    state = ReplayState()
    for record in records:
        kind = record.get("t")
        chunk_id = record.get("c")
        if kind == "episode":
            staged_results.setdefault(chunk_id, {})[record["i"]] = record["r"]
        elif kind == "fail":
            staged_failures.setdefault(chunk_id, {})[record["i"]] = \
                EpisodeFailure.from_dict(record["f"])
        elif kind == "commit":
            indices = tuple(int(i) for i in record["i"])
            chunk_results = staged_results.pop(chunk_id, {})
            chunk_failures = staged_failures.pop(chunk_id, {})
            if set(chunk_results) | set(chunk_failures) != set(indices):
                # Defensive: a commit whose staged records do not cover its
                # indices is treated as absent — the chunk simply re-runs.
                continue
            state.committed[chunk_id] = indices
            state.results.update(chunk_results)
            state.failures.update(chunk_failures)
            if "s" in record:
                state.stats[chunk_id] = record["s"]
    return state
