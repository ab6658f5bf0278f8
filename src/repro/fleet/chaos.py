"""Fault injection for the chaos harness (``tests/fleet/test_chaos.py``).

Faults are armed through the ``REPRO_CHAOS`` environment variable — a JSON
object, so the injection crosses ``multiprocessing`` start-method
boundaries (``spawn`` workers inherit the environment but not module
state)::

    REPRO_CHAOS='{"episode": 37, "mode": "kill", "max_triggers": 1,
                  "state": "/tmp/chaos.state"}'

* ``episode`` — campaign index at which to fire (the chunk function,
  :class:`~repro.fleet.supervisor.ChunkRunner`, calls
  :func:`maybe_inject` as each episode is built).
* ``mode`` — ``"raise"`` (deterministic exception: models a poisoned
  spec), ``"kill"`` (``SIGKILL`` to the current process: models OOM-kill /
  segfault), ``"hang"`` (sleep forever: models a wedged solver, trips the
  per-chunk timeout).
* ``max_triggers`` — total firings across *all* processes, counted through
  the ``state`` file (one appended byte per firing, which is atomic for
  O_APPEND writes), so "kill the worker once, succeed on retry" is
  expressible even though each retry runs in a fresh process.

Also hosts :func:`corrupt_journal`, the checkpoint-damage half of the
chaos harness: torn-tail truncation, mid-file bit flips, garbage appends.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Dict, Optional

__all__ = ["CHAOS_ENV", "ChaosError", "chaos_config", "maybe_inject",
           "corrupt_journal"]

CHAOS_ENV = "REPRO_CHAOS"


class ChaosError(RuntimeError):
    """The deterministic injected failure (``mode="raise"``)."""


def chaos_config(environ: Optional[Dict[str, str]] = None) -> Optional[Dict]:
    """Parse the armed fault, or ``None`` when chaos is off."""
    raw = (environ if environ is not None else os.environ).get(CHAOS_ENV)
    if not raw:
        return None
    config = json.loads(raw)
    if "episode" not in config or "mode" not in config:
        raise ValueError("REPRO_CHAOS needs 'episode' and 'mode' keys")
    return config


def _claim_trigger(config: Dict) -> bool:
    """Count a firing against ``max_triggers`` across processes.

    Appends one byte to the state file and fires only if the resulting
    size is within budget.  O_APPEND writes of a single byte are atomic,
    so concurrent workers cannot double-claim the last slot.
    """
    limit = config.get("max_triggers")
    if limit is None:
        return True
    state = config.get("state")
    if state is None:
        raise ValueError("REPRO_CHAOS max_triggers requires a 'state' file")
    fd = os.open(state, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, b"x")
        claimed = os.fstat(fd).st_size
    finally:
        os.close(fd)
    return claimed <= int(limit)


def maybe_inject(episode_index: int,
                 environ: Optional[Dict[str, str]] = None) -> None:
    """Fire the armed fault if this is the target episode.

    Called as each episode of a chunk is built, in-process or in a
    worker.  A no-op in the (overwhelmingly common) case where
    ``REPRO_CHAOS`` is unset.
    """
    config = chaos_config(environ)
    if config is None or int(config["episode"]) != episode_index:
        return
    if not _claim_trigger(config):
        return
    mode = config["mode"]
    if mode == "raise":
        raise ChaosError(
            "injected failure at episode {}".format(episode_index))
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        # Unreachable, but SIGKILL delivery is asynchronous in theory.
        time.sleep(60)
        return
    if mode == "hang":
        time.sleep(float(config.get("hang_s", 3600)))
        return
    raise ValueError("unknown REPRO_CHAOS mode {!r}".format(mode))


def corrupt_journal(path: str, mode: str = "truncate") -> None:
    """Damage a journal the way a crash (or bad disk) would.

    * ``"truncate"`` — cut the file mid-record (torn final append);
    * ``"flip"`` — flip one bit inside the last record (bad sector);
    * ``"garbage"`` — append a partial unterminated line of noise.

    All three must be detected by the per-record CRC / framing checks in
    :func:`repro.fleet.durable.scan_journal` and recovered by discarding
    the torn tail.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError("cannot corrupt an empty journal")
    with open(path, "rb+") as handle:
        if mode == "truncate":
            handle.truncate(max(size - 7, 1))
        elif mode == "flip":
            offset = max(size - 20, 0)
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0x10]))
        elif mode == "garbage":
            handle.seek(0, os.SEEK_END)
            handle.write(b'{"t":"episode","partial')
        else:
            raise ValueError("unknown corruption mode {!r}".format(mode))
