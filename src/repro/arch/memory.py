"""Memory hierarchy latency/bandwidth model shared by the backends.

The control workload's data set is tiny (a few kilobytes of solver
workspace), so the interesting memory effects are not cache misses but the
*round trips* library-style code forces between functional units and the
memory system: vector loads/stores between matlib calls, Gemmini
mvin/mvout staging through DRAM, and fence-induced stalls.  The model
therefore exposes simple per-level latency and bandwidth numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryModel"]


@dataclass(frozen=True)
class MemoryModel:
    """Latencies (cycles) and bandwidths (bytes/cycle) of the memory system."""

    l1_latency: float = 2.0
    l1_bandwidth: float = 16.0          # bytes per cycle (one 128-bit port)
    l2_latency: float = 20.0
    l2_bandwidth: float = 16.0
    dram_latency: float = 80.0
    dram_bandwidth: float = 8.0
    scratchpad_latency: float = 1.0
    scratchpad_bandwidth: float = 64.0  # wide, banked scratchpad port

    def l1_access_cycles(self, num_bytes: int) -> float:
        """Streaming access that hits in the L1 (solver working set fits)."""
        if num_bytes <= 0:
            return 0.0
        return self.l1_latency + num_bytes / self.l1_bandwidth

    def dram_access_cycles(self, num_bytes: int) -> float:
        if num_bytes <= 0:
            return 0.0
        return self.dram_latency + num_bytes / self.dram_bandwidth

    def scratchpad_access_cycles(self, num_bytes: int) -> float:
        if num_bytes <= 0:
            return 0.0
        return self.scratchpad_latency + num_bytes / self.scratchpad_bandwidth
