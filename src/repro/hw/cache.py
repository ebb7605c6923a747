"""Last-level-cache contention model (paper §V, future work #1).

The paper's second evaluation observes a small, unexplained performance
drop for large instances and attributes it to "other factor[s] than CPU
cycle allocation (e.g., cache allocation)", proposing cache-aware vCPU
prioritisation as future work.  This model supplies the missing physics:
when more runnable threads than physical cores share the LLC, every
thread's effective instruction throughput degrades even though its clock
frequency is unchanged:

    slowdown = 1 / (1 + alpha * max(0, runnable/physical_cores - 1))

``alpha`` calibrates how steeply IPC falls with oversubscription;
``alpha = 0`` disables the model.  The slowdown applies to *work done*
(MHz-equivalents absorbed by workloads), never to the cycle accounting
the controller reads — cache pressure does not change ``cpu.stat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CacheContentionModel:
    """IPC degradation under thread oversubscription."""

    physical_cores: int
    alpha: float = 0.15

    def __post_init__(self) -> None:
        if self.physical_cores <= 0:
            raise ValueError("physical_cores must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    def slowdown(self, runnable_threads: int) -> float:
        """Multiplier in (0, 1] applied to effective work throughput."""
        if runnable_threads < 0:
            raise ValueError("runnable_threads must be >= 0")
        pressure = max(0.0, runnable_threads / self.physical_cores - 1.0)
        return 1.0 / (1.0 + self.alpha * pressure)

    def effective_mhz(self, freq_mhz, runnable_threads: int):
        """Work-rate a thread achieves at ``freq_mhz`` (a float or an
        array of them) under contention."""
        if np.min(freq_mhz) < 0:
            raise ValueError("negative frequency")
        return freq_mhz * self.slowdown(runnable_threads)
