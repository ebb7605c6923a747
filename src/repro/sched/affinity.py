"""Thread → core placement model.

The controller estimates a vCPU's virtual frequency from the frequency of
the core the thread *last ran on* (``/proc/<tid>/stat`` field 39).  The
paper's §III-B1 assumption is that heavily loaded threads migrate rarely
while lightly loaded threads move often — and that under load all cores
run at about the same frequency, so occasional stale locations are
harmless.  This model reproduces exactly that: sticky placement for busy
threads, frequent rebalancing for idle ones, deterministic via a seeded
RNG.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Sequence

import numpy as np

#: Threads above this utilisation are considered "busy" and sticky.
BUSY_THRESHOLD: float = 0.5

#: Per-tick migration probability for busy / idle threads.
BUSY_MIGRATION_P: float = 0.02
IDLE_MIGRATION_P: float = 0.5


class AffinityModel:
    """Tracks which core each thread last ran on."""

    def __init__(self, num_cpus: int, seed: int = 0) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        self.num_cpus = num_cpus
        self._rng = np.random.default_rng(seed)
        self._placement: Dict[int, int] = {}

    def core_of(self, tid: int) -> int:
        """Last core the thread ran on (threads start on a random core)."""
        core = self._placement.get(tid)
        if core is None:
            core = int(self._rng.integers(self.num_cpus))
            self._placement[tid] = core
        return core

    def forget(self, tid: int) -> None:
        self._placement.pop(tid, None)

    def step(self, tids: Sequence[int], utilisations: Sequence[float], dt: float) -> List[int]:
        """Advance placement one tick; returns the (new) core per thread.

        ``utilisations`` are per-thread fractions of one core consumed in
        the elapsed tick.  Migration probabilities are scaled by ``dt`` so
        the model is tick-size independent.  This per-thread loop is the
        reference for :meth:`place`, which the node step runs.
        """
        if len(tids) != len(utilisations):
            raise ValueError("tids and utilisations length mismatch")
        cores: List[int] = []
        util = np.asarray(utilisations, dtype=np.float64)
        busy = util >= BUSY_THRESHOLD
        p_move = np.where(busy, BUSY_MIGRATION_P, IDLE_MIGRATION_P) * min(dt, 1.0)
        moves = self._rng.random(len(tids)) < p_move
        targets = self._rng.integers(self.num_cpus, size=len(tids))
        for tid, mv, target in zip(tids, moves, targets):
            if mv or tid not in self._placement:
                self._placement[tid] = int(target)
            cores.append(self._placement[tid])
        return cores

    def place(self, tids: Sequence[int], util: np.ndarray, dt: float) -> np.ndarray:
        """:meth:`step` on arrays: the same draws and placements, with
        the cores returned as an integer array."""
        busy = util >= BUSY_THRESHOLD
        p_move = np.where(busy, BUSY_MIGRATION_P, IDLE_MIGRATION_P) * min(dt, 1.0)
        moves = self._rng.random(len(tids)) < p_move
        targets = self._rng.integers(self.num_cpus, size=len(tids))
        prev = np.fromiter(
            map(self._placement.get, tids, repeat(-1)), dtype=np.int64, count=len(tids)
        )
        cores = np.where(moves | (prev < 0), targets, prev)
        self._placement.update(zip(tids, cores.tolist()))
        return cores

    def load_from_cores(self, cores: np.ndarray, util: np.ndarray) -> np.ndarray:
        """:meth:`load_per_core` for threads already placed on ``cores``."""
        load = np.bincount(cores, util, minlength=self.num_cpus)
        return self._balance(load)

    def load_per_core(self, tids: Sequence[int], utilisations: Sequence[float]) -> np.ndarray:
        """Aggregate thread utilisation onto cores (for the DVFS model).

        CFS load-balances continuously, so in addition to the discrete
        placement we spread each thread's load over its core with any
        overflow shared evenly — giving smooth per-core utilisation that
        still correlates with placement.
        """
        load = np.zeros(self.num_cpus)
        for tid, util in zip(tids, utilisations):
            load[self.core_of(tid)] += util
        return self._balance(load)

    @staticmethod
    def _balance(load: np.ndarray) -> np.ndarray:
        # Kernel load balancing: shave overload above 1.0 and spread it.
        # (np.maximum/np.minimum and add-reduce are np.clip and .sum()
        # without their Python-level dispatch.)
        overflow = np.add.reduce(np.maximum(load - 1.0, 0.0))
        load = np.minimum(np.maximum(load, 0.0), 1.0)
        headroom = 1.0 - load
        total_headroom = np.add.reduce(headroom)
        if overflow > 0 and total_headroom > 0:
            load += headroom * min(1.0, overflow / total_headroom)
        return load
