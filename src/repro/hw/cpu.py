"""Per-core DVFS frequency model.

A schedutil-like governor: each core's target frequency grows with its
utilisation (with the kernel's 1.25x headroom factor) and is clamped to
``[fmin, fmax]``; the actual frequency tracks the target with first-order
inertia plus a small gaussian jitter whose magnitude is a property of the
CPU (paper: 16-37 MHz variance on the Xeon node, 88-150 MHz on the EPYC).

The property the paper's frequency-estimation shortcut relies on —
*"under load, all cores run at approximately the same speed"* — emerges
naturally: saturated cores all sit at ``fmax +- jitter``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: schedutil: next_freq = 1.25 * max_freq * util.
GOVERNOR_HEADROOM: float = 1.25

#: Fraction of the gap to the target closed per second (governor latency).
TRACKING_RATE: float = 8.0


class DvfsModel:
    """Vectorised frequency dynamics for all cores of one node."""

    def __init__(
        self,
        num_cpus: int,
        fmax_mhz: float,
        fmin_mhz: float,
        jitter_mhz: float = 0.0,
        seed: int = 0,
        domain_size: int = 1,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        if not 0 < fmin_mhz <= fmax_mhz:
            raise ValueError("need 0 < fmin <= fmax")
        if jitter_mhz < 0:
            raise ValueError("jitter must be >= 0")
        if domain_size <= 0 or num_cpus % domain_size != 0:
            raise ValueError(
                f"domain_size must divide num_cpus ({num_cpus}), got {domain_size}"
            )
        self.num_cpus = num_cpus
        self.fmax_mhz = fmax_mhz
        self.fmin_mhz = fmin_mhz
        self.jitter_mhz = jitter_mhz
        self.domain_size = domain_size
        self._rng = np.random.default_rng(seed)
        self._freqs = np.full(num_cpus, fmin_mhz, dtype=np.float64)

    @property
    def freqs_mhz(self) -> np.ndarray:
        """Current per-core frequencies (read-only view)."""
        view = self._freqs.view()
        view.flags.writeable = False
        return view

    def freqs_khz(self) -> np.ndarray:
        return self.freqs_mhz * 1000.0

    def step(self, core_utilisation: Sequence[float], dt: float) -> np.ndarray:
        """Advance one tick given per-core utilisation in [0, 1]."""
        util = np.asarray(core_utilisation, dtype=np.float64)
        if util.shape != (self.num_cpus,):
            raise ValueError(
                f"expected {self.num_cpus} utilisations, got shape {util.shape}"
            )
        if np.minimum.reduce(util) < -1e-9 or np.maximum.reduce(util) > 1.0 + 1e-9:
            raise ValueError("core utilisation must be within [0, 1]")
        # np.minimum/np.maximum rather than np.clip: the same values
        # without clip's Python-level dispatch, which dominates at the
        # few-core sizes of a small host.
        util = np.minimum(np.maximum(util, 0.0), 1.0)
        if self.domain_size > 1:
            # Cores in one DVFS domain share a clock; the governor picks
            # the domain frequency for its *hottest* core (as Zen does
            # per CCX), so a single busy core drags its siblings up.
            domains = util.reshape(-1, self.domain_size)
            util = np.repeat(domains.max(axis=1), self.domain_size)
        target = np.minimum(
            np.maximum(GOVERNOR_HEADROOM * self.fmax_mhz * util, self.fmin_mhz),
            self.fmax_mhz,
        )
        alpha = 1.0 - np.exp(-TRACKING_RATE * dt)
        self._freqs += alpha * (target - self._freqs)
        if self.jitter_mhz > 0:
            n_domains = self.num_cpus // self.domain_size
            noise = np.repeat(
                self._rng.normal(0.0, self.jitter_mhz, n_domains), self.domain_size
            )
            self._freqs = np.minimum(
                np.maximum(self._freqs + noise * np.sqrt(min(dt, 1.0)), self.fmin_mhz),
                self.fmax_mhz,
            )
        return self.freqs_mhz

    def mean_mhz(self) -> float:
        # np.mean's own arithmetic (one add-reduce, one divide), minus
        # its Python-level dispatch.
        return float(np.add.reduce(self._freqs) / self.num_cpus)

    def std_mhz(self) -> float:
        """Cross-core frequency spread (the paper's 'average variance')."""
        return float(self._freqs.std())
