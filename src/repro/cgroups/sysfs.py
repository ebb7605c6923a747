"""``/sys/devices/system/cpu/cpu<i>/cpufreq`` emulation.

The controller reads ``scaling_cur_freq`` for the core a vCPU thread last
ran on to estimate the vCPU's virtual frequency (paper §III-B1).  Like the
real kernel, values are reported in **kHz** (the paper says "Hertz" but
cpufreq sysfs has always been kHz; the conversion lives in one place in
``repro.core.units``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class CpuFreqSysFS:
    """Read-only view over per-core frequencies maintained by the HW model."""

    def __init__(self, freqs_khz: Sequence[float], min_khz: float, max_khz: float) -> None:
        self._freqs_khz = np.array(freqs_khz, dtype=np.float64)
        self.min_khz = min_khz
        self.max_khz = max_khz

    @property
    def num_cpus(self) -> int:
        return len(self._freqs_khz)

    def update(self, freqs_khz: Sequence[float]) -> None:
        """Called by the hardware model each step with fresh frequencies."""
        if len(freqs_khz) != len(self._freqs_khz):
            raise ValueError("core count changed")
        self._freqs_khz = np.array(freqs_khz, dtype=np.float64)

    def read(self, path: str) -> str:
        """Read a sysfs path such as
        ``/sys/devices/system/cpu/cpu3/cpufreq/scaling_cur_freq``."""
        parts = [p for p in path.split("/") if p]
        try:
            cpu_part = next(p for p in parts if p.startswith("cpu") and p[3:].isdigit())
        except StopIteration:
            raise FileNotFoundError(f"not a per-cpu path: {path}") from None
        core = int(cpu_part[3:])
        fname = parts[-1]
        return self._read_core_file(core, fname)

    def scaling_cur_freq(self, core: int) -> int:
        """Current frequency of ``core`` in kHz (rounded, as the kernel does)."""
        self._check(core)
        return int(round(self._freqs_khz[core]))

    def scaling_cur_freqs(self) -> np.ndarray:
        """Every core's :meth:`scaling_cur_freq`, as one float array."""
        return np.rint(self._freqs_khz)

    def _read_core_file(self, core: int, fname: str) -> str:
        self._check(core)
        if fname == "scaling_cur_freq":
            return f"{self.scaling_cur_freq(core)}\n"
        if fname == "cpuinfo_min_freq" or fname == "scaling_min_freq":
            return f"{int(self.min_khz)}\n"
        if fname == "cpuinfo_max_freq" or fname == "scaling_max_freq":
            return f"{int(self.max_khz)}\n"
        raise FileNotFoundError(f"no such cpufreq file: {fname}")

    def _check(self, core: int) -> None:
        if not 0 <= core < len(self._freqs_khz):
            raise FileNotFoundError(f"no such cpu: cpu{core}")
