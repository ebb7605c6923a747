"""A physical machine: cores + kernel surfaces wired together.

A :class:`Node` owns everything a real host would expose to the paper's
controller — a cgroup filesystem, /proc, cpufreq sysfs — plus the models
behind them (CFS scheduler, DVFS, affinity, energy).  The simulation
engine pushes workload demand into scheduling entities and calls
:meth:`Node.step`; the controller only ever reads/writes the ``fs``,
``procfs`` and ``sysfs`` surfaces, exactly as on a real machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.cgroups.procfs import USER_HZ, ProcFS
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.hw.cpu import DvfsModel
from repro.hw.energy import EnergyMeter, PowerModel
from repro.hw.nodespecs import NodeSpec
from repro.sched.affinity import AffinityModel
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from repro.sched.topology import HostTopology

#: KVM/libvirt machine slice where VM cgroups live.
MACHINE_SLICE = "/machine.slice"


class Node:
    """One simulated physical machine."""

    def __init__(
        self,
        spec: NodeSpec,
        *,
        cgroup_version: CgroupVersion = CgroupVersion.V2,
        seed: int = 0,
        cache: "Optional[object]" = None,
    ) -> None:
        self.spec = spec
        #: Optional LLC contention model (repro.hw.cache); None disables it.
        self.cache = cache
        self.runnable_threads: int = 0
        self.fs = CgroupFS(cgroup_version)
        self.fs.makedirs(MACHINE_SLICE)
        self.procfs = ProcFS()
        self.dvfs = DvfsModel(
            num_cpus=spec.logical_cpus,
            fmax_mhz=spec.fmax_mhz,
            fmin_mhz=spec.fmin_mhz,
            jitter_mhz=spec.freq_jitter_mhz,
            seed=seed,
            domain_size=spec.freq_domain_size,
        )
        self.sysfs = CpuFreqSysFS(
            freqs_khz=self.dvfs.freqs_khz(),
            min_khz=spec.fmin_mhz * 1000.0,
            max_khz=spec.fmax_mhz * 1000.0,
        )
        self.affinity = AffinityModel(spec.logical_cpus, seed=seed + 1)
        #: The recursive scheduler; :meth:`step` runs the compiled
        #: :class:`HostTopology` instead, and this stays as its oracle.
        self.scheduler = CfsScheduler(self.fs, spec.logical_cpus)
        self.energy = EnergyMeter(PowerModel.for_spec(spec))
        self.clock_s: float = 0.0
        self._entities: Dict[int, SchedEntity] = {}
        self._registry_generation = 0
        self._topology: Optional[HostTopology] = None
        self._topology_key: tuple = ()
        #: Per-thread outcome of the last step, in topology order.
        self._last_alloc = np.zeros(0)
        self._last_cores = np.zeros(0, dtype=np.int64)

    def __getstate__(self) -> dict:
        # The topology's per-level views share its buffers, which a copy
        # or a pickle would split apart: copies rebuild it on first use.
        state = self.__dict__.copy()
        state["_topology"] = None
        return state

    # -- entity registry (populated by the hypervisor) ---------------------------

    def register_entity(self, entity: SchedEntity) -> None:
        if entity.tid in self._entities:
            raise ValueError(f"tid {entity.tid} already registered")
        self._entities[entity.tid] = entity
        self._registry_generation += 1

    def unregister_entity(self, tid: int) -> None:
        self._entities.pop(tid, None)
        self._registry_generation += 1
        self.affinity.forget(tid)

    def entity(self, tid: int) -> SchedEntity:
        return self._entities[tid]

    @property
    def entities(self) -> List[SchedEntity]:
        return list(self._entities.values())

    # -- simulation ---------------------------------------------------------------

    def topology(self) -> HostTopology:
        """The flat host topology, rebuilt after any structural change.

        A cgroup added or removed, a thread attached or detached (through
        :class:`CgroupFS` or on a :class:`CgroupNode` directly), an entity
        registered or unregistered, or a thread spawned or killed in
        procfs all invalidate it.  An entity's ``cgroup_path`` is read
        when the topology is built: move a thread by re-registering it.
        """
        key = (
            self.fs.root,
            self.fs.root.generation,
            self._registry_generation,
            self.procfs,
            self.procfs.generation,
        )
        if self._topology is None or key != self._topology_key:
            self._topology = HostTopology(self.fs.root, self.entities, self.procfs)
            self._topology_key = key
        return self._topology

    def step(self, dt: float) -> None:
        """Advance the machine by ``dt`` wall-seconds.

        Entity demands must have been set by the workload layer before
        the call; on return every entity's ``allocated`` holds the CPU
        time it received, all kernel surfaces are refreshed, and the
        energy meter has integrated the interval.
        """
        topo = self.topology()
        demand = topo.demands()
        self.runnable_threads = int(np.count_nonzero(demand > 0.05))
        alloc = topo.schedule(demand, dt, self.spec.logical_cpus)

        utils = alloc / dt
        cores = self.affinity.place(topo.tids, utils, dt)
        ticks = np.rint(alloc * USER_HZ).astype(np.int64).tolist()
        for stat, tick, core in zip(topo.stats, ticks, cores.tolist()):
            stat.utime_ticks += tick
            stat.processor = core
        self._last_alloc = alloc
        self._last_cores = cores

        core_load = self.affinity.load_from_cores(cores, utils)
        self.dvfs.step(core_load, dt)
        self.sysfs.update(self.dvfs.freqs_khz())

        # np.mean(core_load), without its Python-level dispatch
        node_util = float(np.add.reduce(core_load) / len(core_load)) if len(core_load) else 0.0
        self.energy.step(node_util, self.dvfs.mean_mhz(), dt)
        self.clock_s += dt

    # -- per-thread arrays of the last step ----------------------------------------

    def thread_slots(self, tids: Sequence[int]) -> np.ndarray:
        """Positions of ``tids`` in the per-thread arrays below."""
        slot_of = self.topology().slot_of_tid
        return np.array([slot_of[tid] for tid in tids], dtype=np.intp)

    @property
    def thread_allocated(self) -> np.ndarray:
        """CPU-seconds each thread received in the last step."""
        return self._last_alloc

    def thread_core_mhz(self) -> np.ndarray:
        """Frequency, as ``scaling_cur_freq`` reports it, of the core each
        thread last ran on: :meth:`core_frequency_mhz` of
        :meth:`last_core_of`, for every thread at once."""
        return self.sysfs.scaling_cur_freqs()[self._last_cores] / 1000.0

    # -- controller-facing helpers ---------------------------------------------------

    def utilisation(self) -> float:
        """Whole-node utilisation over the last tick (for reporting)."""
        if not self._entities:
            return 0.0
        total = sum(e.allocated for e in self._entities.values())
        return total  # caller divides by (num_cpus * dt) as needed

    def core_frequency_mhz(self, core: int) -> float:
        """Frequency of one core in MHz (reads through sysfs like the controller)."""
        return self.sysfs.scaling_cur_freq(core) / 1000.0

    def last_core_of(self, tid: int) -> int:
        """Core a thread last ran on (reads through /proc like the controller)."""
        return self.procfs.stat(tid).processor

    def effective_mhz(self, freq_mhz: float) -> float:
        """Work-rate at ``freq_mhz`` after LLC contention (if modelled).

        Cache pressure slows instruction throughput, not the clock — the
        controller's frequency estimate is deliberately unaffected.
        """
        if self.cache is None:
            return freq_mhz
        return self.cache.effective_mhz(freq_mhz, self.runnable_threads)


def make_node(
    spec: NodeSpec,
    *,
    cgroup_version: CgroupVersion = CgroupVersion.V2,
    seed: Optional[int] = None,
) -> Node:
    """Convenience factory with a deterministic default seed."""
    return Node(spec, cgroup_version=cgroup_version, seed=0 if seed is None else seed)
