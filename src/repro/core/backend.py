"""Batched host-backend I/O layer — all kernel-surface traffic for one node.

The paper reports that ~4 ms of the 5 ms iteration cost is *monitoring*
(§IV-A2): per-vCPU ``cpu.stat``, ``/proc/<tid>/stat`` and
``scaling_cur_freq`` reads dominate the loop.  The seed port repeated
that pattern — one filesystem call per file per tick, a fresh directory
walk every iteration, and an unconditional ``cpu.max`` write per vCPU.

:class:`HostBackend` owns every read and write the controller issues
against one node's kernel surfaces and batches them:

* :meth:`read_vcpu_samples` — a single-pass cgroup scan backed by a
  cached tid→cgroup map.  After the first full walk, a tick costs one
  ``readdir`` of the machine slice (the churn guard), one ``cpu.stat``
  read and one ``/proc/<tid>/stat`` read per vCPU, and one
  ``scaling_cur_freq`` read per *distinct core* — ``cgroup.threads``
  is never re-read while the topology is stable.  The map is
  invalidated on VM churn (register/unregister, a changed VM set, or a
  teardown race observed mid-scan).
* :meth:`write_caps` — coalesced ``cpu.max`` (v1: quota/period) writes
  that skip values already in place, so a converged controller writes
  nothing at all.
* :meth:`sample_all` / :meth:`apply_caps` — the bulk-array spelling of
  the same two passes: one :class:`SampleBatch` of NumPy columns in a
  stable slot order (the cached topology order, shared with
  :class:`~repro.core.soa.VcpuTable`), and a cap write pass driven by a
  dirty mask so only changed quotas touch the kernel.  The fast path
  reads the cgroup/proc/sysfs surfaces through cached per-slot handles
  — the simulated equivalent of an io_uring-batched read — with no
  per-vCPU string parse; it degrades to the list-based scan whenever
  the topology is unknown, the cgroup hierarchy is v1, or a fault
  plan is armed (faults inject at the per-file seam, which the handle
  path would bypass).
* per-batch wall-time and syscall-count stats
  (:attr:`HostBackend.stats`, :attr:`last_sample_batch`,
  :attr:`last_write_batch`) so the saving is measurable, not asserted.

``batched=False`` reproduces the seed access pattern exactly (fresh
walk, per-vCPU ``cgroup.threads`` read, unconditional writes) with the
same counters — the A/B used by ``benchmarks/bench_backend_batching.py``
and the backend unit tests.

The sample *values* are bit-identical in both modes: caching only
removes re-reads of immutable data (a vCPU cgroup's single KVM tid) and
duplicate reads of the same core's frequency within one batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cgroups.cpu import parse_cpu_stat
from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.cgroups.procfs import ProcFS, parse_stat_line
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.core.units import period_us

#: Default KVM/libvirt machine slice (mirrors repro.hw.node.MACHINE_SLICE
#: without importing the hw layer from core).
DEFAULT_MACHINE_SLICE = "/machine.slice"


@dataclass(frozen=True)
class VCpuSample:
    """Stage-1 output for one vCPU at one controller iteration."""

    vm_name: str
    vcpu_index: int
    cgroup_path: str
    tid: int
    consumed_cycles: float  # u_{i,j,t}: µs of CPU in the last period
    core: int
    core_freq_mhz: float
    vfreq_mhz: float  # estimated virtual frequency


@dataclass(frozen=True)
class VCpuSlot:
    """One entry of the cached tid→cgroup topology map."""

    vm_name: str
    vcpu_index: int
    cgroup_path: str
    tid: int


@dataclass
class SampleBatch:
    """One monitoring pass as parallel NumPy columns (bulk stage 1).

    Rows follow the backend's cached topology order and stay stable
    tick over tick while the VM set is unchanged — ``paths`` is the
    *same list object* across such ticks, so callers may key caches on
    its identity.  Values are bit-identical to the
    :class:`VCpuSample` list of :meth:`HostBackend.read_vcpu_samples`
    on the same node state (proved by the bulk parity tests).
    """

    period_s: float
    paths: List[str]
    vm_names: List[str]
    vcpu_indices: np.ndarray  # int64
    tids: np.ndarray  # int64
    usage_usec: np.ndarray  # float64, absolute counters
    consumed: np.ndarray  # float64, u_{i,j,t} µs over the period
    cores: np.ndarray  # int64
    core_freq_mhz: np.ndarray  # float64
    vfreq_mhz: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.paths)

    def to_samples(self, indices: Optional[Sequence[int]] = None) -> List[VCpuSample]:
        """Materialise (a subset of) the batch as VCpuSample objects."""
        rows = range(len(self.paths)) if indices is None else indices
        return [
            VCpuSample(
                vm_name=self.vm_names[i],
                vcpu_index=int(self.vcpu_indices[i]),
                cgroup_path=self.paths[i],
                tid=int(self.tids[i]),
                consumed_cycles=float(self.consumed[i]),
                core=int(self.cores[i]),
                core_freq_mhz=float(self.core_freq_mhz[i]),
                vfreq_mhz=float(self.vfreq_mhz[i]),
            )
            for i in rows
        ]

    @classmethod
    def from_samples(
        cls, samples: Sequence[VCpuSample], period_s: float
    ) -> "SampleBatch":
        n = len(samples)
        return cls(
            period_s=period_s,
            paths=[s.cgroup_path for s in samples],
            vm_names=[s.vm_name for s in samples],
            vcpu_indices=np.fromiter(
                (s.vcpu_index for s in samples), dtype=np.int64, count=n
            ),
            tids=np.fromiter((s.tid for s in samples), dtype=np.int64, count=n),
            usage_usec=np.zeros(n, dtype=np.float64),
            consumed=np.fromiter(
                (s.consumed_cycles for s in samples), dtype=np.float64, count=n
            ),
            cores=np.fromiter((s.core for s in samples), dtype=np.int64, count=n),
            core_freq_mhz=np.fromiter(
                (s.core_freq_mhz for s in samples), dtype=np.float64, count=n
            ),
            vfreq_mhz=np.fromiter(
                (s.vfreq_mhz for s in samples), dtype=np.float64, count=n
            ),
        )


@dataclass
class BackendStats:
    """Cumulative kernel-surface operation counters for one backend.

    Each field counts one class of would-be syscalls on a real host:
    a cgroupfs ``read()``/``write()``/``readdir()``, a ``/proc`` stat
    read, or a cpufreq sysfs read.  ``cap_writes_skipped`` counts
    ``cpu.max`` writes elided because the value was already in place;
    ``topology_rescans`` counts full directory walks.
    """

    fs_reads: int = 0
    fs_writes: int = 0
    fs_listdirs: int = 0
    proc_reads: int = 0
    sysfs_reads: int = 0
    cap_writes_skipped: int = 0
    topology_rescans: int = 0
    #: vCPUs skipped mid-scan (gone cgroup, dead tid, or — in tolerant
    #: mode — a transient read error on one of its files).
    vcpu_skips: int = 0
    #: Whole VM directories that vanished between readdir and descent.
    vm_skips: int = 0
    #: Transient read errors absorbed in tolerant mode (EIO and kin).
    read_errors: int = 0
    #: ``cpu.max`` writes that failed with a non-ENOENT error
    #: (recorded in :attr:`HostBackend.last_write_errors`).
    write_errors: int = 0

    @property
    def total_ops(self) -> int:
        """All filesystem operations actually issued (skips excluded)."""
        return (
            self.fs_reads
            + self.fs_writes
            + self.fs_listdirs
            + self.proc_reads
            + self.sysfs_reads
        )

    def copy(self) -> "BackendStats":
        return BackendStats(**self.as_dict())

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __sub__(self, other: "BackendStats") -> "BackendStats":
        return BackendStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "BackendStats") -> "BackendStats":
        return BackendStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )


@dataclass(frozen=True)
class BatchStats:
    """Wall time and operation delta of one batched backend call."""

    seconds: float
    ops: BackendStats


def vm_component(path: str, machine_slice: str = DEFAULT_MACHINE_SLICE) -> Optional[str]:
    """The VM directory component of a vCPU cgroup path.

    ``/machine.slice/vm-1/vcpu0`` → ``vm-1``;
    ``/machine.slice/foo/vm-1/vcpu0`` → ``foo`` (NOT ``vm-1`` — exact
    component matching is what fixes the old substring-based
    ``unregister_vm``).  Returns ``None`` for paths outside the slice.
    """
    prefix = machine_slice.rstrip("/") + "/"
    if not path.startswith(prefix):
        return None
    rest = path[len(prefix):]
    return rest.split("/", 1)[0] if rest else None


class HostBackend:
    """Batched, counted access to one node's kernel surfaces.

    ``procfs``/``sysfs`` may be ``None`` for write-only users (the
    enforcer standalone); monitoring through such a backend raises.
    """

    def __init__(
        self,
        fs: CgroupFS,
        procfs: Optional[ProcFS] = None,
        sysfs: Optional[CpuFreqSysFS] = None,
        *,
        machine_slice: str = DEFAULT_MACHINE_SLICE,
        batched: bool = True,
    ) -> None:
        self.fs = fs
        self.procfs = procfs
        self.sysfs = sysfs
        self.machine_slice = machine_slice
        self.batched = batched
        #: Absorb transient kernel-surface errors (EIO/EBUSY) instead of
        #: raising out of the batch: failed sample reads skip the vCPU,
        #: failed cap writes land in :attr:`last_write_errors`.  Off by
        #: default — the seed behaviour is fail-fast — and switched on
        #: by a controller running with a
        #: :class:`~repro.core.resilience.ResiliencePolicy`.
        self.tolerate_errors = False
        self.stats = BackendStats()
        self.last_sample_batch: Optional[BatchStats] = None
        self.last_write_batch: Optional[BatchStats] = None
        #: Per-path errors of the latest :meth:`write_caps` batch
        #: (tolerant mode only; vanished cgroups are not errors).
        self.last_write_errors: Dict[str, OSError] = {}
        self._topology: Optional[List[VCpuSlot]] = None
        self._topology_vms: Optional[List[str]] = None
        self._prev_usage: Dict[str, float] = {}
        self._last_cap: Dict[str, Tuple[int, int]] = {}
        #: Bumped whenever cap state is dropped out of band (``uncap``,
        #: ``forget_vcpu``) — callers tracking their own "quota already
        #: in force" view (the bulk dirty mask) must treat every row as
        #: dirty after the epoch moves.
        self.cap_epoch = 0
        self._bulk_handles: Optional[Dict[str, Any]] = None

    # -- counted primitives -----------------------------------------------------

    def read_file(self, path: str) -> str:
        self.stats.fs_reads += 1
        return self.fs.read(path)

    def write_file(self, path: str, content: str) -> None:
        self.stats.fs_writes += 1
        self.fs.write(path, content)

    def listdir(self, path: str) -> List[str]:
        self.stats.fs_listdirs += 1
        return self.fs.listdir(path)

    def read_thread_stat(self, tid: int) -> str:
        self.stats.proc_reads += 1
        return self.procfs.read_stat(tid)

    def core_freq_khz(self, core: int) -> int:
        self.stats.sysfs_reads += 1
        return self.sysfs.scaling_cur_freq(core)

    # -- topology cache ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached tid→cgroup map (call on VM churn)."""
        self._topology = None
        self._topology_vms = None
        self._bulk_handles = None

    def forget_usage(self, vcpu_path: str) -> None:
        """Drop the usage baseline for a vCPU cgroup.

        The cgroup may still exist (the caller is only resetting its
        monitoring state), so the topology cache is invalidated rather
        than edited — the next sample re-walks and rediscovers whatever
        is actually on disk.
        """
        self._prev_usage.pop(vcpu_path, None)
        self.invalidate()

    def forget_vcpu(self, vcpu_path: str) -> None:
        """Drop all cached state (usage baseline + cap) for a vCPU."""
        self.forget_usage(vcpu_path)
        self._last_cap.pop(vcpu_path, None)
        self.cap_epoch += 1

    # -- batch-entry hooks (fault-injection seam) -------------------------------

    def _begin_sample_batch(self, period_s: float) -> float:
        """Called exactly once when a monitoring batch starts — whether
        the caller entered through :meth:`read_vcpu_samples` or
        :meth:`sample_all`.  Subclasses (the fault injector) advance
        their tick clock and perturb the effective period here; the
        base backend passes the period through unchanged.
        """
        return period_s

    def _begin_write_batch(self) -> None:
        """Called exactly once when a cap-write batch starts
        (:meth:`write_caps` or :meth:`apply_caps`)."""

    def _direct_io_ok(self) -> bool:
        """Whether the handle-based bulk fast path may bypass the
        per-file primitives.  The fault injector vetoes this whenever a
        plan is armed — faults hit the per-file seam, which cached
        handles would never consult."""
        return True

    # -- batched monitoring -----------------------------------------------------

    def read_vcpu_samples(self, period_s: float = 1.0) -> List[VCpuSample]:
        """One monitoring pass over all hosted vCPUs.

        VM teardown races with the walk on a real host (a cgroup listed
        by readdir may be gone by the time its files are opened, and a
        tid may have exited before its ``/proc/<tid>/stat`` is read);
        such vCPUs are silently skipped, exactly as a production monitor
        must.
        """
        period_s = self._begin_sample_batch(period_s)
        return self._read_samples(period_s)

    def _read_samples(self, period_s: float) -> List[VCpuSample]:
        """The timed body of :meth:`read_vcpu_samples` (hook already run)."""
        t0 = time.perf_counter()
        before = self.stats.copy()
        try:
            if self.batched:
                samples = self._sample_batched(period_s)
            else:
                samples = self._sample_walk(period_s)
        except OSError:
            # A failure outside the per-vCPU loops (e.g. the machine
            # slice readdir itself).  Tolerant mode degrades to "nothing
            # observed this tick" — the resilience layer carries samples
            # forward — instead of killing the controller.
            if not self.tolerate_errors:
                raise
            self.stats.read_errors += 1
            self.invalidate()
            samples = []
        self.last_sample_batch = BatchStats(
            seconds=time.perf_counter() - t0, ops=self.stats - before
        )
        return samples

    def _sample_batched(self, period_s: float) -> List[VCpuSample]:
        if not self.fs.exists(self.machine_slice):
            self.invalidate()
            return []
        if self._topology is not None:
            # Churn guard: one readdir of the slice instead of a walk.
            if self.listdir(self.machine_slice) != self._topology_vms:
                self.invalidate()
        if self._topology is None:
            self.stats.topology_rescans += 1
            return self._sample_walk(period_s)
        samples: List[VCpuSample] = []
        freq_khz_by_core: Dict[int, int] = {}
        dead: List[str] = []
        for slot in self._topology:
            try:
                samples.append(
                    self._sample_slot(slot, period_s, freq_khz_by_core)
                )
            except OSError as exc:
                if isinstance(exc, (FileNotFoundError, ProcessLookupError)):
                    # vCPU torn down between scans: drop its state.
                    self.stats.vcpu_skips += 1
                    dead.append(slot.cgroup_path)
                elif self.tolerate_errors:
                    # Transient error (EIO and kin): skip this vCPU for
                    # one tick but keep its topology slot and baseline.
                    self.stats.read_errors += 1
                    self.stats.vcpu_skips += 1
                else:
                    raise
        for path in dead:
            self.forget_usage(path)
        if dead:
            self.invalidate()
        return samples

    def _sample_walk(self, period_s: float) -> List[VCpuSample]:
        """Full directory walk; caches the topology when complete.

        In unbatched mode this is exactly the seed monitor's access
        pattern: per-VM readdirs, a ``cgroup.threads`` read per vCPU and
        one sysfs read per vCPU (no per-core dedup).
        """
        samples: List[VCpuSample] = []
        slots: List[VCpuSlot] = []
        complete = True
        if not self.fs.exists(self.machine_slice):
            return samples
        vm_names = self.listdir(self.machine_slice)
        freq_khz_by_core: Optional[Dict[int, int]] = {} if self.batched else None
        for vm_name in vm_names:
            vm_path = f"{self.machine_slice}/{vm_name}"
            try:
                children = self.listdir(vm_path)
            except FileNotFoundError:
                self.stats.vm_skips += 1
                complete = False
                continue  # VM destroyed mid-walk
            for child in children:
                if not child.startswith("vcpu"):
                    continue
                vcpu_path = f"{vm_path}/{child}"
                try:
                    usage = self._read_usage_usec(vcpu_path)
                    prev = self._prev_usage.get(vcpu_path, usage)
                    self._prev_usage[vcpu_path] = usage
                    consumed = max(0.0, usage - prev)
                    tid = self._read_tid(vcpu_path)
                    if tid is None:
                        complete = False
                        continue
                    slot = VCpuSlot(
                        vm_name=vm_name,
                        vcpu_index=int(child[len("vcpu"):]),
                        cgroup_path=vcpu_path,
                        tid=tid,
                    )
                    samples.append(
                        self._finish_sample(
                            slot, consumed, period_s, freq_khz_by_core
                        )
                    )
                except OSError as exc:
                    if isinstance(exc, (FileNotFoundError, ProcessLookupError)):
                        self.stats.vcpu_skips += 1
                        self.forget_usage(vcpu_path)
                    elif self.tolerate_errors:
                        self.stats.read_errors += 1
                        self.stats.vcpu_skips += 1
                    else:
                        raise
                    complete = False
                    continue
                slots.append(slot)
        if self.batched and complete:
            self._topology = slots
            self._topology_vms = vm_names
        return samples

    def _sample_slot(
        self,
        slot: VCpuSlot,
        period_s: float,
        freq_khz_by_core: Dict[int, int],
    ) -> VCpuSample:
        usage = self._read_usage_usec(slot.cgroup_path)
        prev = self._prev_usage.get(slot.cgroup_path, usage)
        self._prev_usage[slot.cgroup_path] = usage
        consumed = max(0.0, usage - prev)
        return self._finish_sample(slot, consumed, period_s, freq_khz_by_core)

    def _finish_sample(
        self,
        slot: VCpuSlot,
        consumed: float,
        period_s: float,
        freq_khz_by_core: Optional[Dict[int, int]],
    ) -> VCpuSample:
        core = parse_stat_line(self.read_thread_stat(slot.tid)).processor
        if freq_khz_by_core is None:
            khz = self.core_freq_khz(core)
        else:
            khz = freq_khz_by_core.get(core)
            if khz is None:
                khz = self.core_freq_khz(core)
                freq_khz_by_core[core] = khz
        core_freq_mhz = khz / 1000.0
        share = min(consumed / period_us(period_s), 1.0)
        return VCpuSample(
            vm_name=slot.vm_name,
            vcpu_index=slot.vcpu_index,
            cgroup_path=slot.cgroup_path,
            tid=slot.tid,
            consumed_cycles=consumed,
            core=core,
            core_freq_mhz=core_freq_mhz,
            vfreq_mhz=share * core_freq_mhz,
        )

    # -- kernel-surface readers -------------------------------------------------

    def _read_usage_usec(self, vcpu_path: str) -> float:
        if self.fs.version is CgroupVersion.V2:
            stat = parse_cpu_stat(self.read_file(f"{vcpu_path}/cpu.stat"))
            return float(stat["usage_usec"])
        nanos = int(self.read_file(f"{vcpu_path}/cpuacct.usage").strip())
        return nanos / 1000.0

    def _read_tid(self, vcpu_path: str) -> Optional[int]:
        fname = "cgroup.threads" if self.fs.version is CgroupVersion.V2 else "tasks"
        content = self.read_file(f"{vcpu_path}/{fname}").split()
        if not content:
            return None
        # KVM vCPU cgroups hold exactly one thread (paper §III-B1).
        return int(content[0])

    # -- bulk-array monitoring --------------------------------------------------

    def sample_all(self, period_s: float = 1.0) -> SampleBatch:
        """One monitoring pass as a :class:`SampleBatch` of columns.

        Identical values to :meth:`read_vcpu_samples` on the same node
        state.  The fast path amortises the per-vCPU work into a few
        array operations over cached cgroup/proc handles; whenever the
        topology is unknown (first tick, churn, teardown race), the
        hierarchy is v1, or direct I/O is vetoed (armed fault plan),
        the batch is built from the list-based scan instead.
        """
        period_s = self._begin_sample_batch(period_s)
        if (
            self.batched
            and self.fs.version is CgroupVersion.V2
            and self.procfs is not None
            and self.sysfs is not None
            and self._direct_io_ok()
        ):
            batch = self._sample_all_fast(period_s)
            if batch is not None:
                return batch
        return SampleBatch.from_samples(self._read_samples(period_s), period_s)

    def _sample_all_fast(self, period_s: float) -> Optional[SampleBatch]:
        """Array sampling over cached handles; ``None`` → use the scan."""
        topo = self._topology
        if topo is None or not self.fs.exists(self.machine_slice):
            return None
        t0 = time.perf_counter()
        before = self.stats.copy()
        # Churn guard, same single readdir as the list path.
        if self.listdir(self.machine_slice) != self._topology_vms:
            self.invalidate()
            return None
        cache = self._bulk_handles
        if cache is None or cache["topo"] is not topo:
            cache = self._build_bulk_handles(topo)
            if cache is None:
                self.invalidate()
                return None
            self._bulk_handles = cache
        elif not self._validate_bulk_handles(cache):
            # A cgroup was torn down (or recreated under the same name)
            # since the handles were cached: re-resolve through the
            # path-based scan so teardown races behave identically.
            self.invalidate()
            return None
        n = len(topo)
        stat = self.procfs.stat
        try:
            usage = np.fromiter(
                (c.usage_usec for c in cache["cpus"]), dtype=np.float64, count=n
            )
            cores = np.fromiter(
                (stat(t).processor for t in cache["tids_list"]),
                dtype=np.int64,
                count=n,
            )
        except ProcessLookupError:
            # A vCPU thread exited between scans; nothing committed yet,
            # so the list path resamples and skips it exactly as usual.
            self.invalidate()
            return None
        self.stats.fs_reads += n
        self.stats.proc_reads += n
        prev = cache["prev"]
        prev_eff = np.where(np.isnan(prev), usage, prev)
        consumed = usage - prev_eff
        np.maximum(consumed, 0.0, out=consumed)
        cache["prev"] = usage
        self._prev_usage.update(zip(cache["paths"], usage.tolist()))
        # One frequency read per distinct core, as in the list path.
        khz_of = np.zeros(int(cores.max()) + 1 if n else 1, dtype=np.float64)
        for core in np.unique(cores):
            khz_of[core] = self.core_freq_khz(int(core))
        core_freq_mhz = khz_of[cores] / 1000.0
        share = np.minimum(consumed / period_us(period_s), 1.0)
        batch = SampleBatch(
            period_s=period_s,
            paths=cache["paths"],
            vm_names=cache["vms"],
            vcpu_indices=cache["vcpu_idx"],
            tids=cache["tids"],
            usage_usec=usage,
            consumed=consumed,
            cores=cores,
            core_freq_mhz=core_freq_mhz,
            vfreq_mhz=share * core_freq_mhz,
        )
        self.last_sample_batch = BatchStats(
            seconds=time.perf_counter() - t0, ops=self.stats - before
        )
        return batch

    def _build_bulk_handles(self, topo: List[VCpuSlot]) -> Optional[Dict[str, Any]]:
        """Resolve per-slot cgroup handles once per stable topology."""
        try:
            machine = self.fs.node(self.machine_slice)
        except FileNotFoundError:
            return None
        vm_nodes: Dict[str, Any] = {}
        cpus: List[Any] = []
        entries: List[Tuple[Any, str, Any]] = []
        paths: List[str] = []
        vms: List[str] = []
        for slot in topo:
            vm_node = vm_nodes.get(slot.vm_name)
            if vm_node is None:
                vm_node = machine.children.get(slot.vm_name)
                if vm_node is None:
                    return None
                vm_nodes[slot.vm_name] = vm_node
            child = slot.cgroup_path.rsplit("/", 1)[1]
            vcpu_node = vm_node.children.get(child)
            if vcpu_node is None:
                return None
            cpus.append(vcpu_node.cpu)
            entries.append((vm_node, child, vcpu_node))
            paths.append(slot.cgroup_path)
            vms.append(slot.vm_name)
        n = len(topo)
        return {
            "topo": topo,
            "vm_items": list(vm_nodes.items()),
            "entries": entries,
            "cpus": cpus,
            "paths": paths,
            "vms": vms,
            "vcpu_idx": np.fromiter(
                (s.vcpu_index for s in topo), dtype=np.int64, count=n
            ),
            "tids_list": [s.tid for s in topo],
            "tids": np.fromiter((s.tid for s in topo), dtype=np.int64, count=n),
            "prev": np.array(
                [self._prev_usage.get(p, np.nan) for p in paths], dtype=np.float64
            ),
        }

    def _validate_bulk_handles(self, cache: Dict[str, Any]) -> bool:
        """Cheap identity check that every cached handle is still live."""
        try:
            machine = self.fs.node(self.machine_slice)
        except FileNotFoundError:
            return False
        children = machine.children
        for name, vm_node in cache["vm_items"]:
            if children.get(name) is not vm_node:
                return False
        for vm_node, child, vcpu_node in cache["entries"]:
            if vm_node.children.get(child) is not vcpu_node:
                return False
        return True

    # -- coalesced capping writes ----------------------------------------------

    def write_cap_one(
        self, vcpu_path: str, quota_us: int, enforcement_period_us: int
    ) -> None:
        """Write one vCPU's quota, skipping if already in place.

        Raises :class:`FileNotFoundError` if the cgroup vanished (and
        drops the stale cache entry so a recreated cgroup is rewritten).
        """
        key = (int(quota_us), int(enforcement_period_us))
        if self.batched and self._last_cap.get(vcpu_path) == key:
            self.stats.cap_writes_skipped += 1
            return
        try:
            if self.fs.version is CgroupVersion.V2:
                self.write_file(f"{vcpu_path}/cpu.max", f"{key[0]} {key[1]}")
            else:
                self.write_file(f"{vcpu_path}/cpu.cfs_period_us", str(key[1]))
                self.write_file(f"{vcpu_path}/cpu.cfs_quota_us", str(key[0]))
        except OSError:
            # The on-disk value is now unknown (the v1 pair may be
            # half-applied): drop the cache entry so a retry or a
            # recreated cgroup is rewritten unconditionally.
            self._last_cap.pop(vcpu_path, None)
            raise
        self._last_cap[vcpu_path] = key

    def write_caps(
        self, quotas: Mapping[str, int], enforcement_period_us: int
    ) -> Dict[str, int]:
        """Coalesced quota writes; returns quotas now in force (µs).

        Skipped-because-unchanged paths count as applied.  Paths whose
        cgroup vanished mid-batch (teardown races the loop on a real
        host) are silently dropped from the result.  In tolerant mode a
        transient write error (EIO/EBUSY) is recorded per path in
        :attr:`last_write_errors` instead of aborting the batch, so the
        controller can retry exactly the failed subset.
        """
        self._begin_write_batch()
        t0 = time.perf_counter()
        before = self.stats.copy()
        written: Dict[str, int] = {}
        self.last_write_errors = {}
        for path, quota in quotas.items():
            try:
                self.write_cap_one(path, quota, enforcement_period_us)
            except FileNotFoundError:
                continue
            except OSError as exc:
                if not self.tolerate_errors:
                    raise
                self.stats.write_errors += 1
                self.last_write_errors[path] = exc
                continue
            written[path] = int(quota)
        self.last_write_batch = BatchStats(
            seconds=time.perf_counter() - t0, ops=self.stats - before
        )
        return written

    def apply_caps(
        self,
        paths: Sequence[str],
        quota_us: np.ndarray,
        dirty: Optional[np.ndarray],
        enforcement_period_us: int,
    ) -> Dict[str, int]:
        """Array spelling of :meth:`write_caps` driven by a dirty mask.

        ``paths``/``quota_us`` are parallel; only rows where ``dirty``
        is true are written (``dirty=None``, or the unbatched seed
        pattern, writes every row).  Clean rows count as
        :attr:`BackendStats.cap_writes_skipped`, exactly like a
        value-unchanged skip in :meth:`write_cap_one`.  Returns
        the quotas now in force among the *dirty* rows; vanished
        cgroups are dropped and, in tolerant mode, transient write
        errors land in :attr:`last_write_errors` per path.
        """
        self._begin_write_batch()
        t0 = time.perf_counter()
        before = self.stats.copy()
        written: Dict[str, int] = {}
        self.last_write_errors = {}
        if dirty is None or not self.batched:
            rows: Sequence[int] = range(len(paths))
        else:
            rows = np.flatnonzero(dirty)
            self.stats.cap_writes_skipped += len(paths) - len(rows)
        enf = int(enforcement_period_us)
        for i in rows:
            path = paths[i]
            quota = int(quota_us[i])
            try:
                self.write_cap_one(path, quota, enf)
            except FileNotFoundError:
                continue
            except OSError as exc:
                if not self.tolerate_errors:
                    raise
                self.stats.write_errors += 1
                self.last_write_errors[path] = exc
                continue
            written[path] = quota
        self.last_write_batch = BatchStats(
            seconds=time.perf_counter() - t0, ops=self.stats - before
        )
        return written

    def uncap(self, vcpu_path: str, enforcement_period_us: int) -> None:
        """Remove a vCPU's bandwidth limit (configuration A / teardown)."""
        if self.fs.version is CgroupVersion.V2:
            self.write_file(
                f"{vcpu_path}/cpu.max", f"max {enforcement_period_us}"
            )
        else:
            self.write_file(f"{vcpu_path}/cpu.cfs_quota_us", "-1")
        self._last_cap.pop(vcpu_path, None)
        self.cap_epoch += 1
