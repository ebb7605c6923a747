"""Discrete-time simulation loop.

Each sub-tick of ``dt`` seconds:

1. workloads push per-vCPU demand into the scheduling entities;
2. the node steps: CFS distributes CPU time under the current quotas,
   accounting/affinity/DVFS/energy surfaces refresh;
3. workloads absorb their achieved progress (CPU-seconds x core MHz);
4. on controller-period boundaries, the controller runs one iteration
   against the node's kernel surfaces, and metrics are recorded.

The controller period must be an integer multiple of ``dt``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.api import Controller
from repro.core.controller import ControllerReport
from repro.hw.node import Node
from repro.sim.metrics import MetricsRecorder
from repro.virt.hypervisor import Hypervisor
from repro.virt.vm import VMInstance


class VcpuGather:
    """Where each hosted vCPU sits in its node's per-thread step arrays.

    The harness reads every vCPU's grant and core frequency as one
    gather instead of a procfs and a sysfs call per vCPU.  A gather is
    valid for one node topology: provisioning or destroying a VM
    re-registers entities, which gives the node a new topology, and
    :meth:`of` then builds a new gather.
    """

    def __init__(self, node: Node, hypervisor: Hypervisor) -> None:
        self.topology = node.topology()
        self.vms = hypervisor.vms
        tids = [vcpu.tid for vm in self.vms for vcpu in vm.vcpus]
        self.slots = node.thread_slots(tids)
        # VMs grouped by vCPU count: a row-wise reduction per group sums
        # each VM in np.mean's own order (np.add.reduceat does not).
        offsets: Dict[int, List[List[int]]] = {}
        rows: Dict[int, List[int]] = {}
        k = 0
        for pos, vm in enumerate(self.vms):
            n = len(vm.vcpus)
            offsets.setdefault(n, []).append(list(range(k, k + n)))
            rows.setdefault(n, []).append(pos)
            k += n
        self._groups = [
            (n, np.asarray(rows[n], dtype=np.intp), np.asarray(offsets[n], dtype=np.intp))
            for n in offsets
        ]

    @classmethod
    def of(cls, cached: "Optional[VcpuGather]", node: Node, hypervisor: Hypervisor) -> "VcpuGather":
        """``cached`` while the node's topology is unchanged, else a new gather."""
        if cached is not None and cached.topology is node.topology():
            return cached
        return cls(node, hypervisor)

    def core_mhz(self, node: Node) -> np.ndarray:
        """Per-vCPU frequency of the core it last ran on (controller view)."""
        return node.thread_core_mhz()[self.slots]

    def absorb(self, node: Node, t: float, dt: float) -> None:
        """Feed every workload its vCPUs' grants at their cores' speed."""
        freqs = node.effective_mhz(self.core_mhz(node)).tolist()
        k = 0
        for vm in self.vms:
            n = len(vm.vcpus)
            workload = vm.workload
            if workload is not None:
                for vcpu, freq in zip(vm.vcpus, freqs[k : k + n]):
                    workload.advance(vcpu.index, t, dt, vcpu.entity.allocated, freq)
            k += n

    def vm_means(self, values: np.ndarray) -> List[float]:
        """Per-VM ``np.mean`` of per-vCPU ``values``, in VM order."""
        means = np.empty(len(self.vms))
        for n, rows, offsets in self._groups:
            means[rows] = np.add.reduce(values[offsets], axis=1) / n
        return means.tolist()


class Simulation:
    """One node, its VMs/workloads, and (optionally) the controller."""

    def __init__(
        self,
        node: Node,
        hypervisor: Hypervisor,
        *,
        controller: Optional[Controller] = None,
        dt: float = 0.5,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if controller is not None:
            # period_s is part of the Controller protocol — no reaching
            # into implementation-specific config objects.
            ratio = controller.period_s / dt
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    f"controller period {controller.period_s}s must be an "
                    f"integer multiple of dt={dt}s"
                )
        self.node = node
        self.hypervisor = hypervisor
        self.controller = controller
        self.dt = dt
        self.metrics = metrics or MetricsRecorder()
        self.t = 0.0
        self._subticks = 0
        self._gather: Optional[VcpuGather] = None

    # -- main loop -----------------------------------------------------------------

    def run(
        self,
        duration: float,
        *,
        on_report: Optional[Callable[[ControllerReport], None]] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Advance the simulation by ``duration`` seconds.

        ``until`` (checked each controller period) may stop the run early
        — e.g. "all workloads finished".
        """
        if duration < 0:
            raise ValueError("duration must be >= 0")
        steps = int(round(duration / self.dt))
        ticks_per_period = (
            int(round(self.controller.period_s / self.dt))
            if self.controller
            else None
        )
        for _ in range(steps):
            self._set_demands()
            self.node.step(self.dt)
            self._absorb_progress()
            self.t += self.dt
            self._subticks += 1
            self._record_actuals()
            if ticks_per_period and self._subticks % ticks_per_period == 0:
                report = self.controller.tick(self.t)
                self._record_report(report)
                if on_report is not None:
                    on_report(report)
                if until is not None and until():
                    return

    # -- phases of one sub-tick ---------------------------------------------------------

    def _set_demands(self) -> None:
        for vm in self.hypervisor.vms:
            workload = vm.workload
            if workload is None:
                vm.set_uniform_demand(0.0)
                continue
            for vcpu in vm.vcpus:
                vcpu.set_demand(float(workload.demand(vcpu.index, self.t)))

    def _vcpus(self) -> VcpuGather:
        self._gather = VcpuGather.of(self._gather, self.node, self.hypervisor)
        return self._gather

    def _absorb_progress(self) -> None:
        self._vcpus().absorb(self.node, self.t, self.dt)

    def _record_actuals(self) -> None:
        node = self.node
        gather = self._vcpus()
        alloc = node.thread_allocated
        share_mhz = alloc[gather.slots] / self.dt * gather.core_mhz(node)
        for vm, vfreq in zip(gather.vms, gather.vm_means(share_mhz)):
            self.metrics.record_vfreq_actual(self.t, vm.name, vfreq)
        self.metrics.core_freq_mean.append(self.t, node.dvfs.mean_mhz())
        self.metrics.core_freq_std.append(self.t, node.dvfs.std_mhz())
        total_alloc = sum(alloc.tolist())
        self.metrics.node_utilisation.append(
            self.t, total_alloc / (node.spec.logical_cpus * self.dt)
        )

    def _record_report(self, report: ControllerReport) -> None:
        for vm_name, vfreq in report.vfreq_by_vm().items():
            self.metrics.record_vfreq_estimate(report.t, vm_name, vfreq)
        self.metrics.market_initial.append(report.t, report.market_initial)

    # -- helpers ---------------------------------------------------------------------------

    def vms(self) -> Dict[str, VMInstance]:
        return {vm.name: vm for vm in self.hypervisor.vms}

    def all_workloads_finished(self) -> bool:
        return all(
            vm.workload is None or vm.workload.finished for vm in self.hypervisor.vms
        )
