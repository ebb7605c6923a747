"""Compiled host topology: one CFS sub-step on flat arrays.

:class:`HostTopology` flattens a node's cgroup tree and entity registry
once per structural change, so a scheduling sub-step walks no tree and
builds no object per cgroup.  The recursive
:class:`~repro.sched.cfs.CfsScheduler` stays as the oracle: for the same
tree, quotas, weights and demands, :meth:`HostTopology.schedule` grants
every entity and charges every cgroup the same floats and integers, bit
for bit.

Layout
------
* Cgroups are ordered by depth, root first.  Each depth level is a
  contiguous slice, and within it the children of one parent are
  contiguous and in ``children`` dict order.  Every cgroup knows its
  parent's index and the slice of its own children.
* Entities are kept in registry order, each with the index of the cgroup
  its ``cgroup_path`` names, or -1 when no cgroup has that path (such an
  entity is granted nothing, as in the oracle).
* ``CpuController`` and procfs ``ThreadStat`` handles are cached, so the
  per-step reads (quotas, demands) and write-backs (grants, ``cpu.stat``,
  ``/proc/<tid>/stat``) touch each object once, with no path lookup.

Summation order
---------------
The recursion computes a cgroup's absorbable time as ``sum(thread
terms)`` followed by ``+ child.limit`` for each child in dict order, and
its charged time the same way.  ``np.bincount`` accumulates its weights
into each bin in input order starting from 0.0, so one bincount over the
entities, then one per depth level over ``[own thread sum, child values
...]``, performs exactly the recursion's float additions.  One exception:
from Python 3.12 on, ``sum`` over floats is compensated, so the thread sum
of a cgroup holding more than one thread is taken with ``sum`` itself
(two-term sums agree either way; the branch keeps the rule simple).

Top-down, each cgroup takes one of the recursion's four cases: a single
thread (``min(grant, demand)``), a single child (pass the grant
through), ample capacity (every child gets its own limit) or contention,
which calls :func:`~repro.sched.fairshare.weighted_fair_share` on the
same inputs.  The first three are masks over a level; only contended
cgroups run Python code.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cgroups.group import CgroupNode
from repro.sched.entity import SchedEntity
from repro.sched.fairshare import weighted_fair_share

#: Slack of the ample-capacity test, the oracle's ``1e-12``.
_AMPLE_SLACK = 1e-12


class HostTopology:
    """Flat, cached view of one host's cgroup tree and scheduling entities.

    Built by :meth:`repro.hw.node.Node.topology`; it is valid until the
    next structural change, which the node detects through the tree's
    :attr:`~repro.cgroups.group.CgroupNode.generation`, its own entity
    registry and the procfs thread table.  Quotas, weights and demands
    are read anew on every :meth:`schedule`.
    """

    def __init__(self, root: CgroupNode, entities: Sequence[SchedEntity], procfs) -> None:
        groups: List[CgroupNode] = [root]
        paths: List[str] = ["/"]
        parent: List[int] = [-1]
        child_lo: List[int] = []
        child_hi: List[int] = []
        levels: List[Tuple[int, int]] = []
        lo = 0
        while lo < len(groups):
            hi = len(groups)
            levels.append((lo, hi))
            for p in range(lo, hi):
                base = "" if p == 0 else paths[p]
                child_lo.append(len(groups))
                for child in groups[p].children.values():
                    groups.append(child)
                    paths.append(base + "/" + child.name)
                    parent.append(p)
                child_hi.append(len(groups))
            lo = hi
        n_groups = len(groups)
        self.num_groups = n_groups
        self.paths = paths
        self.controllers = [g.cpu for g in groups]
        self._parent = np.asarray(parent, dtype=np.intp)
        self._child_lo = child_lo
        self._child_hi = child_hi

        slot_of_path: Dict[str, int] = {path: i for i, path in enumerate(paths)}
        self.entities = list(entities)
        self.tids = [e.tid for e in self.entities]
        #: tid -> position in :attr:`entities` (and every per-entity array).
        self.slot_of_tid: Dict[int, int] = {tid: k for k, tid in enumerate(self.tids)}
        #: procfs handles; a registered thread missing from procfs raises
        #: ``ProcessLookupError`` here, as the per-thread charge would.
        self.stats = [procfs.stat(tid) for tid in self.tids]
        ent_group = np.asarray(
            [slot_of_path.get(e.cgroup_path, -1) for e in self.entities], dtype=np.intp
        )
        in_tree = ent_group >= 0
        self._tree_ents = np.flatnonzero(in_tree)
        self._tree_group = ent_group[in_tree]
        #: Cgroup index per entity, -1 mapped to 0 for gathers (masked out).
        self._ent_group = np.where(in_tree, ent_group, 0)
        self._out_of_tree = ~in_tree

        members: List[List[int]] = [[] for _ in range(n_groups)]
        for k in self._tree_ents.tolist():
            members[int(ent_group[k])].append(k)
        self._members = members
        #: Cgroups whose thread sum must be taken with Python's ``sum``.
        self._multi_thread = [(g, m) for g, m in enumerate(members) if len(m) > 1]

        n_children = np.asarray(child_hi, dtype=np.intp) - np.asarray(child_lo, dtype=np.intp)
        n_threads = np.bincount(self._tree_group, minlength=n_groups)
        single = (n_children == 0) & (n_threads == 1)
        passthru = (n_children == 1) & (n_threads == 0)
        empty = (n_children + n_threads) == 0
        #: Cgroups that split their grant: ample capacity or contention.
        self._splits = ~(single | passthru | empty)
        # raw - slack is the ample test's threshold; -inf slack makes it
        # unreachable for cgroups that never split.
        slack = np.where(self._splits, _AMPLE_SLACK, -np.inf)

        # Per-step buffers, and per-level views of them (deepest level
        # first for the bottom-up passes, root first for the top-down one).
        self._limit = np.empty(n_groups)
        self._used = np.empty(n_groups)
        self._ceiling = np.empty(n_groups)
        self._threshold = np.empty(n_groups)
        self._fits = np.empty(n_groups, dtype=bool)
        self._ample = np.empty(n_groups, dtype=bool)
        self._up = []
        self._down = []
        for d, (lo, hi) in enumerate(levels):
            if d + 1 < len(levels):
                clo, chi = levels[d + 1]
                # bin k < n is the level's k-th cgroup (weighted by its own
                # thread sum), then one bin per child, in order.
                bins = np.concatenate(
                    (np.arange(hi - lo, dtype=np.intp), self._parent[clo:chi] - lo)
                )
                kids = (self._limit[clo:chi], self._used[clo:chi])
            else:
                bins, kids = None, (None, None)
            # A level where no cgroup splits its grant (the root, the
            # single-thread vCPU cgroups) needs no ample-capacity test.
            splits_here = bool(self._splits[lo:hi].any())
            self._up.insert(
                0,
                (lo, hi, bins, kids, self._limit[lo:hi], self._used[lo:hi],
                 (slack[lo:hi], self._threshold[lo:hi], self._fits[lo:hi])
                 if splits_here else None),
            )
            self._down.append(
                (self._parent[lo:hi] if d else None, lo, self._ceiling[lo:hi],
                 self._limit[lo:hi],
                 (self._threshold[lo:hi], self._fits[lo:hi], self._ample[lo:hi],
                  self._splits[lo:hi]) if splits_here else None)
            )

    def limits(self) -> Dict[str, float]:
        """Each cgroup's limit in the last :meth:`schedule` (the most CPU
        time its subtree could absorb), keyed by path: the oracle's
        ``GroupAllocation.limit``."""
        return dict(zip(self.paths, self._limit.tolist()))

    # -- per-step reads -----------------------------------------------------------

    def demands(self) -> np.ndarray:
        """Every entity's current ``demand``, in registry order."""
        return np.array([e.demand for e in self.entities], dtype=np.float64)

    def _caps(self) -> np.ndarray:
        """``cpu.max`` as cores per cgroup: ``QuotaSpec.ratio()``."""
        inf = np.inf
        return np.array(
            [
                q.quota_us / q.period_us if q.quota_us >= 0 else inf
                for q in [c.quota for c in self.controllers]
            ],
            dtype=np.float64,
        )

    def _thread_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-cgroup sum of entity ``values`` in registry order."""
        sums = np.bincount(
            self._tree_group, values[self._tree_ents], minlength=self.num_groups
        )
        if self._multi_thread:
            listed = values.tolist()
            for g, members in self._multi_thread:
                sums[g] = sum([listed[k] for k in members])
        return sums

    # -- the step -----------------------------------------------------------------

    def schedule(self, demand: np.ndarray, dt: float, num_cpus: int) -> np.ndarray:
        """One sub-step of ``dt`` seconds on ``num_cpus`` cores.

        Equivalent to ``CfsScheduler.schedule(entities, dt)``: sets every
        entity's ``allocated`` (and adds it to ``total_cpu_seconds``),
        charges every cgroup's ``cpu.stat``, and returns the grants as an
        array in registry order.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        ent_lim = np.minimum(demand, 1.0) * dt

        # pass 1, bottom-up: raw absorbable time, limit = min(raw, cap).
        # Only the ample-capacity test reads raw, so it is kept as that
        # test's threshold (raw - 1e-12) and flag (raw <= limit).
        own = self._thread_sums(ent_lim)
        cap = self._caps() * dt
        for lo, hi, bins, (kid_limit, _), limit, _, ample_test in self._up:
            if bins is None:
                raw = own[lo:hi]
            else:
                weights = np.concatenate((own[lo:hi], kid_limit))
                raw = np.bincount(bins, weights, minlength=hi - lo)
            np.minimum(raw, cap[lo:hi], out=limit)
            if ample_test is not None:
                slack, threshold, fits = ample_test
                np.subtract(raw, slack, out=threshold)
                np.less_equal(raw, limit, out=fits)

        # pass 2, top-down grants.  ceiling[g] is g's grant, or inf once g
        # hands every child its own limit, so a child's grant is
        # min(ceiling[parent], limit[child]).
        self._ceiling[0] = min(num_cpus * dt, self._limit[0])
        patches = self._top_down(ent_lim)
        alloc = np.minimum(self._ceiling[self._ent_group], ent_lim)
        for members, shares in patches:
            alloc[members] = shares
        alloc[self._out_of_tree] = 0.0

        for ent, a in zip(self.entities, alloc.tolist()):
            ent.allocated = a
            ent.total_cpu_seconds += a

        # pass 3, bottom-up cpu.stat accounting, charged as
        # CpuController.charge does: int(round(usec)), 2% system time.
        own = self._thread_sums(alloc)
        for lo, hi, bins, (_, kid_used), _, used, _ in self._up:
            if bins is None:
                used[...] = own[lo:hi]
            else:
                weights = np.concatenate((own[lo:hi], kid_used))
                used[...] = np.bincount(bins, weights, minlength=hi - lo)
        usec = np.rint(self._used * 1e6)
        sys_part = np.rint(usec * 0.02).astype(np.int64).tolist()
        for ctrl, u, s in zip(self.controllers, usec.astype(np.int64).tolist(), sys_part):
            if u:
                ctrl.usage_usec += u
                ctrl.system_usec += s
                ctrl.user_usec += u - s
        return alloc

    def _top_down(self, ent_lim: np.ndarray) -> List[Tuple[List[int], np.ndarray]]:
        """Root first, fill ``ceiling``; split contended grants by
        weighted fair share and return the shares of their own threads."""
        ceiling = self._ceiling
        limit = self._limit
        contended: List[Tuple[int, np.ndarray]] = []
        patches: List[Tuple[List[int], np.ndarray]] = []
        for parent, lo, ceil, lim, ample_test in self._down:
            if parent is not None:
                np.minimum(ceiling[parent], lim, out=ceil)
                for g, shares in contended:
                    c0, c1 = self._child_lo[g], self._child_hi[g]
                    np.minimum(shares[: c1 - c0], limit[c0:c1], out=ceiling[c0:c1])
            contended = []
            if ample_test is None:
                continue
            threshold, fits, ample, splits = ample_test
            np.greater_equal(ceil, threshold, out=ample)
            np.logical_and(ample, fits, out=ample)
            contending = splits > ample
            if np.count_nonzero(contending):
                for g in (np.flatnonzero(contending) + lo).tolist():
                    shares = self._fair_share(g, float(ceiling[g]), ent_lim)
                    contended.append((g, shares))
                    if self._members[g]:
                        n_kids = self._child_hi[g] - self._child_lo[g]
                        patches.append((self._members[g], shares[n_kids:]))
            np.copyto(ceil, np.inf, where=ample)
        return patches

    def _fair_share(self, g: int, granted: float, ent_lim: np.ndarray) -> np.ndarray:
        """The oracle's contended case for cgroup ``g``: children first,
        then its own threads, in order."""
        c0, c1 = self._child_lo[g], self._child_hi[g]
        members = self._members[g]
        n = (c1 - c0) + len(members)
        weights = np.empty(n)
        limits = np.empty(n)
        k = 0
        for c in range(c0, c1):
            weights[k] = self.controllers[c].weight
            limits[k] = self._limit[c]
            k += 1
        for e in members:
            weights[k] = 100.0 * self.entities[e].weight
            limits[k] = ent_lim[e]
            k += 1
        return weighted_fair_share(granted, weights, limits)
