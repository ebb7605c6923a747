"""Structure-of-arrays fast path for the controller hot loop.

The scalar controller walks Python dicts and objects once per vCPU per
stage; on a dense host (hundreds of vCPUs) that interpreter overhead
dominates the per-tick cost the paper insists must stay negligible
(§III-B2).  :class:`VcpuTable` assigns every registered vCPU a stable
integer *slot* and keeps the controller's per-vCPU state in NumPy
arrays — consumption-history ring buffers, current caps, cached Eq. 2
guarantees, degraded flags — so stages 2, 3 and 5 become a handful of
vectorised array operations regardless of population size.

Bit-identity with the scalar oracle
-----------------------------------
The bulk engine (``ControllerConfig.engine = "bulk"``) must
produce *bit-identical* reports to the scalar one (``"scalar"``), which
is kept as the oracle.  Floating-point addition is not associative, so
identical results require identical operation order, which this module
guarantees by construction:

* every per-tick array is gathered in **sample order** (the order the
  scalar code iterates its dicts in), so elementwise operations see the
  exact operands the scalar loops see;
* reductions across the *population* that the scalar code performs
  sequentially (``sum()`` over dict values, per-VM credit sums) use
  :func:`seqsum` (``np.add.accumulate``) or ``np.bincount`` — both add
  left-to-right exactly like the Python loops, and adding the ``0.0``
  placeholders of masked-out elements is exact;
* reductions across the *history window* (Eq. 3 slope) loop over the
  ≤ ``history_len`` window positions accumulating whole population
  vectors, so each element's additions happen in the same order as the
  scalar ``trend_slope`` loop;
* the data-independent Eq. 3 centring weights and denominator are
  precomputed per history length with the scalar arithmetic itself.

The equivalence is enforced by ``tests/core/test_engine_equivalence.py``
(200 random ticks with churn and degraded vCPUs) and by the Fig. 6/7
report-stream comparison in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.estimator import Case, EstimatorDecision
from repro.core.units import period_us

__all__ = ["VcpuTable", "TickView", "seqsum", "decide_batch", "build_decisions"]

#: Integer case codes used inside the vectorised estimator (int8 array).
_WARMUP, _INCREASE, _DECREASE, _STABLE = 0, 1, 2, 3
_CASE_OF_CODE = {
    _WARMUP: Case.WARMUP,
    _INCREASE: Case.INCREASE,
    _DECREASE: Case.DECREASE,
    _STABLE: Case.STABLE,
}

#: (history length, literal flag) -> (centring weights dx, denominator).
_CENTERING: Dict[Tuple[int, bool], Tuple[np.ndarray, float]] = {}


def centering_weights(n: int, literal: bool) -> Tuple[np.ndarray, float]:
    """Eq. 3 centring weights ``dx_k = k - center`` and ``sum(dx_k^2)``.

    Both are data-independent per window length, so they are computed
    once — with the exact scalar arithmetic of
    :func:`repro.core.estimator.trend_slope` so the cached denominator
    is the same float the scalar loop re-derives every call.
    """
    key = (n, literal)
    hit = _CENTERING.get(key)
    if hit is None:
        center = n * (n + 1) / 2.0 if literal else (n + 1) / 2.0
        dx = np.array([float(k) - center for k in range(1, n + 1)])
        denom = 0.0
        for k in range(1, n + 1):
            d = k - center
            denom += d * d
        hit = (dx, denom)
        _CENTERING[key] = hit
    return hit


def seqsum(values: np.ndarray) -> float:
    """Strict left-to-right float sum, bit-identical to Python ``sum()``.

    ``np.sum`` uses pairwise summation, which reassociates additions and
    can differ from the scalar engine's sequential dict-value sums in
    the last ulp; ``np.add.accumulate`` is sequential by definition.
    """
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


@dataclass
class TickView:
    """One tick's samples gathered into slot-indexed arrays.

    Arrays are in *sample order* (see the module docstring); ``rows``
    maps each position to its table slot.
    """

    rows: np.ndarray  # intp, table slot per sample
    consumed: np.ndarray  # float64, u_{i,j,t} per sample
    paths: List[str]  # cgroup path per sample
    vms: List[str]  # owning VM name per sample
    vm_order: List[Tuple[str, int]]  # first-seen VM order, with dense ids


class VcpuTable:
    """Stable integer slots + NumPy columns for per-vCPU controller state.

    Slots are assigned lazily at a vCPU's first sample and survive until
    the path (or its whole VM) is released, so gathered views stay valid
    across ticks; freed slots are recycled.  VM names get dense integer
    ids for ``np.bincount`` segment reductions in the credit stage.
    """

    def __init__(self, history_len: int, capacity: int = 64) -> None:
        if history_len < 2:
            raise ValueError("history_len must be >= 2")
        self.history_len = history_len
        capacity = max(1, capacity)
        # -- per-slot columns ------------------------------------------------
        self.hist = np.zeros((capacity, history_len))  # right-aligned window
        self.hist_n = np.zeros(capacity, dtype=np.int64)  # valid entries
        self.cap = np.zeros(capacity)  # current cap (cycles)
        self.has_cap = np.zeros(capacity, dtype=bool)
        self.guarantee = np.zeros(capacity)  # cached Eq. 2 C_i
        self.vm_ids = np.zeros(capacity, dtype=np.int64)
        self.degraded = np.zeros(capacity, dtype=bool)
        # -- dirty-set decision cache (bulk engine) --------------------------
        #: Length of the uniform tail of observed samples, *including*
        #: the newest one.  ``run_len > history_len`` means the window
        #: did not change when the newest sample shifted in — the one
        #: condition under which last tick's stage-2 decision is
        #: guaranteed to be bit-identical to recomputing it.
        self.run_len = np.zeros(capacity, dtype=np.int64)
        self.decide_valid = np.zeros(capacity, dtype=bool)
        self.last_est = np.zeros(capacity)
        self.last_trend = np.zeros(capacity)
        self.last_case = np.zeros(capacity, dtype=np.int8)
        self.last_decide_cap = np.zeros(capacity)
        #: Quota (µs) this slot's cap scaled to at the last bulk write;
        #: ``-1`` = unknown/failed, always dirty.
        self.last_quota = np.full(capacity, -1, dtype=np.int64)
        # -- slot bookkeeping ------------------------------------------------
        self._slot: Dict[str, int] = {}
        self._path_of: List[Optional[str]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        # -- VM id space -----------------------------------------------------
        self._vm_id: Dict[str, int] = {}
        self._vm_names: List[str] = []
        self._vm_free: List[int] = []
        self._vm_slots: Dict[str, List[int]] = {}

    # -- capacity ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot)

    @property
    def capacity(self) -> int:
        return self.hist.shape[0]

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("hist", "hist_n", "cap", "has_cap", "guarantee",
                     "vm_ids", "degraded", "run_len", "decide_valid",
                     "last_est", "last_trend", "last_case",
                     "last_decide_cap", "last_quota"):
            arr = getattr(self, name)
            shape = (new,) + arr.shape[1:]
            grown = np.zeros(shape, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._path_of.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    # -- VM ids -----------------------------------------------------------------

    def _vm_id_for(self, vm_name: str) -> int:
        vid = self._vm_id.get(vm_name)
        if vid is None:
            if self._vm_free:
                vid = self._vm_free.pop()
                self._vm_names[vid] = vm_name
            else:
                vid = len(self._vm_names)
                self._vm_names.append(vm_name)
            self._vm_id[vm_name] = vid
            self._vm_slots[vm_name] = []
        return vid

    @property
    def num_vm_ids(self) -> int:
        """Size of the dense VM-id space (``np.bincount`` minlength)."""
        return len(self._vm_names)

    def vm_name_of_id(self, vm_id: int) -> str:
        return self._vm_names[vm_id]

    def vm_name_of_slot(self, slot: int) -> str:
        return self._vm_names[int(self.vm_ids[slot])]

    # -- slot lifecycle ---------------------------------------------------------

    def slot_of(self, path: str) -> Optional[int]:
        return self._slot.get(path)

    def ensure_slot(
        self,
        path: str,
        vm_name: str,
        guarantee: float,
        initial_cap: Optional[float] = None,
    ) -> int:
        """Slot for ``path``, assigning (and seeding) one if new."""
        slot = self._slot.get(path)
        if slot is not None:
            return slot
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._slot[path] = slot
        self._path_of[slot] = path
        self.hist[slot] = 0.0
        self.hist_n[slot] = 0
        self.guarantee[slot] = guarantee
        self.degraded[slot] = False
        self.run_len[slot] = 0
        self.decide_valid[slot] = False
        self.last_quota[slot] = -1
        if initial_cap is None:
            self.cap[slot] = 0.0
            self.has_cap[slot] = False
        else:
            self.cap[slot] = initial_cap
            self.has_cap[slot] = True
        vid = self._vm_id_for(vm_name)
        self.vm_ids[slot] = vid
        self._vm_slots[vm_name].append(slot)
        return slot

    def release_path(self, path: str) -> None:
        """Free a vCPU's slot (cgroup destroyed / VM unregistered)."""
        slot = self._slot.pop(path, None)
        if slot is None:
            return
        vm_name = self.vm_name_of_slot(slot)
        self._path_of[slot] = None
        self.hist_n[slot] = 0
        self.has_cap[slot] = False
        self.degraded[slot] = False
        self.run_len[slot] = 0
        self.decide_valid[slot] = False
        self.last_quota[slot] = -1
        self._free.append(slot)
        slots = self._vm_slots.get(vm_name)
        if slots is not None:
            slots.remove(slot)

    def release_vm(self, vm_name: str) -> None:
        """Free every slot of a VM and recycle its dense id."""
        for slot in list(self._vm_slots.get(vm_name, ())):
            path = self._path_of[slot]
            if path is not None:
                self.release_path(path)
        vid = self._vm_id.pop(vm_name, None)
        if vid is not None:
            self._vm_slots.pop(vm_name, None)
            self._vm_names[vid] = ""
            self._vm_free.append(vid)

    def clear(self) -> None:
        """Drop everything (controller reset before snapshot restore)."""
        capacity = self.capacity
        self.hist_n[:] = 0
        self.has_cap[:] = False
        self.degraded[:] = False
        self.run_len[:] = 0
        self.decide_valid[:] = False
        self.last_quota[:] = -1
        self._slot.clear()
        self._path_of = [None] * capacity
        self._free = list(range(capacity - 1, -1, -1))
        self._vm_id.clear()
        self._vm_names = []
        self._vm_free = []
        self._vm_slots.clear()

    # -- guarantees (cached Eq. 2) ----------------------------------------------

    def set_vm_guarantee(self, vm_name: str, guarantee: float) -> None:
        """Refresh the cached ``C_i`` of a VM's live slots (set_vfreq)."""
        slots = self._vm_slots.get(vm_name)
        if slots:
            self.guarantee[np.asarray(slots, dtype=np.intp)] = guarantee

    # -- histories --------------------------------------------------------------

    def observe(self, rows: np.ndarray, consumed: np.ndarray) -> None:
        """Append one consumption per row (stage 2 history update)."""
        if rows.size == 0:
            return
        # Uniform-tail tracking must look at the newest sample *before*
        # the shift: extend the run when the incoming value repeats it.
        same = (self.hist_n[rows] > 0) & (self.hist[rows, -1] == consumed)
        self.run_len[rows] = np.where(same, self.run_len[rows] + 1, 1)
        self.hist[rows, :-1] = self.hist[rows, 1:]
        self.hist[rows, -1] = consumed
        self.hist_n[rows] = np.minimum(self.hist_n[rows] + 1, self.history_len)

    def history_of(self, path: str) -> List[float]:
        """Chronological consumption window of one vCPU (oldest first)."""
        slot = self._slot.get(path)
        if slot is None:
            return []
        n = int(self.hist_n[slot])
        return self.hist[slot, self.history_len - n:].tolist()

    def histories(self) -> Dict[str, List[float]]:
        """All non-empty windows, keyed by path (snapshot schema)."""
        out: Dict[str, List[float]] = {}
        for path, slot in self._slot.items():
            n = int(self.hist_n[slot])
            if n:
                out[path] = self.hist[slot, self.history_len - n:].tolist()
        return out

    def load_history(self, path: str, values: Sequence[float]) -> None:
        """Replace one vCPU's window (snapshot restore); keeps the tail."""
        slot = self._slot[path]
        vals = [float(v) for v in values][-self.history_len:]
        n = len(vals)
        self.hist[slot] = 0.0
        if n:
            self.hist[slot, self.history_len - n:] = vals
        self.hist_n[slot] = n
        # The window was replaced wholesale: the uniform-tail counter no
        # longer describes it, so the decision cache must not serve.
        self.run_len[slot] = 0
        self.decide_valid[slot] = False

    # -- caps and degraded flags ------------------------------------------------

    def set_caps(self, rows: np.ndarray, caps: np.ndarray) -> None:
        """Scatter this tick's enforced caps back into the slot columns."""
        self.cap[rows] = caps
        self.has_cap[rows] = True

    def set_cap_path(self, path: str, cap: float) -> None:
        slot = self._slot.get(path)
        if slot is not None:
            self.cap[slot] = cap
            self.has_cap[slot] = True

    def set_degraded(self, path: str, flag: bool) -> None:
        slot = self._slot.get(path)
        if slot is not None:
            self.degraded[slot] = flag

    def num_degraded(self) -> int:
        return int(np.count_nonzero(self.degraded))

    # -- the per-tick gather ----------------------------------------------------

    def ingest(
        self,
        samples: Iterable,
        guarantee_of: Callable[[str], float],
        initial_caps: Optional[Dict[str, float]] = None,
    ) -> TickView:
        """Gather one tick's samples into sample-order arrays.

        New paths get slots on the fly, seeded with the VM's cached
        guarantee and (if present) the cap restored from a snapshot.
        """
        samples = list(samples)
        n = len(samples)
        rows = np.empty(n, dtype=np.intp)
        consumed = np.empty(n)
        paths: List[str] = []
        vms: List[str] = []
        vm_order: List[Tuple[str, int]] = []
        seen_vms: Dict[str, int] = {}
        slot_map = self._slot
        for i, s in enumerate(samples):
            path = s.cgroup_path
            vm_name = s.vm_name
            slot = slot_map.get(path)
            if slot is None:
                seed_cap = None
                if initial_caps is not None:
                    seed_cap = initial_caps.get(path)
                slot = self.ensure_slot(
                    path, vm_name, guarantee_of(vm_name), seed_cap
                )
            rows[i] = slot
            consumed[i] = s.consumed_cycles
            paths.append(path)
            vms.append(vm_name)
            if vm_name not in seen_vms:
                seen_vms[vm_name] = 1
                vm_order.append((vm_name, self._vm_id[vm_name]))
        return TickView(
            rows=rows, consumed=consumed, paths=paths,
            vms=vms, vm_order=vm_order,
        )


# -- vectorised stage 2 ----------------------------------------------------------


def _decide_core(
    table: VcpuTable,
    rows: np.ndarray,
    u: np.ndarray,
    n_arr: np.ndarray,
    cap: np.ndarray,
    cfg: ControllerConfig,
    p_us: float,
    floor: float,
    eps: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stage-2 decision arithmetic over one set of rows.

    Pure per-element function of (history window, cap, config), so
    computing it over any subset of rows yields the same values as
    over the full population — the property the dirty-set cache in
    :func:`decide_batch` relies on.
    """
    n = rows.size
    est = np.empty(n)
    trend = np.zeros(n)
    case = np.full(n, _WARMUP, dtype=np.int8)

    # Warmup (one observation): estimate = clip(max(u, cap)).
    m1 = n_arr <= 1
    if m1.any():
        est[m1] = np.maximum(u[m1], cap[m1])

    # Eq. 3 slopes, grouped by window length so each group's window is a
    # dense (group, n) matrix.  The accumulations loop over the ≤
    # history_len columns, adding population vectors in the scalar
    # loop's order (num and mean both start from 0.0 exactly).
    L = table.history_len
    for win in range(2, L + 1):
        mask = n_arr == win
        if not mask.any():
            continue
        idx = rows[mask]
        window = table.hist[idx][:, L - win:]
        dx, denom = centering_weights(win, cfg.literal_trend)
        acc = np.zeros(idx.size)
        for k in range(win):
            acc += window[:, k]
        mean = acc / win
        num = np.zeros(idx.size)
        for k in range(win):
            num += dx[k] * (window[:, k] - mean)
        trend[mask] = num / denom if denom != 0.0 else 0.0

    m2 = ~m1
    if m2.any():
        u2 = u[m2]
        cap2 = cap[m2]
        slope2 = trend[m2]
        e2 = np.empty(u2.size)
        c2 = np.empty(u2.size, dtype=np.int8)
        inc = (slope2 > eps) & (u2 >= cfg.increase_trigger * cap2)
        dec = ~inc & (slope2 < -eps) & (u2 <= cfg.decrease_trigger * cap2)
        rest = ~inc & ~dec
        # Stable case's pegged-at-cap escape (see estimator.decide).
        pegged = rest & (u2 >= 0.99 * cap2) & (slope2 >= -eps)
        stable = rest & ~pegged
        grow = inc | pegged
        e2[grow] = cap2[grow] * cfg.increase_mult
        e2[dec] = np.maximum(cap2[dec] * cfg.decrease_mult, u2[dec])
        e2[stable] = u2[stable] / cfg.increase_trigger
        c2[grow] = _INCREASE
        c2[dec] = _DECREASE
        c2[stable] = _STABLE
        est[m2] = e2
        case[m2] = c2

    np.maximum(est, floor, out=est)
    np.minimum(est, p_us, out=est)
    return est, trend, case


def decide_batch(
    table: VcpuTable,
    view: TickView,
    config: ControllerConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-2 decisions for every sampled vCPU at once.

    Returns ``(estimates, trends, case_codes)`` in sample order,
    bit-identical to calling
    :meth:`repro.core.estimator.TrendEstimator.decide` per path.
    Histories must already include this tick's observation
    (:meth:`VcpuTable.observe` first), mirroring the scalar order.

    Dirty-set recompute: rows whose decision inputs provably did not
    change since their last decision — the consumption window shifted
    in a repeat of itself (``run_len > history_len``) and the cap
    equals the exact value the cached decision was computed against —
    are served from the per-slot cache instead of recomputed.  The decision is a pure
    per-element function of (window, cap, config), so cached and
    recomputed values are bit-identical by construction (and proved
    against the scalar oracle by the cross-engine harness on fuzzed
    traces).
    """
    cfg = config
    p_us = period_us(cfg.period_s)
    floor = cfg.min_cap_frac * p_us
    eps = cfg.trend_epsilon * p_us
    rows = view.rows
    u = view.consumed
    n = rows.size

    n_arr = table.hist_n[rows]
    cap_raw = np.where(table.has_cap[rows], table.cap[rows], p_us)
    cap = np.maximum(cap_raw, floor)

    clean = (
        table.decide_valid[rows]
        & (table.run_len[rows] > table.history_len)
        & (table.last_decide_cap[rows] == cap)
    )
    est = np.empty(n)
    trend = np.empty(n)
    case = np.empty(n, dtype=np.int8)
    if clean.any():
        r = rows[clean]
        est[clean] = table.last_est[r]
        trend[clean] = table.last_trend[r]
        case[clean] = table.last_case[r]
    dirty = ~clean
    if dirty.any():
        e, tr, ca = _decide_core(
            table, rows[dirty], u[dirty], n_arr[dirty], cap[dirty],
            cfg, p_us, floor, eps,
        )
        est[dirty] = e
        trend[dirty] = tr
        case[dirty] = ca
    table.last_est[rows] = est
    table.last_trend[rows] = trend
    table.last_case[rows] = case
    table.last_decide_cap[rows] = cap
    table.decide_valid[rows] = True
    return est, trend, case


def build_decisions(
    paths: List[str],
    estimates: np.ndarray,
    trends: np.ndarray,
    cases: np.ndarray,
) -> Dict[str, EstimatorDecision]:
    """Materialise the per-path decision dict (report detail only).

    Python floats are used so reports and snapshots serialise exactly
    like the scalar engine's.
    """
    est = estimates.tolist()
    tr = trends.tolist()
    return {
        path: EstimatorDecision(
            estimate_cycles=est[i], trend=tr[i], case=_CASE_OF_CODE[int(cases[i])]
        )
        for i, path in enumerate(paths)
    }


def gather_free_shares(
    paths: List[str], needy: np.ndarray, shares: np.ndarray
) -> Dict[str, float]:
    """Materialise stage-5 shares as the scalar engine's leftover dict.

    ``needy`` indexes ``paths`` in sample order (``np.flatnonzero`` is
    ascending), matching the scalar ``distribute_leftovers`` insertion
    order; zero shares are dropped exactly like its ``share > 0``
    filter, so both engines report the identical mapping.
    """
    return {
        paths[i]: share
        for i, share in zip(needy.tolist(), shares.tolist())
        if share > 0
    }
