"""Stage 4 — the cycles auction (paper §III-B4, Eq. 6 and Algorithm 1).

Cycles left unallocated after the base capping form the *market*
(Eq. 6).  They are sold to *buyers* — vCPUs whose allocation is below
their estimate — in rounds of at most ``window`` cycles per VM per
round, paid 1:1 from the VM's credit wallet.  The window prevents a rich
VM from draining the market; rounds iterate over VMs in descending
wallet order (priority to frugal VMs) until the market is empty, every
buyer is satisfied, or no remaining buyer can pay.

Implementation: an incremental heap instead of a per-round re-sort.
The naive Algorithm 1 sorts every VM each round and rebuilds the sort
key closure, costing ``O(rounds * V log V)`` on a dense host where the
window makes rounds numerous by design.  Here the shopping order is a
single heap built once per auction, keyed on
``(round, -priority, -wallet, vm)``; a VM that buys is lazily
re-inserted for the next round with its post-purchase wallet — which is
exactly the balance the old per-round sort would have observed at that
round's start, so the purchase sequence (and therefore every outcome
field, including ``rounds``) is bit-identical to the round-based
original at ``O(purchases * log V)``.

The array auction
-----------------
:func:`run_auction_arrays` is the bulk engine's stage 4.  It produces
the exact :class:`AuctionOutcome` of :func:`run_auction` — same floats,
same dict insertion order, same wallets — from sample-order arrays,
because every purchase of the heap loop is reproduced operation for
operation:

* **Per-VM sequences.**  Apart from the shared market, a VM's purchases
  depend only on its own wallet and residuals, and it buys once per
  round from round 1 until it stops.  So each VM's purchase sequence is
  computed alone, as if the market were unbounded.
* **Full-window runs.**  While a VM's wallet holds at least a window and
  its first unfilled vCPU needs more than a window, every purchase
  takes exactly ``window`` from that one vCPU: ``min`` picks the window
  (a left-to-right ``sum`` of non-negative residuals is at least each
  of them),
  the greedy spread stops after that vCPU, and the wallet and residual
  each lose ``window`` by one subtraction.  A VM x round matrix under
  ``np.subtract.accumulate`` performs those subtractions left to right,
  the same bits as the loop.  The few other purchases (a vCPU draining
  into the next, the tail where the wallet or need runs short) run the
  heap loop's scalar body verbatim.
* **Merge.**  The heap pops its entries in ascending
  ``(round, -priority, -wallet, vm)`` order because every re-insertion
  lands in a later round; one ``np.lexsort`` on those keys therefore
  puts all purchases in the loop's global order, and
  ``np.subtract.accumulate`` over the sorted buys is the loop's market
  trajectory.  Purchases before the first one the market cannot cover
  are unaffected by it.  Every purchase exceeds the loop's 1e-9 floor,
  so if at most 1e-9 is left there the loop had already stopped;
  otherwise that purchase is recomputed with the market as its cap
  (replaying only its own VM) and empties the market.  Every later
  purchase is dropped.
* **Totals.**  Per-path and per-VM totals are ``np.bincount`` sums over
  takes and buys in global purchase order — sequential additions from
  ``0.0``, exactly the loop's ``get(key, 0.0) + x`` — and each dict's
  keys are inserted in order of their first purchase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.credits import CreditLedger


@dataclass
class AuctionOutcome:
    """Result of one auction: per-vCPU purchased cycles and market left."""

    purchased: Dict[str, float] = field(default_factory=dict)
    market_left: float = 0.0
    rounds: int = 0
    spent_per_vm: Dict[str, float] = field(default_factory=dict)


def compute_market(total_cycles: float, allocations: Mapping[str, float]) -> float:
    """Eq. 6: node cycle budget minus the sum of current allocations."""
    market = total_cycles - sum(allocations.values())
    return max(0.0, market)


def run_auction(
    market: float,
    demands: Mapping[str, float],
    vm_of: Mapping[str, str],
    ledger: CreditLedger,
    window: float,
    priorities: "Mapping[str, float] | None" = None,
) -> AuctionOutcome:
    """Algorithm 1 — sell ``market`` cycles to credit-holding buyers.

    Parameters
    ----------
    market:
        Unallocated cycles to sell.
    demands:
        Residual demand per vCPU path (``e - c``, only entries > 0 count).
    vm_of:
        vCPU path -> owning VM name (wallets are per VM).
    ledger:
        Credit wallets; purchases are deducted.
    window:
        Max cycles one VM may buy per round.
    priorities:
        Optional per-VM priority (e.g. the guaranteed frequency, for the
        paper's §V cache-aware extension): higher-priority VMs shop
        before richer ones; credits break ties.
    """
    if market < 0:
        raise ValueError("market must be >= 0")
    if window <= 0:
        raise ValueError("window must be positive")

    outcome = AuctionOutcome(market_left=market)
    if market <= 0:
        return outcome
    # Residual demand grouped by VM, preserving per-vCPU detail.  Paths
    # of VMs that cannot pay at all are dropped here: their wallet only
    # shrinks during an auction, so they could never buy — admitting
    # them would just burn a heap pop per broke VM.
    balances: Dict[str, float] = {}
    residual: Dict[str, float] = {}
    by_vm: Dict[str, List[str]] = {}
    any_demand = False
    for path, need in demands.items():
        if need <= 1e-9:
            continue
        any_demand = True
        vm = vm_of[path]
        balance = balances.get(vm)
        if balance is None:
            balance = balances[vm] = ledger.balance(vm)
        if balance <= 1e-9:
            continue
        residual[path] = need
        by_vm.setdefault(vm, []).append(path)
    if not by_vm:
        # With demand but no funded buyer the round-based loop would
        # still have entered one round before noticing nobody can pay.
        outcome.rounds = 1 if any_demand else 0
        return outcome
    # A VM's purchase is spread over its vCPUs greedily in list order;
    # sort once so the outcome does not depend on the monitor's dict
    # insertion order (stable under sample reordering).
    for paths in by_vm.values():
        paths.sort()

    def entry(round_no: int, vm: str, balance: float):
        # heapq pops the smallest tuple: earliest round first, then the
        # descending (priority, wallet) order of the per-round sort, VM
        # name as the total-order tie break.
        if priorities is None:
            return (round_no, -balance, vm)
        return (round_no, -priorities.get(vm, 0.0), -balance, vm)

    heap = [entry(1, vm, balances[vm]) for vm in by_vm]
    heapq.heapify(heap)

    rounds_entered = 0
    progress_in_round = False
    while heap and outcome.market_left > 1e-9:
        item = heapq.heappop(heap)
        round_no, vm = item[0], item[-1]
        if round_no > rounds_entered:
            rounds_entered = round_no
            progress_in_round = False
        balance = ledger.balance(vm)
        if balance <= 1e-9:
            continue
        vm_need = sum(residual[p] for p in by_vm[vm])
        if vm_need <= 1e-9:
            continue
        buy = min(window, vm_need, balance, outcome.market_left)
        if buy <= 1e-9:
            continue
        _allocate_to_vcpus(by_vm[vm], residual, buy, outcome.purchased)
        ledger.spend(vm, buy)
        outcome.spent_per_vm[vm] = outcome.spent_per_vm.get(vm, 0.0) + buy
        outcome.market_left -= buy
        progress_in_round = True
        new_balance = ledger.balance(vm)
        # Re-enter the next round under the same conditions the per-round
        # original would re-admit this VM (need recomputed from the
        # residual map, not decremented — the rounding can differ).
        new_need = sum(residual[p] for p in by_vm[vm])
        if new_balance > 1e-9 and new_need > 1e-9:
            heapq.heappush(heap, entry(round_no + 1, vm, new_balance))
    # Round accounting matches the per-round original: when the heap
    # drains with market left, the old loop would still have entered one
    # more (empty) round before noticing nobody can buy — unless the
    # last entered round was already progress-free.
    if outcome.market_left > 1e-9 and progress_in_round:
        rounds_entered += 1
    outcome.rounds = rounds_entered
    return outcome


def _allocate_to_vcpus(
    paths: List[str],
    residual: Dict[str, float],
    amount: float,
    purchased: Dict[str, float],
) -> None:
    """Spread a VM's purchase across its needing vCPUs, greedily in order."""
    remaining = amount
    for path in paths:
        if remaining <= 1e-12:
            break
        take = min(residual[path], remaining)
        if take <= 0:
            continue
        residual[path] -= take
        purchased[path] = purchased.get(path, 0.0) + take
        remaining -= take
    if remaining > 1e-6:
        raise AssertionError(
            f"auction invariant violated: {remaining} cycles bought but unassignable"
        )


#: Cell budget of one full-window run matrix (VMs x rounds); longer runs
#: continue in the next pass.
_RUN_CELLS = 1 << 18


def _purchase(
    residual: List[float],
    start: int,
    balance: float,
    window: float,
    market: float,
    takes: List[Tuple[int, float]],
) -> float:
    """One purchase of the heap loop's body on a VM's residual list.

    ``residual`` is in sorted-path order and is updated in place; the
    entries before ``start`` are drained (exactly 0.0), so skipping them
    is what ``_allocate_to_vcpus`` does with their zero takes.  Appends
    ``(index, take)`` to ``takes`` and returns the cycles bought.
    """
    buy = min(window, sum(residual), balance, market)
    remaining = buy
    for j in range(start, len(residual)):
        if remaining <= 1e-12:
            break
        res = residual[j]
        take = min(res, remaining)
        if take <= 0:
            continue
        residual[j] = res - take
        takes.append((j, take))
        remaining -= take
    if remaining > 1e-6:
        raise AssertionError(
            f"auction invariant violated: {remaining} cycles bought but unassignable"
        )
    return buy


def _first_unfilled(residual: List[float], start: int) -> int:
    last = len(residual) - 1
    while start < last and residual[start] <= 0.0:
        start += 1
    return start


class _Purchases(NamedTuple):
    """Every purchase of every funded VM under an unbounded market.

    Per-purchase arrays are indexed by purchase id; the takes (one
    vCPU's share of a purchase) are grouped by purchase id in greedy
    order.
    """

    vm: np.ndarray
    round: np.ndarray
    wallet: np.ndarray  # balance before the purchase (the heap key)
    after: np.ndarray  # balance the purchase leaves
    buy: np.ndarray
    take_pid: np.ndarray
    take_pos: np.ndarray
    take_amt: np.ndarray


def _unbounded_purchases(
    residuals: List[List[float]],
    members: List[List[int]],
    wallets: List[float],
    window: float,
) -> _Purchases:
    """Each VM's purchase sequence as if the market never ran out.

    ``residuals[v]`` (updated in place) and ``members[v]`` are VM
    ``v``'s needs and sample positions in sorted-path order.  Scalar
    purchases run :func:`_purchase`; full-window runs of all runnable
    VMs are computed together with ``np.subtract.accumulate``.
    """
    n_vms = len(wallets)
    cursor = [0] * n_vms
    next_round = [1] * n_vms
    scalar: List[Tuple[int, int, float, float, float]] = []
    s_take_pid: List[int] = []
    s_take_pos: List[int] = []
    s_take_amt: List[float] = []
    runs: List[Tuple[np.ndarray, ...]] = []
    takes: List[Tuple[int, float]] = []
    inf = float("inf")

    active = list(range(n_vms))
    while active:
        runnable = []
        for v in active:
            r = residuals[v]
            pos = members[v]
            balance = wallets[v]
            c = cursor[v]
            rnd = next_round[v]
            while True:
                if balance >= window and r[c] > window:
                    runnable.append(v)
                    break
                takes.clear()
                buy = _purchase(r, c, balance, window, inf, takes)
                pid = len(scalar)
                for j, take in takes:
                    s_take_pid.append(pid)
                    s_take_pos.append(pos[j])
                    s_take_amt.append(take)
                after = max(0.0, balance - buy)
                scalar.append((v, rnd, balance, after, buy))
                balance = after
                rnd += 1
                c = _first_unfilled(r, c)
                if not (balance > 1e-9 and sum(r) > 1e-9):
                    break
            wallets[v] = balance
            cursor[v] = c
            next_round[v] = rnd
        if not runnable:
            break
        # Column k of the accumulated matrices is the wallet / residual
        # before the run's k-th purchase.
        rows = len(runnable)
        b0 = np.array([wallets[v] for v in runnable])
        r0 = np.array([residuals[v][cursor[v]] for v in runnable])
        width = int(min(float(np.minimum(b0, r0).max()) / window,
                        _RUN_CELLS / rows)) + 2
        wallet_m = np.full((rows, width + 1), window)
        wallet_m[:, 0] = b0
        wallet_m = np.subtract.accumulate(wallet_m, axis=1)
        resid_m = np.full((rows, width + 1), window)
        resid_m[:, 0] = r0
        resid_m = np.subtract.accumulate(resid_m, axis=1)
        ok = (wallet_m[:, :width] >= window) & (resid_m[:, :width] > window)
        steps = ok.sum(axis=1)
        rounds0 = np.array([next_round[v] for v in runnable])
        runs.append((
            np.repeat(np.asarray(runnable, dtype=np.intp), steps),
            (rounds0[:, None] + np.arange(width))[ok],
            wallet_m[:, :width][ok],
            wallet_m[:, 1:][ok],
            np.repeat(np.array([members[v][cursor[v]] for v in runnable]), steps),
        ))
        end_wallet = wallet_m[np.arange(rows), steps].tolist()
        end_resid = resid_m[np.arange(rows), steps].tolist()
        active = []
        for k, (v, n) in enumerate(zip(runnable, steps.tolist())):
            wallets[v] = end_wallet[k]
            residuals[v][cursor[v]] = end_resid[k]
            next_round[v] += n
            if wallets[v] > 1e-9 and sum(residuals[v]) > 1e-9:
                active.append(v)

    s_vm, s_round, s_wallet, s_after, s_buy = (
        [list(col) for col in zip(*scalar)] if scalar else ([], [], [], [], [])
    )
    n_scalar = len(scalar)
    n_run = sum(run[0].size for run in runs)
    full_windows = np.full(n_run, window)
    return _Purchases(
        vm=np.concatenate([np.asarray(s_vm, dtype=np.intp)]
                          + [run[0] for run in runs]),
        round=np.concatenate([np.asarray(s_round, dtype=np.int64)]
                             + [run[1] for run in runs]),
        wallet=np.concatenate([np.asarray(s_wallet)] + [run[2] for run in runs]),
        after=np.concatenate([np.asarray(s_after)] + [run[3] for run in runs]),
        buy=np.concatenate([np.asarray(s_buy), full_windows]),
        take_pid=np.concatenate([np.asarray(s_take_pid, dtype=np.intp),
                                 np.arange(n_scalar, n_scalar + n_run)]),
        take_pos=np.concatenate([np.asarray(s_take_pos, dtype=np.intp)]
                                + [run[4] for run in runs]),
        take_amt=np.concatenate([np.asarray(s_take_amt), full_windows]),
    )


def run_auction_arrays(
    market: float,
    demand: np.ndarray,
    paths: Sequence[str],
    vms: Sequence[str],
    ledger: CreditLedger,
    window: float,
    priorities: "Mapping[str, float] | None" = None,
) -> Tuple[AuctionOutcome, np.ndarray]:
    """Algorithm 1 on arrays, bit-identical to :func:`run_auction`.

    ``demand[i]`` is the residual demand of vCPU ``paths[i]``, owned by
    VM ``vms[i]`` (only entries > 1e-9 count).  Wallets in ``ledger``
    are charged exactly as :func:`run_auction` charges them.  Returns
    the outcome and the cycles bought per position (0.0 where none).
    See the module docstring for why the result is exact.
    """
    if market < 0:
        raise ValueError("market must be >= 0")
    if window <= 0:
        raise ValueError("window must be positive")
    outcome = AuctionOutcome(market_left=market)
    bought = np.zeros(len(paths))
    if market <= 0:
        return outcome, bought
    demand = np.asarray(demand, dtype=np.float64)
    candidates = np.flatnonzero(demand > 1e-9)
    if candidates.size == 0:
        return outcome, bought
    # Funded buyers grouped by VM (first-seen order), as run_auction does.
    balances: Dict[str, float] = {}
    by_vm: Dict[str, List[int]] = {}
    for i in candidates.tolist():
        vm = vms[i]
        balance = balances.get(vm)
        if balance is None:
            balance = balances[vm] = ledger.balance(vm)
        if balance > 1e-9:
            by_vm.setdefault(vm, []).append(i)
    if not by_vm or window <= 1e-9:
        # Nobody can pay, or no purchase can exceed the 1e-9 floor: the
        # loop enters one round (if there is a market to sell) and stops.
        outcome.rounds = 1 if not by_vm or market > 1e-9 else 0
        return outcome, bought

    names = list(by_vm)
    members = [sorted(by_vm[vm], key=paths.__getitem__) for vm in names]
    demand_of = demand.tolist()
    initial = [[demand_of[i] for i in idx] for idx in members]
    p = _unbounded_purchases(
        [list(r) for r in initial], members,
        [balances[vm] for vm in names], window,
    )

    # The heap loop's global order: (round, -priority, -wallet, name).
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    keys = [rank[p.vm], -p.wallet]
    if priorities is not None:
        prio = np.array([priorities.get(vm, 0.0) for vm in names])
        keys.append(-prio[p.vm])
    keys.append(p.round)
    order = np.lexsort(keys)
    total = order.size

    # Market trajectory: left[j] is the market before the j-th purchase.
    # The first purchase the market cannot fully serve is the cut: with
    # more than 1e-9 left it buys the rest, else (every buy exceeds 1e-9)
    # the loop had already stopped.
    buys = p.buy[order]
    left = np.subtract.accumulate(np.concatenate(([market], buys)))
    short = buys > left[:-1]
    cut = int(short.argmax()) if short.any() else total

    seq_vm = p.vm[order[:cut]]
    seq_buy = buys[:cut]
    seq_after = p.after[order[:cut]]
    pid_rank = np.empty(total, dtype=np.intp)
    pid_rank[order] = np.arange(total)
    take_rank = pid_rank[p.take_pid]
    kept = np.flatnonzero(take_rank < cut)
    kept = kept[np.argsort(take_rank[kept], kind="stable")]
    take_pos = p.take_pos[kept]
    take_amt = p.take_amt[kept]

    if cut < total and left[cut] > 1e-9:
        # The purchase the market caps: replay its VM's earlier
        # purchases (one per round), then buy with the market as cap.
        pid = int(order[cut])
        v = int(p.vm[pid])
        r = list(initial[v])
        balance = balances[names[v]]
        c = 0
        takes: List[Tuple[int, float]] = []
        for _ in range(int(p.round[pid]) - 1):
            buy = _purchase(r, c, balance, window, float("inf"), takes)
            balance = max(0.0, balance - buy)
            c = _first_unfilled(r, c)
            takes.clear()
        buy = _purchase(r, c, balance, window, float(left[cut]), takes)
        seq_vm = np.append(seq_vm, v)
        seq_buy = np.append(seq_buy, buy)
        seq_after = np.append(seq_after, max(0.0, balance - buy))
        take_pos = np.append(take_pos, [members[v][j] for j, _ in takes])
        take_amt = np.append(take_amt, [take for _, take in takes])
        outcome.market_left = float(left[cut]) - buy
        outcome.rounds = int(p.round[pid])
    else:
        outcome.market_left = float(left[cut])
        last_round = int(p.round[order[cut - 1]]) if cut else 0
        outcome.rounds = last_round + (
            1 if cut and outcome.market_left > 1e-9 else 0
        )

    if take_pos.size:
        bought = np.bincount(take_pos, weights=take_amt, minlength=len(paths))
        first = list(dict.fromkeys(take_pos.tolist()))
        outcome.purchased = dict(
            zip([paths[i] for i in first], bought[first].tolist())
        )
    if seq_vm.size:
        spent = np.bincount(seq_vm, weights=seq_buy, minlength=len(names))
        # Keys in first-purchase order, each holding the wallet its VM's
        # last purchase left.
        final = dict(zip(seq_vm.tolist(), seq_after.tolist()))
        buyers = list(final)
        outcome.spent_per_vm = dict(
            zip([names[v] for v in buyers], spent[buyers].tolist())
        )
        ledger.settle((names[v], balance) for v, balance in final.items())
    return outcome, bought
