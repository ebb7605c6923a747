"""The array auction is bit-identical to the heap oracle ``run_auction``.

Every field of the outcome is compared with ``==`` on floats and on the
key order of ``purchased`` and ``spent_per_vm`` (``spent_per_vm`` is
serialised into the decision ledger, so its order reaches ledger
bytes), plus ``market_left``, ``rounds`` and every wallet afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.auction import run_auction, run_auction_arrays
from repro.core.config import ControllerConfig
from repro.core.credits import CreditLedger

WINDOW = 10_000.0
INF = float("inf")


def _ledger(balances, credit_cap=INF):
    ledger = CreditLedger(ControllerConfig.paper_evaluation(credit_cap=credit_cap))
    for vm, balance in balances.items():
        ledger.set_balance(vm, balance)
    return ledger


def _run_arrays(market, demands, vm_of, ledger, window, priorities=None):
    paths = list(demands)
    outcome, bought = run_auction_arrays(
        market,
        np.array([demands[p] for p in paths], dtype=float),
        paths,
        [vm_of[p] for p in paths],
        ledger,
        window,
        priorities=priorities,
    )
    for i, path in enumerate(paths):
        assert bought[i] == outcome.purchased.get(path, 0.0)
    return outcome


def assert_identical(market, demands, vm_of, balances, window,
                     priorities=None, credit_cap=INF):
    """Run both auctions on fresh, equal ledgers and compare bit for bit."""
    heap_ledger = _ledger(balances, credit_cap)
    array_ledger = _ledger(balances, credit_cap)
    heap = run_auction(market, demands, vm_of, heap_ledger, window,
                       priorities=priorities)
    arrays = _run_arrays(market, demands, vm_of, array_ledger, window,
                         priorities=priorities)
    assert list(arrays.purchased.items()) == list(heap.purchased.items())
    assert list(arrays.spent_per_vm.items()) == list(heap.spent_per_vm.items())
    assert arrays.market_left == heap.market_left
    assert arrays.rounds == heap.rounds
    assert list(array_ledger.wallets().items()) == \
        list(heap_ledger.wallets().items())
    return heap


# -- generated inputs -------------------------------------------------------------

def _whole_windows(window):
    """On and just around whole windows, where a run of full-window
    purchases ends."""
    return st.tuples(
        st.integers(1, 5), st.sampled_from([0.0, -0.5, 0.5])
    ).map(lambda kd: kd[0] * window + kd[1])


def _needs(window):
    return st.one_of(
        st.floats(0.0, 300_000.0),
        st.floats(0.0, window),  # below the window
        _whole_windows(window),
        st.floats(-1.0, 1e-9),  # not a buyer
        st.just(40_000.0),
    )


def _balances(window):
    return st.one_of(
        st.just(0.0),  # broke VMs
        st.floats(0.0, 2e-9),
        st.floats(0.0, 3 * window),  # below / around the window
        _whole_windows(window),
        st.floats(0.0, 1e6),
        st.just(50_000.0),  # equal wallets: the VM name decides
    )


@st.composite
def auctions(draw):
    window = draw(st.sampled_from([WINDOW, 5_000.0, 25_000.0, 7_777.7]))
    needs, wallets = _needs(window), _balances(window)
    num_vms = draw(st.integers(1, 6))
    names = draw(st.lists(
        st.sampled_from([f"vm-{k}" for k in range(10)]),
        min_size=num_vms, max_size=num_vms, unique=True,
    ))
    demands, vm_of, balances, vfreq = {}, {}, {}, {}
    for vm in names:
        balances[vm] = draw(wallets)
        vfreq[vm] = draw(st.sampled_from([500.0, 900.0, 1200.0, 2400.0]))
        for j in range(draw(st.integers(1, 8))):
            path = f"/machine.slice/{vm}/vcpu{j}"
            demands[path] = draw(needs)
            vm_of[path] = vm
    # Sample order is not sorted order: shuffle the dict.
    paths = draw(st.permutations(list(demands)))
    demands = {p: demands[p] for p in paths}
    total = sum(max(need, 0.0) for need in demands.values())
    market = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-9),  # below the auction's 1e-9 floor
        st.floats(0.0, 1.0).map(lambda f: f * total),  # runs out mid-way
        st.floats(1.0, 3.0).map(lambda f: f * total + 1.0),  # never runs out
    ))
    priorities = draw(st.sampled_from([None, vfreq]))
    credit_cap = draw(st.sampled_from([INF, 60_000.0, 1e6]))
    return market, demands, vm_of, balances, window, priorities, credit_cap


class TestArrayAuctionMatchesHeap:
    @settings(max_examples=300, deadline=None)
    @given(auctions())
    @example((
        25_000.0,
        {"/m/vm-b/vcpu0": 40_000.0, "/m/vm-a/vcpu0": 40_000.0},
        {"/m/vm-a/vcpu0": "vm-a", "/m/vm-b/vcpu0": "vm-b"},
        {"vm-a": 50_000.0, "vm-b": 50_000.0},
        WINDOW, None, INF,
    ))
    def test_generated(self, case):
        assert_identical(*case)

    def test_market_runs_out_mid_round(self):
        demands = {f"/m/vm-{k}/vcpu0": 100_000.0 for k in range(4)}
        vm_of = {p: p.split("/")[2] for p in demands}
        balances = {f"vm-{k}": 1e6 - k for k in range(4)}
        heap = assert_identical(65_000.0, demands, vm_of, balances, WINDOW)
        # Round 2 started (eight windows fit only in 2 rounds of 4)
        # and the market ran dry inside it.
        assert heap.rounds == 2
        assert heap.market_left == 0.0
        assert len(heap.spent_per_vm) == 4

    def test_market_below_the_floor_stops_the_loop(self):
        """Three windows sold leave 5e-10 cycles: the loop stops there
        instead of selling the crumb."""
        demands = {"/m/vm-a/vcpu0": 50_000.0, "/m/vm-b/vcpu0": 50_000.0}
        vm_of = {p: p.split("/")[2] for p in demands}
        heap = assert_identical(
            3 * WINDOW + 5e-10, demands, vm_of,
            {"vm-a": 1e6, "vm-b": 1e6}, WINDOW,
        )
        assert heap.rounds == 2
        assert 0.0 < heap.market_left <= 1e-9

    def test_frequency_priority_with_credit_cap(self):
        demands = {
            "/m/fast/vcpu0": 80_000.0, "/m/fast/vcpu1": 15_000.0,
            "/m/slow/vcpu0": 90_000.0,
        }
        vm_of = {p: p.split("/")[2] for p in demands}
        heap = assert_identical(
            120_000.0, demands, vm_of, {"fast": 1e6, "slow": 1e6}, WINDOW,
            priorities={"fast": 2400.0, "slow": 900.0}, credit_cap=60_000.0,
        )
        assert list(heap.spent_per_vm) == ["fast", "slow"]

    def test_needs_and_balances_below_the_window(self):
        demands = {f"/m/vm-a/vcpu{j}": 1_500.0 * (j + 1) for j in range(8)}
        demands["/m/vm-b/vcpu0"] = 3_000.0
        vm_of = {p: p.split("/")[2] for p in demands}
        assert_identical(
            1e6, demands, vm_of, {"vm-a": 9_000.0, "vm-b": 2_500.0}, WINDOW
        )

    def test_broke_and_tiny_markets(self):
        demands = {"/m/vm-a/vcpu0": 50_000.0, "/m/vm-b/vcpu0": 50_000.0}
        vm_of = {p: p.split("/")[2] for p in demands}
        for market in (0.0, 5e-10, 1e-9, 2e-9, 1e6):
            for balances in ({"vm-a": 0.0, "vm-b": 0.0},
                             {"vm-a": 0.0, "vm-b": 30_000.0}):
                assert_identical(market, demands, vm_of, balances, WINDOW)

    def test_window_below_the_purchase_floor(self):
        demands = {"/m/vm-a/vcpu0": 50_000.0}
        heap = assert_identical(
            1e6, demands, {"/m/vm-a/vcpu0": "vm-a"}, {"vm-a": 1e5}, 1e-10
        )
        assert heap.rounds == 1 and not heap.purchased

    def test_long_runs_cross_many_vcpus(self):
        """Eight vCPUs of a rich VM: full-window runs alternate with the
        purchases that drain one vCPU into the next."""
        demands = {f"/m/vm-a/vcpu{j}": 123_456.7 + j for j in range(8)}
        vm_of = {p: "vm-a" for p in demands}
        heap = assert_identical(5e6, demands, vm_of, {"vm-a": 2e6}, WINDOW)
        assert heap.rounds > 90

    def test_rejects_bad_arguments(self):
        ledger = _ledger({})
        with pytest.raises(ValueError):
            run_auction_arrays(-1.0, np.zeros(0), [], [], ledger, WINDOW)
        with pytest.raises(ValueError):
            run_auction_arrays(1.0, np.zeros(0), [], [], ledger, 0.0)
