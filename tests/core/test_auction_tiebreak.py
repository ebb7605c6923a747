"""Regression tests for auction tie-breaking (ISSUE 4, satellite 2).

Two VMs with equal credits and equal demand are the degenerate case
where any nondeterminism in the heap order would show: the spread order
must be identical run-to-run, across both engines, and across a
snapshot restore mid-run.  The tie is broken by VM name (the total
order in the heap entry), so "a" shops before "b" — forever.  The unit
cases run on both the heap oracle and the array auction.
"""

import numpy as np

from repro.checking import Trace, replay
from repro.core.auction import run_auction, run_auction_arrays
from repro.core.config import ControllerConfig
from repro.core.credits import CreditLedger


def _array_auction(market, demands, vm_of, ledger, window):
    paths = list(demands)
    outcome, _ = run_auction_arrays(
        market, np.array([demands[p] for p in paths]), paths,
        [vm_of[p] for p in paths], ledger, window,
    )
    return outcome


class TestUnitTieBreak:
    auction = staticmethod(run_auction)

    def _tied_auction(self, market):
        ledger = CreditLedger(ControllerConfig.paper_evaluation())
        ledger.set_balance("vm-a", 50_000.0)
        ledger.set_balance("vm-b", 50_000.0)
        # vm-b first in sample order: the name, not the order, decides.
        demands = {"/m/vm-b/vcpu0": 40_000.0, "/m/vm-a/vcpu0": 40_000.0}
        vm_of = {"/m/vm-a/vcpu0": "vm-a", "/m/vm-b/vcpu0": "vm-b"}
        return self.auction(market, demands, vm_of, ledger, window=10_000.0)

    def test_name_order_wins_the_single_window(self):
        """With exactly one window of cycles for sale, the name-ordered
        first VM gets it — deterministically."""
        outcome = self._tied_auction(market=10_000.0)
        assert outcome.purchased == {"/m/vm-a/vcpu0": 10_000.0}
        assert outcome.spent_per_vm == {"vm-a": 10_000.0}

    def test_equal_split_when_market_allows(self):
        outcome = self._tied_auction(market=80_000.0)
        assert outcome.purchased["/m/vm-a/vcpu0"] == outcome.purchased["/m/vm-b/vcpu0"]

    def test_repeated_runs_identical(self):
        first = self._tied_auction(market=30_000.0)
        second = self._tied_auction(market=30_000.0)
        assert first.purchased == second.purchased
        assert first.spent_per_vm == second.spent_per_vm
        assert first.rounds == second.rounds


class TestUnitTieBreakArrays(TestUnitTieBreak):
    auction = staticmethod(_array_auction)


def _tied_trace(with_restart):
    """Two identical saturated VMs; optional mid-run controller restart."""
    events = [
        {"kind": "provision", "vm": "vm-a", "vcpus": 1, "vfreq": 900.0},
        {"kind": "provision", "vm": "vm-b", "vcpus": 1, "vfreq": 900.0},
        {"kind": "demand", "vm": "vm-a", "level": 1.0},
        {"kind": "demand", "vm": "vm-b", "level": 1.0},
    ]
    for t in range(12):
        if with_restart and t == 6:
            events.append({"kind": "restart"})
        events.append({"kind": "tick"})
    return Trace(header=Trace.make_header(seed=17), events=events)


class TestWholeLoopTieBreak:
    def test_identical_spread_across_engines(self):
        """replay() under both engines asserts bit-identity of every
        auction field each tick — a tie broken differently by the
        bulk path would fail here as engine_identity."""
        result = replay(_tied_trace(with_restart=False), collect_reports=True)
        assert result.ok, [str(v) for v in result.violations]
        # And the tie itself resolves symmetrically over the run: equal
        # wallets, equal demand -> equal cumulative purchases.
        scalar = result.reports["scalar"]
        bought = {"vm-a": 0.0, "vm-b": 0.0}
        for report in scalar:
            if report.auction is None:
                continue
            for vm, spent in report.auction.spent_per_vm.items():
                bought[vm] += spent
        assert abs(bought["vm-a"] - bought["vm-b"]) < 1e-6

    def test_identical_spread_across_snapshot_restore(self):
        """A snapshot restore mid-run (wallets, histories and usage
        baselines all carried) must not perturb the spread order: every
        tick's auction outcome matches the uninterrupted run."""
        plain = replay(_tied_trace(with_restart=False), collect_reports=True)
        restarted = replay(_tied_trace(with_restart=True), collect_reports=True)
        assert plain.ok and restarted.ok
        for engine in plain.engines:
            for a, b in zip(plain.reports[engine], restarted.reports[engine]):
                assert a.allocations == b.allocations
                assert a.wallets == b.wallets
                if a.auction is None:
                    assert b.auction is None
                    continue
                assert a.auction.purchased == b.auction.purchased
                assert a.auction.spent_per_vm == b.auction.spent_per_vm
