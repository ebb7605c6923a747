"""In-memory time-series store for the cluster SLO plane.

The observability hub (PR 5) explains a single ``cpu.max`` write and
the shm telemetry lane (PR 8) publishes instantaneous scalars — neither
can answer a *windowed* question ("what fraction of tenant A's
guarantee checks failed over the last hour?").  :class:`SeriesStore`
closes that gap with fixed-capacity float64 rings keyed
``(name, labels)``, one ring per level of a raw → 10-tick → 100-tick
downsample ladder, and windowed queries (:meth:`~SeriesStore.avg`,
:meth:`~SeriesStore.rate`, :meth:`~SeriesStore.quantile`) that pick the
finest level still covering the window.

Everything is deterministic: appends happen at tick boundaries only,
downsampling is a plain mean over a fixed fanout, and queries are pure
functions of the stored values — the property the alert-determinism
suite (``tests/obs/test_slo_transparency.py``) leans on.

Ingest follows how the repo's planes report:

* :meth:`SeriesStore.ingest_report` — one finished
  :class:`~repro.core.controller.ControllerReport` plus the owning
  controller, post hoc like the obs hub, counting guarantee checks
  over the same decision rows the ledger records and billing meters;
* :meth:`SeriesStore.ingest_node_manager` — an in-process
  :class:`~repro.sim.node_manager.NodeManager` after a barrier tick,
  each node's report through :meth:`~SeriesStore.ingest_report`;
* :meth:`SeriesStore.ingest_shard_reader` — *objectless*: straight off
  a :class:`~repro.sim.shard_telemetry.ShardTelemetryReader`'s mapped
  NumPy blocks in the shm dialect, via a per-catalog column cache so
  the 1000-node steady state never touches a dict per node.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.ledger import decision_rows, shortfall

#: Canonical series names the SLO plane subscribes to.  One place, so
#: the ingest paths and ``slo.py`` can never drift apart.
S_TICK_SECONDS = "tick_seconds"                    # {node} gauge
S_STAGE_SECONDS = "stage_seconds"                  # {stage} gauge
S_ALLOC_CYCLES = "alloc_cycles"                    # {node} gauge
S_DEGRADED_VCPUS = "degraded_vcpus"                # {node} gauge
S_GUARANTEE_BAD = "guarantee_bad_total"            # {tenant} counter
S_GUARANTEE_CHECKS = "guarantee_checks_total"      # {tenant} counter
S_DEADLINE_BAD = "tick_deadline_bad_total"         # {} counter
S_DEADLINE_CHECKS = "tick_deadline_checks_total"   # {} counter
S_BACKEND_ERRORS = "backend_errors_total"          # {source} counter
S_BACKEND_OPS = "backend_ops_total"                # {source} counter
S_CREDITS_USD = "sla_credits_usd_total"            # {node} counter
S_REVENUE_USD = "revenue_usd_total"                # {node} counter
S_REBALANCE_PRESSURE = "rebalance_pressure_mhz"    # {} gauge

#: Label tuples are sorted ``(key, value)`` pairs — hashable, ordered.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One metric stream: a raw ring plus its downsample ladder.

    ``levels[0]`` holds the raw per-tick values; ``levels[k]`` holds
    means over ``fanout**k`` consecutive ticks, pushed exactly when the
    accumulator fills — so every level is a pure function of the append
    stream and two runs over identical data are bit-identical.
    """

    __slots__ = (
        "name", "labels", "capacity", "fanout",
        "_bufs", "_counts", "_acc", "_accn", "total",
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        *,
        capacity: int = 512,
        fanout: int = 10,
        depth: int = 3,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self.fanout = fanout
        self._bufs = [np.zeros(capacity, dtype=np.float64) for _ in range(depth)]
        self._counts = [0] * depth
        self._acc = [0.0] * depth          # partial sums feeding level k+1
        self._accn = [0] * depth
        self.total = 0                     # raw points ever appended

    def append(self, value: float) -> None:
        v = float(value)
        bufs = self._bufs
        counts = self._counts
        n = counts[0]
        bufs[0][n % self.capacity] = v
        counts[0] = n + 1
        self.total += 1
        # Cascade: a filled accumulator pushes one mean to the next level.
        acc, accn = self._acc, self._accn
        fanout = self.fanout
        for k in range(len(bufs) - 1):
            acc[k] += v
            accn[k] += 1
            if accn[k] < fanout:
                break
            v = acc[k] / fanout
            acc[k] = 0.0
            accn[k] = 0
            m = counts[k + 1]
            bufs[k + 1][m % self.capacity] = v
            counts[k + 1] = m + 1

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    @property
    def last(self) -> float:
        """Most recent raw value (0.0 before the first append)."""
        if self.total == 0:
            return 0.0
        return float(self._bufs[0][(self._counts[0] - 1) % self.capacity])

    def _level_for(self, window_ticks: int) -> int:
        """Finest ladder level whose ring still covers the window."""
        level = 0
        span = self.capacity
        while window_ticks > span and level < len(self._bufs) - 1:
            level += 1
            span *= self.fanout
        return level

    def tail(self, window_ticks: int) -> Tuple[np.ndarray, int]:
        """``(values, ticks_per_point)`` covering the last window.

        Values come back oldest-first, copied out of the ring.  The
        second element is ``fanout**level`` — how many raw ticks each
        returned point summarizes.
        """
        if window_ticks < 1:
            raise ValueError("window must be >= 1 tick")
        level = self._level_for(window_ticks)
        per_point = self.fanout ** level
        want = -(-window_ticks // per_point)  # ceil division
        count = self._counts[level]
        have = min(count, self.capacity, want)
        if have == 0:
            return np.empty(0, dtype=np.float64), per_point
        buf = self._bufs[level]
        end = count % self.capacity
        start = (end - have) % self.capacity
        if start < end:
            return buf[start:end].copy(), per_point
        return np.concatenate((buf[start:], buf[:end])), per_point

    # -- windowed queries --------------------------------------------------

    def avg(self, window_ticks: int) -> float:
        values, _ = self.tail(window_ticks)
        if values.size == 0:
            return 0.0
        return float(values.sum() / values.size)

    def rate(self, window_ticks: int) -> float:
        """Per-tick increase over the window (for counter series).

        ``(newest - oldest) / ticks_spanned`` on the finest covering
        level; one point (or none) means no measurable increase yet.
        """
        values, per_point = self.tail(window_ticks)
        if values.size < 2:
            return 0.0
        span = (values.size - 1) * per_point
        return float((values[-1] - values[0]) / span)

    def increase(self, window_ticks: int) -> float:
        """Total increase over the window (non-negative for counters)."""
        values, per_point = self.tail(window_ticks)
        if values.size < 2:
            return 0.0
        return float(values[-1] - values[0])

    def quantile(self, q: float, window_ticks: int) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        values, _ = self.tail(window_ticks)
        if values.size == 0:
            return 0.0
        return float(np.quantile(values, q))


class _ColumnGroup:
    """Per-catalog cache: one Series per row of an array-dialect ingest.

    Built once per (series name, label key, catalog) and then reused
    every tick, so the 1000-node steady state appends through a plain
    ``zip`` with zero per-node dict lookups.
    """

    __slots__ = ("series",)

    def __init__(self, series: List[Series]) -> None:
        self.series = series

    def append_array(self, values: np.ndarray) -> None:
        for series, value in zip(self.series, values.tolist()):
            series.append(value)


class SeriesStore:
    """All series of one plane, keyed ``(name, labels)``."""

    def __init__(
        self,
        *,
        capacity: int = 512,
        fanout: int = 10,
        depth: int = 3,
    ) -> None:
        self.capacity = capacity
        self.fanout = fanout
        self.depth = depth
        self._series: Dict[Tuple[str, LabelSet], Series] = {}
        self._totals: Dict[Tuple[str, LabelSet], float] = {}
        self._columns: Dict[Tuple, _ColumnGroup] = {}

    # -- series access -----------------------------------------------------

    def series(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Series:
        """The series for ``(name, labels)``, created on first use."""
        key = (name, _labelset(labels))
        found = self._series.get(key)
        if found is None:
            found = Series(
                name, key[1],
                capacity=self.capacity, fanout=self.fanout, depth=self.depth,
            )
            self._series[key] = found
        return found

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Series]:
        return self._series.get((name, _labelset(labels)))

    def select(self, name: str) -> List[Series]:
        """Every series of one name, across label sets (stable order)."""
        return [s for (n, _), s in self._series.items() if n == name]

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterable[Series]:
        return iter(self._series.values())

    # -- appends -----------------------------------------------------------

    def append(
        self, name: str, value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.series(name, labels).append(value)

    def accumulate(
        self, name: str, delta: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        """Add ``delta`` to a running counter and append the new total.

        The store keeps the cumulative value so ingest sites can report
        per-tick deltas (bad/total counts, credit dollars) and queries
        still see a monotone counter to take ``increase()`` over.
        """
        key = (name, _labelset(labels))
        total = self._totals.get(key, 0.0) + delta
        self._totals[key] = total
        self.series(name, labels).append(total)
        return total

    # -- windowed queries --------------------------------------------------

    def avg(
        self, name: str, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.avg(window_ticks) if found is not None else 0.0

    def rate(
        self, name: str, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.rate(window_ticks) if found is not None else 0.0

    def increase(
        self, name: str, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.increase(window_ticks) if found is not None else 0.0

    def quantile(
        self, name: str, q: float, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.quantile(q, window_ticks) if found is not None else 0.0

    # -- ingest: report dialect --------------------------------------------

    def ingest_report(
        self, controller, report, *, node: str = "node-0"
    ) -> Tuple[int, int]:
        """One finished tick, post hoc — the obs-hub dialect.

        Counts per-tenant guarantee checks and violations over the
        tick's decision rows (:func:`~repro.obs.ledger.decision_rows`,
        shared with the hub and the billing meter): every row with a
        fresh sample and a guarantee is one check, and a row meeting
        the meter's :func:`~repro.obs.ledger.shortfall` rule is bad.
        Also appends the per-node gauges.  Returns ``(bad, total)``
        summed over tenants, mostly for tests.
        """
        node_labels = {"node": node}
        self.append(S_TICK_SECONDS, report.timings.total, node_labels)
        alloc_total = 0.0
        for cycles in report.allocations.values():
            alloc_total += cycles
        self.append(S_ALLOC_CYCLES, alloc_total, node_labels)
        self.append(S_DEGRADED_VCPUS, float(len(report.degraded)), node_labels)

        bad_by_tenant: Dict[str, int] = {}
        total_by_tenant: Dict[str, int] = {}
        if controller is not None:
            tenants = controller._vm_tenant
            for row in decision_rows(controller, report):
                if row["consumed"] is None or row["guarantee"] is None:
                    continue
                tenant = tenants.get(row["vm"], "default")
                total_by_tenant[tenant] = total_by_tenant.get(tenant, 0) + 1
                if shortfall(row):
                    bad_by_tenant[tenant] = bad_by_tenant.get(tenant, 0) + 1
        bad = total = 0
        for tenant in sorted(total_by_tenant):
            nb = bad_by_tenant.get(tenant, 0)
            nt = total_by_tenant[tenant]
            labels = {"tenant": tenant}
            self.accumulate(S_GUARANTEE_BAD, float(nb), labels)
            self.accumulate(S_GUARANTEE_CHECKS, float(nt), labels)
            bad += nb
            total += nt
        return bad, total

    def ingest_backend_stats(
        self, stats, *, source: str = "node-0"
    ) -> None:
        """Cumulative backend counters -> error/ops counter series."""
        d = stats.as_dict()
        errors = float(d.get("read_errors", 0) + d.get("write_errors", 0))
        ops = float(sum(d.values())) - errors
        labels = {"source": source}
        self.append(S_BACKEND_ERRORS, errors, labels)
        self.append(S_BACKEND_OPS, ops, labels)

    # -- ingest: node-manager dialect --------------------------------------

    def ingest_node_manager(
        self, manager, *, deadline_s: Optional[float] = None
    ) -> None:
        """A barrier tick of an in-process manager.

        Each node's report in ``last_reports`` goes through
        :meth:`ingest_report` once (its per-node gauges and per-tenant
        guarantee counters); the cluster deadline counter compares each
        node's stage total against ``deadline_s`` when given.
        """
        controllers = getattr(manager, "controllers", {})
        bad = 0
        total = 0
        for node_id in sorted(manager.last_reports):
            report = manager.last_reports[node_id]
            self.ingest_report(controllers.get(node_id), report, node=node_id)
            total += 1
            if deadline_s is not None and report.timings.total > deadline_s:
                bad += 1
        if deadline_s is not None and total:
            self.accumulate(S_DEADLINE_BAD, float(bad))
            self.accumulate(S_DEADLINE_CHECKS, float(total))
        timings = manager.aggregate_timings()
        for stage in (
            "monitor", "estimate", "credits", "auction", "distribute", "enforce"
        ):
            self.append(
                S_STAGE_SECONDS, getattr(timings, stage), {"stage": stage}
            )
        self.ingest_backend_stats(manager.backend_stats(), source="cluster")

    # -- ingest: shm dialect -----------------------------------------------

    def _column_group(
        self, name: str, label_key: str, label_values: Sequence[str],
        cache_key: Tuple,
    ) -> _ColumnGroup:
        group = self._columns.get(cache_key)
        if group is None:
            group = _ColumnGroup([
                self.series(name, {label_key: value}) for value in label_values
            ])
            self._columns[cache_key] = group
        return group

    def ingest_shard_reader(
        self, reader, *, shard: str = "shard-0",
        deadline_s: Optional[float] = None,
    ) -> None:
        """One shard's published tick, straight off the mapped arrays.

        Objectless by construction: per-node tick seconds are a single
        vectorized row-sum over the stage columns, appended through a
        column cache keyed on the reader's catalog version — no per-node
        objects, dicts, or report materialization.  Uses the seqlock
        snapshot so a concurrently publishing writer can never tear the
        rows mid-read.
        """
        node_ids, nodes, backend, _invariants = reader.stable_snapshot()
        if not node_ids:
            return
        per_node_seconds = nodes[:, 0:6].sum(axis=1)
        group = self._column_group(
            S_TICK_SECONDS, "node", node_ids,
            (S_TICK_SECONDS, shard, node_ids),
        )
        group.append_array(per_node_seconds)
        stage_sums = nodes[:, 0:6].sum(axis=0)
        for k, stage in enumerate(
            ("monitor", "estimate", "credits", "auction", "distribute", "enforce")
        ):
            self.append(
                S_STAGE_SECONDS, float(stage_sums[k]),
                {"stage": stage, "shard": shard},
            )
        if deadline_s is not None:
            bad = int(np.count_nonzero(per_node_seconds > deadline_s))
            self.accumulate(S_DEADLINE_BAD, float(bad))
            self.accumulate(S_DEADLINE_CHECKS, float(len(node_ids)))
        # Backend counters: reader order follows BACKEND_FIELDS; errors
        # are the two *_errors fields, ops the rest (kept in sync with
        # ingest_backend_stats via the shared field names).
        from repro.sim.shard_telemetry import BACKEND_FIELDS

        errors = ops = 0.0
        for field, value in zip(BACKEND_FIELDS, backend.tolist()):
            if field.endswith("_errors"):
                errors += value
            else:
                ops += value
        labels = {"source": shard}
        self.append(S_BACKEND_ERRORS, errors, labels)
        self.append(S_BACKEND_OPS, ops, labels)

    # -- ingest: attachments -----------------------------------------------

    def ingest_billing(self, engine, tick: int, *, node: str = "node-0") -> None:
        """One metered tick's revenue / SLA-credit dollars.

        ``tick`` is the meter's 1-based control tick (the billing
        engine meters ``tick + 1`` from the 0-based ``_finish`` count).
        Deltas accumulate into monotone counters — deterministic
        because metering itself is (the billing-oracle contract).
        """
        meter = engine.meter
        labels = {"node": node}
        self.accumulate(S_REVENUE_USD, meter.tick_revenue.get(tick, 0.0), labels)
        self.accumulate(S_CREDITS_USD, meter.tick_credits.get(tick, 0.0), labels)

    def ingest_rebalance(self, loop) -> None:
        """A rebalance loop's latest guarantee-pressure reading."""
        plan = getattr(loop, "last_plan", None)
        if plan is None:
            return
        self.append(
            S_REBALANCE_PRESSURE, getattr(plan, "pressure_before_mhz", 0.0)
        )
