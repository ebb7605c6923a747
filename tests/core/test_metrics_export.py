"""Tests for the Prometheus exposition-format exporter."""

import re

import pytest

from repro.core.metrics_export import render_controller, render_report
from repro.core.controller import ControllerReport
from repro.sim.engine import Simulation
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import make_host

T = VMTemplate("m", vcpus=1, vfreq_mhz=1200.0)


def warmed_controller():
    node, hv, ctrl = make_host()
    vm = hv.provision(T, "vm-a")
    ctrl.register_vm("vm-a", T.vfreq_mhz)
    attach(vm, ConstantWorkload(1))
    sim = Simulation(node, hv, controller=ctrl, dt=0.5)
    sim.run(5.0)
    return ctrl


class TestExport:
    def test_contains_all_metric_families(self):
        out = render_controller(warmed_controller())
        for family in (
            "vfreq_vcpu_consumed_cycles",
            "vfreq_vcpu_estimated_mhz",
            "vfreq_vcpu_allocated_cycles",
            "vfreq_vm_credit_cycles",
            "vfreq_market_initial_cycles",
            "vfreq_iteration_seconds",
        ):
            assert f"# TYPE {family} gauge" in out
            assert re.search(rf"^{family}(\{{|\s)", out, re.M), family

    def test_labels_formatted(self):
        out = render_controller(warmed_controller())
        assert re.search(r'vfreq_vcpu_estimated_mhz\{vcpu="0",vm="vm-a"\} \d', out)

    def test_stage_labels(self):
        out = render_controller(warmed_controller())
        for stage in ("monitor", "estimate", "credits", "auction", "distribute", "enforce"):
            assert f'vfreq_iteration_seconds{{stage="{stage}"}}' in out

    def test_mean_stage_seconds_family(self):
        """Per-stage tick cost averaged over retained reports, labelled
        with the active engine (docs/performance.md)."""
        ctrl = warmed_controller()
        out = render_controller(ctrl)
        assert "# TYPE vfreq_stage_seconds gauge" in out
        engine = ctrl.config.engine
        for stage in ("monitor", "estimate", "credits", "auction", "distribute", "enforce"):
            m = re.search(
                rf'^vfreq_stage_seconds\{{engine="{engine}",stage="{stage}"\}} '
                rf"([0-9.e+-]+)$",
                out,
                re.M,
            )
            assert m, stage
            mean = sum(getattr(r.timings, stage) for r in ctrl.reports) / len(
                ctrl.reports
            )
            assert float(m.group(1)) == pytest.approx(mean, rel=1e-4)

    def test_stage_seconds_zero_without_reports(self):
        node, hv, ctrl = make_host()
        out = render_controller(ctrl)
        assert 'vfreq_stage_seconds{engine="bulk",stage="monitor"} 0' in out

    def test_exposition_format_shape(self):
        """Every non-comment line is `name{labels} value` or `name value`."""
        out = render_controller(warmed_controller())
        pattern = re.compile(r"^[a-z_]+(\{[^}]*\})? -?[0-9.e+na-]+$", re.I)
        for line in out.strip().splitlines():
            if line.startswith("#"):
                continue
            assert pattern.match(line), line

    def test_empty_controller_renders(self):
        node, hv, ctrl = make_host()
        out = render_controller(ctrl)
        assert "vfreq_market_initial_cycles 0" in out

    def test_label_escaping(self):
        report = ControllerReport(t=0.0)
        report.wallets = {'we"ird\nname': 5.0}
        out = render_report(report)
        assert 'vm="we\\"ird\\nname"' in out

    def test_backslash_in_label_escaped(self):
        report = ControllerReport(t=0.0)
        report.wallets = {"back\\slash": 1.0}
        out = render_report(report)
        assert 'vm="back\\\\slash"' in out


def families_in(text):
    """(family, [sample line indices]) in order of first appearance."""
    order, samples = [], {}
    for i, line in enumerate(text.splitlines()):
        if line.startswith("# "):
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in samples:
                name = name[: -len(suffix)]
                break
        if name not in samples:
            order.append(name)
            samples[name] = []
        samples[name].append(i)
    return order, samples


class TestMetricsBuffer:
    def test_help_and_type_exactly_once_per_family(self):
        from repro.core.metrics_export import MetricsBuffer

        buf = MetricsBuffer()
        buf.family("demo_total", "counter", "A demo counter.")
        buf.add("demo_total", 1, op="a")
        # Re-declaration (second renderer, same family) must not
        # duplicate the header or clobber the first help string.
        buf.family("demo_total", "counter", "Different help text.")
        buf.add("demo_total", 2, op="b")
        out = buf.text()
        assert out.count("# HELP demo_total") == 1
        assert out.count("# TYPE demo_total") == 1
        assert "A demo counter." in out
        assert "Different help text." not in out

    def test_interleaved_adds_render_contiguous(self):
        from repro.core.metrics_export import MetricsBuffer

        buf = MetricsBuffer()
        buf.family("aaa", "gauge", "a")
        buf.family("bbb", "gauge", "b")
        buf.add("aaa", 1, k="1")
        buf.add("bbb", 1)
        buf.add("aaa", 2, k="2")
        order, samples = families_in(buf.text())
        assert order == ["aaa", "bbb"]
        for indices in samples.values():
            assert indices == list(range(indices[0], indices[-1] + 1))

    def test_undeclared_family_rejected(self):
        from repro.core.metrics_export import MetricsBuffer

        buf = MetricsBuffer()
        with pytest.raises(KeyError):
            buf.add("never_declared", 1)

    def test_help_text_escaping(self):
        from repro.core.metrics_export import _escape_help

        assert _escape_help("line\nbreak \\ slash") == "line\\nbreak \\\\ slash"


class TestSpanHistogramFamily:
    def test_histogram_shape(self):
        from repro.core.metrics_export import render_span_seconds
        from repro.obs.tracing import BUCKET_BOUNDS, Tracer

        tracer = Tracer()
        for us in (5.0, 50.0, 200000.0):
            tracer.record(
                "stage:auction", trace_id=0, parent_id=None,
                start_us=0.0, duration_us=us,
            )
        out = render_span_seconds(tracer)
        assert out.count("# TYPE vfreq_span_seconds histogram") == 1
        buckets = re.findall(
            r'vfreq_span_seconds_bucket\{le="([^"]+)",stage="auction"\} (\d+)',
            out,
        )
        assert len(buckets) == len(BUCKET_BOUNDS) + 1
        counts = [int(c) for _, c in buckets]
        assert counts == sorted(counts)  # cumulative le semantics
        assert buckets[-1][0] == "+Inf"
        assert counts[-1] == 3
        assert 'vfreq_span_seconds_count{stage="auction"} 3' in out
        m = re.search(r'vfreq_span_seconds_sum\{stage="auction"\} ([0-9.e-]+)', out)
        assert float(m.group(1)) == pytest.approx(0.200055)


class TestClusterRendering:
    def test_node_labels_keep_families_collision_free(self):
        from repro.core.metrics_export import render_cluster
        from repro.sim.node_manager import NodeManager

        manager = NodeManager()
        for node_id in ("n0", "n1"):
            manager.add_node(node_id, warmed_controller())
        manager.tick(0.0)
        out = render_cluster(manager)
        # Shared families render one header with contiguous samples...
        order, samples = families_in(out)
        for family, indices in samples.items():
            assert out.count(f"# HELP {family} ") == 1, family
            assert out.count(f"# TYPE {family} ") == 1, family
            assert indices == list(range(indices[0], indices[-1] + 1)), family
        # ...and per-node series are distinguished by the node label.
        for node_id in ("n0", "n1"):
            assert re.search(
                rf'vfreq_market_initial_cycles\{{node="{node_id}"\}} ', out
            ), node_id
        assert "vfreq_nodes_managed 2" in out


class TestRebalanceRendering:
    def _warmed_loop(self):
        from repro.rebalance.loop import RebalanceLoop
        from tests.rebalance.test_loop import pressured_cluster

        loop = RebalanceLoop(every=1)
        loop.rebalance_once(pressured_cluster())
        return loop

    def test_rebalance_families_render(self):
        from repro.core.metrics_export import render_rebalance

        out = render_rebalance(self._warmed_loop())
        assert "vfreq_rebalance_rounds_total 1" in out
        assert re.search(r'vfreq_migrations_total\{reason="pressure"\} \d+', out)
        assert 'vfreq_migration_seconds_bucket{le="+Inf"}' in out
        assert "vfreq_rebalance_round_seconds_count 1" in out

    def test_rejected_moves_get_their_own_reason(self):
        from repro.core.metrics_export import render_rebalance
        from repro.rebalance.loop import RebalanceLoop
        from tests.rebalance.test_loop import pressured_cluster

        loop = RebalanceLoop(every=1)
        loop.rebalance_once(pressured_cluster(fail_for={"a"}))
        out = render_rebalance(loop)
        assert re.search(r'vfreq_migrations_total\{reason="rejected"\} 1', out)

    def test_extra_labels_and_shared_buffer(self):
        from repro.core.metrics_export import MetricsBuffer, render_rebalance

        buf = MetricsBuffer()
        assert render_rebalance(
            self._warmed_loop(), buf, extra_labels={"cluster": "c0"}
        ) == ""
        out = buf.text()
        assert 'vfreq_rebalance_rounds_total{cluster="c0"} 1' in out
        assert re.search(
            r'vfreq_migrations_total\{cluster="c0",reason="pressure"\}', out
        ) or re.search(
            r'vfreq_migrations_total\{reason="pressure",cluster="c0"\}', out
        )
