"""Derived stats, the text report, and the Prometheus formatter."""

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.report import derived_stats, format_text


def _snapshot():
    reg = MetricsRegistry()
    reg.incr("fragment.pivots.local", 90)
    reg.incr("fragment.pivots.escalated", 10)
    reg.incr("engine.pool.warm_hits", 3)
    reg.incr("engine.pool.cold_builds", 1)
    reg.incr("fragment.frames_expanded.fragment0", 35)
    reg.incr("fragment.frames_expanded.fragment1", 26)
    reg.incr("plan.frames_expanded", 61)
    reg.incr("index.hits", 8)
    reg.incr("index.misses", 2)
    reg.incr("fragment.route.ops_routed", 25)
    reg.incr("fragment.route.ops_full", 100)
    reg.gauge("fragment.border_replica_share", 0.125)
    reg.gauge("engine.lpt_imbalance", 1.25)
    reg.observe("plan.frame_candidates", 4)
    return reg.snapshot()


class TestDerivedStats:
    def test_ratios(self):
        derived = derived_stats(_snapshot())
        assert derived["escalated_pivot_share"] == 0.1
        assert derived["warm_pool_hit_rate"] == 0.75
        assert derived["border_replica_share"] == 0.125
        assert derived["per_fragment_frames_expanded"] == {
            "fragment0": 35,
            "fragment1": 26,
        }
        assert derived["frames_expanded"] == 61
        assert derived["index_hit_rate"] == 0.8
        assert derived["routing_ops_saved"] == 0.75
        assert derived["lpt_imbalance"] == 1.25

    def test_unmeasured_is_none_not_zero(self):
        derived = derived_stats({"counters": {}, "gauges": {}, "histograms": {}})
        assert derived["escalated_pivot_share"] is None
        assert derived["warm_pool_hit_rate"] is None
        assert derived["index_hit_rate"] is None
        assert derived["routing_ops_saved"] is None
        assert derived["per_fragment_frames_expanded"] == {}


class TestFormatText:
    def test_headlines_and_sections(self):
        text = format_text(_snapshot())
        assert "escalated-pivot share:   10.0%" in text
        assert "warm-pool hit rate:      75.0%" in text
        assert "border-replica share:    12.5%" in text
        assert "routing ops saved:       75.0%" in text
        assert "  fragment0: 35" in text
        assert "== counters ==" in text
        assert "== histograms ==" in text

    def test_empty_snapshot_renders_na(self):
        text = format_text({"counters": {}, "gauges": {}, "histograms": {}})
        assert "escalated-pivot share:   n/a" in text
        assert "(none)" in text


class TestFramesExpandedCountsEveryWalk:
    def test_sigma_walk_frames_reach_the_total(self):
        # A multi-rule serial scan runs as one Σ-DAG walk: its frames
        # are plan frames too, so the report's total must include them.
        from repro import telemetry
        from repro.reasoning import find_violations
        from repro.workloads import overlapping_rule_set, overlapping_workload

        graph = overlapping_workload(150, rng=0)
        sigma = overlapping_rule_set(4)
        telemetry.disable()
        telemetry.reset()
        telemetry.enable()
        try:
            find_violations(graph, sigma)
            snapshot = telemetry.snapshot()
        finally:
            telemetry.disable()
            telemetry.reset()
        counters = snapshot["counters"]
        sigma_frames = counters["matching.sigma.frames_expanded"]
        assert sigma_frames > 0
        assert counters["plan.frames_expanded"] == sigma_frames
        assert snapshot["histograms"]["plan.frame_candidates"]["count"] == sigma_frames
        assert derived_stats(snapshot)["frames_expanded"] == sigma_frames
        assert f"frames expanded (total): {sigma_frames}\n" in format_text(snapshot)


class TestPrometheus:
    def test_exposition_format(self):
        text = render_prometheus(_snapshot())
        assert "# TYPE repro_fragment_pivots_local counter" in text
        assert "repro_fragment_pivots_local 90" in text
        assert "repro_fragment_border_replica_share 0.125" in text
        # cumulative buckets with an inclusive +Inf terminal
        assert 'repro_plan_frame_candidates_bucket{le="4.0"} 1' in text
        assert 'repro_plan_frame_candidates_bucket{le="+Inf"} 1' in text
        assert "repro_plan_frame_candidates_count 1" in text
        assert text.endswith("\n")

    def test_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.incr("fragment.frames_expanded.fragment0", 4)
        text = render_prometheus(reg.snapshot())
        assert "repro_fragment_frames_expanded_fragment0 4" in text
