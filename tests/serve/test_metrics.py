"""Server metrics: counters, per-axis histograms, exact rollups."""

from repro.obs.hist import Log2Histogram
from repro.serve.metrics import COUNTER_NAMES, SERVED_AXES, ServerMetrics


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestCounters:
    def test_all_counters_start_at_zero(self):
        metrics = ServerMetrics(clock=FakeClock())
        assert set(metrics.counts) == set(COUNTER_NAMES)
        assert all(value == 0 for value in metrics.counts.values())

    def test_bump(self):
        metrics = ServerMetrics(clock=FakeClock())
        metrics.bump("requests")
        metrics.bump("deduped", 5)
        assert metrics.counts["requests"] == 1
        assert metrics.counts["deduped"] == 5

    def test_snapshot_computes_cache_hits(self):
        metrics = ServerMetrics(clock=FakeClock())
        metrics.bump("hit_hot", 3)
        metrics.bump("hit_disk", 2)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["cache_hits"] == 5

    def test_snapshot_schema_is_stable_when_untouched(self):
        """Dashboards bind to all five served axes without key-probing:
        an untouched snapshot already carries each as an empty
        histogram."""
        snapshot = ServerMetrics(clock=FakeClock()).snapshot()
        assert set(snapshot["counters"]) == (
            set(COUNTER_NAMES) | {"cache_hits"})
        assert snapshot["latency_us"]["count"] == 0
        assert snapshot["latency_us"]["p99"] is None
        assert set(snapshot["latency_by_served"]) == set(SERVED_AXES)
        for axis in SERVED_AXES:
            assert snapshot["latency_by_served"][axis]["count"] == 0
            assert snapshot["latency_by_served"][axis]["p99"] is None

    def test_nonstandard_axis_still_appears_lazily(self):
        metrics = ServerMetrics(clock=FakeClock())
        metrics.observe("error", 5)
        by_served = metrics.snapshot()["latency_by_served"]
        assert set(by_served) == set(SERVED_AXES) | {"error"}
        assert by_served["error"]["count"] == 1


class TestLatencyRollup:
    def test_observe_keys_by_served_axis(self):
        metrics = ServerMetrics(clock=FakeClock())
        metrics.observe("hit", 10)
        metrics.observe("hit", 12)
        metrics.observe("executed", 50_000)
        assert metrics.by_served["hit"].count == 2
        assert metrics.by_served["executed"].count == 1

    def test_rollup_is_one_stream_of_every_observed_request(self):
        """The rollup equals one concatenated stream of every observed
        request, whatever axis each landed on — merging the per-axis
        histograms never averages percentiles."""
        metrics = ServerMetrics(clock=FakeClock())
        reference = Log2Histogram()
        for axis, value in (("hit", 3), ("hit", 9), ("executed", 81),
                            ("deduped", 6561), ("failed", 2),
                            ("rejected", 4), ("error", 8)):
            metrics.observe(axis, value)
            reference.record(value)
        rollup = metrics.rollup()
        assert rollup.to_dict() == reference.to_dict()
        assert metrics.snapshot()["latency_us"] == reference.to_dict()

    def test_snapshot_splices_extra_sections(self):
        metrics = ServerMetrics(clock=FakeClock())
        snapshot = metrics.snapshot(queue={"depth": 2, "limit": 64},
                                    draining=False)
        assert snapshot["queue"] == {"depth": 2, "limit": 64}
        assert snapshot["draining"] is False

    def test_uptime_tracks_clock(self):
        clock = FakeClock()
        metrics = ServerMetrics(clock=clock)
        clock.t += 12.5
        assert metrics.snapshot()["uptime_s"] == 12.5
