"""The ``/metrics`` scrape helpers: parsing and counter deltas."""

from __future__ import annotations

from repro.loadlab.results import metrics_delta, parse_prometheus


class TestParsePrometheus:
    def test_flattens_samples_and_skips_comments(self):
        text = (
            "# TYPE decamouflage_server_requests_total counter\n"
            "decamouflage_server_requests_total 42\n"
            'decamouflage_worker_up{worker_id="0"} 1\n'
            "process_cpu_seconds_total 1.5\n"
            "garbage line without a value\n"
        )
        values = parse_prometheus(text)
        assert values["decamouflage_server_requests_total"] == 42.0
        assert values['decamouflage_worker_up{worker_id="0"}'] == 1.0
        assert values["process_cpu_seconds_total"] == 1.5
        assert len(values) == 3


class TestMetricsDelta:
    def test_counters_delta_gauges_take_after_value(self):
        before = {
            "x_total": 10.0,
            "lat_ms_sum": 5.0,
            "lat_ms_count": 2.0,
            'lat_ms_bucket{le="+Inf"}': 2.0,
            "in_flight": 3.0,
        }
        after = {
            "x_total": 25.0,
            "lat_ms_sum": 9.0,
            "lat_ms_count": 4.0,
            'lat_ms_bucket{le="+Inf"}': 4.0,
            "in_flight": 1.0,
            "born_midrun_total": 7.0,
        }
        delta = metrics_delta(before, after)
        assert delta["x_total"] == 15.0
        assert delta["lat_ms_sum"] == 4.0
        assert delta["lat_ms_count"] == 2.0
        assert delta['lat_ms_bucket{le="+Inf"}'] == 2.0
        assert delta["in_flight"] == 1.0  # gauge: after value, not a delta
        assert delta["born_midrun_total"] == 7.0  # created mid-run: vs 0
