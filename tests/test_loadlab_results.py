"""The results pipeline: parsing, deltas, bootstrap CIs, schema gate."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import LoadLabError
from repro.loadlab import Scenario, compile_schedule, schedule_digest
from repro.loadlab.engine import RequestRecord
from repro.loadlab.results import (
    RESULTS_SCHEMA_VERSION,
    bootstrap_ci,
    build_result,
    metrics_delta,
    parse_prometheus,
    render_table,
    summarize_level,
    validate_result,
)
from repro.loadlab.sampler import ResourceSample
from repro.loadlab.scenario import ArrivalModel, LoadProfile, ServerSpec, WorkloadMix


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


class TestBootstrap:
    def test_seeded_ci_is_reproducible(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        first = bootstrap_ci(
            values, np.mean, resamples=100, rng=np.random.default_rng(7)
        )
        second = bootstrap_ci(
            values, np.mean, resamples=100, rng=np.random.default_rng(7)
        )
        assert first == second
        lo, hi = first
        assert lo <= np.mean(values) <= hi

    def test_degenerate_samples(self):
        rng = np.random.default_rng(0)
        assert bootstrap_ci([], np.mean, resamples=10, rng=rng) == (0.0, 0.0)
        point = bootstrap_ci([3.5], np.mean, resamples=10, rng=rng)
        assert point == (3.5, 3.5)


def _scenario() -> Scenario:
    return Scenario(
        name="results-test",
        profile=LoadProfile(kind="constant", base=2.0, steps=1,
                            level_duration_s=10.0),
        arrival=ArrivalModel(kind="closed"),
        mix=WorkloadMix(benign=0.8, garbage=0.2),
        server=ServerSpec(launch="external"),
        bootstrap_resamples=50,
    )


def _records(level: int = 0) -> list[RequestRecord]:
    rng = np.random.default_rng(3)
    records = [
        RequestRecord(level=level, kind="benign", status=200, ok=True,
                      latency_ms=float(20 + rng.uniform(0, 10)),
                      start_s=float(index * 0.5))
        for index in range(16)
    ]
    records.append(RequestRecord(level=level, kind="garbage", status=400,
                                 ok=True, latency_ms=5.0, start_s=8.0))
    records.append(RequestRecord(level=level, kind="benign", status=0,
                                 ok=False, latency_ms=100.0, start_s=9.0))
    return records


class TestSummaries:
    def test_level_summary_counts_and_quantiles(self):
        scenario = _scenario()
        level = compile_schedule(scenario)[0]
        row = summarize_level(level, _records(), resamples=50, seed=0)
        assert row["sent"] == 18
        assert row["completed"] == 17  # the status-0 transport abort drops out
        assert row["scored"] == 16  # 400s complete but don't score
        assert row["misbehaved"] == 1
        assert row["throughput_rps"]["value"] == pytest.approx(1.6)
        lat = row["latency_ms"]
        assert lat["p50_ms"]["value"] <= lat["p95_ms"]["value"] <= lat["p99_ms"]["value"]
        for name in ("p50_ms", "p95_ms", "p99_ms"):
            lo, hi = lat[name]["ci95"]
            assert lo <= hi
        assert row["by_kind"]["garbage"]["statuses"] == {"400": 1}

    def test_capped_level_divides_by_time_used(self):
        """A level that hits its request cap at 1 s of a planned 3 s
        reports count / 1 s, not count / 3 s."""
        scenario = dataclasses.replace(
            _scenario(),
            profile=LoadProfile(kind="constant", base=2.0, steps=1,
                                level_duration_s=3.0),
            max_requests_per_level=10,
        )
        level = compile_schedule(scenario)[0]
        records = [
            RequestRecord(level=0, kind="benign", status=200, ok=True,
                          latency_ms=100.0, start_s=5.0 + index * 0.1)
            for index in range(10)
        ]
        capped = summarize_level(level, records, resamples=50, seed=0,
                                 max_requests=10)
        assert capped["duration_s"] == pytest.approx(1.0)
        assert capped["throughput_rps"]["value"] == pytest.approx(10.0)
        uncapped = summarize_level(level, records, resamples=50, seed=0,
                                   max_requests=11)
        assert uncapped["throughput_rps"]["value"] == pytest.approx(10 / 3.0)

    def test_summary_is_deterministic(self):
        scenario = _scenario()
        level = compile_schedule(scenario)[0]
        first = summarize_level(level, _records(), resamples=50, seed=0)
        second = summarize_level(level, _records(), resamples=50, seed=0)
        assert first == second


def _full_result() -> dict:
    scenario = _scenario()
    schedule = compile_schedule(scenario)
    resources = {
        "dispatcher": [
            ResourceSample(t_s=0.0, cpu_seconds=1.0, rss_bytes=1e6, open_fds=4.0),
            ResourceSample(t_s=1.0, cpu_seconds=1.5, rss_bytes=2e6, open_fds=5.0),
        ]
    }
    return build_result(
        scenario,
        schedule,
        _records(),
        digest=schedule_digest(scenario, schedule),
        resources=resources,
        pids={"dispatcher": 1234},
        metrics_before="decamouflage_server_requests_total 2\n",
        metrics_after="decamouflage_server_requests_total 20\nqueue_depth 1\n",
        host={"platform": "test", "cpu_count": 2},
        wall_s=10.0,
    )


class TestBuildAndValidate:
    def test_build_result_is_schema_valid(self):
        result = _full_result()
        validate_result(result)  # must not raise
        assert result["schema_version"] == RESULTS_SCHEMA_VERSION
        assert result["metrics_delta"]["decamouflage_server_requests_total"] == 18.0
        assert result["resources"]["dispatcher"]["pid"] == 1234
        assert len(result["resources"]["dispatcher"]["samples"]) == 2

    def test_validate_rejects_missing_pieces(self):
        with pytest.raises(LoadLabError, match="must be a dict"):
            validate_result("nope")
        result = _full_result()
        broken = dict(result)
        del broken["schedule_digest"]
        with pytest.raises(LoadLabError, match="schedule_digest"):
            validate_result(broken)
        wrong_version = dict(result, schema_version=99)
        with pytest.raises(LoadLabError, match="schema_version"):
            validate_result(wrong_version)
        empty_levels = dict(result, levels=[])
        with pytest.raises(LoadLabError, match="no levels"):
            validate_result(empty_levels)
        import copy

        bad_level = copy.deepcopy(result)
        del bad_level["levels"][0]["throughput_rps"]
        with pytest.raises(LoadLabError, match="throughput_rps"):
            validate_result(bad_level)
        bad_sample = copy.deepcopy(result)
        del bad_sample["resources"]["dispatcher"]["samples"][0]["cpu_seconds"]
        with pytest.raises(LoadLabError, match="cpu_seconds"):
            validate_result(bad_sample)

    def test_render_table_mentions_the_essentials(self):
        result = _full_result()
        text = render_table(result)
        assert "results-test" in text
        assert result["fingerprint"] in text
        assert result["schedule_digest"] in text
        assert "req/s" in text
        assert "dispatcher: pid 1234" in text
        assert f"host cpu_count={result['host']['cpu_count']}" in text
        assert text.endswith("\n")
