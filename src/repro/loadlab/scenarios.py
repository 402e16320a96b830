"""The built-in scenario catalog: named, frozen load experiments.

Every scenario here is constructed once at import time (so a typo in a
spec fails the test suite, not a benchmark night) and addressed by name
through ``repro loadlab run <name>``. The checked-in JSON specs under
``benchmarks/scenarios/`` are serialized copies of the benchmark-facing
entries; ``tests/test_loadlab_scenario.py`` pins the two representations
together so neither can drift silently.
"""

from __future__ import annotations

from repro.errors import LoadLabError
from repro.loadlab.scenario import (
    ArrivalModel,
    LoadProfile,
    Scenario,
    ServerSpec,
    WorkloadMix,
)

__all__ = ["builtin_scenarios", "get_scenario"]


def _build() -> dict[str, Scenario]:
    scenarios = [
        Scenario(
            name="smoke-ramp",
            description=(
                "CI smoke: a tiny two-level ramp against a 2-shard "
                "subprocess server — proves the whole lab end to end."
            ),
            profile=LoadProfile(kind="ramp", base=1.0, peak=2.0, steps=2,
                                level_duration_s=2.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0, pool_size=4),
            server=ServerSpec(launch="subprocess", workers=2, max_active=4,
                              queue_depth=64),
            sample_period_s=0.1,
            bootstrap_resamples=100,
            warmup_requests=2,
        ),
        Scenario(
            name="ramp",
            description="Closed-loop client ramp 1 -> 8 over four levels.",
            profile=LoadProfile(kind="ramp", base=1.0, peak=8.0, steps=4,
                                level_duration_s=5.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="subprocess", workers=2),
        ),
        Scenario(
            name="poisson-steady",
            description=(
                "Open-loop Poisson arrivals at a steady 10 req/s — offered "
                "load independent of service time, unlike a closed loop."
            ),
            profile=LoadProfile(kind="constant", base=10.0, steps=3,
                                level_duration_s=5.0),
            arrival=ArrivalModel(kind="poisson", max_outstanding=32),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="subprocess", workers=2),
        ),
        Scenario(
            name="spike",
            description=(
                "A 3x traffic spike in the middle of a calm run — does the "
                "admission queue shed load and recover?"
            ),
            profile=LoadProfile(kind="spike", base=4.0, peak=12.0, steps=5,
                                level_duration_s=4.0),
            arrival=ArrivalModel(kind="poisson", max_outstanding=64),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="subprocess", workers=2, max_active=4,
                              queue_depth=16, deadline_ms=2000.0),
        ),
        Scenario(
            name="diurnal",
            description="Two day/night cycles of open-loop load, 2 -> 10 req/s.",
            profile=LoadProfile(kind="diurnal", base=2.0, peak=10.0, steps=8,
                                periods=2, level_duration_s=3.0),
            arrival=ArrivalModel(kind="poisson", max_outstanding=64),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="subprocess", workers=2),
        ),
        Scenario(
            name="adversarial-mix",
            description=(
                "What a deployed screen actually faces: mostly benign "
                "traffic with attack images, garbage frames, slow-loris "
                "holds, and batch uploads mixed in."
            ),
            profile=LoadProfile(kind="constant", base=4.0, steps=3,
                                level_duration_s=5.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=0.55, attack=0.15, garbage=0.15,
                            slow_loris=0.05, batch=0.10,
                            slow_loris_hold_s=1.0),
            server=ServerSpec(launch="subprocess", workers=2),
        ),
        # -- benchmark-facing: the old bench_serving_* sweeps as scenarios ----
        Scenario(
            name="serving-load",
            description=(
                "The bench_serving_load sweep: closed-loop concurrency "
                "1 -> 8 against an in-process server, benign PNG uploads."
            ),
            profile=LoadProfile(kind="ramp", base=1.0, peak=8.0, steps=4,
                                level_duration_s=3.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="inprocess", workers=0, max_active=8,
                              queue_depth=256, deadline_ms=60_000.0),
            max_requests_per_level=200,
            warmup_requests=8,
        ),
        Scenario(
            name="worker-scaling-0",
            description="bench_serving_workers baseline: in-process scoring.",
            profile=LoadProfile(kind="constant", base=4.0, steps=1,
                                level_duration_s=3.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="inprocess", workers=0, max_active=4,
                              queue_depth=256, deadline_ms=60_000.0),
            max_requests_per_level=200,
            warmup_requests=8,
        ),
        Scenario(
            name="serving-async-highconc",
            description=(
                "The event-loop front end's home turf: closed-loop "
                "keep-alive concurrency doubling 64 -> 512 against a "
                "subprocess server, which must answer every connection "
                "at every level."
            ),
            profile=LoadProfile(kind="geometric", base=64.0, peak=512.0,
                                steps=4, level_duration_s=5.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0, pool_size=8),
            server=ServerSpec(launch="subprocess", workers=2,
                              max_active=8, queue_depth=512,
                              deadline_ms=60_000.0),
            client_timeout_s=120.0,
            max_requests_per_level=4000,
            warmup_requests=8,
        ),
        Scenario(
            name="serving-async-soak",
            description=(
                "A one-minute keep-alive soak on the event-loop front end "
                "with adversarial seasoning: slow-loris holds and garbage "
                "frames ride along so connection sweeping and clean 400s "
                "are exercised continuously, not just at the fault wall."
            ),
            profile=LoadProfile(kind="constant", base=32.0, steps=6,
                                level_duration_s=10.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=0.85, garbage=0.05, slow_loris=0.05,
                            batch=0.05, slow_loris_hold_s=2.0),
            server=ServerSpec(launch="subprocess", workers=2,
                              max_active=8, queue_depth=256,
                              deadline_ms=60_000.0),
            client_timeout_s=120.0,
            max_requests_per_level=5000,
            warmup_requests=8,
        ),
        Scenario(
            name="worker-scaling-1",
            description="bench_serving_workers: one scoring shard.",
            profile=LoadProfile(kind="constant", base=4.0, steps=1,
                                level_duration_s=3.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="inprocess", workers=1, max_active=4,
                              queue_depth=256, deadline_ms=60_000.0),
            max_requests_per_level=200,
            warmup_requests=8,
        ),
        Scenario(
            name="worker-scaling-4",
            description="bench_serving_workers: four scoring shards.",
            profile=LoadProfile(kind="constant", base=4.0, steps=1,
                                level_duration_s=3.0),
            arrival=ArrivalModel(kind="closed"),
            mix=WorkloadMix(benign=1.0),
            server=ServerSpec(launch="inprocess", workers=4, max_active=4,
                              queue_depth=256, deadline_ms=60_000.0),
            max_requests_per_level=200,
            warmup_requests=8,
        ),
    ]
    return {scenario.name: scenario for scenario in scenarios}


_BUILTINS = _build()


def builtin_scenarios() -> dict[str, Scenario]:
    """Name → scenario for every built-in (a fresh dict each call)."""
    return dict(_BUILTINS)


def get_scenario(name: str) -> Scenario:
    """Look one built-in up by name; :class:`LoadLabError` on a miss."""
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise LoadLabError(
            f"unknown scenario {name!r} (built-ins: {known})"
        ) from None
