"""Async front-end benchmark: the event loop under keep-alive concurrency.

Runs the checked-in ``serving-async-highconc`` scenario (closed-loop
keep-alive concurrency doubling 64 -> 512 against a subprocess server
with 2 worker shards over shm rings) and records sustained throughput,
latency quantiles, and drops level by level.

The gate is unconditional on every host: the event loop must be
drop-free at every level — every request gets its expected status, none
is lost to a connection reset or timeout (status 0). Throughput is
recorded as measured; on a small host it is scoring-bound and says more
about the host than about connection handling.

Run standalone (full durations, rewrites the checked-in table)::

    PYTHONPATH=src python benchmarks/bench_serving_async.py

or through pytest (shorter levels, same code path, gate only)::

    PYTHONPATH=src pytest benchmarks/bench_serving_async.py --benchmark-only
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.loadlab import load_scenario, run_scenario

SCENARIO_PATH = Path(__file__).parent / "scenarios" / "serving-async-highconc.json"
RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "bench_serving_async.txt"


def run_highconc(duration_scale: float = 1.0) -> dict:
    """Run the highconc scenario once; returns the loadlab result."""
    return run_scenario(
        load_scenario(SCENARIO_PATH), out_dir=RESULTS_DIR, duration_scale=duration_scale
    )


def _drops(result: dict) -> int:
    """Requests that missed their expected status (0 = reset/timeout)."""
    return sum(level["misbehaved"] for level in result["levels"])


def render_levels(result: dict, *, save: bool = False) -> str:
    lines = [
        "Event-loop front end — serving-async-highconc, closed-loop "
        "keep-alive clients,",
        f"2 worker shards over shm rings, host cpu_count={os.cpu_count()}",
        "(drops = requests that missed their expected status; status 0 is a "
        "connection reset/timeout)",
        "",
        f"{'clients':>8} {'rps':>8} {'p50 ms':>9} {'p99 ms':>9} {'drops':>6}",
    ]
    for level in result["levels"]:
        latency = level["latency_ms"]
        lines.append(
            f"{int(level['clients']):>8} {level['throughput_rps']['value']:>8.1f} "
            f"{latency['p50_ms']['value']:>9.1f} {latency['p99_ms']['value']:>9.1f} "
            f"{level['misbehaved']:>6}"
        )
    lines += ["", "gate: drop-free at every level (unconditional on every host)"]
    text = "\n".join(lines) + "\n"
    if save:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text, encoding="utf-8")
    return text


def test_eventloop_drop_free(run_once):
    """Acceptance: the event loop answers every keep-alive client at
    every concurrency level."""
    result = run_once(run_highconc, duration_scale=0.2)
    text = render_levels(result)
    print("\n" + text)
    assert _drops(result) == 0, f"{_drops(result)} dropped\n{text}"


if __name__ == "__main__":
    result = run_highconc()
    text = render_levels(result, save=True)
    print(text)
    if _drops(result):
        raise SystemExit(f"{_drops(result)} requests dropped")
