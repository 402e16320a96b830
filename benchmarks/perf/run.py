"""Serving benchmark of the Decamouflage detection service.

Run from the repository root::

    python3 benchmarks/perf/run.py --seed 0                 # all four workloads
    python3 benchmarks/perf/run.py --workload detect-128 --seed 3 --seconds 12 --trace 0

Each workload starts ``python -m repro serve`` from this checkout's
``src/`` on its own CPU, drives it from this process, prints every metric
by name and unit, writes ``<out>/<git-sha>-seed<N>.json``, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The exit status is 1 when any answer was wrong or any
request failed, 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _terminate(signum: int, frame) -> None:
    """SIGTERM unwinds like an error, so every process started is stopped;
    a second one is ignored rather than cutting that clean-up short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signum)


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        sys.exit(2)
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    # Pin before numpy loads: its BLAS pool is sized from the allowed CPUs.
    cpus = harness.plan_cpus()
    try:
        import bench

        sys.exit(bench.main(cpus))
    finally:
        # The replay's shared-memory ring starts multiprocessing's resource
        # tracker as a child of this process, which would otherwise end
        # only after this one: end it and wait for it. (The standard
        # library has no public call for this.)
        resource_tracker._resource_tracker._stop()
