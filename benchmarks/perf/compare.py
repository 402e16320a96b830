"""Compare sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmarks/perf/compare.py A [B ...]

Each argument is one result file written by ``run.py`` or a directory
searched recursively for them; the files of one argument form a set, and
every file must come from runs with the same ``--seconds`` and ``--trace``,
so that sets differ only in the code they measured. For
every workload and end-to-end metric it prints each set's median and
quartiles (as ``statistics.quantiles(values, n=4)`` gives them), the
spread (quartile distance over the median) and the number of runs. For
every set after the first it adds the change of its median from the
first set's and a verdict:

* ``ok``: the change is no worse than the metric's bound, the share of
  the first set's median by which the metric may get worse;
* ``OUTSIDE``: it is worse by more than the bound;
* ``unresolved``: either set's spread is wider than the bound, so the
  medians cannot tell a change of that size from noise; except that a
  set whose every run reads better than every run of the first set is
  ``better``.

The exit status is 1 when any verdict is ``OUTSIDE`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> tuple[dict[tuple[str, str], list[float]], set[tuple[float, bool]]]:
    """``(workload, metric) -> values`` over every result file in *path*,
    and the ``(seconds, trace)`` settings those files were measured with."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    settings = set()
    for file in files:
        result = json.loads(file.read_text(encoding="utf-8"))
        settings.add((result["seconds"], result["trace"]))
        for workload, record in result["workloads"].items():
            for metric, value in record["end_to_end"].items():
                values[(workload, metric)].append(value)
    return values, settings


def summary(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    low, _, high = statistics.quantiles(values, n=4)
    return median, low, high


def verdict(base: list[float], runs: list[float], better: str, bound: float) -> tuple[float, str]:
    """Change of *runs*' median from *base*'s, and what it means."""
    base_median, base_low, base_high = summary(base)
    median, low, high = summary(runs)
    change = (median - base_median) / base_median
    sign = 1.0 if better == "lower" else -1.0
    if max((base_high - base_low) / base_median, (high - low) / median) > bound:
        wins = all(sign * (run - old) < 0 for run in runs for old in base)
        return change, "better" if wins else "unresolved"
    return change, "ok" if sign * change <= bound else "OUTSIDE"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="result file or directory, one per set")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    loaded = [load_set(path) for path in args.sets]
    settings = set().union(*(found for _, found in loaded))
    if len(settings) != 1:
        parser.error(f"results measured with different (--seconds, --trace): {sorted(settings)}")
    sets = [values for values, _ in loaded]
    keys = sorted({key for values in sets for key in values}, key=lambda k: (k[0], list(metrics).index(k[1])))

    failing = 0
    for workload, metric in keys:
        unit, better, bound = (metrics[metric][k] for k in ("unit", "better", "bound"))
        base = sets[0].get((workload, metric))
        cells = []
        for number, values in enumerate(sets):
            runs = values.get((workload, metric))
            if not runs:
                cells.append("-")
                continue
            median, low, high = summary(runs)
            cell = (
                f"{median:10.4g} [{low:.4g}, {high:.4g}] "
                f"spread {(high - low) / median:.1%} n={len(runs)}"
            )
            if number and base:
                change, said = verdict(base, runs, better, bound)
                failing += said in ("OUTSIDE", "unresolved")
                cell += f" {change:+.1%} {said}"
            cells.append(cell)
        print(f"{workload:20s} {metric:22s} {unit:6s} bound {bound:.0%}  " + "  |  ".join(cells))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
