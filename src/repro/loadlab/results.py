"""The statistical results pipeline: records + scrapes → versioned JSON.

Takes everything a run produced — the engine's per-request records, the
``/metrics`` scrape before and after, and the resource sampler's
per-process series — and emits one schema-versioned payload
(:data:`RESULTS_SCHEMA_VERSION`) with honest uncertainty:

* per-level **throughput** with a bootstrap confidence interval over
  per-slot completion counts (the level is cut into equal time slots and
  the slot counts are resampled);
* per-level **latency quantiles** (p50/p95/p99) with bootstrap CIs over
  the completed-request latency sample;
* **metrics deltas**: counter families (``*_total``, histogram
  ``_sum``/``_count``/``_bucket``) as after-minus-before, gauges as
  their after values;
* **resource series** per process role, passed through as sampled.

Bootstrap draws come from a seeded generator, so the CIs themselves are
reproducible. :func:`validate_result` is the schema gate the tests and
the CI smoke job assert through; :func:`render_table` renders the
per-level summary as the human table the old ``bench_serving_*`` scripts
used to print.
"""

from __future__ import annotations

import re

import numpy as np

from repro.errors import LoadLabError
from repro.loadlab.engine import RequestRecord
from repro.loadlab.sampler import ResourceSample
from repro.loadlab.scenario import Scenario
from repro.loadlab.schedule import LevelSchedule

__all__ = [
    "RESULTS_SCHEMA_VERSION",
    "bootstrap_ci",
    "build_result",
    "metrics_delta",
    "parse_prometheus",
    "render_table",
    "summarize_level",
    "validate_result",
]

RESULTS_SCHEMA_VERSION = 1

#: Quantiles reported per level.
_QUANTILES = (("p50_ms", 50.0), ("p95_ms", 95.0), ("p99_ms", 99.0))
#: Time slots a level is cut into for the throughput bootstrap.
_THROUGHPUT_SLOTS = 10
#: Seed-stream namespace for bootstrap draws.
_BOOTSTRAP_STREAM = 60013

_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s+(\S+)$")


# -- Prometheus scrape parsing ------------------------------------------------


def parse_prometheus(text: str) -> dict[str, float]:
    """Flatten a text exposition into ``name{labels} -> value``."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            continue
        try:
            values[match.group(1)] = float(match.group(2))
        except ValueError:
            continue
    return values


def _is_counter_sample(name: str) -> bool:
    bare = name.split("{", 1)[0]
    return bare.endswith(("_total", "_sum", "_count")) or bare.endswith("_bucket")


def metrics_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Counter samples as after−before, gauge samples as their after value.

    Counters absent from *before* (created mid-run) delta against 0. A
    negative counter delta means the server restarted mid-run — kept
    as-is, because hiding it would lie about the run.
    """
    delta: dict[str, float] = {}
    for name, value in after.items():
        if _is_counter_sample(name):
            delta[name] = value - before.get(name, 0.0)
        else:
            delta[name] = value
    return delta


# -- bootstrap ----------------------------------------------------------------


def bootstrap_ci(
    values,
    statistic,
    *,
    resamples: int,
    rng: np.random.Generator,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile-bootstrap ``(lo, hi)`` for *statistic* over *values*."""
    sample = np.asarray(values, dtype=np.float64)
    if sample.size == 0:
        return (0.0, 0.0)
    if sample.size == 1:
        point = float(statistic(sample))
        return (point, point)
    stats = np.empty(resamples, dtype=np.float64)
    for index in range(resamples):
        stats[index] = statistic(rng.choice(sample, size=sample.size, replace=True))
    lo, hi = np.percentile(stats, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    return (float(lo), float(hi))


def _point_with_ci(point: float, ci: tuple[float, float]) -> dict:
    return {"value": float(point), "ci95": [float(ci[0]), float(ci[1])]}


# -- per-level summaries ------------------------------------------------------


def summarize_level(
    level: LevelSchedule,
    records: list[RequestRecord],
    *,
    resamples: int,
    seed: int,
    max_requests: int | None = None,
) -> dict:
    """One level's results row: counts, throughput+CI, latency quantiles+CI.

    A level that spent its *max_requests* budget stopped early, so its
    duration is the time it actually used — first start to last
    completion — rather than the planned ``level.duration_s``.
    """
    rng = np.random.default_rng((seed, _BOOTSTRAP_STREAM, level.index))
    completed = [r for r in records if r.status != 0]
    scored = [r for r in completed if r.status == 200]
    duration = level.duration_s
    if max_requests is not None and records and len(records) >= max_requests:
        used = max(r.start_s + r.latency_ms / 1000.0 for r in records) - min(
            r.start_s for r in records
        )
        if used > 0:
            duration = used
    latencies = np.array([r.latency_ms for r in scored], dtype=np.float64)

    # Throughput CI: completions per equal time slot, slot means resampled.
    slot_s = duration / _THROUGHPUT_SLOTS
    slot_counts = np.zeros(_THROUGHPUT_SLOTS, dtype=np.float64)
    level_start = min((r.start_s for r in records), default=0.0)
    for record in scored:
        slot = int((record.start_s - level_start) / slot_s) if slot_s > 0 else 0
        slot_counts[min(max(slot, 0), _THROUGHPUT_SLOTS - 1)] += 1
    throughput = len(scored) / duration if duration > 0 else 0.0
    throughput_ci = bootstrap_ci(
        slot_counts,
        lambda counts: float(np.mean(counts)) / slot_s if slot_s > 0 else 0.0,
        resamples=resamples,
        rng=rng,
    )

    latency: dict[str, dict] = {}
    for name, q in _QUANTILES:
        if latencies.size == 0:
            latency[name] = _point_with_ci(0.0, (0.0, 0.0))
            continue
        point = float(np.percentile(latencies, q))
        ci = bootstrap_ci(
            latencies,
            lambda arr, q=q: float(np.percentile(arr, q)),
            resamples=resamples,
            rng=rng,
        )
        latency[name] = _point_with_ci(point, ci)

    by_kind: dict[str, dict] = {}
    for record in records:
        row = by_kind.setdefault(
            record.kind, {"sent": 0, "ok": 0, "statuses": {}}
        )
        row["sent"] += 1
        row["ok"] += int(record.ok)
        key = str(record.status)
        row["statuses"][key] = row["statuses"].get(key, 0) + 1

    return {
        "level": level.index,
        "mode": level.mode,
        "intensity": level.intensity,
        "clients": level.clients,
        "duration_s": duration,
        "offered": len(level.arrivals) if level.mode == "open" else len(records),
        "sent": len(records),
        "completed": len(completed),
        "scored": len(scored),
        "misbehaved": sum(1 for r in records if not r.ok),
        "throughput_rps": _point_with_ci(throughput, throughput_ci),
        "latency_ms": latency,
        "by_kind": by_kind,
    }


# -- assembly -----------------------------------------------------------------


def _resources_payload(
    resources: dict[str, list[ResourceSample]], pids: dict[str, int]
) -> dict:
    return {
        role: {
            "pid": pids.get(role, -1),
            "samples": [sample.as_dict() for sample in samples],
        }
        for role, samples in sorted(resources.items())
    }


def build_result(
    scenario: Scenario,
    schedule: tuple[LevelSchedule, ...],
    records: list[RequestRecord],
    *,
    digest: str,
    resources: dict[str, list[ResourceSample]],
    pids: dict[str, int],
    metrics_before: str,
    metrics_after: str,
    host: dict,
    wall_s: float,
    duration_scale: float = 1.0,
) -> dict:
    """Assemble the full schema-v1 results payload."""
    by_level: dict[int, list[RequestRecord]] = {}
    for record in records:
        by_level.setdefault(record.level, []).append(record)
    before = parse_prometheus(metrics_before)
    after = parse_prometheus(metrics_after)
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "scenario": scenario.as_dict(),
        "fingerprint": scenario.fingerprint(),
        "schedule_digest": digest,
        "duration_scale": duration_scale,
        "wall_s": wall_s,
        "host": host,
        "levels": [
            summarize_level(
                level,
                by_level.get(level.index, []),
                resamples=scenario.bootstrap_resamples,
                seed=scenario.seed,
                max_requests=scenario.max_requests_per_level,
            )
            for level in schedule
        ],
        "metrics_delta": metrics_delta(before, after),
        "metrics_after": after,
        "resources": _resources_payload(resources, pids),
    }


# -- schema gate --------------------------------------------------------------

_LEVEL_KEYS = (
    "level",
    "mode",
    "intensity",
    "duration_s",
    "sent",
    "completed",
    "scored",
    "throughput_rps",
    "latency_ms",
    "by_kind",
)
_TOP_KEYS = (
    "schema_version",
    "scenario",
    "fingerprint",
    "schedule_digest",
    "host",
    "levels",
    "metrics_delta",
    "resources",
)


def validate_result(payload: dict) -> None:
    """Raise :class:`LoadLabError` unless *payload* is a valid v1 result."""
    if not isinstance(payload, dict):
        raise LoadLabError(f"result must be a dict, got {type(payload).__name__}")
    for key in _TOP_KEYS:
        if key not in payload:
            raise LoadLabError(f"result is missing {key!r}")
    if payload["schema_version"] != RESULTS_SCHEMA_VERSION:
        raise LoadLabError(
            f"unsupported schema_version {payload['schema_version']!r} "
            f"(this build reads {RESULTS_SCHEMA_VERSION})"
        )
    if not payload["levels"]:
        raise LoadLabError("result has no levels")
    for row in payload["levels"]:
        for key in _LEVEL_KEYS:
            if key not in row:
                raise LoadLabError(f"level row is missing {key!r}")
        for name in ("p50_ms", "p95_ms", "p99_ms"):
            cell = row["latency_ms"].get(name)
            if not isinstance(cell, dict) or "value" not in cell or "ci95" not in cell:
                raise LoadLabError(f"level {row['level']} lacks {name} value/ci95")
        cell = row["throughput_rps"]
        if not isinstance(cell, dict) or "value" not in cell or "ci95" not in cell:
            raise LoadLabError(f"level {row['level']} lacks throughput value/ci95")
    for role, entry in payload["resources"].items():
        if "pid" not in entry or "samples" not in entry:
            raise LoadLabError(f"resource series {role!r} lacks pid/samples")
        for sample in entry["samples"]:
            for key in ("t_s", "cpu_seconds", "rss_bytes", "open_fds"):
                if key not in sample:
                    raise LoadLabError(f"resource sample for {role!r} lacks {key!r}")


# -- human rendering ----------------------------------------------------------


def render_table(result: dict) -> str:
    """The per-level summary as a fixed-width table plus a resource line."""
    scenario = result["scenario"]
    lines = [
        f"loadlab scenario {scenario['name']!r} "
        f"(fingerprint {result['fingerprint']}, "
        f"schedule {result['schedule_digest']}, seed {scenario['seed']}, "
        f"host cpu_count={result['host'].get('cpu_count')})",
        f"{'lvl':>3} {'mode':>6} {'intensity':>9} {'sent':>6} {'ok':>6} "
        f"{'throughput':>16} {'p50':>9} {'p95':>9} {'p99':>9}",
    ]
    for row in result["levels"]:
        tp = row["throughput_rps"]
        lat = row["latency_ms"]
        lines.append(
            f"{row['level']:>3d} {row['mode']:>6} {row['intensity']:>9.1f} "
            f"{row['sent']:>6d} {row['sent'] - row['misbehaved']:>6d} "
            f"{tp['value']:>7.1f} req/s "
            f"[{tp['ci95'][0]:.1f},{tp['ci95'][1]:.1f}] "
            f"{lat['p50_ms']['value']:>6.1f} ms {lat['p95_ms']['value']:>6.1f} ms "
            f"{lat['p99_ms']['value']:>6.1f} ms"
        )
    for role, entry in result["resources"].items():
        samples = entry["samples"]
        if not samples:
            lines.append(f"  {role}: pid {entry['pid']}, no samples")
            continue
        cpu = samples[-1]["cpu_seconds"] - samples[0]["cpu_seconds"]
        peak_rss = max(sample["rss_bytes"] for sample in samples) / (1024.0 * 1024.0)
        peak_fds = max(sample["open_fds"] for sample in samples)
        lines.append(
            f"  {role}: pid {entry['pid']}, cpu {cpu:.2f}s, "
            f"peak rss {peak_rss:.1f} MiB, peak fds {peak_fds:.0f} "
            f"({len(samples)} samples)"
        )
    return "\n".join(lines) + "\n"
