"""``/metrics`` scrape parsing for measurements taken from outside a server.

A benchmark that scrapes ``GET /metrics`` before and after a run turns the
two Prometheus text expositions into one delta: :func:`parse_prometheus`
flattens each scrape, and :func:`metrics_delta` subtracts counter
families (``*_total``, histogram ``_sum``/``_count``/``_bucket``) and
keeps gauges at their after value.
"""

from __future__ import annotations

import re

__all__ = ["metrics_delta", "parse_prometheus"]

_SAMPLE_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s+(\S+)$")


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
