"""Ambient run context: per-stage timings and the calibration cache.

The mediator activates one :class:`RunContext` per experiment cell; code
that runs underneath it — data preparation, the experiment runners —
reports stage durations with :func:`stage` and consults the
content-addressed cache through :func:`cached_calibration` /
:func:`cached_ensemble_calibration`. When no context is active (direct
calls to the runner functions, the test suite, library users) every hook
degrades to a no-op and the wrapped computation runs unchanged — which is
what keeps the mediator's results bit-identical to direct runner calls.

A :class:`contextvars.ContextVar` carries the context so process fan-out
(each worker activates its own) and nested sweeps stay isolated.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.core.ensemble import DetectionEnsemble
from repro.core.detector import Detector
from repro.core.result import Direction, ThresholdRule
from repro.eval.cache import ExperimentCache

__all__ = [
    "RunContext",
    "activate",
    "cached_calibration",
    "cached_ensemble_calibration",
    "current_context",
    "stage",
]

_ACTIVE: contextvars.ContextVar["RunContext | None"] = contextvars.ContextVar(
    "repro_eval_run_context", default=None
)


@dataclass
class RunContext:
    """State shared by everything running inside one experiment cell."""

    #: cumulative seconds per stage name ("prepare", "attack-gen", ...).
    timings: dict[str, float] = field(default_factory=dict)
    #: content-addressed cache, or None to compute everything fresh.
    cache: ExperimentCache | None = None
    #: stable fingerprint of the data config — the cache-key component
    #: that ties calibration artifacts to the corpus they came from.
    data_fingerprint: str = ""


def current_context() -> RunContext | None:
    """The active context, or ``None`` outside a mediator run."""
    return _ACTIVE.get()


@contextlib.contextmanager
def activate(context: RunContext):
    """Make *context* the ambient run context for the enclosed block."""
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)


@contextlib.contextmanager
def stage(name: str):
    """Accumulate the enclosed block's wall time under stage *name*.

    No-op (beyond one clock read) when no context is active.
    """
    start = time.perf_counter()
    try:
        yield
    finally:
        context = _ACTIVE.get()
        if context is not None:
            elapsed = time.perf_counter() - start
            context.timings[name] = context.timings.get(name, 0.0) + elapsed


def _calibration_key(detector: Detector, key_fields: Mapping) -> dict:
    return {
        "data": _ACTIVE.get().data_fingerprint,
        "method": detector.method,
        "metric": detector.metric,
        **dict(key_fields),
    }


def _cache_usable() -> bool:
    context = _ACTIVE.get()
    return (
        context is not None
        and context.cache is not None
        and bool(context.data_fingerprint)
    )


def cached_calibration(
    detector: Detector,
    key_fields: Mapping,
    compute: Callable[[], ThresholdRule],
) -> ThresholdRule:
    """Calibrate *detector*, serving the threshold from cache when possible.

    *key_fields* must pin down everything that determines the threshold
    besides the detector identity and the data (strategy, percentile, ...).
    On a hit the cached rule is installed on the detector without scoring
    a single image; on a miss *compute* runs (it must leave the detector
    calibrated, i.e. be the ordinary ``detector.calibrate(...)`` call) and
    the resulting rule is stored. Without an active cache this is exactly
    ``compute()``.
    """
    if not _cache_usable():
        return compute()
    context = _ACTIVE.get()
    config = _calibration_key(detector, key_fields)
    entry = context.cache.load_json("calibration", config)
    if entry is not None:
        rule = ThresholdRule(
            value=float(entry["value"]), direction=Direction(entry["direction"])
        )
        detector.threshold = rule
        return rule
    rule = compute()
    context.cache.store_json(
        "calibration", config, {"value": rule.value, "direction": rule.direction.value}
    )
    return rule


def cached_ensemble_calibration(
    ensemble: DetectionEnsemble,
    key_fields: Mapping,
    compute: Callable[[], dict[str, ThresholdRule]],
) -> dict[str, ThresholdRule]:
    """Ensemble counterpart of :func:`cached_calibration`.

    The cached artifact is the full rule set keyed by ``method/metric``;
    a hit installs every member's threshold (steganalysis keeps its fixed
    rule and is absent from the set, mirroring ``ensemble.calibrate``).
    """
    if not _cache_usable():
        return compute()
    context = _ACTIVE.get()
    members = sorted(
        f"{detector.method}/{detector.metric}" for detector in ensemble.detectors
    )
    config = {
        "data": context.data_fingerprint,
        "members": members,
        **dict(key_fields),
    }
    entry = context.cache.load_json("calibration", config)
    if entry is not None:
        by_name = {
            f"{detector.method}/{detector.metric}": detector
            for detector in ensemble.detectors
        }
        rules: dict[str, ThresholdRule] = {}
        for name, stored in entry.items():
            rule = ThresholdRule(
                value=float(stored["value"]), direction=Direction(stored["direction"])
            )
            by_name[name].threshold = rule
            rules[name] = rule
        return rules
    rules = compute()
    context.cache.store_json(
        "calibration",
        config,
        {
            name: {"value": rule.value, "direction": rule.direction.value}
            for name, rule in rules.items()
        },
    )
    return rules
