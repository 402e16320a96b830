"""The host-speed factor computed from probe samples.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import math

import pytest

from probe import REFERENCE_S, slowdown


def _samples(scale: float, start: float, count: int = 5) -> list:
    return [
        (start + n * 0.01, name, seconds * scale)
        for n in range(count)
        for name, seconds in REFERENCE_S.items()
    ]


def test_reference_times_give_one_and_scaled_times_their_scale():
    assert slowdown(_samples(1.0, 0.0)) == pytest.approx(1.0)
    assert slowdown(_samples(2.0, 0.0)) == pytest.approx(2.0)


def test_factor_is_the_geometric_mean_over_kernels():
    samples = [
        (0.0, name, seconds * scale)
        for _ in range(3)
        for (name, seconds), scale in zip(REFERENCE_S.items(), (1.0, 2.0, 4.0, 8.0))
    ]
    assert slowdown(samples) == pytest.approx(math.sqrt(8.0))


def test_window_selects_samples_by_end_time():
    samples = _samples(1.0, 0.0) + _samples(3.0, 10.0)
    assert slowdown(samples, 9.0, 11.0) == pytest.approx(3.0)
    assert slowdown(samples, 0.0, 1.0) == pytest.approx(1.0)


def test_too_few_samples_of_any_kernel_give_none():
    assert slowdown([]) is None
    samples = [s for s in _samples(1.0, 0.0) if s[1] != "fft"] + [(0.0, "fft", 1e-3)] * 2
    assert slowdown(samples) is None
