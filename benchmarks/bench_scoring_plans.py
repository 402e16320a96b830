"""Scoring-plan speedup benchmark: precompiled hot path vs the pre-plan path.

Measures single-image scoring latency for (a) the steganalysis detector
and (b) the full default ensemble (scaling/mse + filtering/ssim +
steganalysis), comparing the plan-compiled hot path against a local
reconstruction of the pre-plan implementation:

* per-channel Python-loop round trips (one GEMM pair per channel),
* the full complex ``fft2`` log-spectrum with per-call mask/radial
  rebuilds, BFS component labeling, and per-label membership rescans,
* sliding-window materialization for the minimum filter, and
* the sliding-window-matmul SSIM.

A third row, (c), times the filtering detector's SSIM alone: the reference
``ssim`` against the tiled banded-GEMM ``ssim_fast`` the plan path uses,
on the image and its minimum-filtered copy.

Cold-shape rows, (d), time the plan path's first ensemble score of a
shape with every scoring cache cleared (scaling matrices, scoring plans,
spectrum geometry) against a warm score of the same image, at 96², 160²
and 256²: what a first-seen upload shape costs. They gate nothing. This
process keeps glibc's default malloc thresholds, so a cold 256² score
also pays for arrays the allocator maps afresh; under the thresholds
``repro serve`` and its shards set
(:func:`repro.serving.workers.keep_scoring_arrays_on_heap`) the 256²
penalty measured about 1 ms on a 2-core host.

The reconstruction lives here (not in ``src/``) so the comparison stays
honest after the legacy implementations are gone: this file *is* the
reference for what the code used to do per image. Scores are
cross-checked during the run — each pair must agree to the documented
plan tolerance (CSP counts exactly) or the timing is comparing different
work and the benchmark fails.

Timing is min-of-``REPEATS`` per image (robust to scheduler noise on
small hosts); the reported figure is the median ("p50") across images.
The speedups are algorithmic, not parallelism, but the acceptance gate
(steganalysis >= 5x, ensemble >= 2x) still only *hard-fails* on hosts
with >= 4 cores where BLAS and FFT threading are representative of
deployment; smaller hosts record the honest numbers and check a relaxed
floor. Results: ``benchmarks/results/bench_scoring_plans.txt``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_scoring_plans.py

or through pytest (same code path, fewer repeats)::

    PYTHONPATH=src pytest benchmarks/bench_scoring_plans.py --benchmark-only
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.analysis import ImageAnalysis
from repro.core.ensemble import build_default_ensemble
from repro.datasets.synthetic import generate_image
from repro.imaging.coefficients import scaling_operators
from repro.imaging.color import to_grayscale
from repro.imaging.image import as_float, ensure_image
from repro.imaging.metrics import mse, ssim, ssim_fast
from repro.imaging.plans import (
    clear_plan_caches,
    csp_count_fast,
    get_scoring_plan,
    get_spectrum_geometry,
)
from repro.imaging.scaling import clear_operator_cache

RESULTS_PATH = Path(__file__).parent / "results" / "bench_scoring_plans.txt"

SOURCE_SHAPE = (128, 128)
MODEL_INPUT = (16, 16)
N_IMAGES = 6
# min-of-N timing: scheduler noise is additive, so too few repeats inflate
# the sub-millisecond plan path proportionally more than the legacy path
# and *understate* the speedup; 25 repeats lets the min converge.
REPEATS = 25

#: The documented plan score tolerance (CSP counts must match exactly).
REL_TOL = 1e-9

#: Shapes of the cold-shape rows, and min-of-N for their cold scores
#: (each repeat clears the caches first).
COLD_SHAPES = ((96, 96), (160, 160), (256, 256))
COLD_REPEATS = 7


# -- the pre-plan implementation, reconstructed ------------------------------


def _legacy_resize(image: np.ndarray, out_shape, algorithm: str) -> np.ndarray:
    """Pre-plan ``resize``: one GEMM pair per channel in a Python loop."""
    ensure_image(image)
    img = as_float(image)
    left, right = scaling_operators(img.shape[:2], out_shape, algorithm)
    if img.ndim == 2:
        return left @ img @ right
    planes = [left @ img[:, :, c] @ right for c in range(img.shape[2])]
    return np.stack(planes, axis=2)


def _legacy_round_trip(image: np.ndarray, small_shape, algorithm: str) -> np.ndarray:
    down = _legacy_resize(image, small_shape, algorithm)
    return _legacy_resize(down, image.shape[:2], algorithm)


def _legacy_minimum_filter(image: np.ndarray, size: int) -> np.ndarray:
    """Pre-plan minimum filter: materialized sliding windows, full reduce."""
    img = as_float(image)
    pad_before = (size - 1) // 2
    pad_after = size - 1 - pad_before
    pad = [(pad_before, pad_after), (pad_before, pad_after)]
    if img.ndim == 3:
        pad.append((0, 0))
    padded = np.pad(img, pad, mode="reflect")
    windows = sliding_window_view(padded, (size, size), axis=(0, 1))
    return windows.min(axis=(-2, -1))


_NEIGHBORS_8 = (
    (-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1),
)


def _legacy_find_regions(mask: np.ndarray, min_area: int):
    """Pre-plan region extraction: BFS flood fill + per-label rescans."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int64)
    count = 0
    for r0, c0 in zip(*np.nonzero(mask)):
        if labels[r0, c0]:
            continue
        count += 1
        stack = [(int(r0), int(c0))]
        labels[r0, c0] = count
        while stack:
            r, c = stack.pop()
            for dr, dc in _NEIGHBORS_8:
                nr, nc = r + dr, c + dc
                if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not labels[nr, nc]:
                    labels[nr, nc] = count
                    stack.append((nr, nc))
    rows_all, cols_all = np.nonzero(labels)
    values = labels[rows_all, cols_all]
    regions = []
    for label in range(1, count + 1):
        member = values == label
        rows, cols = rows_all[member], cols_all[member]
        if rows.size < min_area:
            continue
        regions.append(
            (
                (float(rows.mean()), float(cols.mean())),
                (int(rows.min()), int(cols.min()), int(rows.max()), int(cols.max())),
            )
        )
    return regions


def _legacy_csp_count(image: np.ndarray) -> int:
    """Pre-plan steganalysis score: complex fft2, per-call geometry, BFS."""
    gray = to_grayscale(image)
    magnitude = np.abs(np.fft.fftshift(np.fft.fft2(gray)))
    log_mag = np.log1p(magnitude)
    low, high = float(log_mag.min()), float(log_mag.max())
    if high - low <= 0:
        return 1
    spectrum = (log_mag - low) / (high - low) * 255.0

    h, w = spectrum.shape
    radius = 0.5 * (min(h, w) / 2.0)
    rows = np.arange(h) - h // 2
    cols = np.arange(w) - w // 2
    dist_sq = rows[:, None] ** 2 + cols[None, :] ** 2
    binary = (spectrum >= 160.0) & (dist_sq <= radius * radius)

    center = np.array([h // 2, w // 2], dtype=np.float64)
    inner_radius = 0.09 * min(h, w)
    regions = [
        region
        for region in _legacy_find_regions(binary, min_area=2)
        if float(np.hypot(*(np.array(region[0]) - center))) > inner_radius
    ]
    if not regions:
        return 1
    radial = np.hypot(rows[:, None], cols[None, :])
    outer = 0
    for centroid, bbox in regions:
        distance = float(np.hypot(*(np.array(centroid) - center)))
        r0, c0, r1, c1 = bbox
        peak = float(spectrum[r0 : r1 + 1, c0 : c1 + 1].max())
        annulus = spectrum[(radial > distance - 3.0) & (radial < distance + 3.0)]
        background = float(np.median(annulus)) if annulus.size else 0.0
        if peak - background >= 35.0:
            outer += 1
    return 1 + outer


def _legacy_ensemble_scores(image: np.ndarray) -> tuple[float, float, float]:
    reconstructed = _legacy_round_trip(image, MODEL_INPUT, "bilinear")
    filtered = _legacy_minimum_filter(image, 2)
    return (
        mse(image, reconstructed),
        ssim(image, filtered),
        float(_legacy_csp_count(image)),
    )


# -- the plan-compiled hot path ----------------------------------------------


def _plan_ensemble_scores(detectors, image: np.ndarray) -> tuple[float, ...]:
    analysis = ImageAnalysis(image)
    return tuple(detector.score_from(analysis) for detector in detectors)


# -- measurement -------------------------------------------------------------


def _best_of(func, *args, repeats: int) -> float:
    """Min-of-*repeats* over contiguous runs: steady-state warm-cache cost.

    Each path is timed as its own block on purpose — serving scores
    stream through one path back to back, so warm-cache repeats are the
    steady state being measured, not an artifact.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _cold_score(detectors, image: np.ndarray) -> None:
    clear_operator_cache()
    clear_plan_caches()
    _plan_ensemble_scores(detectors, image)


def _cold_rows(detectors, repeats: int) -> list[str]:
    """One row per :data:`COLD_SHAPES` entry: cold and warm ensemble score."""
    lines = [
        f"{'cold shape (ensemble)':<28} {'cold min':>12} {'warm min':>12} {'penalty':>9}",
    ]
    for shape in COLD_SHAPES:
        image = generate_image(shape, np.random.default_rng((11, *shape)), family="neurips")
        cold = _best_of(_cold_score, detectors, image, repeats=min(repeats, COLD_REPEATS))
        warm = _best_of(_plan_ensemble_scores, detectors, image, repeats=repeats)
        lines.append(
            f"{f'cold {shape[0]}x{shape[1]}':<28} {cold * 1000.0:>9.3f} ms "
            f"{warm * 1000.0:>9.3f} ms {(cold - warm) * 1000.0:>6.2f} ms"
        )
    return lines


def run_plan_speedup(
    n_images: int = N_IMAGES, repeats: int = REPEATS, save: bool = False
) -> str:
    """Time both paths per image and render the result table.

    ``save=True`` (the ``__main__`` entry) also rewrites the checked-in
    reference table; the pytest gate leaves it untouched.
    """
    images = [
        generate_image(SOURCE_SHAPE, np.random.default_rng((7, key)), family="neurips")
        for key in range(n_images)
    ]
    detectors = build_default_ensemble(MODEL_INPUT, algorithm="bilinear").detectors

    # Warm every cache both paths use: the legacy path's coefficient
    # matrices and the plan path's compiled plan + spectrum geometry, so
    # the comparison is steady-state scoring, not first-call compilation.
    scaling_operators(SOURCE_SHAPE, MODEL_INPUT, "bilinear")
    scaling_operators(MODEL_INPUT, SOURCE_SHAPE, "bilinear")
    get_scoring_plan(SOURCE_SHAPE, MODEL_INPUT, "bilinear")
    get_spectrum_geometry(SOURCE_SHAPE)
    _plan_ensemble_scores(detectors, images[0])
    _legacy_ensemble_scores(images[0])

    rows = []
    for image in images:
        legacy_scores = _legacy_ensemble_scores(image)
        plan_scores = _plan_ensemble_scores(detectors, image)
        for got, want in zip(plan_scores, legacy_scores):
            if abs(got - want) > REL_TOL * max(abs(want), 1.0):
                raise AssertionError(
                    f"plan/legacy score divergence beyond tolerance: "
                    f"{plan_scores} vs {legacy_scores}"
                )
        filtered = _legacy_minimum_filter(image, 2)
        reference, fast = ssim(image, filtered), ssim_fast(image, filtered)
        if abs(fast - reference) > REL_TOL * max(abs(reference), 1.0):
            raise AssertionError(f"ssim_fast/ssim divergence: {fast} vs {reference}")
        rows.append(
            {
                "stegan_legacy": _best_of(_legacy_csp_count, image, repeats=repeats),
                "stegan_plan": _best_of(
                    lambda img: csp_count_fast(to_grayscale(img)), image, repeats=repeats
                ),
                "ssim_legacy": _best_of(ssim, image, filtered, repeats=repeats),
                "ssim_plan": _best_of(ssim_fast, image, filtered, repeats=repeats),
                "ensemble_legacy": _best_of(
                    _legacy_ensemble_scores, image, repeats=repeats
                ),
                "ensemble_plan": _best_of(
                    _plan_ensemble_scores, detectors, image, repeats=repeats
                ),
            }
        )

    def p50(key: str) -> float:
        return float(np.median([row[key] for row in rows]) * 1000.0)

    stegan_speedup = p50("stegan_legacy") / p50("stegan_plan")
    ensemble_speedup = p50("ensemble_legacy") / p50("ensemble_plan")
    lines = [
        f"Scoring-plan speedup — {SOURCE_SHAPE[0]}x{SOURCE_SHAPE[1]} color images, "
        f"model input {MODEL_INPUT[0]}x{MODEL_INPUT[1]}, bilinear,",
        f"{n_images} images, min-of-{repeats} per image, p50 across images, "
        f"host cpu_count={os.cpu_count()}",
        "(legacy = pre-plan path reconstructed above: per-channel loop round trip,",
        " full fft2 + per-call geometry + BFS labeling, windowed min filter,",
        " sliding-window SSIM; scores cross-checked to the plan tolerance;",
        " ssim row: reference ssim vs ssim_fast on the image and its filtered copy)",
        "",
        f"{'path':<28} {'legacy p50':>12} {'plan p50':>12} {'speedup':>9}",
        f"{'steganalysis single-image':<28} {p50('stegan_legacy'):>9.3f} ms "
        f"{p50('stegan_plan'):>9.3f} ms {stegan_speedup:>8.1f}x",
        f"{'ssim single-image':<28} {p50('ssim_legacy'):>9.3f} ms "
        f"{p50('ssim_plan'):>9.3f} ms {p50('ssim_legacy') / p50('ssim_plan'):>8.1f}x",
        f"{'ensemble single-image':<28} {p50('ensemble_legacy'):>9.3f} ms "
        f"{p50('ensemble_plan'):>9.3f} ms {ensemble_speedup:>8.1f}x",
        "",
        *_cold_rows(detectors, repeats),
        "(cold: first score of the shape with the scaling-matrix, plan and",
        " geometry caches cleared; penalty = cold - warm)",
        "",
        f"gates: steganalysis >= 5x, ensemble >= 2x (hard on cpu_count >= 4 hosts)",
    ]
    text = "\n".join(lines) + "\n"
    if save:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text)
    return text


def _speedups(text: str) -> tuple[float, float]:
    values = [
        float(line.rsplit(None, 1)[-1].rstrip("x"))
        for line in text.splitlines()
        if line.startswith(("steganalysis single-image", "ensemble single-image"))
    ]
    assert len(values) == 2, text
    return values[0], values[1]


def test_plan_speedup(run_once):
    """Acceptance: the compiled hot path beats the pre-plan path.

    On >= 4-core hosts (representative of deployment) the full gates
    apply: steganalysis >= 5x and ensemble >= 2x at the single-image p50.
    Smaller hosts still run the same sweep and record honest numbers, but
    check a relaxed floor — the wins are algorithmic, yet tiny hosts
    share one core between the timer and every BLAS/FFT worker, so the
    margins (not the direction) get noisy.
    """
    text = run_once(run_plan_speedup, n_images=4, repeats=15)
    print("\n" + text)
    stegan, ensemble = _speedups(text)
    if (os.cpu_count() or 1) >= 4:
        assert stegan >= 5.0, text
        assert ensemble >= 2.0, text
    else:
        assert stegan >= 2.0, text
        assert ensemble >= 1.2, text


if __name__ == "__main__":
    print(run_plan_speedup(save=True))
