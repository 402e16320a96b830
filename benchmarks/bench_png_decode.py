"""PNG decode cost by row filter: the vectorized decoder vs the per-byte oracle.

The sender of a PNG picks its row filters, so decode time must not depend
on them. For filters 0-4 (every row the same) and ``adaptive`` (each row
takes the filter with the smallest residuals, as libpng does), at 128x128
and 256x256 RGB, this reports the median ``decode_png`` time with the
library's vectorized ``_unfilter`` and with the per-byte loop kept as the
test oracle (``tests/png_oracle.py``), next to the median time the default
ensemble takes to score the same image (16x16 model input, bilinear). Each
filtered payload is checked to decode identically on both paths before it
is timed. The payloads are the serving benchmark's own
(``benchmarks/perf/payloads.py``).

Run standalone (rewrites ``benchmarks/results/bench_png_decode.txt``)::

    PYTHONPATH=src python benchmarks/bench_png_decode.py

or through pytest (fewer repeats, nothing saved)::

    PYTHONPATH=src pytest benchmarks/bench_png_decode.py --benchmark-only
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "perf"))

from payloads import FILTERS, encode_png_filtered  # noqa: E402
from repro.core.analysis import ImageAnalysis  # noqa: E402
from repro.core.ensemble import build_default_ensemble  # noqa: E402
from repro.datasets.synthetic import generate_image  # noqa: E402
from repro.imaging import png  # noqa: E402
from tests.png_oracle import unfilter_loop  # noqa: E402

RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_png_decode.txt"

SIDES = (128, 256)
MODEL_INPUT = (16, 16)
REPEATS = 15
#: The oracle is 10-200x slower; fewer repeats keep the run short.
ORACLE_REPEATS = 3


def _median_ms(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def _oracle_decode(data: bytes) -> np.ndarray:
    """``decode_png`` with the per-byte unfilter loop swapped in."""
    with mock.patch.object(png, "_unfilter", unfilter_loop):
        return png.decode_png(data)


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_decode_bench(
    repeats: int = REPEATS, oracle_repeats: int = ORACLE_REPEATS, save: bool = False
) -> tuple[str, list[dict]]:
    """Time every (side, filter) payload; returns the table and its rows."""
    detectors = build_default_ensemble(MODEL_INPUT, algorithm="bilinear").detectors

    def score(image: np.ndarray) -> None:
        analysis = ImageAnalysis(image)
        for detector in detectors:
            detector.score_from(analysis)

    rows = []
    for side in SIDES:
        image = generate_image((side, side), np.random.default_rng((5, side)))
        score(image)  # compile the scoring plan and geometry for this shape
        score_ms = _median_ms(lambda: score(image), repeats)
        for filter_type in (*FILTERS, "adaptive"):
            data = encode_png_filtered(image, filter_type)
            decoded = png.decode_png(data)
            if not (np.array_equal(decoded, image) and np.array_equal(_oracle_decode(data), decoded)):
                raise AssertionError(f"{side}x{side} filter {filter_type}: decoders disagree")
            rows.append(
                {
                    "side": side,
                    "filter": str(filter_type),
                    "new_ms": _median_ms(lambda: png.decode_png(data), repeats),
                    "oracle_ms": _median_ms(lambda: _oracle_decode(data), oracle_repeats),
                    "score_ms": score_ms,
                }
            )

    lines = [
        "PNG decode by row filter — RGB synthetic images, vectorized decoder vs",
        "the per-byte oracle (tests/png_oracle.py), next to the default ensemble's",
        f"score time on the same image (model input {MODEL_INPUT[0]}x{MODEL_INPUT[1]}, bilinear)",
        f"median of {repeats} runs (oracle: {oracle_repeats}), host cpu_count={os.cpu_count()}, "
        f"git sha {_git_sha()}",
        "",
        f"{'image':<8} {'filter':<9} {'decode':>10} {'oracle':>11} {'speedup':>8} "
        f"{'score':>10} {'decode/score':>13}",
    ]
    for row in rows:
        lines.append(
            f"{row['side']}x{row['side']:<4} {row['filter']:<9} "
            f"{row['new_ms']:>7.2f} ms {row['oracle_ms']:>8.2f} ms "
            f"{row['oracle_ms'] / row['new_ms']:>7.1f}x {row['score_ms']:>7.2f} ms "
            f"{row['new_ms'] / row['score_ms']:>12.2f}x"
        )
    lines += ["", "gate: every decode at 128x128 <= 2x the ensemble's score time"]
    text = "\n".join(lines) + "\n"
    if save:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text)
    return text, rows


def test_png_decode_bench(run_once):
    """Acceptance: at 128x128 no row filter makes decoding cost more than
    twice what the three detectors spend scoring the decoded image."""
    text, rows = run_once(run_decode_bench, repeats=7, oracle_repeats=1)
    print("\n" + text)
    for row in rows:
        if row["side"] == 128:
            assert row["new_ms"] <= 2.0 * row["score_ms"], text


if __name__ == "__main__":
    print(run_decode_bench(save=True)[0], end="")
