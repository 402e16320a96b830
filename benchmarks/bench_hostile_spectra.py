"""Hostile-spectrum benchmark: the CSP labeler on spectra an attacker shapes.

The steganalysis detector labels the bright points of an image's low-pass
spectrum disk (:func:`repro.imaging.plans.csp_count_fast`). An uploader
controls that spectrum, so this benchmark builds luma planes in frequency
space whose disk is one of three adversarial masks:

* ``checker`` — a checkerboard: one 8-connected component whose row runs
  are all single pixels, so the run graph has the most edges per pixel;
* ``random`` — each disk point bright with probability 1/2;
* ``points`` — isolated bright points two bins apart: the most components.

Each plane is the inverse FFT of a real, point-symmetric magnitude
(``1e8`` on the mask, ``1`` elsewhere), so its spectrum is the mask up to
rounding. Two timings per plane, min-of-``REPEATS``:

* ``csp_count_fast`` on the plane (FFT, thresholding, labeling, stats);
* ``label_runs`` on the bright disk mask itself, at 4- and
  8-connectivity.

The script times whichever ``repro`` is on ``PYTHONPATH``, so one run per
checkout gives a before/after pair::

    PYTHONPATH=src python benchmarks/bench_hostile_spectra.py --json after.json
    PYTHONPATH=/path/to/other/src python benchmarks/bench_hostile_spectra.py --json before.json
    python benchmarks/bench_hostile_spectra.py --compare before.json after.json

``--compare`` renders both runs side by side with their ratios and
writes ``benchmarks/results/bench_hostile_spectra.txt``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "bench_hostile_spectra.txt"

SIDES = (512, 1024)
PATTERNS = ("checker", "random", "points")
REPEATS = 5
BRIGHT = 1e8


def disk_mask(side: int, pattern: str) -> np.ndarray:
    """The bright points of the low-pass disk (radius ``side / 4``), in
    centered coordinates, symmetric through the center."""
    offsets = np.arange(side) - side // 2
    rows, cols = np.meshgrid(offsets, offsets, indexing="ij")
    radius = side / 4.0
    disk = rows**2 + cols**2 <= radius * radius
    if pattern == "checker":
        chosen = (rows + cols) % 2 == 0
    elif pattern == "random":
        chosen = np.random.default_rng(side).random((side, side)) < 0.5
    elif pattern == "points":
        chosen = (rows % 2 == 0) & (cols % 2 == 0)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    mask = disk & chosen
    # Point symmetry (i, j) -> (-i, -j) keeps the plane real.
    mirrored = np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
    return mask | mirrored


def hostile_plane(mask: np.ndarray) -> np.ndarray:
    """A real luma plane whose centered spectrum magnitude is *mask*."""
    magnitude = np.where(mask, BRIGHT, 1.0)
    return np.fft.ifft2(np.fft.ifftshift(magnitude)).real


def _min_ms(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def measure(repeats: int) -> dict[str, dict[str, float]]:
    from repro.imaging.contours import label_runs
    from repro.imaging.plans import csp_count_fast

    rows: dict[str, dict[str, float]] = {}
    for side in SIDES:
        for pattern in PATTERNS:
            mask = disk_mask(side, pattern)
            plane = hostile_plane(mask)
            csp_count_fast(plane)  # warm the geometry cache
            rows[f"{side}-{pattern}"] = {
                "bright": int(mask.sum()),
                "csp": csp_count_fast(plane),
                "csp_ms": _min_ms(lambda: csp_count_fast(plane), repeats),
                "label4_ms": _min_ms(lambda: label_runs(mask, connectivity=4), repeats),
                "label8_ms": _min_ms(lambda: label_runs(mask, connectivity=8), repeats),
            }
    return rows


def render(before: dict, after: dict) -> str:
    lines = [
        "Hostile spectra — csp_count_fast and label_runs on adversarial disk masks",
        f"(min-of-{REPEATS} per cell, host cpu_count={os.cpu_count()}; "
        "before/after = two checkouts' repro on PYTHONPATH)",
        "",
        f"{'plane':<14} {'bright':>7} {'csp':>4}  {'csp before':>10} {'after':>9} {'ratio':>6}"
        f"  {'label8 before':>13} {'after':>9}  {'label4 before':>13} {'after':>9}",
    ]
    for name, old in before.items():
        new = after[name]
        if old["csp"] != new["csp"]:
            raise SystemExit(f"{name}: CSP count changed {old['csp']} -> {new['csp']}")
        lines.append(
            f"{name:<14} {new['bright']:>7} {new['csp']:>4}"
            f"  {old['csp_ms']:>7.1f} ms {new['csp_ms']:>6.1f} ms"
            f" {new['csp_ms'] / old['csp_ms']:>5.2f}x"
            f"  {old['label8_ms']:>10.1f} ms {new['label8_ms']:>6.1f} ms"
            f"  {old['label4_ms']:>10.1f} ms {new['label4_ms']:>6.1f} ms"
        )
    return "\n".join(lines) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write this checkout's timings here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        table = render(before, after)
        RESULTS_PATH.write_text(table)
        print(table, end="")
        return
    rows = measure(REPEATS)
    for name, row in rows.items():
        print(name, row)
    if args.json:
        args.json.write_text(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
