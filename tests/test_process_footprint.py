"""What every serving process pays before and during calibration.

Each dispatcher and shard of ``repro serve`` is a long-lived process, so
its import graph and its calibration transient are a per-process floor:

* serving imports numpy and ``repro`` only — no scipy, checked in a fresh
  interpreter that imports the server, calibrates a pipeline, and scores an
  image whose spectrum reaches the CSP crop labeler;
* calibration holds one image's working set at a time, so its traced peak
  does not grow with the size of the holdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import generate_image
from repro.serving import ProtectedPipeline

SRC = Path(__file__).resolve().parents[1] / "src"

_SERVING_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    import repro.cli
    import repro.serving.server
    import repro.serving.workers
    from repro.datasets.synthetic import generate_image
    from repro.imaging import plans
    from repro.serving import ProtectedPipeline

    labeled = []
    label_crop = plans._point_region_stats

    def counting(rows, cols):
        labeled.append(rows.size)
        return label_crop(rows, cols)

    plans._point_region_stats = counting
    rng = np.random.default_rng(0)
    pipeline = ProtectedPipeline((16, 16))
    pipeline.calibrate([generate_image((64, 64), rng) for _ in range(4)], percentile=5.0)
    # Vertical stripes of period 4: bright spectrum points a quarter of the
    # way out, well past the inner radius, so the crop labeler runs.
    stripes = np.zeros((64, 64, 3), dtype=np.uint8)
    stripes[:, ::4] = 255
    pipeline.submit(stripes)
    assert labeled, "the CSP crop labeler never ran"
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
)


def test_serving_imports_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _SERVING_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _calibration_peak(images: list[np.ndarray]) -> int:
    pipeline = ProtectedPipeline((16, 16))
    tracemalloc.start()
    try:
        pipeline.calibrate(images, percentile=5.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_calibration_peak_does_not_grow_with_the_holdout():
    rng = np.random.default_rng(3)
    images = [generate_image((128, 128), rng) for _ in range(24)]
    _calibration_peak(images[:2])  # warm the operator and plan caches
    small = _calibration_peak(images[:6])
    large = _calibration_peak(images)
    assert large <= 1.25 * small, (small, large)
