"""What every serving process pays before and during calibration.

Each dispatcher and shard of ``repro serve`` is a long-lived process, so
its import graph and its calibration transient are a per-process floor:

* serving imports numpy and ``repro`` only — no scipy, checked in a fresh
  interpreter that imports the server, calibrates a pipeline, and scores an
  image whose spectrum reaches the CSP crop labeler;
* calibration holds one image's working set at a time, so its traced peak
  does not grow with the size of the holdout;
* a sharded dispatcher imports no ``multiprocessing`` and has no children
  but its shards, and the shards end with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
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


_POOL_SCRIPT = textwrap.dedent(
    """
    import json
    import os
    import sys

    sys.path.insert(0, sys.argv[1])

    import numpy as np

    from repro.datasets.synthetic import generate_image
    from repro.serving import ProtectedPipeline
    from repro.serving.wire import encode_image_payload
    from repro.serving.workers import WorkerPool, WorkerSpec

    rng = np.random.default_rng(0)
    images = [generate_image((64, 64), rng) for _ in range(5)]
    pipeline = ProtectedPipeline((16, 16))
    pipeline.calibrate(images[:4], percentile=5.0)
    pool = WorkerPool(WorkerSpec.from_pipeline(pipeline), 2)
    pool.start()
    reply = pool.submit([encode_image_payload(images[4])], request_id="footprint")
    assert len(reply["verdicts"]) == 1
    children = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                ppid = stat.read().rpartition(")")[2].split()[1]
        except (FileNotFoundError, ProcessLookupError):
            continue  # ended between the listing and the read
        if int(ppid) == os.getpid():
            children.append(int(pid))
    print(json.dumps({
        "multiprocessing": "multiprocessing" in sys.modules,
        "children": sorted(children),
        "shards": sorted(pool.pids().values()),
    }), flush=True)
    sys.stdin.read()  # until the test kills this process
    """
)


def _running(pid: int) -> bool:
    """True while *pid* exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def test_shards_are_the_only_children_and_end_with_the_dispatcher():
    """A fresh interpreter, started without ``PYTHONPATH``, finds ``src``
    by a ``sys.path`` edit, starts two shards and scores one image. It
    imports no ``multiprocessing``, its only children are the two shards
    (no resource tracker), and a SIGKILL of it ends both shards: their
    stdin reaches its end."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    dispatcher = subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT, str(SRC)],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = dispatcher.stdout.readline()
        assert line, dispatcher.stderr.read() if dispatcher.poll() is not None else "no report"
        report = json.loads(line)
    finally:
        dispatcher.kill()
        dispatcher.wait()
        for stream in (dispatcher.stdin, dispatcher.stdout, dispatcher.stderr):
            stream.close()
    assert report["multiprocessing"] is False
    assert len(report["shards"]) == 2
    assert report["children"] == report["shards"]
    deadline = time.monotonic() + 5.0
    while any(map(_running, report["shards"])) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, report["shards"])), report["shards"]
