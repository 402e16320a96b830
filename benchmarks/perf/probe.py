"""Host-speed probe: how fast the server's CPU runs while it is measured.

The benchmark host is a virtual machine whose CPU speed swings with what
other tenants run: the same computation takes from 1x to more than 2x its
usual time, in stretches of a fraction of a second to minutes. Every time
the benchmark reports moves with it. This probe measures that speed so the
times can be scaled back to a reference speed.

Run as a script, it pins itself to one CPU (the server's), drops to the
``SCHED_IDLE`` policy, so it runs only when nothing else on that CPU
wants to, and times four fixed kernels in a loop by thread CPU time: a
Python loop, small NumPy array arithmetic, a 2-D FFT and a zlib inflate,
the kinds of work the server does. None of them is the repository's code,
so a change to the program cannot change the probe. On SIGTERM it writes
its samples, ``[perf_counter at the end, kernel, CPU seconds]``, as JSON
and exits::

    python3 benchmarks/perf/probe.py CPU OUT.json

:func:`slowdown` turns samples into a factor: the geometric mean over the
kernels of (median time in a window / reference time). A factor of 1.3
means the CPU ran 1.3 times slower than when the reference times were
taken. This module imports only the standard library, except in the
probe process itself, which loads NumPy after pinning.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import sys
import time
import zlib
from pathlib import Path

__all__ = ["REFERENCE_S", "main", "slowdown"]

#: CPU seconds each kernel takes at the reference speed: the 10th
#: percentile of 40 runs of every workload on the 2-vCPU host the
#: benchmark was defined on.
REFERENCE_S = {
    "interpreter": 326e-6,
    "arrays": 943e-6,
    "fft": 689e-6,
    "inflate": 375e-6,
}
#: Samples of every kernel a window needs for a factor.
_MIN_SAMPLES = 3


def slowdown(samples: list, start: float = -math.inf, end: float = math.inf) -> float | None:
    """Slowdown against :data:`REFERENCE_S` over the samples that ended in
    ``[start, end]`` (``perf_counter`` seconds); None when any kernel has
    fewer than three samples there."""
    times: dict[str, list[float]] = {name: [] for name in REFERENCE_S}
    for ended, name, seconds in samples:
        if start <= ended <= end:
            times[name].append(seconds)
    if any(len(values) < _MIN_SAMPLES for values in times.values()):
        return None
    logs = [math.log(statistics.median(times[name]) / REFERENCE_S[name]) for name in REFERENCE_S]
    return math.exp(statistics.fmean(logs))


def _kernels() -> dict:
    import numpy as np

    rng = np.random.default_rng(0)
    image = rng.random((128, 128, 3))
    resample = rng.random((16, 128))
    compressed = zlib.compress(rng.integers(0, 40, 50_000, dtype=np.uint8).tobytes())

    def interpreter() -> int:
        total = 0
        for i in range(5000):
            total += i * i
        return total

    def arrays() -> float:
        grey = image.mean(axis=2)
        rows = ((grey[1:, :] - grey[:-1, :]) ** 2).sum()
        cols = np.abs(grey[:, 1:] - grey[:, :-1]).sum()
        small = (resample @ grey @ resample.T).sum()
        return float(rows + cols + small + np.histogram(grey, bins=32)[0].sum())

    def fft() -> None:
        for channel in range(3):
            np.fft.irfft2(np.fft.rfft2(image[:, :, channel]), s=image.shape[:2])

    def inflate() -> int:
        return len(zlib.decompress(compressed))

    return {"interpreter": interpreter, "arrays": arrays, "fft": fft, "inflate": inflate}


def main(argv: list[str]) -> int:
    cpu, out = int(argv[0]), Path(argv[1])
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    # NumPy after pinning, so its BLAS pool is sized for one CPU.
    kernels = _kernels()
    samples = []
    while not stopping:
        for name, kernel in kernels.items():
            started = time.thread_time()
            kernel()
            samples.append((time.perf_counter(), name, time.thread_time() - started))
    out.write_text(json.dumps(samples), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
