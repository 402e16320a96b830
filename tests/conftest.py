"""Shared fixtures.

Kept deliberately small: tests use 128x128 "camera" images and 16x16 model
inputs so the whole suite runs in CPU-seconds while exercising the same
ratio-8 downscale regime as the full experiments. (Below ~128px the
spectral geometry of the steganalysis method degenerates — grid peaks merge
with the central blob — so tests do not shrink further.)
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.attacks.strong import craft_attack_image
from repro.datasets.synthetic import generate_image
from repro.imaging.scaling import resize

SOURCE_SHAPE = (128, 128)
MODEL_INPUT = (16, 16)

#: Worker shards for the serving tests' shared server fixture. CI's
#: fault-matrix job runs the suite at 0 (in-process), 1, and 4 so the
#: sharded scoring path is exercised by the same end-to-end tests.
SERVER_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "0"))


@pytest.fixture(scope="session", autouse=True)
def _locksan_session():
    """Runtime lock-order sanitizer, armed by ``REPRO_LOCKSAN=1``.

    Wraps every ``threading.Lock/RLock/Condition`` constructed under
    ``src/repro`` for the whole session, dumps the observed acquisition
    graph to ``REPRO_LOCKSAN_OUT`` (for ``tools/analyze.py
    --locksan-check``), and fails the session outright if the observed
    graph contains a cycle. Zero effect when the env var is unset — the
    sanitizer module is not even imported.
    """
    if os.environ.get("REPRO_LOCKSAN") != "1":
        yield
        return
    from repro.testing import locksan

    locksan.install()
    try:
        yield
    finally:
        out = os.environ.get("REPRO_LOCKSAN_OUT")
        report = locksan.dump(out) if out else locksan.snapshot()
        locksan.uninstall()
    if report["cycles"]:
        raise pytest.UsageError(
            f"locksan observed lock-order cycle(s): {report['cycles']} "
            f"(locks: {[(l['id'], l['file'], l['line']) for l in report['locks']]})"
        )


def wait_until(
    predicate,
    *,
    timeout_s: float = 10.0,
    interval_s: float = 0.01,
    message: str = "condition",
):
    """Poll *predicate* until truthy; the replacement for sleep-and-hope.

    Returns the predicate's (truthy) value so callers can assert on it.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out after {timeout_s}s waiting for {message}")
        time.sleep(interval_s)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def benign_images() -> list[np.ndarray]:
    """Six deterministic synthetic scenes (uint8, 64x64x3)."""
    return [
        generate_image(SOURCE_SHAPE, np.random.default_rng((7, i)), family="neurips")
        for i in range(6)
    ]


@pytest.fixture(scope="session")
def target_images() -> list[np.ndarray]:
    """Targets at the model input size (float, 8x8x3)."""
    sources = [
        generate_image(SOURCE_SHAPE, np.random.default_rng((13, i)), family="caltech")
        for i in range(6)
    ]
    return [resize(s, MODEL_INPUT, "bilinear") for s in sources]


@pytest.fixture(scope="session")
def attack_images(benign_images, target_images) -> list[np.ndarray]:
    """One bilinear attack image per benign/target pair."""
    return [
        craft_attack_image(original, target, algorithm="bilinear").attack_image
        for original, target in zip(benign_images, target_images)
    ]


@pytest.fixture
def gray_image(rng) -> np.ndarray:
    """A smooth grayscale test image (float, 40x40)."""
    yy, xx = np.mgrid[0:40, 0:40]
    return 120.0 + 60.0 * np.sin(xx / 9.0) + 40.0 * np.cos(yy / 7.0)


@pytest.fixture
def color_image(rng) -> np.ndarray:
    """A random-but-smooth color test image (uint8, 40x48x3)."""
    base = rng.integers(30, 220, size=(10, 12, 3)).astype(np.float64)
    return np.clip(resize(base, (40, 48), "bicubic"), 0, 255).astype(np.uint8)
