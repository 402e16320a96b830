"""Payload builders: every filter round-trips through the library decoder,
hostile bodies are what they claim to be, and a seed fixes every byte.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from payloads import (
    FILTERS,
    bomb_png,
    encode_png_filtered,
    huge_png,
    huge_ppm,
    row_filters,
    stratified_shapes,
)
from repro.datasets.synthetic import generate_image
from repro.errors import CodecError
from repro.imaging.png import decode_png
from repro.serving.wire import decode_image_payload
from workloads import WORKLOADS, build_requests, request_sequence


def _images() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    scene = generate_image((37, 53), rng)
    return [
        scene,
        scene[:, :, 0].copy(),
        rng.integers(0, 256, size=(9, 14, 3), dtype=np.uint8),
        np.zeros((5, 6, 3), dtype=np.uint8),
    ]


@pytest.mark.parametrize("filter_type", [*FILTERS, "adaptive"])
def test_every_filter_round_trips_bit_exact(filter_type):
    for image in _images():
        data = encode_png_filtered(image, filter_type)
        assert np.array_equal(decode_png(data), image)
        if filter_type != "adaptive":
            assert set(row_filters(data)) == {filter_type}


def test_adaptive_choice_minimises_residuals_row_by_row():
    image = _images()[0]
    chosen = row_filters(encode_png_filtered(image, "adaptive"))

    def cost(filter_type: int) -> list[int]:
        data = encode_png_filtered(image, filter_type)
        idat = data[data.index(b"IDAT") + 4 : data.index(b"IEND") - 8]
        raw = np.frombuffer(zlib.decompress(idat), dtype=np.int8).reshape(image.shape[0], -1)
        return np.abs(raw[:, 1:].astype(np.int32)).sum(axis=1).tolist()

    costs = np.array([cost(f) for f in FILTERS])
    assert [int(np.argmin(costs[:, row])) for row in range(image.shape[0])] == chosen
    assert len(set(chosen)) > 1


def test_bomb_inflates_past_64_mib_and_is_refused():
    data = bomb_png(64)
    idat = data[data.index(b"IDAT") + 4 : data.index(b"IEND") - 8]
    assert len(data) < 100 * 1024
    assert len(zlib.decompress(idat)) >= 64 * 2**20
    with pytest.raises(CodecError):
        decode_png(data)


@pytest.mark.parametrize("build", [huge_png, huge_ppm])
def test_huge_dimension_headers_are_refused(build):
    with pytest.raises(CodecError):
        decode_image_payload(build())


def test_stratified_shapes_are_distinct_and_in_range():
    shapes = stratified_shapes(np.random.default_rng(2), 24, 96, 256)
    assert len(set(shapes)) == 24
    assert all(96 <= h <= 256 and 96 <= w <= 256 for h, w in shapes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name]

    def inputs(seed: int):
        requests = build_requests(workload, seed)
        return (
            [(r.name, r.body) for r in requests],
            request_sequence(workload, requests, seed, 300),
        )

    first = inputs(4)
    assert inputs(4) == first
    assert [body for _, body in inputs(5)[0]] != [body for _, body in first[0]]
