"""The four benchmark workloads and the seeded inputs each one sends.

A workload fixes the server's flags, the open-loop rate, and the traffic
mix. Its inputs (calibration holdout, distinct request bodies, request
order) are pure functions of the seed, drawn from separate seed streams
so that changing how one is built never shifts another.
``detect-128`` and ``detect-128-sharded`` draw from the same streams and
so send identical bytes on an identical schedule; they differ only in how
the server dispatches.

The mix is dealt from a shuffled deck rather than drawn independently per
request: every deck holds each kind in its exact share (9 benign to 1
attack; 46 adaptive to 2 garbage to 1 bomb to 1 huge header; the 12 batch
bodies once each), and the open loop sends whole decks, so a run's work,
and with it CPU per request, does not swing with how many bombs a seed
happens to draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from payloads import (
    bomb_png,
    crafted_attacks,
    encode_png_filtered,
    garbage_payloads,
    huge_png,
    huge_ppm,
    stratified_shapes,
)
from repro.datasets.synthetic import generate_image
from repro.serving.wire import decode_image_payload, pack_batch

__all__ = [
    "BATCH_PATH",
    "HOLDOUT_SIZE",
    "INPUT_SHAPE",
    "PERCENTILE",
    "SOURCE_SHAPE",
    "WORKLOADS",
    "Request",
    "Workload",
    "arrival_times",
    "build_requests",
    "holdout_images",
    "request_sequence",
]

#: Calibration holdout: 24 benign 128x128 images, screened for a 16x16
#: model input at the 5th benign percentile.
HOLDOUT_SIZE = 24
SOURCE_SHAPE = (128, 128)
INPUT_SHAPE = (16, 16)
PERCENTILE = 5.0

_SINGLE_PATH = "/v1/detect"
BATCH_PATH = "/v1/detect/batch"
_SCORED = frozenset({200})
_REFUSED = frozenset({400, 413})

# Seed streams: (seed, stream, ...) keys for numpy.random.default_rng.
_HOLDOUT_STREAM = 1
_BENIGN_STREAM = 2
_ATTACK_STREAM = 3
_HOSTILE_STREAM = 4
_SHAPE_STREAM = 5
_ORDER_STREAM = 6


@dataclass(frozen=True)
class Request:
    """One distinct request body and what the server must answer."""

    name: str
    kind: str
    path: str
    body: bytes
    expect: frozenset[int]
    #: decoded pixels of every image in the body; empty for hostile bodies.
    images: tuple[np.ndarray, ...] = ()


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration."""

    name: str
    #: ``--workers`` of the server (0 scores in the dispatcher process).
    workers: int
    #: whether the server writes a JSONL audit record per verdict.
    audit: bool
    #: open-loop arrival rate, requests per second.
    rate_rps: float
    #: one deck of the mix: (kind, copies) pairs, shuffled per deck.
    deck: tuple[tuple[str, int], ...]

    @property
    def deck_size(self) -> int:
        return sum(copies for _, copies in self.deck)

    def server_args(self, holdout_dir: Path, audit_path: Path) -> list[str]:
        """``repro serve`` flags; front end and transport stay at their
        defaults so the benchmark follows whatever the server ships."""
        args = [
            "--host", "127.0.0.1",
            "--port", "0",
            "--holdout", str(holdout_dir),
            "--input-size", str(INPUT_SHAPE[0]), str(INPUT_SHAPE[1]),
            "--percentile", str(PERCENTILE),
            "--workers", str(self.workers),
        ]
        if self.audit:
            args += ["--audit-log", str(audit_path)]
        return args


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="detect-128",
            workers=0,
            audit=False,
            rate_rps=40.0,
            deck=(("benign", 9), ("attack", 1)),
        ),
        Workload(
            name="detect-128-sharded",
            workers=2,
            audit=False,
            rate_rps=40.0,
            deck=(("benign", 9), ("attack", 1)),
        ),
        Workload(
            name="ingest-hostile",
            workers=2,
            audit=False,
            rate_rps=12.0,
            deck=(("adaptive", 46), ("garbage", 2), ("bomb", 1), ("huge", 1)),
        ),
        Workload(
            name="batch-mixed-shapes",
            workers=0,
            audit=True,
            rate_rps=6.0,
            deck=(("batch", 12),),
        ),
    )
}


def holdout_images(seed: int) -> list[np.ndarray]:
    """The calibration holdout the server and the reference pipeline share."""
    return [
        generate_image(SOURCE_SHAPE, np.random.default_rng((seed, _HOLDOUT_STREAM, i)))
        for i in range(HOLDOUT_SIZE)
    ]


def _scored(name: str, kind: str, body: bytes) -> Request:
    image = decode_image_payload(body, origin=name)
    return Request(name, kind, _SINGLE_PATH, body, _SCORED, (image,))


def _benign(seed: int, count: int, filter_type: int | str, kind: str) -> list[Request]:
    rng = np.random.default_rng((seed, _BENIGN_STREAM))
    return [
        _scored(
            f"{kind}-{i:02d}",
            kind,
            encode_png_filtered(generate_image(SOURCE_SHAPE, rng), filter_type),
        )
        for i in range(count)
    ]


def _detect_requests(seed: int) -> list[Request]:
    attacks = crafted_attacks(
        np.random.default_rng((seed, _ATTACK_STREAM)), 2, SOURCE_SHAPE, INPUT_SHAPE
    )
    return _benign(seed, 16, 0, "benign") + [
        _scored(f"attack-{i:02d}", "attack", encode_png_filtered(image, 0))
        for i, image in enumerate(attacks)
    ]


def _ingest_requests(seed: int) -> list[Request]:
    noise, truncated = garbage_payloads(np.random.default_rng((seed, _HOSTILE_STREAM)))
    hostile = [
        ("garbage", "garbage-noise", noise),
        ("garbage", "garbage-truncated", truncated),
        ("bomb", "bomb-64mib", bomb_png(64)),
        ("huge", "huge-png", huge_png()),
        ("huge", "huge-ppm", huge_ppm()),
    ]
    return _benign(seed, 16, "adaptive", "adaptive") + [
        Request(name, kind, _SINGLE_PATH, body, _REFUSED) for kind, name, body in hostile
    ]


def _batch_requests(seed: int) -> list[Request]:
    """12 bodies of 4 images: two passes over the 24 shapes, so every shape
    is sent equally often and no body repeats a shape.

    Shapes and their grouping into bodies do not change with the seed, only
    the pixels do: scoring cost depends on how each side factors (the FFT
    sizes), so seeded shapes would change how much work the workload is,
    not just its inputs.
    """
    layout = np.random.default_rng(_SHAPE_STREAM)
    shapes = stratified_shapes(layout, 24, 96, 256)
    order = np.concatenate([layout.permutation(24), layout.permutation(24)])
    rng = np.random.default_rng((seed, _SHAPE_STREAM))
    encoded = [encode_png_filtered(generate_image(shape, rng), 0) for shape in shapes]
    images = [decode_image_payload(body) for body in encoded]
    requests = []
    for number, start in enumerate(range(0, len(order), 4)):
        members = [int(i) for i in order[start : start + 4]]
        requests.append(
            Request(
                f"batch-{number:02d}",
                "batch",
                BATCH_PATH,
                pack_batch([encoded[i] for i in members]),
                _SCORED,
                tuple(images[i] for i in members),
            )
        )
    return requests


_BUILDERS = {
    "detect-128": _detect_requests,
    "detect-128-sharded": _detect_requests,
    "ingest-hostile": _ingest_requests,
    "batch-mixed-shapes": _batch_requests,
}


def build_requests(workload: Workload, seed: int) -> list[Request]:
    """Every distinct request body *workload* sends under *seed*."""
    return _BUILDERS[workload.name](seed)


def request_sequence(
    workload: Workload, requests: list[Request], seed: int, length: int
) -> list[int]:
    """*length* indices into *requests*, dealt from shuffled decks; within
    a kind, bodies take turns so each is sent equally often."""
    rng = np.random.default_rng((seed, _ORDER_STREAM))
    by_kind = {kind: [i for i, r in enumerate(requests) if r.kind == kind] for kind, _ in workload.deck}
    turns = {kind: 0 for kind in by_kind}
    deck = [kind for kind, copies in workload.deck for _ in range(copies)]
    sequence: list[int] = []
    while len(sequence) < length:
        for position in rng.permutation(len(deck)):
            kind = deck[position]
            members = by_kind[kind]
            sequence.append(members[turns[kind] % len(members)])
            turns[kind] += 1
    return sequence[:length]


def arrival_times(workload: Workload, seconds: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start): as many whole decks
    as fit in ``rate * seconds`` requests (at least one), evenly spaced at
    the workload's rate.

    A constant-rate open loop, as wrk2 drives one. Poisson bursts queue
    requests behind each other, which multiplies the host's run-to-run
    speed drift (it spread the 95th percentile latency by 26-30% over ten
    seeds);
    evenly spaced, a request waits only when the one before it overran its
    slot, which is the stall an open loop exists to charge.
    """
    decks = max(1, int(workload.rate_rps * seconds) // workload.deck_size)
    return np.arange(decks * workload.deck_size) / workload.rate_rps
