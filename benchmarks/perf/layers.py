"""Per-layer measurement: ``/metrics`` deltas and the traced replay.

Nothing here runs while an end-to-end number is being measured. The
server's own counters and histograms are read from the difference of two
``/metrics`` scrapes (``repro.loadlab.results.metrics_delta``). Everything the server does not time is measured by
calling the layer's public functions from this process after the server
has stopped (the "replay"), on the CPU the server used, with every call
recorded as a span ``{name, start_ns, end_ns, parent, request_id}``. Spans
stay in memory until :meth:`Tracer.write`; a span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from payloads import bomb_png, encode_png_filtered, huge_png, huge_ppm
from repro.datasets.synthetic import generate_image
from repro.errors import CodecError, ImageError
from repro.imaging.plans import clear_plan_caches, geometry_cache_stats, plan_cache_stats
from repro.imaging.scaling import clear_operator_cache, operator_cache_stats, resize
from repro.serving.audit import AuditLog, AuditRecord
from repro.serving.pipeline import ProtectedPipeline, verdict_payload
from repro.serving.shm import ShmRing
from repro.serving.wire import decode_image_payload, pack_job, unpack_batch
from workloads import BATCH_PATH, SOURCE_SHAPE, Request

__all__ = ["Tracer", "counter", "decode_probes", "mean_ms", "replay", "responses", "summed"]

_PREFIX = "decamouflage_"
#: Replay spans whose mean duration is reported as ``<span>_ms``.
_SPAN_METRICS = (
    "serving.pipeline.submit",
    "serving.pipeline.encode",
    "serving.pipeline.scale",
    "serving.audit.append",
    "serving.shm.put_get",
    "core.analyze",
    "core.scaling.score",
    "core.filtering.score",
    "core.steganalysis.score",
)


def summed(deltas: list[dict[str, float]]) -> dict[str, float]:
    """Several ``metrics_delta`` results added into one."""
    names = set().union(*deltas)
    return {name: sum(delta.get(name, 0.0) for delta in deltas) for name in names}


def counter(delta: dict[str, float], name: str) -> float:
    """Counter *name*, dotted as the server names it, in a ``metrics_delta``."""
    return delta.get(_PREFIX + name.replace(".", "_") + "_total", 0.0)


def mean_ms(delta: dict[str, float], name: str) -> float:
    """Mean observation of histogram *name* (0 when it has none)."""
    flat = _PREFIX + name.replace(".", "_") + "_ms"
    count = delta.get(flat + "_count", 0.0)
    return delta.get(flat + "_sum", 0.0) / count if count else 0.0


def responses(delta: dict[str, float], status_class: str) -> float:
    """Responses whose status starts with *status_class* (``"4"``)."""
    head = _PREFIX + "server_responses_" + status_class
    return sum(v for n, v in delta.items() if n.startswith(head) and n.endswith("_total"))


class Tracer:
    """In-memory spans of one replay."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, request_id: str = ""):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "request_id": request_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": 0,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end_ns"] = time.perf_counter_ns()

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name]

    def mean_ms(self, name: str) -> float:
        durations = self.durations_ms(name)
        return statistics.fmean(durations) if durations else 0.0

    def median_ms(self, name: str) -> float:
        durations = self.durations_ms(name)
        return statistics.median(durations) if durations else 0.0

    def self_ms(self) -> dict[str, float]:
        """Mean self time per span name."""
        children = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end_ns"] - span["start_ns"]
        totals: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            own = span["end_ns"] - span["start_ns"] - children[span["id"]]
            totals[span["name"]].append(own / 1e6)
        return {name: statistics.fmean(values) for name, values in sorted(totals.items())}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _timed_ms(call) -> float:
    started = time.perf_counter()
    call()
    return (time.perf_counter() - started) * 1000.0


def _refused(body: bytes) -> None:
    try:
        decode_image_payload(body)
    except (CodecError, ImageError):
        return
    raise RuntimeError("a hostile probe payload decoded")


def decode_probes(tracer: Tracer, seed: int) -> dict[str, float]:
    """Decode cost per payload class, independent of the workload's mix:
    one 128x128 image as filter 0 and adaptive, the 64 MiB bomb, and the
    huge-dimension headers. Also the bomb's peak traced allocation."""
    image = generate_image(SOURCE_SHAPE, np.random.default_rng((seed, 8)))
    classes = {
        "filter0": ([encode_png_filtered(image, 0)], 20, decode_image_payload),
        "adaptive": ([encode_png_filtered(image, "adaptive")], 5, decode_image_payload),
        "bomb": ([bomb_png(64)], 3, _refused),
        "huge_dims": ([huge_png(), huge_ppm()], 20, _refused),
    }
    out = {}
    for label, (bodies, repeats, decode) in classes.items():
        for body in bodies:
            for _ in range(repeats):
                with tracer.span(f"probe.decode.{label}"):
                    decode(body)
        out[f"imaging.png.decode_ms.{label}"] = tracer.median_ms(f"probe.decode.{label}")
    tracemalloc.start()
    try:
        _refused(classes["bomb"][0][0])
        out["imaging.png.decode_peak_mib.bomb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return out


def _distinct_images(requests: list[Request]) -> list[np.ndarray]:
    seen: dict[int, np.ndarray] = {}
    for request in requests:
        for image in request.images:
            seen.setdefault(id(image), image)
    return list(seen.values())


def _miss_penalty_ms(pipeline: ProtectedPipeline, images: list[np.ndarray]) -> float:
    """First score of each distinct shape with empty plan caches, minus a
    second, warm score of the same image; mean over shapes."""
    by_shape: dict[tuple, np.ndarray] = {}
    for image in images:
        by_shape.setdefault(image.shape, image)
    penalties = []
    for image in by_shape.values():
        clear_plan_caches()
        clear_operator_cache()
        cold = _timed_ms(lambda: pipeline.ensemble.detect(image))
        warm = _timed_ms(lambda: pipeline.ensemble.detect(image))
        penalties.append(cold - warm)
    return statistics.fmean(penalties)


def _cache_counts() -> dict[str, tuple[int, int]]:
    return {
        name: (stats["hits"], stats["misses"])
        for name, stats in (
            ("imaging.plans.plan_hit_ratio", plan_cache_stats()),
            ("imaging.plans.geometry_hit_ratio", geometry_cache_stats()),
            ("imaging.scaling.operator_hit_ratio", operator_cache_stats()),
        )
    }


def _replay_one(
    tracer: Tracer,
    pipeline: ProtectedPipeline,
    request: Request,
    request_id: str,
    audit_log: AuditLog,
    ring: ShmRing,
) -> None:
    """One request through the public functions the server calls, in the
    server's order: ring copy, decode, screen and scale, encode, audit."""
    batch = request.path == BATCH_PATH
    payloads = unpack_batch(request.body) if batch else [request.body]
    with tracer.span("replay.request", None, request_id) as root:
        with tracer.span("serving.shm.put_get", root, request_id):
            frame = pack_job("batch" if batch else "single", request_id, request_id, payloads)
            ring.get(ring.put(frame))
        try:
            with tracer.span("imaging.png.decode", root, request_id):
                images = [decode_image_payload(body, origin=request_id) for body in payloads]
        except (CodecError, ImageError):
            return  # refused, as the server answers 400
        with tracer.span("serving.pipeline.submit", root, request_id):
            if batch:
                outcomes = pipeline.submit_batch(images, prefix=request_id)
            else:
                outcomes = [pipeline.submit(images[0], image_id=request_id)]
        with tracer.span("serving.pipeline.encode", root, request_id):
            json.dumps(
                [verdict_payload(o, request_id=request_id, latency_ms=0.0) for o in outcomes]
            )
        with tracer.span("serving.audit.append", root, request_id):
            for sequence, outcome in enumerate(outcomes):
                audit_log.append(
                    AuditRecord.from_detection(
                        outcome.image_id, sequence, outcome.detection, outcome.action
                    )
                )


def replay(
    tracer: Tracer,
    pipeline: ProtectedPipeline,
    requests: list[Request],
    sequence: list[int],
    work_dir: Path,
) -> dict[str, float]:
    """Replay *sequence* and time each layer; returns the light metrics."""
    images = _distinct_images(requests)
    out = {"imaging.plans.miss_penalty_ms": _miss_penalty_ms(pipeline, images)}

    audit_log = AuditLog(work_dir / "replay-audit.jsonl")
    ring = ShmRing.create(8, 1 << 20)
    try:
        # Fill the caches the way the server's warm-up did, then count
        # hits over the measured sequence only.
        for index, request in enumerate(requests):
            _replay_one(Tracer(), pipeline, request, f"warm-{index:03d}", audit_log, ring)
        before = _cache_counts()
        for n, index in enumerate(sequence):
            _replay_one(tracer, pipeline, requests[index], f"replay-{n:06d}", audit_log, ring)
        after = _cache_counts()
    finally:
        ring.close()
        ring.unlink()
    for name, (hits, misses) in after.items():
        gained_hits = hits - before[name][0]
        lookups = gained_hits + misses - before[name][1]
        out[name] = gained_hits / lookups if lookups else 0.0

    for number, image in enumerate(images * 3):
        request_id = f"breakdown-{number:04d}"
        with tracer.span("replay.breakdown", None, request_id) as root:
            with tracer.span("core.analyze", root, request_id):
                analysis = pipeline.ensemble.analyze(image)
            for detector in pipeline.ensemble.detectors:
                with tracer.span(f"core.{detector.method}.score", root, request_id):
                    detector.score_from(analysis)
            with tracer.span("serving.pipeline.scale", root, request_id):
                resize(image, pipeline.model_input_shape, pipeline.algorithm)

    per_image = []
    for start in range(0, len(images), 4):
        group = images[start : start + 4]
        with tracer.span("serving.pipeline.submit_batch", None, f"group-{start:04d}"):
            pipeline.submit_batch(group)
        per_image.append(tracer.durations_ms("serving.pipeline.submit_batch")[-1] / len(group))
    out["serving.pipeline.submit_batch_ms_per_image"] = statistics.fmean(per_image)

    for span_name in _SPAN_METRICS:
        out[span_name + "_ms"] = tracer.mean_ms(span_name)
    # What a shard does per job besides IPC, for serving.workers.ipc_ms.
    decode_and_submit = tracer.durations_ms("imaging.png.decode") + tracer.durations_ms(
        "serving.pipeline.submit"
    )
    out["light.decode_submit_ms"] = sum(decode_and_submit) / len(sequence)
    return out

