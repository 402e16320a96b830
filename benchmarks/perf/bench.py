"""Orchestration of one benchmark invocation (see ``run.py`` and README.md).

For each workload: build the seeded inputs, calibrate the in-process
reference pipeline on the same holdout bytes the server reads, start the
host-speed probe, launch the server three times for its set-up time, and
on the last launch check every distinct payload's verdict and run the
rounds of open loop and closed loop; when tracing, a serial pass and the
replay follow. End-to-end numbers come only from the launches and the
rounds, which are the same with and without tracing, and every time among
them is divided by the host's slowdown while it was measured (``probe.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import CpuPlan, ServerProcess, SpeedProbe
from layers import Tracer, counter, decode_probes, mean_ms, replay, responses, summed
from loadgen import LoadGenerator, Sample, expected_verdicts
from probe import slowdown
from repro.datasets.files import load_directory
from repro.imaging.png import encode_png
from repro.loadlab.results import metrics_delta, parse_prometheus
from repro.serving.pipeline import ProtectedPipeline
from workloads import (
    INPUT_SHAPE,
    PERCENTILE,
    WORKLOADS,
    Workload,
    arrival_times,
    build_requests,
    holdout_images,
    request_sequence,
)

__all__ = ["END_TO_END", "PER_LAYER", "SCHEMA_VERSION", "main"]

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
SCHEMA_VERSION = 1
#: Server launches per run; set-up time is their median.
_SETUP_LAUNCHES = 3
#: The measured time is cut into this many rounds, each an open-loop
#: segment followed by a closed-loop segment, so both loops sample the
#: whole run, and each round's times are scaled by the host's speed during
#: that round: it changes within a run.
_ROUNDS = 12
#: Share of ``--seconds`` given to the open loop; the rest is the closed
#: loop, which needs less time to measure a rate than the open loop needs
#: for a 95th percentile.
_OPEN_SHARE = 0.7
#: Requests in the traced serial pass and the replay, at 10 s or more.
_SERIAL_REQUESTS = 200
_HEALTHZ_PROBES = 50
#: Gap between client round trip and the sum of server stages, as a share
#: of the round trip, above which a workload is reported "unattributed".
_CLOSURE_TOLERANCE = 0.10
#: Generator CPU share above which a run is flagged as generator-bound.
_GENERATOR_SATURATED = 0.8

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "capacity_rps": ("req/s", "higher"),
    "server_cpu_ms_per_req": ("ms", "lower"),
    "server_peak_rss_mib": ("MiB", "lower"),
}
PER_LAYER = {
    "serving.eventloop.read_ms": ("ms", "lower"),
    "serving.eventloop.parse_ms": ("ms", "lower"),
    "serving.eventloop.dispatch_wait_ms": ("ms", "lower"),
    "serving.eventloop.healthz_rtt_ms": ("ms", "lower"),
    "serving.server.request_ms": ("ms", "lower"),
    "serving.server.responses_4xx": ("count", "lower"),
    "serving.server.responses_5xx": ("count", "lower"),
    "imaging.png.decode_ms.filter0": ("ms", "lower"),
    "imaging.png.decode_ms.adaptive": ("ms", "lower"),
    "imaging.png.decode_ms.bomb": ("ms", "lower"),
    "imaging.png.decode_ms.huge_dims": ("ms", "lower"),
    "imaging.png.decode_peak_mib.bomb": ("MiB", "lower"),
    "core.analyze_ms": ("ms", "lower"),
    "core.scaling.score_ms": ("ms", "lower"),
    "core.filtering.score_ms": ("ms", "lower"),
    "core.steganalysis.score_ms": ("ms", "lower"),
    "core.server_detectors_ms": ("ms", "lower"),
    "imaging.plans.plan_hit_ratio": ("ratio", "higher"),
    "imaging.plans.geometry_hit_ratio": ("ratio", "higher"),
    "imaging.scaling.operator_hit_ratio": ("ratio", "higher"),
    "imaging.plans.miss_penalty_ms": ("ms", "lower"),
    "serving.pipeline.submit_ms": ("ms", "lower"),
    "serving.pipeline.scale_ms": ("ms", "lower"),
    "serving.pipeline.submit_batch_ms_per_image": ("ms", "lower"),
    "serving.pipeline.encode_ms": ("ms", "lower"),
    "serving.audit.append_ms": ("ms", "lower"),
    "serving.audit.bytes_per_req": ("bytes", "lower"),
    "serving.workers.job_ms": ("ms", "lower"),
    "serving.workers.ipc_ms": ("ms", "lower"),
    "serving.shm.put_get_ms": ("ms", "lower"),
    "serving.shm.ring_full": ("count", "lower"),
    "serving.shm.frames": ("count", "higher"),
    "serving.workers.requeued": ("count", "lower"),
    "serving.workers.garbage_frames": ("count", "lower"),
    "process.cpu_ms_per_req.dispatcher": ("ms", "lower"),
    "process.cpu_ms_per_req.workers": ("ms", "lower"),
    "loadgen.lag_p95_ms": ("ms", "lower"),
    "loadgen.cpu_share": ("ratio", "lower"),
    "closure.rtt_ms": ("ms", "lower"),
    "closure.unattributed_ms": ("ms", "lower"),
    "host.slowdown": ("ratio", "lower"),
}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; a
    checkout without history is named by a digest of its sources."""
    git = _ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((_ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def _reference(holdout_dir: Path) -> ProtectedPipeline:
    """The pipeline a correct server behaves like: same flags, calibrated
    on the holdout files exactly as the server loads them."""
    pipeline = ProtectedPipeline(INPUT_SHAPE)
    pipeline.calibrate(load_directory(holdout_dir), percentile=PERCENTILE)
    return pipeline


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


@dataclass
class _Round:
    #: perf_counter at the start of the open segment and the end of the
    #: closed one: the window of the host's speed for this round
    start: float
    end: float
    open: list[Sample]
    open_wall_s: float
    #: utime+stime each server process spent during the open segment
    cpu_s: dict[int, float]
    #: /metrics difference over the open segment
    metrics: dict[str, float]
    closed: list[Sample]
    closed_wall_s: float


@dataclass
class _Phases:
    """What one measured launch observed."""

    dispatcher_pid: int
    warmup: list[Sample]
    problems: list[str]
    rounds: list[_Round] = field(default_factory=list)
    generator_cpu_s: float = 0.0
    audit_bytes: int = 0
    #: /metrics difference over every round, open and closed
    both: dict[str, float] = field(default_factory=dict)
    serial: list[Sample] = field(default_factory=list)
    #: /metrics difference over the serial pass
    serial_metrics: dict[str, float] = field(default_factory=dict)
    healthz_ms: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0

    @property
    def open(self) -> list[Sample]:
        return [s for r in self.rounds for s in r.open]

    @property
    def closed(self) -> list[Sample]:
        return [s for r in self.rounds for s in r.closed]


def _measure(
    server: ServerProcess,
    generator: LoadGenerator,
    sequence: list[int],
    offsets: list[float],
    closed_s: float,
    serial_requests: int,
    audit_path: Path,
) -> _Phases:
    warmup, problems = generator.warmup()
    seen = _Phases(server.process.pid, warmup, problems)
    pids = server.tree()

    def scrape() -> dict[str, float]:
        return parse_prometheus(generator.metrics_text())

    # Equal shares of the arrivals per round, each segment timed from its
    # own first arrival.
    cuts = [k * len(offsets) // _ROUNDS for k in range(_ROUNDS + 1)]
    position = len(offsets)
    first = scrape()
    for k in range(_ROUNDS):
        due = list(zip(offsets[cuts[k] : cuts[k + 1]], sequence[cuts[k] : cuts[k + 1]]))
        segment = [(t - due[0][0], i) for t, i in due]
        before, audit_before = scrape(), _size(audit_path)
        cpu_before, generator_before = server.cpu_seconds(pids), time.process_time()
        started = time.perf_counter()
        samples = generator.open_loop(segment)
        wall = time.perf_counter() - started
        cpu_after = server.cpu_seconds(pids)
        seen.generator_cpu_s += time.process_time() - generator_before
        seen.audit_bytes += _size(audit_path) - audit_before
        metrics = metrics_delta(before, scrape())
        closed, closed_wall = generator.closed_loop(sequence, position, closed_s / _ROUNDS)
        position += len(closed)
        spent = {pid: cpu_after.get(pid, cpu) - cpu for pid, cpu in cpu_before.items()}
        seen.rounds.append(
            _Round(started, time.perf_counter(), samples, wall, spent, metrics, closed, closed_wall)
        )
    seen.both = metrics_delta(first, scrape())
    seen.peak_rss_mib = server.peak_rss_mib()
    if serial_requests:
        before = scrape()
        seen.serial = generator.serial(sequence[:serial_requests], "serial")
        seen.serial_metrics = metrics_delta(before, scrape())
        seen.healthz_ms = generator.healthz_ms(_HEALTHZ_PROBES)
    return seen


def _end_to_end(
    seen: _Phases, setups: list[float], run_slowdown: float, slowdowns: list[float]
) -> dict[str, float]:
    """Every time divided by the host's slowdown: set-up by the run's,
    everything measured in a round by that round's. The 90th percentile
    is taken per round and the median over rounds, so rounds in which the
    host stalled the server do not set it."""
    rounds = list(zip(seen.rounds, slowdowns))
    latencies = [[s.latency_ms / slow for s in r.open] for r, slow in rounds]
    answered = sum(1 for s in seen.open if s.status)
    cpu_s = sum(sum(r.cpu_s.values()) / slow for r, slow in rounds)
    served = sum(sum(1 for s in r.closed if s.ok) * slow for r, slow in rounds)
    return {
        "setup_s": statistics.median(setups) / run_slowdown,
        "latency_p50_ms": _percentile([x for values in latencies for x in values], 50),
        "latency_p90_ms": statistics.median([_percentile(values, 90) for values in latencies if values]),
        "capacity_rps": served / sum(r.closed_wall_s for r in seen.rounds),
        "server_cpu_ms_per_req": cpu_s * 1000.0 / max(answered, 1),
        "server_peak_rss_mib": seen.peak_rss_mib,
    }


def _per_layer(
    workload: Workload, seen: _Phases, light: dict[str, float], run_slowdown: float
) -> tuple[dict[str, float], dict]:
    opened = summed([r.metrics for r in seen.rounds])
    answered = max(sum(1 for s in seen.open if s.status), 1)
    dispatcher_cpu = sum(r.cpu_s.get(seen.dispatcher_pid, 0.0) for r in seen.rounds)
    tree_cpu = sum(sum(r.cpu_s.values()) for r in seen.rounds)
    job_ms = mean_ms(opened, "workers.job")

    serial = seen.serial_metrics
    rtt_ms = statistics.fmean(s.latency_ms for s in seen.serial)
    stages = {
        "serving.eventloop.read_ms": mean_ms(serial, "eventloop.read"),
        "serving.eventloop.dispatch_wait_ms": mean_ms(serial, "eventloop.dispatch"),
        "serving.server.request_ms": mean_ms(serial, "server.request"),
    }
    unattributed = rtt_ms - sum(stages.values())
    closure = {
        "rtt_ms": rtt_ms,
        "stages_ms": stages,
        "unattributed_ms": unattributed,
        "unattributed_share": unattributed / rtt_ms,
        "attributed": unattributed <= _CLOSURE_TOLERANCE * rtt_ms,
    }

    layers = {
        "serving.eventloop.read_ms": mean_ms(opened, "eventloop.read"),
        "serving.eventloop.parse_ms": mean_ms(opened, "eventloop.parse"),
        "serving.eventloop.dispatch_wait_ms": mean_ms(opened, "eventloop.dispatch"),
        "serving.eventloop.healthz_rtt_ms": statistics.fmean(seen.healthz_ms),
        "serving.server.request_ms": mean_ms(opened, "server.request"),
        "serving.server.responses_4xx": responses(seen.both, "4"),
        "serving.server.responses_5xx": responses(seen.both, "5"),
        "core.server_detectors_ms": sum(
            mean_ms(opened, f"detector.{name}")
            for name in ("scaling.mse", "filtering.ssim", "steganalysis.csp")
        ),
        "serving.audit.bytes_per_req": seen.audit_bytes / answered,
        "serving.workers.job_ms": job_ms,
        "serving.workers.ipc_ms": job_ms - light["light.decode_submit_ms"] if workload.workers else 0.0,
        "serving.shm.ring_full": counter(seen.both, "shm.ring_full"),
        "serving.shm.frames": counter(seen.both, "shm.frames"),
        "serving.workers.requeued": counter(seen.both, "workers.requeued"),
        "serving.workers.garbage_frames": counter(seen.both, "workers.garbage_frames"),
        "process.cpu_ms_per_req.dispatcher": dispatcher_cpu * 1000.0 / answered,
        "process.cpu_ms_per_req.workers": (tree_cpu - dispatcher_cpu) * 1000.0 / answered,
        "loadgen.lag_p95_ms": _percentile([(s.started - s.scheduled) * 1000.0 for s in seen.open], 95),
        "loadgen.cpu_share": seen.generator_cpu_s / sum(r.open_wall_s for r in seen.rounds),
        "closure.rtt_ms": rtt_ms,
        "closure.unattributed_ms": unattributed,
        "host.slowdown": run_slowdown,
    }
    layers.update({name: value for name, value in light.items() if name in PER_LAYER})
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: layers[name] for name in PER_LAYER}, closure


def _run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    cpus: CpuPlan,
) -> dict:
    """Measure one workload; returns its section of the result file."""
    requests = build_requests(workload, seed)
    offsets = [float(t) for t in arrival_times(workload, seconds * _OPEN_SHARE)]
    closed_s = seconds * (1.0 - _OPEN_SHARE)
    serial_requests = min(_SERIAL_REQUESTS, max(20, int(20 * seconds)))
    sequence = request_sequence(
        workload, requests, seed, max(len(offsets), serial_requests, len(requests))
    )
    probe_index = next(i for i, r in enumerate(requests) if r.images)

    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{workload.name}-") as scratch:
        work = Path(scratch)
        holdout_dir = work / "holdout"
        holdout_dir.mkdir()
        for index, image in enumerate(holdout_images(seed)):
            (holdout_dir / f"holdout-{index:03d}.png").write_bytes(encode_png(image))
        reference = _reference(holdout_dir)
        expected = [expected_verdicts(reference, request) for request in requests]

        setups: list[float] = []
        seen = None
        probe = SpeedProbe(_HERE / "probe.py", cpus, work / "probe.json")
        measured_from = time.perf_counter()
        try:
            for launch in range(_SETUP_LAUNCHES):
                audit_path = work / f"audit-{launch}.jsonl"
                server = ServerProcess(
                    _ROOT, workload.server_args(holdout_dir, audit_path), work / f"server-{launch}.log", cpus
                )
                try:
                    host, port = server.address()
                    generator = LoadGenerator(host, port, requests, expected, cpus.connections)
                    try:
                        generator.probe(probe_index)
                        setups.append(time.perf_counter() - server.started)
                        if launch == _SETUP_LAUNCHES - 1:
                            seen = _measure(
                                server, generator, sequence, offsets, closed_s,
                                serial_requests if trace else 0, audit_path,
                            )
                    finally:
                        generator.close()
                finally:
                    server.stop()
        finally:
            speed = probe.stop()

        flags = []
        run_slowdown = slowdown(speed, measured_from, seen.rounds[-1].end)
        if run_slowdown is None:
            run_slowdown = 1.0
            flags.append("probe-starved")
        slowdowns = [slowdown(speed, r.start, r.end) or run_slowdown for r in seen.rounds]
        record = {
            "workers": workload.workers,
            "audit": workload.audit,
            "rate_rps": workload.rate_rps,
            "phases_s": {"open": len(offsets) / workload.rate_rps, "closed": closed_s},
            "setup_launches_s": setups,
            "samples": {
                "warmup": len(seen.warmup),
                "open": len(seen.open),
                "closed": len(seen.closed),
                "serial": len(seen.serial),
            },
            "problems": seen.problems,
            "slowdown": {"run": run_slowdown, "rounds": slowdowns, "probe_samples": len(speed)},
            "end_to_end": _end_to_end(seen, setups, run_slowdown, slowdowns),
            "end_to_end_unscaled": _end_to_end(seen, setups, 1.0, [1.0] * len(seen.rounds)),
            "per_layer": None,
            "closure": None,
            "trace_file": None,
            "flags": flags,
        }
        sent = seen.warmup + seen.open + seen.closed + seen.serial
        record["attempted"] = len(sent)
        record["failed"] = sum(1 for s in sent if not s.ok)
        record["failed_share"] = record["failed"] / len(sent)

        if trace:
            tracer = Tracer()
            if cpus.pinned:
                os.sched_setaffinity(0, cpus.server)
            try:
                light = decode_probes(tracer, seed)
                light.update(
                    replay(tracer, reference, requests, sequence[:serial_requests], work)
                )
            finally:
                if cpus.pinned:
                    os.sched_setaffinity(0, cpus.generator)
            trace_file = out_dir / f"trace-{workload.name}.jsonl"
            tracer.write(trace_file)
            record["per_layer"], record["closure"] = _per_layer(workload, seen, light, run_slowdown)
            record["replay_self_ms"] = tracer.self_ms()
            record["trace_file"] = trace_file.name
            if not record["closure"]["attributed"]:
                flags.append("unattributed")
            if record["per_layer"]["loadgen.cpu_share"] > _GENERATOR_SATURATED:
                flags.append("generator-saturated")
    return record


def _print_workload(name: str, workload: Workload, record: dict) -> None:
    phases = record["phases_s"]
    print(
        f"== {name}: workers={workload.workers} audit={'on' if workload.audit else 'off'} "
        f"open {workload.rate_rps:g} req/s x {phases['open']:.1f} s, closed {phases['closed']:.1f} s; "
        f"samples {record['samples']}"
    )
    slow = record["slowdown"]
    print(
        f"   host slowdown {slow['run']:.3f} over the run, "
        f"{min(slow['rounds']):.3f}-{max(slow['rounds']):.3f} by round; times below are divided by it"
    )
    for metric, value in record["end_to_end"].items():
        unscaled = record["end_to_end_unscaled"][metric]
        print(f"   {metric:44s} {value:12.4f} {END_TO_END[metric][0]:6s} (as measured {unscaled:.4f})")
    for metric, value in (record["per_layer"] or {}).items():
        print(f"   {metric:44s} {value:12.4f} {PER_LAYER[metric][0]}")
    closure = record["closure"]
    if closure is not None:
        stages = sum(closure["stages_ms"].values())
        verdict = "attributed" if closure["attributed"] else "unattributed"
        print(
            f"   closure {name}: client rtt {closure['rtt_ms']:.3f} ms = server stages "
            f"{stages:.3f} ms + unattributed {closure['unattributed_ms']:.3f} ms "
            f"({closure['unattributed_share']:.1%}) -> {verdict}"
        )
    print(f"   requests {record['attempted']}, failed {record['failed']}, flags {record['flags'] or 'none'}")
    for problem in record["problems"]:
        print(f"   WRONG {problem}")


def _result_path(out_dir: Path, sha: str, seed: int) -> Path:
    path = out_dir / f"{sha}-seed{seed}.json"
    number = 1
    while path.exists():
        number += 1
        path = out_dir / f"{sha}-seed{seed}-{number}.json"
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Serving benchmark of the Decamouflage detection service."
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured time per workload (at least 1), split into "
                             "rounds of open loop then closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the serial pass and replay after the rounds and "
                             "prints per-layer metrics last; 0 prints end-to-end "
                             "metrics last")
    parser.add_argument("--out", type=Path, default=_ROOT / "benchmarks" / "perf" / "out",
                        help="directory for the result file and trace files")
    return parser


def main(cpus: CpuPlan, argv: list[str] | None = None) -> int:
    """Run the benchmark with the process already placed by *cpus*."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = args.workload or list(WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    sha = _git_sha()
    result = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        **cpus.as_dict(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    if not cpus.pinned:
        print("one CPU: server and generator share it (unpinned)", file=sys.stderr)
    for name in names:
        record = _run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.out, cpus)
        result["workloads"][name] = record
        _print_workload(name, WORKLOADS[name], record)
    path = _result_path(args.out, sha, args.seed)
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"result written to {path}")

    tier = "per_layer" if args.trace else "end_to_end"
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, record in result["workloads"].items():
        for metric, value in record[tier].items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": catalogue[metric][0]}
    records = result["workloads"].values()
    correct = all(not r["problems"] and not r["failed"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1
