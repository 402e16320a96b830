"""End-to-end scenario execution: launch, drive, sample, scrape, write.

:func:`run_scenario` is the one entry point behind ``repro loadlab run``:

1. compile the scenario's deterministic schedule and payload pools;
2. bring up the server under test (:class:`ServerHandle`): a ``repro
   serve`` **subprocess** (honest per-process telemetry), an **inprocess**
   :class:`~repro.serving.server.DetectionServer` (fast, for benches), or
   an **external** already-running server;
3. discover every pid to watch from ``/healthz`` (the dispatcher reports
   its own pid and each worker shard's) and start the
   :class:`~repro.loadlab.sampler.ResourceSampler`;
4. scrape ``/metrics``, run the :class:`~repro.loadlab.engine.LoadEngine`,
   scrape again;
5. assemble + validate the schema-versioned result
   (:mod:`repro.loadlab.results`) and optionally write it under
   ``out_dir`` as ``<name>-<fingerprint>.json``.
"""

from __future__ import annotations

import json
import os
import platform
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import generate_image
from repro.errors import LoadLabError, ServingError
from repro.imaging.image import as_uint8
from repro.imaging.png import write_png
from repro.loadlab.engine import LoadEngine
from repro.loadlab.results import build_result, validate_result
from repro.loadlab.sampler import ResourceSampler
from repro.loadlab.scenario import Scenario
from repro.loadlab.schedule import compile_schedule, schedule_digest
from repro.loadlab.workload import build_payloads
from repro.serving.client import DetectionClient

__all__ = ["ServerHandle", "launch_server", "result_path", "run_scenario"]

#: Seed-stream namespace for the subprocess launcher's calibration holdout.
_HOLDOUT_STREAM = 90001
#: How long to wait for a launched server to answer ready on /healthz.
_READY_TIMEOUT_S = 120.0


class ServerHandle:
    """One launched (or attached) server under test."""

    def __init__(
        self,
        mode: str,
        host: str,
        port: int,
        *,
        process: subprocess.Popen | None = None,
        server=None,
        holdout_dir: tempfile.TemporaryDirectory | None = None,
    ) -> None:
        self.mode = mode
        self.host = host
        self.port = port
        self.process = process
        self.server = server
        self._holdout_dir = holdout_dir

    def stop(self) -> None:
        """Tear down whatever we own; attaching (``external``) owns nothing."""
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        if self.process is not None:
            proc = self.process
            self.process = None
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)  # graceful drain
                try:
                    proc.wait(timeout=30.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
            if proc.stdout is not None:
                proc.stdout.close()
        if self._holdout_dir is not None:
            self._holdout_dir.cleanup()
            self._holdout_dir = None


def _write_holdout(scenario: Scenario, directory: Path) -> int:
    """Benign calibration PNGs for a subprocess launch, seeded off the
    scenario so calibration (and thus thresholds) is reproducible."""
    for index in range(scenario.server.holdout):
        image = generate_image(
            scenario.server.source_size,
            np.random.default_rng((scenario.seed, _HOLDOUT_STREAM, index)),
            family="neurips",
        )
        write_png(directory / f"holdout-{index:03d}.png", as_uint8(image))
    return scenario.server.holdout


def _launch_subprocess(scenario: Scenario) -> ServerHandle:
    spec = scenario.server
    holdout_dir = tempfile.TemporaryDirectory(prefix="loadlab-holdout-")
    _write_holdout(scenario, Path(holdout_dir.name))
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host", "127.0.0.1",
        "--port", "0",
        "--input-size", str(spec.input_size[0]), str(spec.input_size[1]),
        "--algorithm", spec.algorithm,
        "--holdout", holdout_dir.name,
        "--percentile", str(spec.percentile),
        "--max-active", str(spec.max_active),
        "--queue-depth", str(spec.queue_depth),
        "--deadline-ms", str(spec.deadline_ms),
        "--workers", str(spec.workers),
    ]
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
    try:
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
    except OSError as exc:
        holdout_dir.cleanup()
        raise LoadLabError(f"cannot launch server subprocess: {exc}") from exc
    try:
        host, port = _await_serving_line(process)
    except LoadLabError:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        if process.stdout is not None:
            process.stdout.close()
        holdout_dir.cleanup()
        raise
    return ServerHandle(
        "subprocess", host, port, process=process, holdout_dir=holdout_dir
    )


def _await_serving_line(process: subprocess.Popen) -> tuple[str, int]:
    """Block until the child prints ``serving on http://host:port``.

    A reader thread feeds lines through a queue so a wedged child hits the
    timeout instead of hanging us on ``readline``; the thread keeps
    draining stdout afterwards so the pipe can never fill and block the
    server's own prints.
    """
    lines: "queue.Queue[str | None]" = queue.Queue()

    def drain() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=drain, name="loadlab-server-stdout", daemon=True).start()
    seen: list[str] = []
    deadline = time.monotonic() + _READY_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise LoadLabError(
                f"server did not announce its address within {_READY_TIMEOUT_S}s; "
                f"output so far: {''.join(seen)[-2000:]!r}"
            )
        try:
            line = lines.get(timeout=remaining)
        except queue.Empty:
            continue
        if line is None:
            raise LoadLabError(
                f"server exited before serving (status {process.poll()}); "
                f"output: {''.join(seen)[-2000:]!r}"
            )
        seen.append(line)
        if line.startswith("serving on http://"):
            address = line.split("http://", 1)[1].split()[0]
            host, _, port = address.rpartition(":")
            return host, int(port)


def _launch_inprocess(scenario: Scenario) -> ServerHandle:
    # Imported lazily: the inprocess path is the only place the runner
    # needs the server side of the serving package.
    from repro.serving.pipeline import ProtectedPipeline
    from repro.serving.server import DetectionServer, ServerConfig

    spec = scenario.server
    holdout = [
        generate_image(
            spec.source_size,
            np.random.default_rng((scenario.seed, _HOLDOUT_STREAM, index)),
            family="neurips",
        )
        for index in range(spec.holdout)
    ]
    pipeline = ProtectedPipeline(spec.input_size, algorithm=spec.algorithm)
    pipeline.calibrate(holdout, percentile=spec.percentile)
    server = DetectionServer(
        pipeline,
        ServerConfig(
            host="127.0.0.1",
            port=0,
            max_active=spec.max_active,
            queue_depth=spec.queue_depth,
            deadline_ms=spec.deadline_ms,
            workers=spec.workers,
        ),
    )
    server.start()
    host, port = server.address
    return ServerHandle("inprocess", host, port, server=server)


def launch_server(
    scenario: Scenario, *, host: str | None = None, port: int | None = None
) -> ServerHandle:
    """Bring up (or attach to) the scenario's server under test."""
    launch = scenario.server.launch
    if launch == "external":
        if host is None or port is None:
            raise LoadLabError(
                "external launch needs an explicit host and port "
                "(repro loadlab run --host H --port P)"
            )
        return ServerHandle("external", host, int(port))
    if host is not None or port is not None:
        raise LoadLabError(
            f"--host/--port only apply to external launch, not {launch!r}"
        )
    if launch == "subprocess":
        return _launch_subprocess(scenario)
    return _launch_inprocess(scenario)


def _discover_pids(handle: ServerHandle, client: DetectionClient) -> dict[str, int]:
    """Role → pid for every process worth sampling, from ``/healthz``.

    The dispatcher advertises its own pid plus each worker shard's, so
    this works identically for subprocess, inprocess, and same-host
    external servers. An external server predating the pid fields yields
    an empty map — the run proceeds without resource telemetry.
    """
    try:
        _, payload = client.health()
    except (OSError, ValueError) as exc:
        raise LoadLabError(f"cannot read /healthz for pid discovery: {exc}") from exc
    pids: dict[str, int] = {}
    dispatcher = payload.get("pid")
    if isinstance(dispatcher, int):
        pids["dispatcher"] = dispatcher
    workers = payload.get("workers") or {}
    for worker_id, pid in (workers.get("pids") or {}).items():
        if isinstance(pid, int) and pid > 0:
            pids[f"worker-{worker_id}"] = pid
    if handle.mode == "subprocess" and handle.process is not None:
        # The health pid must agree with the child we spawned.
        pids.setdefault("dispatcher", handle.process.pid)
    return pids


def _host_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


def result_path(out_dir: str | Path, scenario: Scenario) -> Path:
    """Where :func:`run_scenario` writes the result JSON for *scenario*."""
    return Path(out_dir) / f"{scenario.name}-{scenario.fingerprint()}.json"


def run_scenario(
    scenario: Scenario,
    *,
    host: str | None = None,
    port: int | None = None,
    out_dir: str | Path | None = None,
    duration_scale: float = 1.0,
    clock=None,
) -> dict:
    """Execute one scenario end to end; returns the validated result dict.

    *duration_scale* shrinks or stretches every level (CI smoke runs the
    same shapes at a fraction of the time). With *out_dir* set, the result
    is also written to :func:`result_path`.
    """
    scenario = scenario.scaled(duration_scale)
    schedule = compile_schedule(scenario)
    digest = schedule_digest(scenario, schedule)
    payloads = build_payloads(scenario)
    wall_clock = clock or time

    handle = launch_server(scenario, host=host, port=port)
    sampler: ResourceSampler | None = None
    try:
        client = DetectionClient(
            handle.host,
            handle.port,
            timeout_s=scenario.client_timeout_s,
            max_retries=max(scenario.client_retries, 1),
        )
        try:
            client.wait_ready(timeout_s=_READY_TIMEOUT_S)
            pids = _discover_pids(handle, client)
            if pids:
                sampler = ResourceSampler(
                    pids, period_s=scenario.sample_period_s
                ).start()
            metrics_before = client.metrics_text()
            engine = LoadEngine(
                scenario,
                schedule,
                payloads,
                handle.host,
                handle.port,
                clock=clock,
            )
            started = wall_clock.monotonic()
            records = engine.run()
            wall_s = wall_clock.monotonic() - started
            metrics_after = client.metrics_text()
        finally:
            client.close()
        resources = sampler.stop() if sampler is not None else {}
        sampler = None
    except ServingError as exc:
        raise LoadLabError(f"scenario {scenario.name!r} failed: {exc}") from exc
    finally:
        if sampler is not None:
            sampler.stop()
        handle.stop()

    result = build_result(
        scenario,
        schedule,
        records,
        digest=digest,
        resources=resources,
        pids=pids,
        metrics_before=metrics_before,
        metrics_after=metrics_after,
        host=_host_info(),
        wall_s=wall_s,
        duration_scale=duration_scale,
    )
    validate_result(result)
    if out_dir is not None:
        path = result_path(out_dir, scenario)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        result["written_to"] = str(path)
    return result
