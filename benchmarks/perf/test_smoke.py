"""End-to-end smoke test of the benchmark: all four workloads at one
measured second each (about 100 s, most of it the three server launches
per workload), the result schema, the trace files, the exit codes, and
BENCHMARK.json naming exactly what ``run.py`` emits.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from bench import END_TO_END, PER_LAYER, SCHEMA_VERSION
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_benchmark_json_names_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


def _session_members(session: int) -> list[int]:
    """Processes, zombies included, still in *session*."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "stat").read_text()
        except OSError:
            continue  # it ended
        if int(text[text.rfind(")") + 2 :].split()[3]) == session:
            members.append(int(entry.name))
    return members


def test_all_workloads_run_and_report(tmp_path):
    started = time.monotonic()
    # A session of its own, so that whatever the run leaves behind can be
    # found by its session id, which is the run's pid.
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--seconds", "1",
         "--trace", "1", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, stdout[-3000:] + stderr[-3000:]
    # Four workloads, each well inside the 180 s that one run may take.
    assert elapsed < 4 * 60.0
    # Neither the probe nor the replay's resource tracker outlives the run.
    assert _session_members(proc.pid) == []

    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    expected = {f"{w}.{m}" for w in WORKLOADS for m in PER_LAYER}
    assert set(last["metrics"]) == expected
    for name, metric in last["metrics"].items():
        assert metric["unit"] == PER_LAYER[name.split(".", 1)[1]][0]

    (path,) = tmp_path.glob("*-seed0.json")
    result = json.loads(path.read_text())
    assert result["schema_version"] == SCHEMA_VERSION
    for key in ("git_sha", "nproc", "server_cpus", "generator_cpus", "python", "numpy", "seed"):
        assert key in result
    assert set(result["workloads"]) == set(WORKLOADS)
    for name, record in result["workloads"].items():
        assert set(record["end_to_end"]) == set(record["end_to_end_unscaled"]) == set(END_TO_END)
        assert record["slowdown"]["run"] > 0 and len(record["slowdown"]["rounds"]) > 0
        assert "probe-starved" not in record["flags"]
        assert set(record["per_layer"]) == set(PER_LAYER)
        assert all(value >= 0 for value in record["end_to_end"].values())
        assert record["problems"] == [] and record["failed_share"] == 0
        trace_file = tmp_path / record["trace_file"]
        spans = [json.loads(line) for line in trace_file.open()]
        assert {"name", "start_ns", "end_ns", "parent", "request_id"} <= set(spans[0])
        assert f"closure {name}:" in stdout


def test_fails_cleanly_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "detect-128", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
