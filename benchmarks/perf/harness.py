"""The processes a run starts: the server under test, a ``python -m repro
serve`` child, and the host-speed probe (``probe.py``) beside it.

The child inherits the CPU affinity of the thread that starts it, so
:class:`ServerProcess` pins the calling thread to the server's CPUs for
the duration of ``Popen`` only: the dispatcher and every shard it spawns
stay on those CPUs, and the generator keeps the others. Its stdout goes
to a log file rather than a pipe, so no reader thread is needed to keep
the child from blocking on a full pipe.

The server starts in a process group of its own, and this process
becomes a child subreaper, so a shard or the dispatcher's resource
tracker that outlives the dispatcher is re-parented here rather than to
init: :meth:`ServerProcess.stop` reaps every member of the group, killing
what is left after a timeout, and returns only when none is left.

Everything about the running server is read from outside: the address
from the log line it prints, and CPU time and peak memory of the whole
process tree from ``/proc``. This module imports only the standard
library, so ``run.py`` can pin itself before numpy (and the BLAS thread
pool sized from the allowed CPUs) is loaded.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["CpuPlan", "ServerProcess", "SpeedProbe", "plan_cpus"]

_READY_TIMEOUT_S = 90.0
_STOP_TIMEOUT_S = 30.0
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Make orphaned descendants children of this process (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


class CpuPlan:
    """Which CPUs the server tree and the generator run on."""

    def __init__(self, server: frozenset[int], generator: frozenset[int], pinned: bool) -> None:
        self.server = server
        self.generator = generator
        self.pinned = pinned

    @property
    def connections(self) -> int:
        """Generator connections: one per CPU of the host, at most two."""
        return min(2, len(self.server | self.generator))

    def as_dict(self) -> dict:
        return {
            "server_cpus": sorted(self.server),
            "generator_cpus": sorted(self.generator),
            "pinned": self.pinned,
        }


def plan_cpus() -> CpuPlan:
    """The last allowed CPU for the server, the rest for the generator, and
    the calling process moved to the generator's share. On a one-CPU host
    both share it and the plan records that it is unpinned."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        cpus = frozenset(allowed)
        return CpuPlan(cpus, cpus, pinned=False)
    plan = CpuPlan(frozenset(allowed[-1:]), frozenset(allowed[:-1]), pinned=True)
    os.sched_setaffinity(0, plan.generator)
    return plan


def _stat(pid: int) -> tuple[int, float] | None:
    """``(ppid, utime+stime seconds)`` of a live process, None once it has
    exited (zombies included)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    fields = text[text.rfind(")") + 2 :].split()
    if len(fields) < 13 or fields[0] == "Z":
        return None
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def _peak_kib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


class SpeedProbe:
    """``probe.py`` running on the server's CPU; :meth:`stop` ends it and
    returns its samples."""

    def __init__(self, script: Path, cpus: CpuPlan, out_path: Path) -> None:
        self.out_path = out_path
        self.process = subprocess.Popen(
            [sys.executable, str(script), str(min(cpus.server)), str(out_path)],
            stdin=subprocess.DEVNULL,
        )

    def stop(self) -> list:
        """SIGTERM, wait, and read the samples (none if it never wrote)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=_STOP_TIMEOUT_S)
        try:
            return json.loads(self.out_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return []


class ServerProcess:
    """One launched server; :meth:`stop` ends it and everything it spawned."""

    def __init__(self, root: Path, args: list[str], log_path: Path, cpus: CpuPlan) -> None:
        self.log_path = log_path
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        _become_subreaper()
        self._log = open(log_path, "wb")
        try:
            if cpus.pinned:
                os.sched_setaffinity(0, cpus.server)
            #: perf_counter at Popen: the origin of the set-up time.
            self.started = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *args],
                stdin=subprocess.DEVNULL,
                stdout=self._log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=root,
                # A group, not a session: a new session gets a scheduler
                # autogroup of its own, which would share the server's CPU
                # equally with the idle-priority probe's group.
                process_group=0,
            )
        except BaseException:
            self._log.close()
            raise
        finally:
            if cpus.pinned:
                os.sched_setaffinity(0, cpus.generator)

    def address(self) -> tuple[str, int]:
        """Wait for ``serving on http://host:port`` in the log."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                if line.startswith("serving on http://"):
                    host, _, port = line.split("http://", 1)[1].split()[0].rpartition(":")
                    return host, int(port)
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: {text[-2000:]}")
            time.sleep(0.005)
        raise RuntimeError(f"server did not announce its address within {_READY_TIMEOUT_S:.0f}s")

    def tree(self) -> list[int]:
        """The dispatcher and every live descendant (shards, and the
        multiprocessing resource tracker)."""
        parents = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _stat(int(entry))
                if stat is not None:
                    parents[int(entry)] = stat[0]
        members = {self.process.pid}
        grew = True
        while grew:
            found = {pid for pid, ppid in parents.items() if ppid in members}
            grew = not found <= members
            members |= found
        return sorted(members)

    def cpu_seconds(self, pids: list[int]) -> dict[int, float]:
        """utime+stime of each of *pids* that is still running."""
        out = {}
        for pid in pids:
            stat = _stat(pid)
            if stat is not None:
                out[pid] = stat[1]
        return out

    def peak_rss_mib(self) -> float:
        """Sum of ``VmHWM`` over the tree: each process's exact peak."""
        return sum(_peak_kib(pid) for pid in self.tree()) / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains) and reap the dispatcher, then reap
        every process left in its group; SIGKILL after a timeout."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=_STOP_TIMEOUT_S)
            self._reap_group()
        finally:
            self._log.close()

    def _reap_group(self) -> None:
        """With the dispatcher reaped, every other member of its group is,
        or becomes when its own parent ends, a child of this subreaper:
        wait for each until none is left."""
        group = self.process.pid
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        while True:
            try:
                pid, _ = os.waitpid(-group, os.WNOHANG)
            except ChildProcessError:
                return  # no process of the group is left
            if pid:
                continue
            if time.monotonic() > deadline:
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the last one ended between the wait and the kill
            time.sleep(0.01)
