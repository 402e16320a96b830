"""Tests for the runtime lock-order sanitizer (``repro.testing.locksan``).

The sanitizer is the dynamic half of the deadlock check: the static half
(the ``lock-order`` project pass) is covered by
``test_analyze_project.py``, and the two meet in ``reconcile_locksan``.
Every test here installs with a permissive site filter so locks built in
this file are tracked, and uninstalls in ``finally`` — a leaked patch
would silently instrument the rest of the suite.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.testing import locksan

from tests.conftest import MODEL_INPUT


@pytest.fixture
def san():
    """Installed sanitizer that wraps every construction site; always
    uninstalled, even when the test body throws."""
    if locksan.installed():  # REPRO_LOCKSAN session: don't fight the wiring
        pytest.skip("locksan already installed session-wide")
    locksan.install(site_filter=lambda filename: True)
    try:
        yield locksan
    finally:
        locksan.uninstall()


# -- install / uninstall mechanics -------------------------------------------


def test_off_by_default_and_uninstall_restores(san):
    assert threading.Lock is not locksan._REAL_LOCK
    locksan.uninstall()
    assert threading.Lock is locksan._REAL_LOCK
    assert threading.RLock is locksan._REAL_RLOCK
    assert threading.Condition is locksan._REAL_CONDITION
    locksan.install(site_filter=lambda filename: True)  # fixture re-uninstalls


def test_install_is_idempotent(san):
    factory = threading.Lock
    locksan.install(site_filter=lambda filename: True)
    assert threading.Lock is factory


def test_site_filter_rejects_foreign_locks():
    if locksan.installed():
        pytest.skip("locksan already installed session-wide")
    locksan.install()  # default filter: only src/repro
    try:
        lock = threading.Lock()  # this test file is not under src/repro
        assert not isinstance(lock, locksan._SanLock)
        assert locksan.snapshot()["locks"] == []
    finally:
        locksan.uninstall()


def test_threading_internals_stay_real(san):
    # Condition() builds an internal RLock from inside threading.py; only
    # the Condition itself may be registered.
    cond = threading.Condition()
    kinds = [lock["kind"] for lock in san.snapshot()["locks"]]
    assert kinds == ["Condition"]
    with cond:
        cond.notify_all()


# -- edge recording ----------------------------------------------------------


def test_nested_acquire_records_one_direction(san):
    outer = threading.Lock()
    inner = threading.Lock()
    with outer:
        with inner:
            pass
        with inner:
            pass
    snap = san.snapshot()
    assert [(e["from"], e["to"], e["count"]) for e in snap["edges"]] == [(0, 1, 2)]
    assert snap["cycles"] == []


def test_opposite_orders_form_a_cycle(san):
    first = threading.Lock()
    second = threading.Lock()
    with first:
        with second:
            pass
    with second:
        with first:
            pass
    snap = san.snapshot()
    assert snap["cycles"] == [[0, 1]]


def test_rlock_reentry_is_not_a_self_edge(san):
    lock = threading.RLock()
    with lock:
        with lock:
            pass
    snap = san.snapshot()
    assert snap["edges"] == [] and snap["cycles"] == []
    assert snap["locks"][0]["acquisitions"] == 2


def test_condition_wait_releases_the_hold(san):
    cond = threading.Condition()
    side = threading.Lock()
    seen = []

    def waiter():
        with cond:
            cond.wait(timeout=5.0)
            with side:  # edge cond -> side from the waiter, post-wake
                seen.append("woke")

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    # While the waiter is blocked in wait() it does NOT hold cond, so the
    # main thread taking side then cond must not create side -> cond.
    with side:
        pass
    with cond:
        cond.notify_all()
    thread.join(timeout=5.0)
    assert seen == ["woke"]
    edges = {(e["from"], e["to"]) for e in san.snapshot()["edges"]}
    assert (0, 1) in edges  # cond -> side (waiter, after wake)
    assert (1, 0) not in edges
    assert san.snapshot()["cycles"] == []


def test_reset_clears_the_registry(san):
    with threading.Lock():
        pass
    assert san.snapshot()["locks"]
    san.reset()
    assert san.snapshot() == {
        "schema_version": 1, "locks": [], "edges": [], "cycles": [],
    }


# -- dump schema -------------------------------------------------------------


def test_dump_schema_and_round_trip(san, tmp_path):
    import json

    lock = threading.Lock()
    with lock:
        pass
    report = san.dump(tmp_path / "locksan.json")
    on_disk = json.loads((tmp_path / "locksan.json").read_text())
    assert on_disk == report
    assert on_disk["schema_version"] == locksan.SCHEMA_VERSION
    (entry,) = on_disk["locks"]
    assert set(entry) == {"id", "kind", "file", "line", "acquisitions"}
    assert entry["file"].endswith("test_locksan.py")
    assert entry["acquisitions"] == 1


def test_snapshot_requires_install():
    if locksan.installed():
        pytest.skip("locksan already installed session-wide")
    with pytest.raises(RuntimeError):
        locksan.snapshot()


# -- against the real serving code -------------------------------------------


def test_shutdown_audit_edge_is_observed(tmp_path):
    """The static model's DetectionServer._shutdown_lock -> AuditLog._io_lock
    edge (the drain's final audit flush) shows up at runtime, attributed
    to the real construction sites."""
    if locksan.installed():
        pytest.skip("locksan already installed session-wide")
    locksan.install()  # default filter: the real src/repro code qualifies
    try:
        from repro.serving import AuditLog, DetectionServer, ProtectedPipeline, ServerConfig

        pipeline = ProtectedPipeline(
            MODEL_INPUT, audit_log=AuditLog(tmp_path / "audit.jsonl")
        )
        server = DetectionServer(pipeline, ServerConfig(port=0, workers=0))
        server.start()
        server.shutdown()
        snap = locksan.snapshot()
    finally:
        locksan.uninstall()

    sites = {lock["id"]: lock["file"] for lock in snap["locks"]}
    shutdown_ids = {
        lock_id for lock_id, file in sites.items() if file.endswith("serving/server.py")
    }
    audit_ids = {
        lock_id for lock_id, file in sites.items() if file.endswith("serving/audit.py")
    }
    assert shutdown_ids, "DetectionServer._shutdown_lock was not registered"
    assert audit_ids, "AuditLog._io_lock was not registered"
    observed = {(e["from"], e["to"]) for e in snap["edges"]}
    assert any(
        (shutdown, audit) in observed for shutdown in shutdown_ids for audit in audit_ids
    ), f"expected shutdown->audit edge in {observed}"
    assert snap["cycles"] == []
