"""Tests for the whole-program (phase 2) analysis: cross-module lock
ordering, resource lifecycle, and wire-taint flow, plus the artifact,
reconciliation, and reporting plumbing around them.

Fixtures are analyzed as *source* via :func:`run_analysis` — never
imported. The lock-order fixtures deliberately form a cross-module
deadlock, which only a whole-program view can see.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from analyze.engine import run_analysis  # noqa: E402
from analyze.passes.lock_order import (  # noqa: E402
    load_contract,
    reconcile_locksan,
    render_dot,
)
from analyze.reporters import render_json, render_sarif  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "analyze_fixtures"


def analyze(names, rules, **kwargs):
    paths = [FIXTURES / name for name in names]
    return run_analysis(paths, rules=rules, cache_path=None, **kwargs)


def codes_of(result) -> set[str]:
    return {finding.code for finding in result.findings}


# -- lock-order: cycles ------------------------------------------------------


def test_cross_module_cycle_detected():
    result = analyze(
        ["lockorder_bad_a.py", "lockorder_bad_b.py"], rules=["lock-order"]
    )
    assert "lock-cycle" in codes_of(result)
    graph = result.artifacts["lock_order"]
    (cycle,) = graph["cycles"]
    assert {lock.rsplit(".", 2)[-2] for lock in cycle} == {"Leader", "Follower"}


def test_single_file_alone_shows_no_cycle():
    # Each half of the cycle is individually clean — the deadlock only
    # exists in the whole-program view.
    for name in ("lockorder_bad_a.py", "lockorder_bad_b.py"):
        result = analyze([name], rules=["lock-order"])
        assert result.artifacts["lock_order"]["cycles"] == []


def test_cycle_reported_at_lexically_first_witness():
    result = analyze(
        ["lockorder_bad_a.py", "lockorder_bad_b.py"], rules=["lock-order"]
    )
    (cycle_finding,) = [f for f in result.findings if f.code == "lock-cycle"]
    assert cycle_finding.path.endswith("lockorder_bad_a.py")
    assert "potential deadlock" in cycle_finding.message


# -- lock-order: the contract ------------------------------------------------


def test_undeclared_nested_acquire_flagged():
    result = analyze(["lockorder_good.py"], rules=["lock-order"])
    assert codes_of(result) == {"undeclared-order"}


def test_declared_order_is_clean(tmp_path):
    contract = tmp_path / "contract.json"
    contract.write_text(
        json.dumps(
            {
                "version": 1,
                "edges": [
                    [
                        "tests.analyze_fixtures.lockorder_good.Registry._lock",
                        "tests.analyze_fixtures.lockorder_good.Cell._lock",
                    ]
                ],
                "runtime_only": [],
            }
        )
    )
    result = analyze(
        ["lockorder_good.py"], rules=["lock-order"], lock_contract=contract
    )
    assert result.findings == []
    (edge,) = result.artifacts["lock_order"]["edges"]
    assert edge["declared"] is True


def test_leaf_lock_with_nested_acquire_is_a_violation(tmp_path):
    """Declaring a lock leaf is stronger than declaring its edges: even a
    blessed ordering out of a leaf lock fails the pass."""
    contract = tmp_path / "contract.json"
    contract.write_text(
        json.dumps(
            {
                "version": 1,
                "edges": [
                    [
                        "tests.analyze_fixtures.lockorder_good.Registry._lock",
                        "tests.analyze_fixtures.lockorder_good.Cell._lock",
                    ]
                ],
                "leaf_locks": [
                    "tests.analyze_fixtures.lockorder_good.Registry._lock"
                ],
                "runtime_only": [],
            }
        )
    )
    result = analyze(
        ["lockorder_good.py"], rules=["lock-order"], lock_contract=contract
    )
    assert codes_of(result) == {"leaf-violation"}
    (finding,) = result.findings
    assert "leaf lock" in finding.message


def test_lock_graph_artifact_schema():
    result = analyze(
        ["lockorder_bad_a.py", "lockorder_bad_b.py"], rules=["lock-order"]
    )
    graph = result.artifacts["lock_order"]
    assert set(graph) == {
        "version", "locks", "edges", "cycles", "contract", "leaf_contract"
    }
    for lock in graph["locks"]:
        assert set(lock) == {"id", "kind", "path", "line"}
    for edge in graph["edges"]:
        assert set(edge) == {"from", "to", "declared", "sites"}
        for site in edge["sites"]:
            assert set(site) == {"path", "line", "via"}


def test_render_dot_marks_cycles_and_undeclared():
    result = analyze(
        ["lockorder_bad_a.py", "lockorder_bad_b.py"], rules=["lock-order"]
    )
    dot = render_dot(result.artifacts["lock_order"])
    assert dot.startswith("digraph lock_order {")
    assert "color=red" in dot and "style=dashed" in dot


# -- resource-lifecycle ------------------------------------------------------


def test_resource_bad_triggers_every_code():
    result = analyze(["resource_bad.py"], rules=["resource-lifecycle"])
    assert codes_of(result) >= {
        "leaked-resource",
        "leak-on-exception",
        "popen-pipe-leak",
        "unjoined-thread",
        "owned-unreleased",
    }


def test_resource_good_is_clean():
    result = analyze(["resource_good.py"], rules=["resource-lifecycle"])
    assert result.findings == []


# -- taint-wire --------------------------------------------------------------


def test_taint_bad_flags_sink_and_param():
    result = analyze(["taintwire_bad.py"], rules=["taint-wire"])
    assert codes_of(result) == {"raw-ndarray-sink", "raw-ndarray-param"}
    # The interprocedural sink is reported at the *call* that hands the
    # raw bytes across the function boundary, not inside the helper.
    (sink,) = [f for f in result.findings if f.code == "raw-ndarray-sink"]
    assert sink.symbol.endswith("handle")


def test_taint_good_is_clean():
    result = analyze(["taintwire_good.py"], rules=["taint-wire"])
    assert result.findings == []


def test_taint_frame_reader_is_a_source():
    result = analyze(["taintwire_frame_bad.py"], rules=["taint-wire"])
    assert codes_of(result) == {"raw-ndarray-sink"}


def test_taint_decoded_frame_is_clean():
    result = analyze(["taintwire_frame_good.py"], rules=["taint-wire"])
    assert result.findings == []


# -- project findings: fingerprints, suppression, changed-only ---------------


def test_project_fingerprints_survive_line_shifts(tmp_path):
    source = (FIXTURES / "taintwire_bad.py").read_text()
    target = tmp_path / "wire.py"

    target.write_text(source)
    before = run_analysis([target], rules=["taint-wire"], cache_path=None)
    target.write_text("# shifted\n# shifted again\n\n" + source)
    after = run_analysis([target], rules=["taint-wire"], cache_path=None)

    assert [f.line for f in before.findings] != [f.line for f in after.findings]
    assert [f.fingerprint for f in before.findings] == [
        f.fingerprint for f in after.findings
    ]


def test_inline_suppression_applies_to_project_findings(tmp_path):
    source = (FIXTURES / "resource_bad.py").read_text().replace(
        "conn = socket.create_connection((host, 80), timeout=1.0)\n"
        "    conn.sendall",
        "conn = socket.create_connection((host, 80), timeout=1.0)  "
        "# analyze: ignore[resource-lifecycle] fixture\n"
        "    conn.sendall",
        1,
    )
    target = tmp_path / "res.py"
    target.write_text(source)
    result = run_analysis([target], rules=["resource-lifecycle"], cache_path=None)
    assert "leaked-resource" not in codes_of(result)
    assert result.suppressed >= 1


def test_changed_only_filters_reports_not_summaries():
    path_a = FIXTURES / "lockorder_bad_a.py"
    path_b = FIXTURES / "lockorder_bad_b.py"
    result = run_analysis(
        [path_a, path_b],
        rules=["lock-order"],
        cache_path=None,
        changed_only={str(path_a)},
    )
    assert result.findings and all(
        f.path == str(path_a) for f in result.findings
    )
    # The graph is still whole-program: both modules' locks and the
    # cross-module cycle are in the artifact.
    graph = result.artifacts["lock_order"]
    assert len(graph["locks"]) == 2 and graph["cycles"]


# -- reporters over project findings -----------------------------------------


def _render_kwargs():
    return dict(
        files_analyzed=2,
        suppressed=0,
        baselined=0,
        cache_hits=0,
        elapsed_s=0.1,
        stale_baseline=[],
    )


def test_project_findings_json_schema():
    result = analyze(["taintwire_bad.py"], rules=["taint-wire"])
    payload = json.loads(render_json(result.findings, **_render_kwargs()))
    for entry in payload["findings"]:
        assert set(entry) == {
            "path", "line", "col", "rule", "code", "message", "symbol",
            "fingerprint",
        }
        assert entry["rule"] == "taint-wire"


def test_sarif_reporter_schema():
    result = analyze(["taintwire_bad.py"], rules=["taint-wire"])
    payload = json.loads(render_sarif(result.findings, **_render_kwargs()))
    assert payload["version"] == "2.1.0"
    (run,) = payload["runs"]
    assert run["tool"]["driver"]["name"] == "tools/analyze"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rule_ids == {
        "taint-wire/raw-ndarray-sink",
        "taint-wire/raw-ndarray-param",
    }
    for entry in run["results"]:
        assert entry["ruleId"] in rule_ids
        assert entry["partialFingerprints"]["analyzeFingerprint/v1"]
        location = entry["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] > 0


# -- locksan reconciliation --------------------------------------------------


def _tiny_graph() -> dict:
    return {
        "version": 1,
        "locks": [
            {"id": "m.A._lock", "kind": "Lock", "path": "src/m.py", "line": 10},
            {"id": "m.B._lock", "kind": "Lock", "path": "src/m.py", "line": 20},
        ],
        "edges": [
            {"from": "m.A._lock", "to": "m.B._lock", "declared": True,
             "sites": [{"path": "src/m.py", "line": 12, "via": "A.run"}]},
        ],
        "cycles": [],
        "contract": [["m.A._lock", "m.B._lock"]],
    }


def _dump(edges, cycles=()):
    return {
        "schema_version": 1,
        "locks": [
            {"id": 0, "kind": "Lock", "file": "/abs/src/m.py", "line": 10,
             "acquisitions": 4},
            {"id": 1, "kind": "Lock", "file": "/abs/src/m.py", "line": 20,
             "acquisitions": 4},
        ],
        "edges": [{"from": a, "to": b, "count": 1} for a, b in edges],
        "cycles": [list(c) for c in cycles],
    }


def test_reconcile_accepts_statically_known_edge():
    errors, _notes = reconcile_locksan(
        _dump([(0, 1)]), _tiny_graph(), {"runtime_only": []}
    )
    assert errors == []


def test_reconcile_rejects_unknown_edge():
    errors, _notes = reconcile_locksan(
        _dump([(1, 0)]), _tiny_graph(), {"runtime_only": []}
    )
    assert len(errors) == 1 and "m.B._lock -> m.A._lock" in errors[0]


def test_reconcile_accepts_runtime_only_contract_edge():
    errors, _notes = reconcile_locksan(
        _dump([(1, 0)]),
        _tiny_graph(),
        {"runtime_only": [["m.B._lock", "m.A._lock"]]},
    )
    assert errors == []


def test_reconcile_rejects_edge_leaving_declared_leaf_lock():
    # Even a statically-known, contract-declared edge is an error when
    # its source lock is declared leaf.
    errors, _notes = reconcile_locksan(
        _dump([(0, 1)]),
        _tiny_graph(),
        {"runtime_only": [], "leaf_locks": ["m.A._lock"]},
    )
    assert len(errors) == 1 and "leaf" in errors[0]


def test_reconcile_rejects_runtime_cycle():
    errors, _notes = reconcile_locksan(
        _dump([(0, 1)], cycles=[(0, 1)]), _tiny_graph(), {"runtime_only": []}
    )
    assert any("cycle" in error for error in errors)


# -- the real tree -----------------------------------------------------------


def test_real_tree_lock_graph_is_acyclic_and_declared():
    result = run_analysis(
        [REPO_ROOT / "src"], rules=["lock-order"], cache_path=None
    )
    graph = result.artifacts["lock_order"]
    assert graph["cycles"] == []
    assert result.findings == []
    # The serving locks the docs talk about are all modeled.
    ids = {lock["id"] for lock in graph["locks"]}
    assert "repro.serving.server.DetectionServer._shutdown_lock" in ids
    assert "repro.serving.workers.WorkerPool._lock" in ids


def test_repo_contract_matches_checked_in_file():
    contract = load_contract()
    assert contract["version"] == 1
    assert all(len(edge) == 2 for edge in contract["edges"])
    # The async serving hot-path locks hold the leaf contract, and the
    # real tree honours it (the full run above had zero findings).
    assert "repro.serving.eventloop.EventLoopFrontend._lock" in contract["leaf_locks"]
    assert "repro.serving.shm.ShmRing._lock" in contract["leaf_locks"]
