"""Per-rule tests of the static-analysis passes against fixture snippets.

Every rule has at least one triggering and one non-triggering fixture
under ``tests/analyze_fixtures/``. Fixtures are analyzed as *source*, not
imported; the validation/api fixtures get explicit module names because
those passes key off the dotted module path.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from analyze.engine import analyze_source, run_analysis  # noqa: E402
from analyze.passes import get_passes, known_rules  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "analyze_fixtures"


def run_fixture(name: str, module: str | None = None, rules: list[str] | None = None):
    path = FIXTURES / name
    return analyze_source(path.read_text(), str(path), module=module, rules=rules)


def codes_of(report) -> set[str]:
    return {finding.code for finding in report.findings}


# -- registry ----------------------------------------------------------------


def test_registry_lists_every_rule():
    assert known_rules() == [
        "lock-discipline",
        "validation-boundary",
        "exception-policy",
        "api-surface",
        "lock-order",
        "resource-lifecycle",
        "taint-wire",
    ]


def test_rule_subset_selection():
    passes = get_passes(["api-surface"])
    assert [p.name for p in passes] == ["api-surface"]


def test_unknown_rule_rejected():
    try:
        get_passes(["no-such-rule"])
    except ValueError as exc:
        assert "no-such-rule" in str(exc)
    else:
        raise AssertionError("expected ValueError")


# -- lock-discipline ---------------------------------------------------------


def test_lock_bad_triggers_all_three_codes():
    report = run_fixture("lock_bad.py", rules=["lock-discipline"])
    assert codes_of(report) == {"unguarded-write", "bare-acquire", "io-under-lock"}


def test_lock_bad_flags_the_reset_write():
    report = run_fixture("lock_bad.py", rules=["lock-discipline"])
    writes = [f for f in report.findings if f.code == "unguarded-write"]
    assert any("_total" in f.message and f.symbol == "LeakyCounter.reset" for f in writes)


def test_lock_bad_flags_the_stored_callback():
    report = run_fixture("lock_bad.py", rules=["lock-discipline"])
    assert any(
        "callback" in f.message and f.symbol == "LeakyCounter.notify"
        for f in report.findings
    )


def test_lock_good_is_clean():
    report = run_fixture("lock_good.py", rules=["lock-discipline"])
    assert report.findings == []


def test_locked_suffix_convention_exempts_helper():
    source = (FIXTURES / "lock_good.py").read_text()
    assert "_bump_locked" in source  # the fixture exercises the convention
    report = analyze_source(source, "lock_good.py", rules=["lock-discipline"])
    assert report.findings == []


def test_class_without_lock_is_ignored():
    source = """
class Plain:
    def __init__(self):
        self._value = 0

    def set(self, v):
        self._value = v
"""
    report = analyze_source(source, "plain.py", rules=["lock-discipline"])
    assert report.findings == []


# -- validation-boundary -----------------------------------------------------


def test_validation_bad_triggers():
    report = run_fixture(
        "validation_bad.py",
        module="repro.imaging.validation_bad",
        rules=["validation-boundary"],
    )
    assert codes_of(report) == {"unvalidated-image"}
    flagged = {f.symbol for f in report.findings}
    assert flagged == {"crop_center", "difference"}


def test_validation_good_is_clean_including_helper_transitivity():
    report = run_fixture(
        "validation_good.py",
        module="repro.imaging.validation_good",
        rules=["validation-boundary"],
    )
    assert report.findings == []


def test_validation_pass_ignores_non_target_modules():
    report = run_fixture(
        "validation_bad.py",
        module="repro.serving.not_covered",
        rules=["validation-boundary"],
    )
    assert report.findings == []


def test_validation_order_matters_use_before_validate_is_flagged():
    source = """
from __future__ import annotations
import numpy as np
from repro.imaging.image import ensure_image

def late(image: np.ndarray) -> np.ndarray:
    corner = image[0, 0]
    ensure_image(image)
    return corner
"""
    report = analyze_source(
        source, "late.py", module="repro.core.late", rules=["validation-boundary"]
    )
    assert codes_of(report) == {"unvalidated-image"}
    assert "before it is validated" in report.findings[0].message


# -- exception-policy --------------------------------------------------------


def test_exception_bad_triggers_both_codes():
    report = run_fixture("exception_bad.py", rules=["exception-policy"])
    assert codes_of(report) == {"bare-except", "swallowed-exception"}


def test_exception_good_is_clean():
    report = run_fixture("exception_good.py", rules=["exception-policy"])
    assert report.findings == []


def test_reading_the_exception_counts_as_handling():
    source = """
def f(items):
    out = []
    try:
        out.append(items[0])
    except Exception as exc:
        out.append(exc)
    return out
"""
    report = analyze_source(source, "x.py", rules=["exception-policy"])
    assert report.findings == []


# -- api-surface -------------------------------------------------------------


def test_api_bad_triggers_all_four_codes():
    report = run_fixture(
        "api_bad.py", module="repro.imaging.api_bad", rules=["api-surface"]
    )
    assert codes_of(report) == {
        "unused-import",
        "missing-from-all",
        "deprecated-name",
        "cross-layer-import",
    }


def test_api_good_is_clean_thresholds_owner_exempt():
    report = run_fixture(
        "api_good.py", module="repro.serving.api_good", rules=["api-surface"]
    )
    assert report.findings == []


def test_cross_layer_equal_rank_is_banned():
    source = "from repro.eval.report import render\n\n__all__ = []\n"
    report = analyze_source(
        source, "s.py", module="repro.serving.s", rules=["api-surface"]
    )
    assert "cross-layer-import" in codes_of(report)


def test_package_root_may_import_anything():
    source = "from repro.serving.server import DetectionServer as S\n\n__all__ = [\"S\"]\n"
    report = analyze_source(source, "repro.py", module="repro", rules=["api-surface"])
    assert report.findings == []


def test_deprecated_import_from_wrong_module_is_flagged():
    source = "from repro.core.detector import calibrate_whitebox\n"
    report = analyze_source(
        source, "d.py", module="repro.eval.d", rules=["api-surface"]
    )
    assert "deprecated-name" in codes_of(report)


@pytest.mark.parametrize(
    "source",
    [
        "from repro.imaging.plans import set_exact_mode\n\nset_exact_mode(True)\n",
        "from repro.imaging import exact_mode\n\nwith exact_mode():\n    pass\n",
        "import repro.imaging.plans as plans\n\nMODE = plans.scoring_mode()\n",
        "from repro.imaging.scaling import get_scaling_operators\n\nget_scaling_operators\n",
        "import repro.imaging.scaling as scaling\n\nCACHE = scaling.OperatorCache()\n",
        "from repro.imaging.contours import region_stats_from_points\n\nregion_stats_from_points\n",
        "def account(pipeline):\n    return pipeline.record_remote_outcome('accepted')\n",
        "def path_of(log, image_id):\n    return log.pop_quarantine_path(image_id)\n",
        "def scores(detector, images):\n    return detector.score_batch(images)\n",
        "def trips(plan, stack):\n    return plan.round_trip_batch(stack)\n",
        "def trip(plan, image):\n    return plan.round_trip_exact(image)\n",
        "from repro.imaging.filtering import filter_batch\n\nfilter_batch\n",
        "from repro.imaging.plans import spectrum_magnitude_halves\n\nspectrum_magnitude_halves\n",
        "from repro.serving.server import AdmissionQueue\n\nAdmissionQueue\n",
        "def answer(server, headers):\n    return server.saturated_response(headers)\n",
        "from repro.serving.shm import encode_slot_ref\n\nencode_slot_ref(0, 8)\n",
        "import repro.serving.shm as shm\n\nREF = shm.decode_slot_ref(b'')\n",
        "def ring(geometry):\n    return geometry.radial_sorted, geometry.herm_by_radial\n",
        "from repro.imaging.plans import plan_cache_keys\n\nKEYS = plan_cache_keys()\n",
        "from repro.serving.workers import WorkerPoolConfig\n\nWorkerPoolConfig(workers=2)\n",
    ],
)
def test_removed_scoring_paths_are_flagged(source):
    report = analyze_source(
        source, "m.py", module="repro.core.m", rules=["api-surface"]
    )
    assert "deprecated-name" in codes_of(report)


# -- resource-lifecycle: Popen pipes ----------------------------------------

_POPEN_WITH = """import subprocess


def run(command: list) -> str:
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as process:
        try:
            out, _ = process.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise
    return out
"""

_POPEN_PLAIN = """import subprocess


def run(command: list) -> int:
    process = subprocess.Popen(command, stdout=subprocess.PIPE)
    process.kill()
    process.wait(timeout=10.0)
    return process.returncode
"""


def _popen_codes(tmp_path, source: str) -> set[str]:
    target = tmp_path / "popen_case.py"
    target.write_text(source)
    result = run_analysis([target], rules=["resource-lifecycle"], cache_path=None)
    return {finding.code for finding in result.findings}


def test_popen_with_block_is_not_a_pipe_leak(tmp_path):
    """``Popen.__exit__`` closes stdout/stderr, so a ``with`` block that
    kills and communicates leaks no pipe."""
    assert "popen-pipe-leak" not in _popen_codes(tmp_path, _POPEN_WITH)


def test_plain_popen_killed_and_waited_leaks_its_pipe(tmp_path):
    assert "popen-pipe-leak" in _popen_codes(tmp_path, _POPEN_PLAIN)


def test_syntax_error_becomes_parse_finding():
    report = analyze_source("def broken(:\n", "broken.py")
    assert [f.code for f in report.findings] == ["syntax-error"]
    assert report.findings[0].rule == "parse"
