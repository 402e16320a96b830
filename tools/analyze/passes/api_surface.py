"""API-surface pass: import hygiene, ``__all__``, deprecation, and layering.

Four rules:

* ``unused-import`` — a module- or function-level import whose bound name
  is never loaded. Uses include attribute chains, decorators, annotations
  (the repo uses ``from __future__ import annotations``, so they stay
  ordinary expressions), and ``__all__`` entries.
* ``missing-from-all`` — a module that declares ``__all__`` but binds a
  public name at module level that the list omits. Imported names are
  exempt (re-exports are opt-in); modules without ``__all__`` are skipped.
* ``deprecated-name`` — importing or referencing a name the deprecation
  policy already removed (the PR 2 calibration shims). Once a spelling is
  gone it must not be reintroduced by a new call site.
* ``cross-layer-import`` — a ``repro`` subpackage importing from a higher
  layer (``repro.imaging`` importing ``repro.serving``). The layer ranks
  encode the dependency DAG the repo actually has; anything new that
  points upward is a cycle waiting to happen.
"""

from __future__ import annotations

import ast

from analyze.findings import Finding
from analyze.passes.base import AnalysisPass, PassContext

__all__ = ["ApiSurfacePass", "LAYER_RANKS", "DEPRECATED_NAMES"]

#: Names removed under the deprecation policy; importing one or
#: referencing it as an attribute is an error. The ``Detector.calibrate_*``
#: shims are gone, but the module-level functions in
#: ``repro.core.thresholds`` are stable API — so an owner listed in
#: ``allowed_owners`` (the rightmost name of the attribute chain being
#: called on) is exempt.
DEPRECATED_NAMES: dict[str, dict] = {
    "calibrate_whitebox": {
        "hint": "use calibrate(..., strategy='midpoint'/'sigma') "
        "(repro.core.thresholds.calibrate_whitebox remains stable API)",
        "allowed_owners": {"thresholds"},
    },
    "calibrate_blackbox": {
        "hint": "use calibrate(..., strategy='percentile') "
        "(repro.core.thresholds.calibrate_blackbox remains stable API)",
        "allowed_owners": {"thresholds"},
    },
    # The exact scoring mode, the second operator cache and the
    # point-list labeler were removed: plans are the one scoring path.
    "set_exact_mode": {
        "hint": "there is one scoring path; compare against the references "
        "(downscale_then_upscale, ssim, csp_count_from_spectrum) directly",
        "allowed_owners": set(),
    },
    "exact_mode": {
        "hint": "there is one scoring path; compare against the references "
        "(downscale_then_upscale, ssim, csp_count_from_spectrum) directly",
        "allowed_owners": set(),
    },
    "scoring_mode": {
        "hint": "there is one scoring path, so there is no mode to record",
        "allowed_owners": set(),
    },
    "get_scaling_operators": {
        "hint": "use repro.imaging.coefficients.scaling_operators "
        "(memoized by scaling_matrix's LRU)",
        "allowed_owners": set(),
    },
    "OperatorCache": {
        "hint": "scaling_matrix's LRU is the operator cache; read it through "
        "operator_cache_stats() / clear_operator_cache()",
        "allowed_owners": set(),
    },
    "region_stats_from_points": {
        "hint": "csp_count_fast labels the crop around its points with "
        "label_runs; use label_runs + region_stats_from_runs",
        "allowed_owners": set(),
    },
    # The fused banded round trip was removed, so the plan's round trip
    # is the exact one.
    "round_trip_exact": {
        "hint": "ScoringPlan.round_trip is bit-identical to "
        "downscale_then_upscale; call either",
        "allowed_owners": set(),
    },
    # Sharded and in-process serving account through one step: the
    # dispatcher passes every job's wire verdicts to record().
    "record_remote_outcome": {
        "hint": "pass the wire verdicts to ProtectedPipeline.record(verdicts, "
        "quarantine_paths), which sequences, counts and audits",
        "allowed_owners": set(),
    },
    "pop_quarantine_path": {
        "hint": "screen() returns each PipelineOutcome with its quarantine_path; "
        "shards use a plain AuditLog",
        "allowed_owners": set(),
    },
    # The stacked batch scoring path was removed: every image scores on
    # its own through score_from, and a batch is a loop.
    "score_batch": {
        "hint": "use Detector.scores(images), a loop over score",
        "allowed_owners": set(),
    },
    "round_trip_batch": {
        "hint": "call ScoringPlan.round_trip once per image",
        "allowed_owners": set(),
    },
    "filter_batch": {
        "hint": "call FILTERS[name](image, size) once per image",
        "allowed_owners": set(),
    },
    "spectrum_magnitude_halves": {
        "hint": "csp_count_fast(gray) computes the spectrum of one image",
        "allowed_owners": set(),
    },
    # The event loop is the only admission gate; it owns the waiting room
    # and sends every refusal through DetectionServer.refuse.
    "AdmissionQueue": {
        "hint": "admission lives in repro.serving.eventloop.EventLoopFrontend "
        "(ServerConfig max_active / queue_depth / deadline_ms)",
        "allowed_owners": set(),
    },
    "saturated_response": {
        "hint": "refusals go through DetectionServer.refuse(status, message, headers)",
        "allowed_owners": set(),
    },
    # The shard pool's shared-memory ring transport was removed: every
    # dispatcher <-> shard frame rides the pipe whole.
    "encode_slot_ref": {
        "hint": "frames ride the shard pipe whole; send the frame itself",
        "allowed_owners": set(),
    },
    "decode_slot_ref": {
        "hint": "frames ride the shard pipe whole; read the frame itself",
        "allowed_owners": set(),
    },
    # The spectrum geometry keeps the low-pass disk only; csp_count_fast
    # selects each annulus from a centered crop.
    "radial_sorted": {
        "hint": "SpectrumGeometry keeps the low-pass disk only (disk_rows, "
        "disk_cols, disk_radial, disk_herm); annuli come from a centered crop",
        "allowed_owners": set(),
    },
    "herm_by_radial": {
        "hint": "SpectrumGeometry keeps the low-pass disk only (disk_rows, "
        "disk_cols, disk_radial, disk_herm); annuli come from a centered crop",
        "allowed_owners": set(),
    },
    # Shards no longer pre-warm the parent's plan and geometry caches at
    # spawn, so nothing reads the cache keys.
    **{
        name: {"hint": "shards build plans on first use", "allowed_owners": set()}
        for name in (
            "plan_cache_keys",
            "geometry_cache_keys",
            "prewarm_caches",
            "warm_plan_keys",
            "warm_geometry_keys",
        )
    },
}


def _owner_leaf(node: ast.Attribute) -> str:
    """Rightmost name of the owner expression: ``a.b.thresholds`` -> ``thresholds``."""
    owner = node.value
    if isinstance(owner, ast.Attribute):
        return owner.attr
    if isinstance(owner, ast.Name):
        return owner.id
    return ""

#: ``repro`` subpackage -> layer rank. A module may import another
#: subpackage only when the target's rank is strictly lower; imports
#: inside one subpackage are always allowed. The ranks encode today's
#: dependency DAG: errors < {imaging, observability} < {attacks, datasets}
#: < {core, ml, defenses} < {eval, serving} < loadlab < testing < cli.
LAYER_RANKS = {
    "errors": 0,
    "observability": 10,
    "imaging": 10,
    "attacks": 20,
    "datasets": 20,
    "core": 30,
    "ml": 30,
    "defenses": 30,
    "eval": 40,
    "serving": 40,
    "loadlab": 45,
    "testing": 47,
    "cli": 50,
    "__main__": 60,
}


def _imported_names(node: ast.Import | ast.ImportFrom) -> list[tuple[str, str]]:
    """(bound name, display name) pairs an import statement introduces."""
    pairs = []
    for alias in node.names:
        if alias.name == "*":
            continue
        bound = alias.asname or alias.name.split(".")[0]
        pairs.append((bound, alias.asname or alias.name))
    return pairs


def _used_names(tree: ast.AST) -> set[str]:
    """Every identifier the module loads anywhere (all scopes)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _dunder_all(tree: ast.Module) -> tuple[list[str] | None, set[str]]:
    """(declared __all__ or None, names listed in it)."""
    for node in tree.body:
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                try:
                    value = ast.literal_eval(node.value)
                except ValueError:
                    return None, set()
                names = [str(item) for item in value]
                return names, set(names)
    return None, set()


def _public_module_bindings(tree: ast.Module) -> dict[str, int]:
    """Public names bound by module-level statements (not imports) -> line."""
    public: dict[str, int] = {}

    def add(name: str, line: int) -> None:
        if not name.startswith("_") and name not in public:
            public[name] = line

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            add(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    add(target.id, node.lineno)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            add(element.id, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                add(node.target.id, node.lineno)
    return public


def _subpackage_of(module: str) -> str | None:
    """``repro.serving.server`` -> ``serving``; non-repro modules -> None.

    The package root (``repro``/``repro.__init__``) may import anything:
    re-exporting the public surface is its job.
    """
    parts = module.split(".")
    if not parts or parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _import_targets(
    node: ast.Import | ast.ImportFrom, module: str
) -> list[str]:
    """Absolute dotted module paths an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:  # relative import: resolve against the current module
        base = module.split(".")
        base = base[: len(base) - node.level]
        prefix = ".".join(base)
        target = f"{prefix}.{node.module}" if node.module else prefix
        return [target]
    return [node.module] if node.module else []


class ApiSurfacePass(AnalysisPass):
    name = "api-surface"
    codes = (
        "unused-import",
        "missing-from-all",
        "deprecated-name",
        "cross-layer-import",
    )
    description = "unused imports, __all__ completeness, deprecations, layering"

    def run(self, context: PassContext) -> list[Finding]:
        tree = context.tree
        findings: list[Finding] = []
        used = _used_names(tree)
        all_names, all_set = _dunder_all(tree)

        own_subpackage = _subpackage_of(context.module) if context.module else None
        own_rank = LAYER_RANKS.get(own_subpackage) if own_subpackage else None

        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for bound, display in _imported_names(node):
                if bound not in used and bound not in all_set:
                    findings.append(
                        context.finding(
                            node,
                            self.name,
                            "unused-import",
                            f"unused import '{display}'",
                        )
                    )
                leaf = display.rpartition(".")[2]
                spec = DEPRECATED_NAMES.get(leaf)
                if spec is not None and isinstance(node, ast.ImportFrom):
                    source = (node.module or "").rpartition(".")[2]
                    if source not in spec["allowed_owners"]:
                        findings.append(
                            context.finding(
                                node,
                                self.name,
                                "deprecated-name",
                                f"import of removed name '{leaf}'; {spec['hint']}",
                            )
                        )
            if own_rank is not None:
                findings.extend(self._check_layering(context, node, own_rank))

        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in DEPRECATED_NAMES
                and isinstance(node.ctx, ast.Load)
            ):
                spec = DEPRECATED_NAMES[node.attr]
                if _owner_leaf(node) in spec["allowed_owners"]:
                    continue
                findings.append(
                    context.finding(
                        node,
                        self.name,
                        "deprecated-name",
                        f"reference to removed method spelling "
                        f"'.{node.attr}'; {spec['hint']}",
                    )
                )

        if all_names is not None:
            listed = all_set | {"__all__"}
            for name, line in sorted(_public_module_bindings(tree).items()):
                if name not in listed:
                    findings.append(
                        Finding(
                            path=context.path,
                            line=line,
                            col=1,
                            rule=self.name,
                            code="missing-from-all",
                            message=f"public name '{name}' missing from __all__",
                            symbol="",
                        )
                    )
        return findings

    def _check_layering(
        self,
        context: PassContext,
        node: ast.Import | ast.ImportFrom,
        own_rank: int,
    ) -> list[Finding]:
        findings: list[Finding] = []
        own_subpackage = _subpackage_of(context.module)
        for target in _import_targets(node, context.module):
            target_subpackage = _subpackage_of(target)
            if target_subpackage is None or target_subpackage == own_subpackage:
                continue
            target_rank = LAYER_RANKS.get(target_subpackage)
            if target_rank is None or target_rank < own_rank:
                continue
            findings.append(
                context.finding(
                    node,
                    self.name,
                    "cross-layer-import",
                    f"'{context.module}' (layer '{own_subpackage}') imports "
                    f"'{target}' (layer '{target_subpackage}'): lower layers "
                    f"must not depend on equal or higher layers",
                )
            )
        return findings
