"""Experiment runners — one per paper table and figure.

Each function consumes an :class:`~repro.eval.data.ExperimentData` (built
by :func:`~repro.eval.data.prepare_data`) and returns an
:class:`ExperimentResult` whose rows mirror the paper's artifact. The
paper's own numbers are attached as ``paper_reference`` so benchmark output
and EXPERIMENTS.md can show paper-vs-measured side by side.

Every runner registers itself in :mod:`repro.eval.registry` with the
:func:`~repro.eval.registry.experiment` decorator -- that registry is the
authoritative index (``repro exp list`` prints it; DESIGN.md narrates
the artifact map). Runners remain plain functions: calling one directly
is exactly equivalent to running it through the mediator, minus
caching and stage timings.

Threshold calibrations consult the ambient run context
(:mod:`repro.eval.stages`): inside a mediator run with a cache attached,
a previously computed threshold for the same (data, detector, strategy)
is installed without rescoring the corpus; outside a mediator run the
hooks are no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.analysis import ImageAnalysis
from repro.core.evaluation import evaluate_decisions
from repro.core.ensemble import build_default_ensemble
from repro.core.filtering_detector import FilteringDetector
from repro.core.pipeline import evaluate_detector, evaluate_ensemble
from repro.core.result import ThresholdRule
from repro.core.scaling_detector import ScalingDetector
from repro.core.steganalysis_detector import SteganalysisDetector
from repro.core.thresholds import auc, threshold_accuracy
from repro.eval.data import ExperimentData
from repro.eval.registry import experiment
from repro.eval.stages import cached_calibration, cached_ensemble_calibration, stage
from repro.eval.tables import format_number, format_percent, metrics_row, render_table
from repro.imaging.metrics import histogram_intersection, psnr

__all__ = [
    "ExperimentResult",
    "table1_input_sizes",
    "fig8_threshold_search",
    "fig9_fig10_scaling_distributions",
    "table2_scaling_whitebox",
    "table3_scaling_blackbox",
    "fig11_fig12_filtering_distributions",
    "table4_filtering_whitebox",
    "table5_filtering_blackbox",
    "fig13_csp_distribution",
    "table6_steganalysis",
    "table8_ensemble",
    "table9_missed_attacks",
    "appendix_psnr",
    "ablation_histogram_metric",
    "ablation_adaptive_attacks",
    "ablation_prevention_defenses",
    "ablation_benign_transforms",
    "ablation_surface_sweep",
    "ablation_jpeg_reencoding",
]


@dataclass
class ExperimentResult:
    """Rows reproducing one paper artifact, plus the paper's numbers."""

    experiment_id: str
    title: str
    rows: list[dict[str, Any]]
    paper_reference: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""
    #: per-stage wall seconds (prepare/attack-gen/calibrate/score/render);
    #: populated by the mediator, empty on direct runner calls. Never
    #: rendered into ``to_text`` so result files stay byte-comparable.
    timings: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        parts = [render_table(self.rows, title=f"[{self.experiment_id}] {self.title} (measured)")]
        if self.paper_reference:
            parts.append(render_table(self.paper_reference, title="paper reported"))
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# T1 — background table
# ---------------------------------------------------------------------------

@experiment(
    "T1",
    title="Input sizes for popular CNN models",
    needs_data=False,
    order=10,
)
def table1_input_sizes() -> ExperimentResult:
    """Paper Table 1: fixed input sizes of popular CNN models.

    Static background data; included so the benchmark suite covers every
    numbered table.
    """
    rows = [
        {"Model": "LeNet-5", "Size": "32*32"},
        {"Model": "VGG, ResNet, GoogleNet, MobileNet", "Size": "224*224"},
        {"Model": "AlexNet", "Size": "227*227"},
        {"Model": "Inception V3/V4", "Size": "299*299"},
        {"Model": "DAVE-2 Self-Driving", "Size": "200*66"},
    ]
    return ExperimentResult(
        experiment_id="T1",
        title="Input sizes for popular CNN models",
        rows=rows,
        paper_reference=rows,
        notes="Static table; motivates why downscaling (and the attack) is universal.",
    )


# ---------------------------------------------------------------------------
# scaling detector (F8, F9, F10, T2, T3)
# ---------------------------------------------------------------------------

def _scaling_detectors(data: ExperimentData) -> dict[str, ScalingDetector]:
    return {
        "mse": ScalingDetector(
            data.model_input_shape, algorithm=data.algorithm, metric="mse"
        ),
        "ssim": ScalingDetector(
            data.model_input_shape, algorithm=data.algorithm, metric="ssim"
        ),
    }


def _filtering_detectors() -> dict[str, FilteringDetector]:
    return {
        "mse": FilteringDetector(metric="mse"),
        "ssim": FilteringDetector(metric="ssim"),
    }


@experiment(
    "F8",
    title="Threshold selection curves, scaling detector (white-box)",
    order=20,
    kind="figure",
)
def fig8_threshold_search(data: ExperimentData, *, n_points: int = 41) -> ExperimentResult:
    """Fig. 8: accuracy as a function of candidate threshold (white-box).

    Sweeps ``n_points`` thresholds across the pooled score range for the
    scaling detector (both metrics) and marks the calibrated optimum.
    """
    rows: list[dict[str, Any]] = []
    for metric, detector in _scaling_detectors(data).items():
        benign = detector.scores(data.calibration.benign)
        attack = detector.scores(data.calibration.attacks)
        with stage("calibrate"):
            best = detector.calibrate(data.calibration.benign, data.calibration.attacks)
        lo = min(min(benign), min(attack))
        hi = max(max(benign), max(attack))
        grid = np.linspace(lo, hi, n_points)
        nearest_to_best = int(np.abs(grid - best.value).argmin())
        for index, value in enumerate(grid):
            rule = ThresholdRule(value=float(value), direction=detector.attack_direction)
            rows.append(
                {
                    "metric": metric,
                    "threshold": format_number(float(value)),
                    "accuracy": format_percent(threshold_accuracy(rule, benign, attack)),
                    "selected": "<-- best" if index == nearest_to_best else "",
                }
            )
        rows.append(
            {
                "metric": metric,
                "threshold": f"best={format_number(best.value)}",
                "accuracy": format_percent(threshold_accuracy(best, benign, attack)),
                "selected": "calibrated",
            }
        )
    return ExperimentResult(
        experiment_id="F8",
        title="Threshold selection curves, scaling detector (white-box)",
        rows=rows,
        paper_reference=[
            {"metric": "mse", "threshold": "1714.96", "note": "paper's selected optimum"},
            {"metric": "ssim", "threshold": "0.61", "note": "paper's selected optimum"},
        ],
        notes=(
            "Absolute threshold values depend on image statistics and sizes; the "
            "reproduced claim is that accuracy is near-flat at ~100% over a wide "
            "threshold band, so an automated search finds a reliable optimum."
        ),
    )


def _distribution_rows(
    label_to_scores: dict[str, list[float]], *, bins: int = 12
) -> list[dict[str, Any]]:
    """Summarize score populations the way the paper's histograms do."""
    rows = []
    for label, scores in label_to_scores.items():
        arr = np.asarray(scores, dtype=np.float64)
        rows.append(
            {
                "population": label,
                "n": arr.size,
                "mean": format_number(float(arr.mean())),
                "std": format_number(float(arr.std())),
                "min": format_number(float(arr.min())),
                "p50": format_number(float(np.median(arr))),
                "max": format_number(float(arr.max())),
            }
        )
    return rows


@experiment(
    "F9/F10",
    title="Scaling detector score distributions",
    aliases=("F9", "F10"),
    order=30,
    kind="figure",
)
def fig9_fig10_scaling_distributions(data: ExperimentData) -> ExperimentResult:
    """Figs. 9–10: MSE/SSIM score distributions for the scaling detector."""
    detectors = _scaling_detectors(data)
    populations: dict[str, list[float]] = {}
    for metric, detector in detectors.items():
        populations[f"{metric} benign (calibration)"] = detector.scores(data.calibration.benign)
        populations[f"{metric} attack (calibration)"] = detector.scores(data.calibration.attacks)
    rows = _distribution_rows(populations)
    return ExperimentResult(
        experiment_id="F9/F10",
        title="Scaling detector score distributions",
        rows=rows,
        paper_reference=[
            {"population": "mse benign", "mean": "218.6", "std": "217.6"},
            {"population": "ssim benign", "mean": "0.91", "std": "0.59 (as printed)"},
        ],
        notes=(
            "Reproduced claim: benign and attack populations are separated by "
            "orders of magnitude in MSE and by a wide SSIM gap, and the benign "
            "population is unimodal so percentile thresholds work."
        ),
    )


def _whitebox_table(
    experiment_id: str,
    title: str,
    detectors: dict[str, Any],
    data: ExperimentData,
    paper_reference: list[dict[str, Any]],
    notes: str = "",
) -> ExperimentResult:
    rows = []
    for metric, detector in detectors.items():
        with stage("calibrate"):
            rule = cached_calibration(
                detector,
                {"strategy": "midpoint"},
                lambda d=detector: d.calibrate(
                    data.calibration.benign, data.calibration.attacks
                ),
            )
        outcome = evaluate_detector(detector, data.evaluation)
        rows.append(
            {
                "Metric": metric.upper(),
                "Threshold": format_number(rule.value),
                **metrics_row(outcome.counts),
            }
        )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=rows,
        paper_reference=paper_reference,
        notes=notes,
    )


@experiment(
    "T2",
    title="Scaling detection method, white-box setting",
    order=40,
)
def table2_scaling_whitebox(data: ExperimentData) -> ExperimentResult:
    """Table 2: scaling detector, white-box calibration, unseen evaluation."""
    return _whitebox_table(
        "T2",
        "Scaling detection method, white-box setting",
        _scaling_detectors(data),
        data,
        paper_reference=[
            {"Metric": "MSE", "Acc.": "99.9%", "Prec.": "100%", "Rec.": "99.9%", "FAR": "0.0%", "FRR": "0.1%"},
            {"Metric": "SSIM", "Acc.": "99.0%", "Prec.": "99.7%", "Rec.": "99.9%", "FAR": "0.3%", "FRR": "0.1%"},
        ],
    )


def _blackbox_table(
    experiment_id: str,
    title: str,
    detectors: dict[str, Any],
    data: ExperimentData,
    paper_reference: list[dict[str, Any]],
    percentiles: tuple[float, ...] = (1.0, 2.0, 3.0),
) -> ExperimentResult:
    rows = []
    for metric, detector in detectors.items():
        benign_scores = np.asarray(detector.scores(data.calibration.benign))
        for percentile in percentiles:
            with stage("calibrate"):
                cached_calibration(
                    detector,
                    {"strategy": "percentile", "percentile": percentile},
                    lambda d=detector, p=percentile: d.calibrate(
                        data.calibration.benign, percentile=p
                    ),
                )
            outcome = evaluate_detector(detector, data.evaluation)
            rows.append(
                {
                    "Metric": metric.upper(),
                    "Percentile": f"{percentile:g}%",
                    **metrics_row(outcome.counts),
                    "Mean": format_number(float(benign_scores.mean())),
                    "STD": format_number(float(benign_scores.std())),
                }
            )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        rows=rows,
        paper_reference=paper_reference,
        notes=(
            "FRR tracks the sacrificed percentile by construction; the reproduced "
            "claim is that FAR stays ~0 while FRR ≈ percentile, so 1% is the "
            "recommended setting."
        ),
    )


@experiment(
    "T3",
    title="Scaling detection method, black-box setting",
    order=50,
)
def table3_scaling_blackbox(data: ExperimentData) -> ExperimentResult:
    """Table 3: scaling detector, black-box percentile thresholds."""
    return _blackbox_table(
        "T3",
        "Scaling detection method, black-box setting",
        _scaling_detectors(data),
        data,
        paper_reference=[
            {"Metric": "MSE", "Percentile": "1%", "Acc.": "99.5%", "FAR": "0.0%", "FRR": "1.0%", "Mean": "218.6", "STD": "217.6"},
            {"Metric": "MSE", "Percentile": "2%", "Acc.": "99.0%", "FAR": "0.0%", "FRR": "2.0%"},
            {"Metric": "MSE", "Percentile": "3%", "Acc.": "98.5%", "FAR": "0.0%", "FRR": "3.0%"},
            {"Metric": "SSIM", "Percentile": "1%", "Acc.": "99.5%", "FAR": "0.0%", "FRR": "1.0%", "Mean": "0.91", "STD": "0.59"},
            {"Metric": "SSIM", "Percentile": "2%", "Acc.": "99.0%", "FAR": "0.0%", "FRR": "2.0%"},
            {"Metric": "SSIM", "Percentile": "3%", "Acc.": "98.5%", "FAR": "0.0%", "FRR": "3.0%"},
        ],
    )


# ---------------------------------------------------------------------------
# filtering detector (F11, F12, T4, T5)
# ---------------------------------------------------------------------------

@experiment(
    "F11/F12",
    title="Filtering detector score distributions",
    aliases=("F11", "F12"),
    order=60,
    kind="figure",
)
def fig11_fig12_filtering_distributions(data: ExperimentData) -> ExperimentResult:
    """Figs. 11–12: MSE/SSIM distributions for the filtering detector."""
    populations: dict[str, list[float]] = {}
    for metric, detector in _filtering_detectors().items():
        populations[f"{metric} benign (calibration)"] = detector.scores(data.calibration.benign)
        populations[f"{metric} attack (calibration)"] = detector.scores(data.calibration.attacks)
    return ExperimentResult(
        experiment_id="F11/F12",
        title="Filtering detector score distributions",
        rows=_distribution_rows(populations),
        paper_reference=[
            {"population": "mse benign", "mean": "1952.32", "std": "1543.27"},
            {"population": "ssim benign", "mean": "0.74", "std": "0.11"},
        ],
        notes=(
            "Reproduced claim: distributions separate, though MSE shows partial "
            "overlap (the paper notes the same), which is why SSIM is the "
            "recommended filtering metric."
        ),
    )


@experiment(
    "T4",
    title="Filtering detection method, white-box setting",
    order=70,
)
def table4_filtering_whitebox(data: ExperimentData) -> ExperimentResult:
    """Table 4: filtering detector, white-box setting."""
    return _whitebox_table(
        "T4",
        "Filtering detection method, white-box setting",
        _filtering_detectors(),
        data,
        paper_reference=[
            {"Metric": "MSE", "Acc.": "98.6%", "Prec.": "97.5%", "Rec.": "99.2%", "FAR": "2.5%", "FRR": "0.8%"},
            {"Metric": "SSIM", "Acc.": "99.3%", "Prec.": "98.7%", "Rec.": "99.7%", "FAR": "1.3%", "FRR": "0.2%"},
        ],
        notes="SSIM outperforms MSE for the filtering method (paper's recommendation).",
    )


@experiment(
    "T5",
    title="Filtering detection method, black-box setting",
    order=80,
)
def table5_filtering_blackbox(data: ExperimentData) -> ExperimentResult:
    """Table 5: filtering detector, black-box percentile thresholds."""
    return _blackbox_table(
        "T5",
        "Filtering detection method, black-box setting",
        _filtering_detectors(),
        data,
        paper_reference=[
            {"Metric": "MSE", "Percentile": "1%", "Acc.": "98.4%", "FAR": "2.2%", "FRR": "1.0%", "Mean": "1952.32", "STD": "1543.27"},
            {"Metric": "SSIM", "Percentile": "1%", "Acc.": "99.2%", "FAR": "0.6%", "FRR": "1.0%", "Mean": "0.74", "STD": "0.11"},
        ],
    )


# ---------------------------------------------------------------------------
# steganalysis detector (F13, T6)
# ---------------------------------------------------------------------------

@experiment(
    "F13",
    title="Centered-spectrum-point counts (white-box corpus)",
    order=90,
    kind="figure",
)
def fig13_csp_distribution(data: ExperimentData) -> ExperimentResult:
    """Fig. 13: distribution of CSP counts for benign vs attack images."""
    detector = SteganalysisDetector()
    benign = detector.scores(data.calibration.benign)
    attack = detector.scores(data.calibration.attacks)
    benign_single = float(np.mean(np.asarray(benign) == 1.0))
    attack_multi = float(np.mean(np.asarray(attack) > 1.0))
    rows = [
        {"population": "benign", "CSP == 1": format_percent(benign_single), "CSP > 1": format_percent(1 - benign_single)},
        {"population": "attack", "CSP == 1": format_percent(1 - attack_multi), "CSP > 1": format_percent(attack_multi)},
    ]
    return ExperimentResult(
        experiment_id="F13",
        title="Centered-spectrum-point counts (white-box corpus)",
        rows=rows,
        paper_reference=[
            {"population": "benign", "CSP == 1": "99.3%"},
            {"population": "attack", "CSP > 1": "98.2%"},
        ],
    )


@experiment(
    "T6",
    title="Steganalysis detection method (fixed threshold, both settings)",
    order=100,
)
def table6_steganalysis(data: ExperimentData) -> ExperimentResult:
    """Table 6: steganalysis detector with the fixed CSP >= 2 threshold."""
    detector = SteganalysisDetector()
    outcome = evaluate_detector(detector, data.evaluation)
    rows = [{"Metric": "CSP", "Threshold": "2", **metrics_row(outcome.counts)}]
    return ExperimentResult(
        experiment_id="T6",
        title="Steganalysis detection method (fixed threshold, both settings)",
        rows=rows,
        paper_reference=[
            {"Metric": "CSP", "Acc.": "98.9%", "Prec.": "99.7%", "Rec.": "98.2%", "FAR": "0.3%", "FRR": "1.7%"},
        ],
        notes=(
            "The same fixed threshold serves white-box and black-box settings — "
            "the paper's key cost-saving observation for this method."
        ),
    )


# ---------------------------------------------------------------------------
# ensemble (T8)
# ---------------------------------------------------------------------------

@experiment(
    "T8",
    title="Decamouflage ensemble (majority vote of three methods)",
    order=120,
)
def table8_ensemble(data: ExperimentData, *, percentile: float = 1.0) -> ExperimentResult:
    """Table 8: Decamouflage as a majority-vote ensemble, WB and BB."""
    rows = []
    whitebox = build_default_ensemble(data.model_input_shape, algorithm=data.algorithm)
    with stage("calibrate"):
        cached_ensemble_calibration(
            whitebox,
            {"strategy": "midpoint"},
            lambda: whitebox.calibrate(data.calibration.benign, data.calibration.attacks),
        )
    rows.append({"Setting": "White-box ensemble", **metrics_row(evaluate_ensemble(whitebox, data.evaluation))})
    blackbox = build_default_ensemble(data.model_input_shape, algorithm=data.algorithm)
    with stage("calibrate"):
        cached_ensemble_calibration(
            blackbox,
            {"strategy": "percentile", "percentile": percentile},
            lambda: blackbox.calibrate(data.calibration.benign, percentile=percentile),
        )
    rows.append({"Setting": "Black-box ensemble", **metrics_row(evaluate_ensemble(blackbox, data.evaluation))})
    return ExperimentResult(
        experiment_id="T8",
        title="Decamouflage ensemble (majority vote of three methods)",
        rows=rows,
        paper_reference=[
            {"Setting": "White-box ensemble", "Acc.": "99.9%", "Prec.": "99.8%", "Rec.": "100.0%", "FAR": "0.2%", "FRR": "0.0%"},
            {"Setting": "Black-box ensemble", "Acc.": "99.8%", "Prec.": "99.8%", "Rec.": "99.9%", "FAR": "0.2%", "FRR": "0.1%"},
        ],
    )


# ---------------------------------------------------------------------------
# T9 — missed attacks lose their purpose
# ---------------------------------------------------------------------------

@experiment(
    "T9",
    title="Missed attack images lose their attack purpose",
    order=130,
)
def table9_missed_attacks(data: ExperimentData, *, seed: int | None = None) -> ExperimentResult:
    """Table 9: attack images that evade detection no longer fool a model.

    The paper submits its false-accepted attack images to Azure/Baidu/
    Tencent and finds they are not classified as the hidden target. Our
    stand-in: a CNN trained on the synthetic class task; we check whether
    the downscaled missed-attack image is classified as its target's class.
    Because this needs labelled targets, the experiment crafts its own
    small attack set from class images instead of reusing *data*'s corpora.
    """
    from repro.attacks.strong import craft_attack_image
    from repro.datasets.synthetic import generate_class_image
    from repro.errors import AttackError
    from repro.ml import build_small_cnn, evaluate_accuracy, make_classification_set, normalize_batch, train
    from repro.imaging.scaling import resize

    if seed is None:
        seed = data.seed

    h_in, w_in = data.model_input_shape
    n_classes = 10
    train_set = make_classification_set(40, image_shape=(h_in, w_in), n_classes=n_classes, seed=seed)
    model = build_small_cnn((h_in, w_in, 3), n_classes, seed=seed)
    train(model, train_set, epochs=6, seed=seed)
    test_set = make_classification_set(10, image_shape=(h_in, w_in), n_classes=n_classes, seed=seed + 1)
    clean_accuracy = evaluate_accuracy(model, test_set)

    ensemble = build_default_ensemble(data.model_input_shape, algorithm=data.algorithm)
    with stage("calibrate"):
        cached_ensemble_calibration(
            ensemble,
            {"strategy": "midpoint"},
            lambda: ensemble.calibrate(data.calibration.benign, data.calibration.attacks),
        )

    rng = np.random.default_rng(seed)
    n_attacks = min(30, data.n_calibration)
    missed, caught = 0, 0
    missed_still_target, missed_variants = 0, 0
    strengths = (1.0, 0.7, 0.5, 0.35)  # weaker variants are likelier to slip through
    for index in range(n_attacks):
        target_class = int(rng.integers(0, n_classes))
        target = generate_class_image((h_in, w_in), rng, target_class, n_classes=n_classes)
        cover = data.calibration.benign[index]
        try:
            result = craft_attack_image(cover, target, algorithm=data.algorithm)
        except AttackError:
            continue
        for strength in strengths:
            attack_image = result.original + strength * (result.attack_image - result.original)
            if ensemble.is_attack(attack_image):
                caught += 1
                continue
            missed += 1
            downscaled = resize(attack_image, data.model_input_shape, data.algorithm)
            predicted = int(model.predict(normalize_batch(downscaled[None, ...]))[0])
            missed_variants += 1
            if predicted == target_class:
                missed_still_target += 1

    still = missed_still_target / missed_variants if missed_variants else 0.0
    rows = [
        {
            "clean model acc": format_percent(clean_accuracy),
            "attack variants": len(strengths) * n_attacks,
            "caught": caught,
            "missed": missed,
            "missed still hit target": f"{missed_still_target}/{missed_variants}" if missed_variants else "0/0",
            "target-hit rate among missed": format_percent(still),
        }
    ]
    return ExperimentResult(
        experiment_id="T9",
        title="Missed attack images lose their attack purpose",
        rows=rows,
        paper_reference=[
            {"claim": "attack images that pass Decamouflage are no longer recognized as the target by Azure/Baidu/Tencent"},
        ],
        notes=(
            "Evasion requires weakening the perturbation, which also destroys "
            "the hidden target — so missed attacks rarely classify as the "
            "attacker's intended class."
        ),
    )


# ---------------------------------------------------------------------------
# appendix + ablations
# ---------------------------------------------------------------------------

@experiment(
    "AF15/AF16",
    title="PSNR as a detection metric (appendix negative result)",
    aliases=("AF15", "AF16"),
    order=140,
    kind="figure",
)
def appendix_psnr(data: ExperimentData) -> ExperimentResult:
    """Appendix Figs. 15–16: PSNR does not separate benign from attack."""
    rows = []
    references = {
        "scaling": ImageAnalysis.round_trip_key(data.model_input_shape, data.algorithm),
        "filtering": ImageAnalysis.filtered_key("minimum", 2),
    }

    def psnr_by_method(images) -> dict[str, list[float]]:
        # One shared context per image: both methods' reference images come
        # out of the same validated float view.
        scores: dict[str, list[float]] = {method: [] for method in references}
        for img in images:
            analysis = ImageAnalysis(img)
            for method, key in references.items():
                scores[method].append(psnr(img, analysis.get(key)))
        return scores

    benign_by_method = psnr_by_method(data.calibration.benign)
    attack_by_method = psnr_by_method(data.calibration.attacks)
    for method in references:
        benign = benign_by_method[method]
        attack = attack_by_method[method]
        separation = auc(benign, attack)
        overlap_lo = max(min(benign), min(attack))
        overlap_hi = min(max(benign), max(attack))
        rows.append(
            {
                "method": method,
                "benign mean dB": format_number(float(np.mean(benign))),
                "attack mean dB": format_number(float(np.mean(attack))),
                "AUC": f"{separation:.3f}",
                "overlap band dB": f"[{overlap_lo:.1f}, {overlap_hi:.1f}]",
            }
        )
    return ExperimentResult(
        experiment_id="AF15/AF16",
        title="PSNR as a detection metric (appendix negative result)",
        rows=rows,
        paper_reference=[
            {"claim": "PSNR histograms of benign and attack images highly overlap for both methods"},
        ],
        notes=(
            "PSNR is a log transform of MSE, so it *does* order populations; the "
            "paper's observation is that the histograms crowd together, making a "
            "robust fixed threshold impractical — visible here as a much narrower "
            "gap (in dB) than the raw-MSE separation."
        ),
    )


@experiment(
    "AB1",
    title="Color histogram vs Decamouflage metrics (adaptive attacker)",
    order=150,
    kind="ablation",
)
def ablation_histogram_metric(data: ExperimentData, *, n_images: int = 15) -> ExperimentResult:
    """AB1: Xiao et al.'s color-histogram defense fails (paper Section 3.1).

    Xiao et al. suggested comparing the color histogram of the input with
    its downscaled output. That check only sees *palette* changes — so an
    adaptive attacker (Quiring et al.) simply histogram-matches the hidden
    target to the cover before embedding it. We measure the histogram
    metric and Decamouflage's MSE metric against both the naive and the
    palette-matched attack: the histogram AUC collapses, MSE stays perfect.
    """
    from repro.attacks.adaptive import palette_matched_attack
    from repro.attacks.strong import craft_attack_image
    from repro.errors import AttackError
    from repro.imaging.scaling import resize

    mse_detector = ScalingDetector(data.model_input_shape, algorithm=data.algorithm, metric="mse")
    round_trip_key = ImageAnalysis.round_trip_key(data.model_input_shape, data.algorithm)

    n = min(n_images, data.n_calibration)
    # One context per image: the histogram metric and the MSE detector both
    # read the same memoized round trip.
    benign_hist: list[float] = []
    benign_mse: list[float] = []
    for img in data.calibration.benign[:n]:
        analysis = ImageAnalysis(img)
        benign_hist.append(histogram_intersection(img, analysis.get(round_trip_key)))
        benign_mse.append(mse_detector.score_from(analysis))

    def score_attacks(match_palette: bool) -> tuple[list[float], list[float]]:
        hist_scores: list[float] = []
        mse_scores: list[float] = []
        for index in range(n):
            original = data.calibration.benign[index]
            target = resize(
                data.calibration.attacks[(index + 1) % n],
                data.model_input_shape,
                data.algorithm,
            )
            craft = palette_matched_attack if match_palette else craft_attack_image
            try:
                attack = craft(original, target, algorithm=data.algorithm).attack_image
            except AttackError:
                continue
            analysis = ImageAnalysis(attack)
            hist_scores.append(histogram_intersection(attack, analysis.get(round_trip_key)))
            mse_scores.append(mse_detector.score_from(analysis))
        return hist_scores, mse_scores

    naive_hist, naive_mse = score_attacks(match_palette=False)
    matched_hist, matched_mse = score_attacks(match_palette=True)

    rows = [
        {
            "attack": "naive (different palette)",
            "histogram AUC": f"{auc(benign_hist, naive_hist):.3f}",
            "MSE AUC": f"{auc(benign_mse, naive_mse):.3f}",
        },
        {
            "attack": "palette-matched (adaptive)",
            "histogram AUC": f"{auc(benign_hist, matched_hist):.3f}",
            "MSE AUC": f"{auc(benign_mse, matched_mse):.3f}",
        },
    ]
    return ExperimentResult(
        experiment_id="AB1",
        title="Color histogram vs Decamouflage metrics (adaptive attacker)",
        rows=rows,
        paper_reference=[
            {"claim": "the color histogram is not a valid metric for detecting image-scaling attacks (Quiring et al. bypass Xiao's histogram mitigation)"},
        ],
        notes=(
            "A histogram check only notices palette changes, so matching the "
            "hidden target's palette to the cover blinds it; pixel-position "
            "metrics (MSE/SSIM) are unaffected."
        ),
    )


@experiment(
    "AB2",
    title="Adaptive attacks against the ensemble",
    order=160,
    kind="ablation",
)
def ablation_adaptive_attacks(data: ExperimentData, *, n_images: int = 12) -> ExperimentResult:
    """AB2: adaptive attacks vs individual detectors vs the ensemble.

    For each adaptive variant, measures (a) per-detector evasion, (b)
    ensemble evasion, and (c) whether the attack still delivers its hidden
    target (MSE between downscaled attack and target). Reproduces the
    Discussion-section argument: evading all three methods at once destroys
    the attack.
    """
    from repro.attacks.adaptive import (
        detector_aware_attack,
        partial_attack,
        relaxed_attack,
        smoothed_attack,
    )
    from repro.imaging.metrics import mse as mse_metric
    from repro.imaging.scaling import resize

    ensemble = build_default_ensemble(data.model_input_shape, algorithm=data.algorithm)
    with stage("calibrate"):
        cached_ensemble_calibration(
            ensemble,
            {"strategy": "midpoint"},
            lambda: ensemble.calibrate(data.calibration.benign, data.calibration.attacks),
        )

    variants = {
        "strong (baseline)": lambda o, t: partial_attack(o, t, algorithm=data.algorithm, strength=1.0),
        "partial 0.5": lambda o, t: partial_attack(o, t, algorithm=data.algorithm, strength=0.5),
        "smoothed σ=0.8": lambda o, t: smoothed_attack(o, t, algorithm=data.algorithm, sigma=0.8),
        "relaxed ε=32": lambda o, t: relaxed_attack(o, t, algorithm=data.algorithm, epsilon=32.0),
        "detector-aware w=10": lambda o, t: detector_aware_attack(
            o, t, algorithm=data.algorithm, evasion_weight=10.0
        ),
    }
    rows = []
    n = min(n_images, data.n_calibration)
    for name, attack_fn in variants.items():
        evaded = 0
        votes = {d.method: 0 for d in ensemble.detectors}
        fidelity = []
        for index in range(n):
            original = data.calibration.benign[index]
            target = resize(
                data.calibration.attacks[(index + 1) % n],
                data.model_input_shape,
                data.algorithm,
            )
            result = attack_fn(original, target)
            decision = ensemble.detect(result.attack_image)
            if not decision.is_attack:
                evaded += 1
            for det in decision.detections:
                if det.is_attack:
                    votes[det.method] += 1
            downscaled = resize(result.attack_image, data.model_input_shape, data.algorithm)
            fidelity.append(mse_metric(downscaled, result.target))
        rows.append(
            {
                "variant": name,
                "ensemble evasion": f"{evaded}/{n}",
                "caught by scaling": f"{votes['scaling']}/{n}",
                "caught by filtering": f"{votes['filtering']}/{n}",
                "caught by steganalysis": f"{votes['steganalysis']}/{n}",
                "payload MSE (lower=working attack)": format_number(float(np.mean(fidelity))),
            }
        )
    return ExperimentResult(
        experiment_id="AB2",
        title="Adaptive attacks against the ensemble",
        rows=rows,
        paper_reference=[
            {"claim": "ensemble voting hardens adaptive attacks that defeat a single method"},
        ],
    )


@experiment(
    "AB3",
    title="Prevention baselines vs detection",
    order=170,
    kind="ablation",
)
def ablation_prevention_defenses(data: ExperimentData, *, n_images: int = 20) -> ExperimentResult:
    """AB3: prevention baselines' costs vs detection (paper Section 1).

    Measures, on the calibration corpus: how well robust scaling destroys
    the payload, what it costs benign inputs (drift vs the deployed
    scaler), and the quality loss of reconstruction — the two downsides the
    Decamouflage paper cites to motivate a detection-only defense.
    """
    from repro.defenses import attack_residue, benign_drift, reconstruction_quality_loss
    from repro.imaging.scaling import resize

    n = min(n_images, data.n_calibration)
    residues, drifts, losses = [], [], []
    for index in range(n):
        attack_image = data.calibration.attacks[index]
        benign_image = data.calibration.benign[index]
        target = resize(attack_image, data.model_input_shape, data.algorithm)
        residues.append(attack_residue(attack_image, target, data.model_input_shape))
        drifts.append(
            benign_drift(benign_image, data.model_input_shape, deployed_algorithm=data.algorithm)
        )
        losses.append(
            reconstruction_quality_loss(benign_image, data.model_input_shape, algorithm=data.algorithm)
        )
    rows = [
        {"defense": "robust scaling (area)", "payload destruction MSE": format_number(float(np.mean(residues))), "benign cost": f"drift MSE {format_number(float(np.mean(drifts)))}"},
        {"defense": "reconstruction (median)", "payload destruction MSE": "n/a (prevents injection)", "benign cost": f"quality loss MSE {format_number(float(np.mean(losses)))}"},
        {"defense": "Decamouflage (detection)", "payload destruction MSE": "n/a (rejects image)", "benign cost": "none (no pixel modified)"},
    ]
    return ExperimentResult(
        experiment_id="AB3",
        title="Prevention baselines vs detection",
        rows=rows,
        paper_reference=[
            {"claim": "prevention degrades input quality / changes scaler behaviour; detection leaves benign inputs untouched"},
        ],
    )


@experiment(
    "AB4",
    title="Robustness of the ensemble to benign post-processing",
    order=180,
    kind="ablation",
)
def ablation_benign_transforms(data: ExperimentData, *, n_images: int = 15) -> ExperimentResult:
    """AB4: robustness to benign post-processing.

    Applies common benign transforms (brightness, contrast, noise,
    re-quantization, flips) to *benign* and *attack* images and measures
    how the calibrated ensemble's verdicts change. Deployment question:
    do ordinary pipeline steps cause false alarms, and do attacks stay
    detectable after them?
    """
    from repro.imaging import transforms as tf

    ensemble = build_default_ensemble(data.model_input_shape, algorithm=data.algorithm)
    with stage("calibrate"):
        cached_ensemble_calibration(
            ensemble,
            {"strategy": "midpoint"},
            lambda: ensemble.calibrate(data.calibration.benign, data.calibration.attacks),
        )

    operations = {
        "identity": lambda img: np.asarray(img, dtype=np.float64),
        "brightness +20": lambda img: tf.adjust_brightness(img, 20.0),
        "contrast x1.2": lambda img: tf.adjust_contrast(img, 1.2),
        "noise sigma=2": lambda img: tf.add_gaussian_noise(img, 2.0, seed=5),
        "quantize 64": lambda img: tf.quantize(img, 64),
        "flip horizontal": tf.flip_horizontal,
    }
    n = min(n_images, data.n_evaluation)
    rows = []
    for name, operation in operations.items():
        benign_flags = [
            ensemble.is_attack(operation(img)) for img in data.evaluation.benign[:n]
        ]
        attack_flags = [
            ensemble.is_attack(operation(img)) for img in data.evaluation.attacks[:n]
        ]
        counts = evaluate_decisions(benign_flags, attack_flags)
        rows.append(
            {
                "transform": name,
                "benign false alarms": f"{sum(benign_flags)}/{n}",
                "attacks still flagged": f"{sum(attack_flags)}/{n}",
                "accuracy": format_percent(counts.accuracy),
            }
        )
    return ExperimentResult(
        experiment_id="AB4",
        title="Robustness of the ensemble to benign post-processing",
        rows=rows,
        paper_reference=[
            {"claim": "(deployment-hardening ablation beyond the paper's tables)"},
        ],
        notes=(
            "Photometric transforms barely move the scores; flips relocate "
            "but do not remove the perturbation grid, so detection holds."
        ),
    )


@experiment(
    "AB6",
    title="JPEG re-encoding as a candidate defense",
    order=200,
    kind="ablation",
)
def ablation_jpeg_reencoding(data: ExperimentData, *, n_images: int = 12) -> ExperimentResult:
    """AB6: is "just recompress uploads" a defense? (it is not a reliable one)

    For each JPEG quality: does the hidden payload survive re-encoding
    (MSE between the downscaled recompressed attack and the target,
    relative to a benign baseline), and does the ensemble still flag the
    recompressed images? High-quality JPEG leaves the attack intact;
    aggressive compression degrades benign inputs too — while detection
    keeps working across the whole range.
    """
    from repro.imaging.jpeg import jpeg_roundtrip
    from repro.imaging.metrics import mse as mse_metric
    from repro.imaging.scaling import resize

    ensemble = build_default_ensemble(data.model_input_shape, algorithm=data.algorithm)
    with stage("calibrate"):
        cached_ensemble_calibration(
            ensemble,
            {"strategy": "midpoint"},
            lambda: ensemble.calibrate(data.calibration.benign, data.calibration.attacks),
        )

    n = min(n_images, data.n_evaluation)
    benign_ref = float(
        np.mean(
            [
                mse_metric(
                    resize(data.evaluation.benign[i], data.model_input_shape, data.algorithm),
                    resize(data.evaluation.attacks[i], data.model_input_shape, data.algorithm),
                )
                for i in range(n)
            ]
        )
    )
    rows = []
    for quality, subsample in ((95, False), (95, True), (85, True), (60, True)):
        payload_errors = []
        flagged = 0
        benign_quality_loss = []
        for index in range(n):
            attack = data.evaluation.attacks[index]
            target = resize(attack, data.model_input_shape, data.algorithm)
            recompressed = jpeg_roundtrip(attack, quality, subsample_chroma=subsample)
            payload_errors.append(
                mse_metric(resize(recompressed, data.model_input_shape, data.algorithm), target)
            )
            flagged += ensemble.is_attack(recompressed)
            benign = data.evaluation.benign[index]
            benign_quality_loss.append(
                mse_metric(benign, jpeg_roundtrip(benign, quality, subsample_chroma=subsample))
            )
        rows.append(
            {
                "quality": f"q{quality}" + (" 4:2:0" if subsample else " 4:4:4"),
                "payload survival (MSE vs target, lower=intact)": format_number(float(np.mean(payload_errors))),
                "unrelated-image baseline": format_number(benign_ref),
                "still flagged": f"{flagged}/{n}",
                "benign quality cost (MSE)": format_number(float(np.mean(benign_quality_loss))),
            }
        )
    return ExperimentResult(
        experiment_id="AB6",
        title="JPEG re-encoding as a candidate defense",
        rows=rows,
        paper_reference=[
            {"claim": "(beyond the paper: quantifies why lossy re-encoding is not a substitute for detection)"},
        ],
        notes=(
            "Payload survival well below the unrelated-image baseline means "
            "the model still sees the attacker's target after re-encoding; "
            "detection keeps flagging the images at every quality."
        ),
    )


@experiment(
    "AB5",
    title="Attack surface and detectability vs ratio and algorithm",
    order=190,
    kind="ablation",
)
def ablation_surface_sweep(data: ExperimentData, *, n_images: int = 8) -> ExperimentResult:
    """AB5: attack surface and detectability across ratios and algorithms.

    For each (downscale ratio, algorithm) pair: the structural exposure
    (influential-pixel fraction from the coefficient matrices), attack
    feasibility (perturbation MSE), and the scaling detector's separation
    (AUC). Ties the paper's background analysis (Table 1, Section 2) to
    measured attack/defense outcomes in one table.
    """
    from repro.attacks.analysis import analyze_surface
    from repro.attacks.strong import craft_attack_image
    from repro.errors import AttackError
    from repro.imaging.metrics import mse as mse_metric
    from repro.imaging.scaling import resize

    h, w = data.source_shape
    n = min(n_images, data.n_calibration)
    rows = []
    for ratio in (2, 4, 8):
        target_shape = (h // ratio, w // ratio)
        for algorithm in ("nearest", "bilinear", "bicubic", "area"):
            report = analyze_surface(data.source_shape, target_shape, algorithm)
            detector = ScalingDetector(target_shape, algorithm=algorithm, metric="mse")
            perturbations = []
            benign_scores = []
            attack_scores = []
            for index in range(n):
                original = data.calibration.benign[index]
                target = resize(
                    data.calibration.attacks[(index + 1) % n], target_shape, algorithm
                )
                benign_scores.append(detector.score(original))
                try:
                    attack = craft_attack_image(original, target, algorithm=algorithm)
                except AttackError:
                    continue
                perturbations.append(
                    mse_metric(attack.attack_image, np.asarray(original, dtype=float))
                )
                attack_scores.append(detector.score(attack.attack_image))
            feasible = len(perturbations)
            rows.append(
                {
                    "ratio": f"{ratio}x",
                    "algorithm": algorithm,
                    "influential pixels": format_percent(report.influential_fraction),
                    "attacks feasible": f"{feasible}/{n}",
                    "perturbation MSE": format_number(float(np.mean(perturbations))) if feasible else "-",
                    "detector AUC": f"{auc(benign_scores, attack_scores):.2f}" if feasible else "-",
                }
            )
    return ExperimentResult(
        experiment_id="AB5",
        title="Attack surface and detectability vs ratio and algorithm",
        rows=rows,
        paper_reference=[
            {"claim": "sparser scaling (higher ratio, narrower kernel) = stealthier attack; area scaling closes the surface (Section 2 / Quiring et al.)"},
        ],
        notes=(
            "Higher ratios shrink the perturbation (stealthier attack) while "
            "the scaling detector's AUC stays at 1.0; area averaging reads "
            "every pixel, so the optimizer must distort the whole image — "
            "the attack stops being an attack."
        ),
    )
