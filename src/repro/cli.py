"""Command-line interface: ``decamouflage`` / ``python -m repro``.

Subcommands:

* ``scan DIR`` — scan a directory of PNG/PPM/PGM images for image-scaling
  attacks with the default ensemble (black-box calibrated on a synthetic
  hold-out by default, or on ``--holdout DIR`` of known-benign images).
* ``craft`` — craft an attack image from an original and a target (for
  red-team testing and demos).
* ``analyze`` — rate a scaling configuration's attack surface.
* ``serve`` — run the HTTP detection service (see ``docs/serving.md``).
  Its speed is measured from outside by ``benchmarks/perf`` (see that
  directory's ``README.md``).
* ``report`` — run the experiment suite and print every table/figure.
* ``exp`` — registry-driven orchestration: ``exp list`` prints every
  registered experiment; ``exp run T2 T8 --jobs 4 --cache-dir .cache``
  runs any subset through the :class:`~repro.eval.mediator
  .ExperimentMediator` with content-addressed caching and resume.

Exit status for ``scan``: 0 = clean, 1 = at least one attack flagged,
2 = usage/IO error. Every command exits 2 with a one-line ``error:``
message on a :class:`~repro.errors.ReproError` (unknown experiment id,
unwritable cache dir, bad input file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core.ensemble import build_default_ensemble
from repro.datasets.corpus import neurips_like_corpus
from repro.errors import ReproError
from repro.imaging.png import read_png, write_png
from repro.imaging.ppm import read_ppm, write_ppm

__all__ = ["main", "build_parser"]

_READERS = {".png": read_png, ".ppm": read_ppm, ".pgm": read_ppm}


def _read_image(path: Path) -> np.ndarray:
    reader = _READERS.get(path.suffix.lower())
    if reader is None:
        raise ReproError(f"{path}: unsupported extension (expected .png/.ppm/.pgm)")
    try:
        return reader(path)
    except OSError as exc:
        # Unreadable file (permissions, dangling symlink, directory named
        # like an image): a clean CLI error, not a traceback.
        raise ReproError(f"{path}: cannot read file ({exc})") from exc


def _write_image(path: Path, image: np.ndarray) -> None:
    if path.suffix.lower() == ".png":
        write_png(path, image)
    elif path.suffix.lower() in (".ppm", ".pgm"):
        write_ppm(path, image)
    else:
        raise ReproError(f"{path}: unsupported output extension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decamouflage",
        description="Detect image-scaling attacks on CNN preprocessing pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan a directory (or one file) for attacks")
    scan.add_argument("directory", type=Path,
                      help="directory of .png/.ppm/.pgm images, or one image file")
    scan.add_argument("--input-size", type=int, nargs=2, default=(32, 32), metavar=("H", "W"),
                      help="the protected model's input size (default 32 32)")
    scan.add_argument("--algorithm", default="bilinear",
                      help="scaling algorithm the serving pipeline uses")
    scan.add_argument("--holdout", type=Path, default=None,
                      help="directory of known-benign images for black-box calibration "
                           "(default: synthetic hold-out corpus)")
    scan.add_argument("--percentile", type=float, default=1.0,
                      help="benign percentile sacrificed for the black-box threshold")
    scan.add_argument("--verbose", action="store_true", help="print per-method votes")
    scan.add_argument("--workers", type=int, default=1,
                      help="scan files on a thread pool (offline curation of large pools)")

    craft = sub.add_parser("craft", help="craft an attack image (red-team utility)")
    craft.add_argument("original", type=Path)
    craft.add_argument("target", type=Path)
    craft.add_argument("output", type=Path)
    craft.add_argument("--input-size", type=int, nargs=2, default=(32, 32), metavar=("H", "W"))
    craft.add_argument("--algorithm", default="bilinear")
    craft.add_argument("--epsilon", type=float, default=4.0)

    analyze = sub.add_parser(
        "analyze", help="rate a scaling configuration's attack surface"
    )
    analyze.add_argument("--source-size", type=int, nargs=2, required=True, metavar=("H", "W"),
                         help="incoming image size, e.g. 800 600")
    analyze.add_argument("--input-size", type=int, nargs=2, default=(224, 224), metavar=("H", "W"),
                         help="the model's input size (default 224 224)")
    analyze.add_argument("--algorithm", default="bilinear")
    analyze.add_argument("--map", type=Path, default=None,
                         help="write the vulnerability map as a PNG heat image")

    serve = sub.add_parser(
        "serve", help="run the HTTP detection service (see docs/serving.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 binds an ephemeral port (printed at startup)")
    serve.add_argument("--input-size", type=int, nargs=2, default=(32, 32), metavar=("H", "W"),
                       help="the protected model's input size (default 32 32)")
    serve.add_argument("--algorithm", default="bilinear",
                       help="scaling algorithm the serving pipeline uses")
    serve.add_argument("--holdout", type=Path, default=None,
                       help="directory of known-benign images for calibration "
                            "(default: synthetic hold-out corpus)")
    serve.add_argument("--percentile", type=float, default=1.0,
                       help="benign percentile sacrificed for the threshold")
    serve.add_argument("--policy", choices=["reject", "quarantine", "sanitize"],
                       default="reject", help="response policy for flagged inputs")
    serve.add_argument("--audit-log", type=Path, default=None,
                       help="JSONL decision log path (enables auditing)")
    serve.add_argument("--quarantine-dir", type=Path, default=None,
                       help="where the quarantine policy stores flagged images")
    serve.add_argument("--audit-max-bytes", type=int, default=None,
                       help="rotate the audit log before exceeding this size")
    serve.add_argument("--max-active", type=int, default=4,
                       help="requests scored concurrently")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="admission waiting room; beyond it requests get 429")
    serve.add_argument("--deadline-ms", type=float, default=2000.0,
                       help="max wait in the admission queue before 503")
    serve.add_argument("--workers", type=int, default=0,
                       help="scoring shard processes (0 = score in-process); "
                            "shards respawn automatically on crash")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request")

    report = sub.add_parser("report", help="run the paper-reproduction experiment suite")
    report.add_argument("--images", type=int, default=60,
                        help="corpus size per role (paper uses 1000; default 60)")
    report.add_argument("--only", nargs="*", default=None,
                        help="experiment ids to run (e.g. T2 T8)")

    figures = sub.add_parser("figures", help="render every paper figure as a PNG")
    figures.add_argument("output_dir", type=Path)
    figures.add_argument("--images", type=int, default=30,
                         help="corpus size used to compute the figures (default 30)")

    exp = sub.add_parser("exp", help="registry-driven experiment orchestration")
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)
    exp_sub.add_parser("list", help="print every registered experiment")
    exp_run = exp_sub.add_parser(
        "run", help="run experiments through the mediator (cache, resume, fan-out)"
    )
    exp_run.add_argument("experiments", nargs="+", metavar="ID",
                         help="experiment ids or aliases (e.g. T2 T8 F9)")
    exp_run.add_argument("--images", type=int, default=None,
                         help="corpus size per role (sets both counts below)")
    exp_run.add_argument("--calibration", type=int, default=100,
                         help="calibration corpus size (default 100)")
    exp_run.add_argument("--evaluation", type=int, default=100,
                         help="evaluation corpus size (default 100)")
    exp_run.add_argument("--source-size", type=int, nargs=2, default=None,
                         metavar=("H", "W"), help="source image size")
    exp_run.add_argument("--input-size", type=int, nargs=2, default=None,
                         metavar=("H", "W"), help="model input size")
    exp_run.add_argument("--algorithm", default="bilinear",
                         help="scaling algorithm under attack")
    exp_run.add_argument("--epsilon", type=float, default=4.0,
                         help="attack crafting budget")
    exp_run.add_argument("--seed", type=int, default=0,
                         help="RNG seed threaded through corpora and runners")
    exp_run.add_argument("--jobs", type=int, default=1,
                         help="process fan-out across experiment cells")
    exp_run.add_argument("--cache-dir", type=Path, default=None,
                         help="content-addressed cache for attack sets and "
                              "calibration artifacts")
    exp_run.add_argument("--manifest", type=Path, default=None,
                         help="JSONL run manifest; rerunning with the same "
                              "manifest resumes where a killed run stopped")
    exp_run.add_argument("--out", type=Path, default=None,
                         help="directory for one result text file per experiment")
    exp_run.add_argument("--timings", action="store_true",
                         help="print per-stage wall times per experiment")
    return parser


def _load_holdout(args: argparse.Namespace) -> list[np.ndarray]:
    """The calibration hold-out for scan/serve: ``--holdout DIR`` or the
    synthetic corpus. Raises :class:`ReproError` on an unusable holdout."""
    if args.holdout is None:
        return neurips_like_corpus(50, name="cli-holdout").materialize()
    from repro.datasets.files import load_directory

    holdout = load_directory(args.holdout)
    if len(holdout) < 20:
        raise ReproError(
            f"holdout needs >= 20 benign images, found {len(holdout)}"
        )
    return holdout


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.directory.is_dir():
        paths = sorted(
            p for p in args.directory.iterdir()
            if p.suffix.lower() in _READERS
        )
        if not paths:
            print(f"no scannable images in {args.directory}", file=sys.stderr)
            return 2
    else:
        # A single file: scan just it, and make decode failures fatal —
        # the user named this exact path, so a silent SKIP would lie.
        _read_image(args.directory)  # raises ReproError with the reason
        paths = [args.directory]

    ensemble = build_default_ensemble(tuple(args.input_size), algorithm=args.algorithm)
    ensemble.calibrate(_load_holdout(args), percentile=args.percentile)

    def scan_one(path):
        try:
            image = _read_image(path)
        except ReproError as exc:
            return path, None, exc
        return path, ensemble.detect(image), None

    if args.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(scan_one, paths))
    else:
        results = [scan_one(path) for path in paths]

    flagged = 0
    scanned = 0
    for path, decision, error in results:
        if error is not None:
            print(f"SKIP  {path.name}: {error}", file=sys.stderr)
            continue
        scanned += 1
        verdict = "ATTACK" if decision.is_attack else "ok"
        print(f"{verdict:6s}  {path.name}  ({decision.votes_for_attack}/{decision.votes_total} votes)")
        if args.verbose:
            for det in decision.detections:
                print(f"        {det.method}/{det.metric}: {det.score:.4g} "
                      f"[{det.threshold.describe(det.metric)}]")
        flagged += int(decision.is_attack)
    print(f"scanned {scanned} image(s); flagged {flagged}")
    return 1 if flagged else 0


def _cmd_craft(args: argparse.Namespace) -> int:
    from repro.attacks.base import AttackConfig, verify_attack
    from repro.attacks.strong import craft_attack_image
    from repro.imaging.scaling import resize

    original = _read_image(args.original)
    target = _read_image(args.target)
    shape = tuple(args.input_size)
    if target.shape[:2] != shape:
        target = resize(target, shape, args.algorithm)
    result = craft_attack_image(
        original, target, algorithm=args.algorithm,
        config=AttackConfig(epsilon=args.epsilon),
    )
    report = verify_attack(result)
    _write_image(args.output, result.attack_image)
    print(f"wrote {args.output}")
    print(f"  target linf error : {report.target_linf:.2f} (ε={args.epsilon})")
    print(f"  perturbation MSE  : {report.perturbation_mse:.1f}")
    print(f"  perturbation SSIM : {report.perturbation_ssim:.3f}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.attacks.analysis import analyze_surface, vulnerability_map

    report = analyze_surface(
        tuple(args.source_size), tuple(args.input_size), args.algorithm
    )
    print(report.describe())
    if args.map is not None:
        heat = vulnerability_map(
            tuple(args.source_size), tuple(args.input_size), args.algorithm
        )
        peak = heat.max() or 1.0
        _write_image(args.map, (heat / peak * 255.0))
        print(f"vulnerability map written to {args.map}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.audit import AuditLog
    from repro.serving.pipeline import ProtectedPipeline
    from repro.serving.policy import Policy
    from repro.serving.server import DetectionServer, ServerConfig

    audit_log = None
    if args.audit_log is not None or args.quarantine_dir is not None:
        if args.audit_log is None:
            raise ReproError("--quarantine-dir requires --audit-log")
        audit_log = AuditLog(
            args.audit_log,
            quarantine_dir=args.quarantine_dir,
            max_bytes=args.audit_max_bytes,
        )
    pipeline = ProtectedPipeline(
        tuple(args.input_size),
        algorithm=args.algorithm,
        policy=Policy(args.policy),
        audit_log=audit_log,
    )
    holdout = _load_holdout(args)
    print(f"calibrating on {len(holdout)} benign images ...", flush=True)
    pipeline.calibrate(holdout, percentile=args.percentile)

    server = DetectionServer(
        pipeline,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_active=args.max_active,
            queue_depth=args.queue_depth,
            deadline_ms=args.deadline_ms,
            verbose=args.verbose,
            workers=args.workers,
        ),
    )
    server.install_signal_handlers()
    server.ensure_workers()
    host, port = server.address
    print(f"serving on http://{host}:{port} (SIGTERM/Ctrl-C drains gracefully)",
          flush=True)
    if server.worker_pool is not None:
        pids = server.worker_pool.pids()
        print("workers: "
              + " ".join(f"{wid}={pid}" for wid, pid in pids.items()),
              flush=True)
    try:
        server.serve_forever()
    finally:
        # Reached after a signal-triggered drain stopped the accept loop
        # (or on an unexpected error): make sure the drain fully finishes
        # — in-flight requests done, audit log flushed — before exiting.
        server.shutdown()
        print("drained; audit log flushed", flush=True)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import render_report, run_all_experiments

    results = run_all_experiments(
        n_calibration=args.images, n_evaluation=args.images, only=args.only
    )
    print(render_report(results))
    return 0


def _cmd_exp(args: argparse.Namespace) -> int:
    from repro.eval.mediator import ExperimentMediator

    if args.exp_command == "list":
        for spec in ExperimentMediator.available():
            alias_note = f"  (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
            report_note = "" if spec.in_report else "  [not in report]"
            print(f"{spec.experiment_id:10s} {spec.kind:8s} {spec.title}"
                  f"{alias_note}{report_note}")
        return 0

    config_fields = {
        "n_calibration": args.images if args.images is not None else args.calibration,
        "n_evaluation": args.images if args.images is not None else args.evaluation,
        "algorithm": args.algorithm,
        "epsilon": args.epsilon,
        "seed": args.seed,
    }
    if args.source_size is not None:
        config_fields["source_shape"] = tuple(args.source_size)
    if args.input_size is not None:
        config_fields["model_input_shape"] = tuple(args.input_size)
    mediator = ExperimentMediator.setup(
        cache_dir=args.cache_dir,
        manifest=args.manifest,
        jobs=args.jobs,
        **config_fields,
    )
    results = mediator.run(args.experiments)
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReproError(f"output dir {args.out} is not writable ({exc})") from exc
    for result in results:
        print(result.to_text())
        print()
        if args.timings and result.timings:
            ordered = ", ".join(
                f"{name}={seconds:.3f}s" for name, seconds in sorted(result.timings.items())
            )
            print(f"timings [{result.experiment_id}]: {ordered}")
            print()
        if args.out is not None:
            name = result.experiment_id.replace("/", "_")
            (args.out / f"{name}.txt").write_text(result.to_text() + "\n",
                                                  encoding="utf-8")
    stats = mediator.cache_stats()
    if stats is not None:
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({stats['hit_rate']:.1%} hit rate)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.eval.data import prepare_data
    from repro.eval.figures import render_all_figures

    data = prepare_data(args.images, args.images)
    paths = render_all_figures(data, args.output_dir)
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "craft":
            return _cmd_craft(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "exp":
            return _cmd_exp(args)
        return _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
