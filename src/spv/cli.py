"""Command line interface.

Subcommands: ``exemplars`` (pose clustering), ``build`` (dictionary
construction), ``classify`` (probe decisions to CSV), ``bench`` (synthetic
benchmark runs to a report), and ``metrics`` (recompute metrics from a
scores CSV). Exit codes: 0 success, 1 usage error, 2 data error, 3 a
solver failed to converge (outputs are still written).

Matrix inputs load their metadata from a ``<path>.meta.json`` sidecar.
Solver parameters come from an optional JSON config file mirroring the
model configuration, with command line flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import dictionaries, exemplars, experiment
from .benchmark import BenchmarkSpec, generate_benchmark
from .classifier import classify
from .matrixio import (
    DataError,
    ModelConfig,
    load_matrix,
    load_metadata,
    json_value,
    metadata_from_dict,
    read_json,
)
from .metrics import aupr, pauc20, pr_curve, roc_curve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_CONFIG_FLAGS = {
    "lam": ("--lambda", dict(type=float, help="l1 weight on gallery coefficients")),
    "mu": ("--mu", dict(type=float, help="variational penalty weight")),
    "tau": ("--tau", dict(type=float, help="l1/l2 mix in the variational penalty")),
    "xi": ("--xi", dict(type=int, help="active set budget")),
    "eta": ("--eta", dict(type=float, help="row-sparsity weight")),
    "row_norm_q": ("--q-norm", dict(type=float, choices=[2, math.inf], help="row norm order")),
    "sci_threshold": ("--sci-threshold", dict(type=float, help="rejection threshold")),
    "tol": ("--tol", dict(type=float, help="solver tolerance")),
    "max_iter": ("--max-iter", dict(type=int, help="solver iteration cap")),
    "seed": ("--seed", dict(type=int, help="master seed")),
}


def _add_config_flags(parser, *names):
    """--config plus the flags of the ModelConfig fields this subcommand reads."""
    parser.add_argument("--config", help="JSON config file mirroring the model parameters")
    for name in names:
        flag, kwargs = _CONFIG_FLAGS[name]
        parser.add_argument(flag, dest=name, **kwargs)


def _config_from_args(args) -> ModelConfig:
    config = ModelConfig.from_json(args.config) if args.config else ModelConfig()
    return config.override(**{name: getattr(args, name, None) for name in _CONFIG_FLAGS})


def _load_matrix_with_meta(path):
    """A matrix, its sidecar metadata and the sidecar's parsed JSON object."""
    matrix = load_matrix(path)
    sidecar = f"{path}.meta.json"
    raw = read_json(sidecar, "metadata")
    return matrix, metadata_from_dict(raw, sidecar, matrix.n_samples), raw


def _cmd_exemplars(args) -> int:
    config = _config_from_args(args)
    meta = load_metadata(args.meta)
    d = exemplars.pose_dissimilarities(meta)
    # Explicit flags win; otherwise the exemplar solver keeps its own
    # defaults rather than the probe-solver settings.
    tol = args.tol if args.tol is not None else exemplars.DEFAULT_TOL
    max_iter = args.max_iter if args.max_iter is not None else exemplars.DEFAULT_MAX_ITER
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z = exemplars.select_exemplars(
            d, config.eta, config.row_norm_q, tol=tol, max_iter=max_iter
        )
    clustering = exemplars.extract_clustering(z, d, meta)
    exemplars.save_clustering(clustering, args.out)
    print(f"selected {clustering.q} exemplars over {d.n} samples -> {args.out}")
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return EXIT_OK if z.converged else EXIT_NO_CONVERGENCE


def _make_synthesizer(spec: str, dim: int, seed: int, warp: float):
    if spec == "toy":
        return dictionaries.ToySynthesizer(dim, seed=seed, warp_strength=warp)
    if spec == "identity":
        return dictionaries.IdentitySynthesizer()
    if spec.startswith("import:"):
        return dictionaries.ImportedSynthesizer(spec.split(":", 1)[1])
    raise DataError(f"unknown synthesizer {spec!r} (use toy, identity, import:<dir>)")


def _cmd_build(args) -> int:
    config = _config_from_args(args)
    stills, stills_meta, _ = _load_matrix_with_meta(args.stills)
    generic, generic_meta, generic_raw = _load_matrix_with_meta(args.generic)
    clustering = exemplars.load_clustering(args.clustering)
    synth = _make_synthesizer(args.synth, stills.dim, config.seed, args.warp_strength)
    gallery = dictionaries.build_augmented_gallery(stills, stills_meta, clustering, synth)
    dictionaries.save_gallery(gallery, args.out_gallery)
    marks = None
    if args.natural == "labeled":
        marks = json_value(generic_raw, "natural", f"{args.generic}.meta.json", 1, integer=True)
    variational = dictionaries.build_variational_dictionary(
        generic, generic_meta, clustering, natural_marks=marks
    )
    dictionaries.save_variational(variational, args.out_variational)
    print(
        f"gallery: {gallery.matrix.shape[1]} atoms ({gallery.k} classes, q={gallery.q}) "
        f"-> {args.out_gallery}"
    )
    print(
        f"variational: {variational.n_atoms} atoms in {variational.q} blocks "
        f"-> {args.out_variational}"
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    config = _config_from_args(args)
    probes = load_matrix(args.probes)
    gallery = dictionaries.load_gallery(args.gallery)
    variational = (
        dictionaries.load_variational(args.variational) if args.variational else None
    )
    class_ids = sorted(int(c) for c in set(gallery.classes))
    header = ["probe_id", "predicted", "sci", "accepted", "converged", "iterations",
              "optimality"] + [f"r_{c}" for c in class_ids]
    rows = [",".join(header)]
    failed = {}
    for j in range(probes.n_samples):
        decision = classify(args.method, gallery, variational, probes.column(j), config)
        code = decision.code
        cells = [str(j), str(decision.predicted), f"{decision.sci:.6f}",
                 "1" if decision.accepted else "0"]
        # A method that codes nothing leaves the solve's columns empty.
        cells += ["", "", ""] if code is None else [
            "1" if code.converged else "0", str(code.iterations), f"{code.optimality:.6g}"
        ]
        if code is not None and not code.converged:
            failed[j] = code.optimality
        cells += [f"{decision.residual_of(c):.9g}" for c in class_ids]
        rows.append(",".join(cells))
    Path(args.out).write_text("\n".join(rows) + "\n")
    print(f"classified {probes.n_samples} probes -> {args.out}")
    if failed:
        print(
            f"warning: {len(failed)} probe solves did not converge (probes "
            f"{', '.join(map(str, failed))}; largest optimality residual "
            f"{max(failed.values()):.2g})",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _config_from_args(args)
    spec = BenchmarkSpec.from_json(args.spec) if args.spec else BenchmarkSpec()
    bundle = generate_benchmark(spec)
    methods = [m for m in args.methods.split(",") if m]
    result = experiment.run_experiment(
        bundle,
        methods=methods,
        config=config,
        n_runs=args.runs,
        n_views=args.views,
        score_mode="sci_gated" if args.sci_gated else "residual",
        pooling="macro" if args.macro else "pooled",
    )
    experiment.emit_report(
        result.reports, args.out, format=args.format, include_timing=args.timing
    )
    for name in sorted(result.reports):
        report = result.reports[name]
        print(
            f"{name:12s} pAUC20 {report.pauc20:.3f} +- {report.pauc20_std:.3f}   "
            f"AUPR {report.aupr:.3f} +- {report.aupr_std:.3f}"
        )
    print(f"report -> {args.out}")
    if result.non_converged:
        counts = ", ".join(
            f"{name} {result.reports[name].non_converged}" for name in sorted(result.reports)
        )
        print(
            f"warning: {result.non_converged} probe solves did not converge ({counts})",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_metrics(args) -> int:
    path = Path(args.scores)
    if not path.exists():
        raise DataError(f"scores file not found: {path}")
    scores, labels = [], []
    truthy = {"1", "true", "genuine", "yes"}
    falsy = {"0", "false", "impostor", "no"}
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            rows.append((lineno, [c.strip() for c in text.split(",")]))
    # An optional header is the first row that is not a comment.
    if rows and rows[0][1][:2] == ["score", "label"]:
        rows = rows[1:]
    for lineno, cells in rows:
        if len(cells) < 2:
            raise DataError(f"{path}: row {lineno} needs 'score,label'")
        try:
            scores.append(float(cells[0]))
        except ValueError as exc:
            raise DataError(f"{path}: bad score at row {lineno}") from exc
        flag = cells[1].lower()
        if flag in truthy:
            labels.append(True)
        elif flag in falsy:
            labels.append(False)
        else:
            raise DataError(f"{path}: bad label {cells[1]!r} at row {lineno}")
    roc = roc_curve(scores, labels)
    pr = pr_curve(scores, labels)
    payload = {
        "n": len(scores),
        "pauc20": pauc20(roc),
        "aupr": aupr(pr),
        "roc": [[f, t] for f, t in roc],
        "pr": [[r, p] for r, p in pr],
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"metrics -> {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="spv", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("exemplars", help="select pose exemplars from sample metadata")
    p.add_argument("--meta", required=True, help="metadata JSON with pose triples")
    p.add_argument("--out", required=True, help="clustering JSON output")
    _add_config_flags(p, "eta", "row_norm_q", "tol", "max_iter")
    p.set_defaults(func=_cmd_exemplars)

    p = sub.add_parser("build", help="build the augmented gallery and variational dictionary")
    p.add_argument("--stills", required=True, help="reference stills matrix")
    p.add_argument("--generic", required=True, help="generic set matrix")
    p.add_argument("--clustering", required=True, help="clustering JSON from 'exemplars'")
    p.add_argument("--synth", default="toy", help="toy | identity | import:<dir>")
    p.add_argument("--warp-strength", type=float, default=1.0)
    p.add_argument("--natural", choices=["frontal", "labeled"], default="frontal")
    p.add_argument("--out-gallery", required=True)
    p.add_argument("--out-variational", required=True)
    _add_config_flags(p, "seed")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("classify", help="classify probe columns and write a decision CSV")
    p.add_argument("--gallery", required=True)
    p.add_argument("--variational", default=None)
    p.add_argument("--probes", required=True)
    p.add_argument("--method", choices=["src", "esrc", "spv"], default="spv")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "lam", "mu", "tau", "xi", "sci_threshold", "tol", "max_iter")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bench", help="run the synthetic benchmark and write a report")
    p.add_argument("--spec", default=None, help="benchmark spec JSON (defaults used if omitted)")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--methods", default="src,esrc,spv,nn")
    p.add_argument("--views", type=int, default=None, help="force the pipeline cluster count")
    p.add_argument("--sci-gated", action="store_true", help="gate scores on SCI acceptance")
    p.add_argument("--macro", action="store_true", help="per-identity macro averaging")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    p.add_argument("--out", required=True)
    _add_config_flags(
        p, "lam", "mu", "tau", "xi", "row_norm_q", "sci_threshold", "tol", "max_iter", "seed"
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("metrics", help="recompute ROC/PR metrics from a scores CSV")
    p.add_argument("--scores", required=True, help="CSV with 'score,label' rows")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            # Each non-converged probe solve warns; the subcommand's own
            # summary already names them.
            warnings.filterwarnings("ignore", "extended solve did not reach tol", RuntimeWarning)
            return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
