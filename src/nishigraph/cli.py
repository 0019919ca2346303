"""Command-line surface: deterministic, file-based workflows over the library.

Subcommands: lift, cycles, ts-table, beta, zeta, embed, classify, ensemble,
pipeline.  All machine-readable output is JSON (tabular data as CSV); every
command is deterministic given its inputs and --seed.
"""

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import qc, trapping, zeta as zeta_mod
from .classify import (EnsembleConfig, accuracy, per_class_metrics,
                       predict_labels, train_linear)
from .embed import (Embedding, FeatureTable, _label, similarity_graph,
                    spectral_embed, synthetic_features)
from .estimator import (EstimatorConfig, UnweightedSystem, WeightedSystem,
                        bisection_baseline, estimate_beta_N)
from .pipeline import (confusion_to_csv, evaluate_ensemble, metrics_table,
                       run_pipeline, stratified_split)
from .rbim import CouplingGraph
from .sparse import (SparseSym, _read_text, read_matrix_market,
                     write_matrix_market)

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "reference_panel.json")
# embed's root tolerance when --beta-lower and --beta-upper are given
_EMBED_EPS = 1e-6


def _out_path(args, name):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True, default=_json_default))


def _json_default(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _degree_hist(degrees):
    return {str(k): v for k, v in sorted(Counter(map(int, degrees)).items())}


def _girth(proto):
    """The lift's girth, None for a forest, from the protograph walk DP
    (closing lengths up to the 12-cycle cap, min_girth 8 + 4, then a BFS
    on the lift)."""
    gir = qc._score_lift(proto, 8)[0]
    return None if math.isinf(gir) else gir


def cmd_lift(args):
    proto = qc.read_exponent_file(args.file)
    g = qc.lift(proto)
    A, D = qc.bipartite_adjacency(g)
    write_matrix_market(A, _out_path(args, "A.mtx"))
    write_matrix_market(D, _out_path(args, "D.mtx"))
    _emit({
        "n_checks": g.n_checks,
        "n_vars": g.n_vars,
        "n_edges": len(g.edges),
        "family": proto.family,
        "girth": _girth(proto),
        "check_degree_hist": _degree_hist(g.check_degrees()),
        "var_degree_hist": _degree_hist(g.var_degrees()),
    })
    return 0


def cmd_cycles(args):
    proto = qc.read_exponent_file(args.file)
    g = qc.lift(proto)
    cycles = qc.enumerate_cycles(g, args.max_len)
    by_len = {}
    ace_hist = {}
    for c in cycles:
        by_len[c.length] = by_len.get(c.length, 0) + 1
        a = qc.ace(c, g)
        ace_hist.setdefault(c.length, {})
        ace_hist[c.length][str(a)] = ace_hist[c.length].get(str(a), 0) + 1
    _emit({
        "girth": _girth(proto),
        "count_by_length": {str(k): v for k, v in sorted(by_len.items())},
        "ace_by_length": {str(k): dict(sorted(v.items()))
                          for k, v in sorted(ace_hist.items())},
    })
    return 0


def _load_golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


def cmd_ts_table(args):
    results = []
    had_error = False
    golden_fail = False
    golden = _load_golden() if args.golden else None
    for path in args.files:
        try:
            ts = trapping.TrappingSet.from_file(path)
            rep = trapping.invariant_panel(ts)
            row = {"file": path, "label": ts.label()}
            row.update(rep.to_dict())
            if golden is not None:
                checks = []
                entry = golden.get(ts.label())
                if entry is None:
                    checks.append({"cell": "*", "status": "no-reference"})
                else:
                    for cell, spec_cell in entry["cells"].items():
                        got = row.get(cell)
                        tol = spec_cell.get("tol", 0)
                        ok = got is not None and abs(got - spec_cell["value"]) <= tol
                        status = "ok" if ok else (
                            "advisory-mismatch" if spec_cell.get("advisory") else "FAIL")
                        if status == "FAIL":
                            golden_fail = True
                        checks.append({"cell": cell, "reference": spec_cell["value"],
                                       "computed": got, "status": status})
                row["golden"] = checks
            results.append(row)
        except Exception as exc:  # per-file, non-fatal across the batch
            had_error = True
            results.append({"file": path, "error": str(exc)})
    _emit(results)
    if args.out:
        fields = ["file", "label"] + list(trapping.InvariantReport.FIELDS)
        with open(_out_path(args, "ts_table.csv"), "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(fields)
            out.writerows([str(row.get(f, "")) for f in fields]
                          for row in results)
    return 1 if (had_error or golden_fail) else 0


def _load_system(args):
    if args.file.endswith(".exp"):
        if args.weighted:
            raise ValueError("--weighted needs a .mtx file of couplings; an "
                             "exponent file's lift has none")
        proto = qc.read_exponent_file(args.file)
        g = qc.lift(proto)
        A, D = qc.bipartite_adjacency(g)
        return UnweightedSystem(A, D)
    M = read_matrix_market(args.file)
    if args.weighted:
        return WeightedSystem(CouplingGraph.from_sparse(M))
    off = M.rows != M.cols
    ends = np.column_stack((M.rows[off], M.cols[off])).ravel()
    deg = np.bincount(ends, np.repeat(np.abs(M.vals[off]), 2), M.n)
    nz = np.unique(ends)
    D = SparseSym(M.n, np.column_stack((nz, nz, deg[nz])))
    return UnweightedSystem(M, D)


def _bracket(args):
    """(--beta-lower, --beta-upper), or None when neither is given; a lone
    bound is a ValueError."""
    if (args.beta_lower is None) != (args.beta_upper is None):
        raise ValueError("--beta-lower and --beta-upper must be given together")
    return None if args.beta_lower is None else (args.beta_lower,
                                                 args.beta_upper)


def cmd_beta(args):
    cfg = EstimatorConfig(*(_bracket(args) or (None, None)), eps=args.eps)
    system = _load_system(args)
    qn = estimate_beta_N(system, cfg)
    if qn.bracket is None:
        raise ValueError("no sign change of lambda_min on the bracket ladder")
    bis = bisection_baseline(system, cfg.beta_lower, cfg.beta_upper, cfg.eps)
    _emit({
        "quadratic_newton": qn.to_dict(),
        "bisection": bis.to_dict(),
        "call_ratio": bis.eigensolver_calls / qn.eigensolver_calls,
        "bracket": qn.bracket,
    })
    return 0


def cmd_zeta(args):
    M = read_matrix_market(args.file)
    g = zeta_mod.SimpleGraph.from_sparse(M)
    u_values = [float(x) for x in args.u.split(",")] if args.u else [0.1, 0.3, 0.7]
    pole_list = zeta_mod.poles(g)
    residuals = {}
    loose_form = {}
    for u in u_values:
        residuals[str(u)] = zeta_mod.bass_identity_residual(g, u)
        loose_form[str(u)] = zeta_mod.bass_loose_form_residual(g, u)
    report = zeta_mod.det_crossing_check(g, J0=args.j0)
    _emit({
        "poles": [[p.real, p.imag] for p in pole_list],
        "residuals": residuals,
        "loose_form_residuals": loose_form,
        "crossings": report["crossings"],
        "no_crossing": report["no_crossing"],
    })
    return 0


def _load_features(path):
    if path.endswith(".csv"):
        return FeatureTable.from_csv(path)
    return FeatureTable.from_raw(path)


def cmd_embed(args):
    bracket = _bracket(args)
    cfg = None
    if bracket is not None:
        cfg = EstimatorConfig(*bracket, eps=_EMBED_EPS if args.eps is None
                              else args.eps)
    elif args.eps is not None:
        raise ValueError("--eps needs --beta-lower and --beta-upper")
    ft = _load_features(args.features)
    J = similarity_graph(ft, args.gamma, args.p)
    emb = spectral_embed(J, args.r, cfg=cfg, graph_id=args.graph_id)
    out_csv = _out_path(args, "embedding.csv")
    emb.to_csv(out_csv)
    _emit({"beta_N": emb.beta_N_used, "r": emb.r, "rows": len(emb.coords),
           "file": out_csv})
    return 0


def _read_labels(path, rows):
    """One class label per non-blank line, read by embed._label; ValueError
    naming the file and the 1-based line of a label that _label refuses or
    of a byte that is not UTF-8, and naming the file and both counts unless
    there are as many labels as rows."""
    labels = []
    for line, text in enumerate(_read_text(path).split("\n"), 1):
        if text.strip():
            try:
                labels.append(_label(text))
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
    if len(labels) != rows:
        raise ValueError(f"{path}: {len(labels)} labels for {rows} rows")
    return np.array(labels)


def cmd_classify(args):
    emb = Embedding.from_csv(args.embedding)
    labels = _read_labels(args.labels, len(emb.coords))
    train_idx, test_idx = stratified_split(labels, args.test_fraction, args.seed)
    model = train_linear(emb.coords[train_idx], labels[train_idx], seed=args.seed)
    pred = predict_labels(model, emb.coords)
    classes = sorted(set(int(x) for x in labels))
    _emit({
        "train_accuracy": accuracy(labels[train_idx], pred[train_idx]),
        "test_accuracy": accuracy(labels[test_idx], pred[test_idx]),
        "per_class": per_class_metrics(labels[test_idx], pred[test_idx], classes),
    })
    if args.out:
        with open(_out_path(args, "model.json"), "w") as fh:
            fh.write(model.to_json())
    return 0


def cmd_ensemble(args):
    cfg = EnsembleConfig(args.mode)
    coords = [Embedding.from_csv(p).coords for p in args.embeddings]
    if len({len(c) for c in coords}) > 1:
        raise ValueError("embeddings differ in row count: " + ", ".join(
            f"{p} has {len(c)}" for p, c in zip(args.embeddings, coords)))
    labels = _read_labels(args.labels, len(coords[0]))
    train_idx, test_idx = stratified_split(labels, args.test_fraction, args.seed)
    metrics, _ = evaluate_ensemble(coords, labels, train_idx, test_idx,
                                   args.seed, cfg)
    _emit({k: metrics[k] for k in ("per_graph_accuracy", "ensemble_accuracy",
                                   "mode")})
    return 0


def cmd_pipeline(args):
    cfg = EnsembleConfig(args.mode)
    if args.synthetic:
        try:
            k, per_class, dim, separation = args.synthetic.split(",")
            shape = int(k), int(per_class), int(dim)
            separation = float(separation)
        except ValueError:
            raise ValueError("--synthetic K,per_class,dim,separation") from None
        ft = synthetic_features(*shape, separation, seed=args.seed)
    elif args.features:
        ft = _load_features(args.features)
        if ft.labels is None:
            if args.labels is None:
                raise ValueError(f"{args.features}: the file holds no labels;"
                                 " give them with --labels")
            labels = _read_labels(args.labels, ft.n_samples)
            ft = FeatureTable(ft.X, labels)
    else:
        raise ValueError("--features or --synthetic required")
    result, embeddings, _ = run_pipeline(
        ft, r=args.r, test_fraction=args.test_fraction, seed=args.seed,
        mode=cfg.mode)
    confusion_to_csv(result["confusion"], result["classes"],
                     _out_path(args, "confusion.csv"))
    with open(_out_path(args, "metrics_table.csv"), "w") as fh:
        fh.write(metrics_table(result) + "\n")
    for emb in embeddings:
        emb.to_csv(_out_path(args, f"embedding_{emb.graph_id}.csv"))
    _emit(result)
    return 0


# Flags owned by the main parser; config overrides for these must not be
# pushed down to the subparsers, where they would shadow values parsed
# before the subcommand.
_GLOBAL_KEYS = frozenset({"seed", "config", "out", "golden"})


def build_parser(config_defaults=None):
    parser = argparse.ArgumentParser(
        prog="nishigraph",
        description="QC Tanner graphs, trapping-set invariants, Bethe-Hessian "
                    "temperature estimation, zeta diagnostics, and spectral "
                    "embedding ensembles")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="JSON file with default overrides")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--golden", action="store_true",
                        help="compare against bundled reference panel values")
    # Accept the global flags after the subcommand as well; SUPPRESS keeps a
    # subparser from clobbering values parsed by the main parser.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--config", default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument("--golden", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[shared], **kw))

    p = sub.add_parser("lift", help="expand an exponent matrix into a Tanner graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("cycles", help="enumerate short cycles of a lifted graph")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=8)
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("ts-table", help="invariant panel for trapping-set files")
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=cmd_ts_table)

    p = sub.add_parser("beta", help="estimate the critical inverse temperature")
    p.add_argument("file", help=".mtx adjacency/couplings or .exp exponent file")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--beta-lower", type=float)
    p.add_argument("--beta-upper", type=float)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("zeta", help="poles, determinant identities, crossings")
    p.add_argument("file", help=".mtx adjacency")
    p.add_argument("--u", help="comma-separated evaluation points")
    p.add_argument("--j0", type=float, default=1.0)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("embed", help="similarity graph + spectral embedding")
    p.add_argument("features", help="CSV or raw float32 with JSON sidecar")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--p", type=int, default=12)
    p.add_argument("-r", type=int, default=32)
    p.add_argument("--graph-id", default="graph0")
    p.add_argument("--beta-lower", type=float)
    p.add_argument("--beta-upper", type=float)
    p.add_argument("--eps", type=float,
                   help=f"with both bounds (default {_EMBED_EPS})")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("classify", help="train and evaluate a linear model")
    p.add_argument("embedding", help="embedding CSV")
    p.add_argument("labels", help="one integer label per line")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ensemble", help="three-graph ensemble evaluation")
    p.add_argument("embeddings", nargs=3)
    p.add_argument("--labels", required=True)
    p.add_argument("--mode", choices=("majority", "soft"), default="majority")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("pipeline", help="features -> embeddings -> ensemble metrics")
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--synthetic", help="K,per_class,dim,separation")
    p.add_argument("-r", type=int, default=32)
    p.add_argument("--mode", choices=("majority", "soft"), default="majority")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.set_defaults(fn=cmd_pipeline)

    if config_defaults:
        parser.set_defaults(**{k: v for k, v in config_defaults.items()
                               if k in _GLOBAL_KEYS})
        # A subparser parses into a fresh namespace, so defaults set on the
        # main parser never reach subcommand options; push the remaining
        # overrides onto each subparser that owns a matching option.  One
        # config serves every subcommand: only a key none takes is refused.
        rest = {k: v for k, v in config_defaults.items()
                if k not in _GLOBAL_KEYS}
        stray = set(rest)
        for sp in sub.choices.values():
            dests = {a.dest for a in sp._actions} - {"help"}
            picked = {k: v for k, v in rest.items() if k in dests}
            stray -= dests
            if picked:
                sp.set_defaults(**picked)
        if stray:
            raise ValueError(f"no option takes the key {min(stray)!r}")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            text = _read_text(args.config)
            try:
                overrides = json.loads(text)
                if not isinstance(overrides, dict):
                    raise ValueError("not a JSON object")
                args = build_parser(overrides).parse_args(argv)
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
