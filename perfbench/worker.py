"""One run of one workload, in a fresh interpreter started by run.py.

The timed phase repeats passes of the workload until ``--seconds`` have
passed (at least two untraced passes, or one untraced/traced pair with
``--trace 1``).  Outputs are checked after it.  The last line of standard
output is a JSON report for run.py.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _span_s(name):
    return lambda tr, n: tr.span(name).s / n


def _self_s(name):
    return lambda tr, n: tr.span(name).self_s / n


def _calls(name):
    return lambda tr, n: tr.span(name).calls / n


def _count(name):
    return lambda tr, n: tr.counts[name] / n


def _layer(name):
    return lambda tr, n: tr.layer_self_s()[name] / n


def _ratio(num, den):
    def f(tr, n):
        d = den(tr, n)
        return num(tr, n) / d if d else 0.0
    return f


def _edge(parent, child):
    return lambda tr, n: tr.edges[(parent, child)] / n


def _roots_eigensolves(tr, n):
    return (tr.edges[("estimator.estimate_beta_N", "sparse.lambda_min")]
            + tr.edges[("estimator.auto_bracket", "sparse.lambda_min")]) / n


def _components_max(tr, n):
    return max(tr.samples["rbim.CouplingGraph.components"], default=0)


def _candidates_per_s(tr, n):
    search_s = tr.span("qc.optimize_lift").s
    return tr.edges[("qc.optimize_lift", "qc.lift")] / search_s if search_s else 0.0


# The spans code-path makes for each trapping set, called from the benchmark.
_PER_SET = ("trapping.TrappingSet.from_tanner", "trapping.invariant_panel",
            "zeta.poles", "zeta.det_crossing_check",
            "zeta.bass_identity_residual")


def _sets_per_s(tr, n):
    per_set_s = sum(tr.top[name] for name in _PER_SET)
    panels = tr.span("trapping.invariant_panel").calls
    return panels / per_set_s if per_set_s else 0.0


# Per-layer metrics of a traced run, each averaged per traced pass.  Times
# are seconds per pass; "self_s" excludes the time of child spans.  Units and
# directions are in BENCHMARK.json.
PER_LAYER = [
    ("sparse.lambda_min.s", _span_s("sparse.lambda_min")),
    ("sparse.lambda_min.calls", _calls("sparse.lambda_min")),
    ("sparse.SparseSym.s", _span_s("sparse.SparseSym")),
    ("sparse.SparseSym.calls", _calls("sparse.SparseSym")),
    ("sparse.SparseSym.to_csr.s", _span_s("sparse.SparseSym.to_csr")),
    ("sparse.eig_dense.s", _span_s("sparse.eig_dense")),
    ("estimator.bethe_hessian_weighted.s",
     _span_s("estimator.bethe_hessian_weighted")),
    ("estimator.bethe_hessian_weighted.calls",
     _calls("estimator.bethe_hessian_weighted")),
    ("estimator.estimate_beta_N.self_s", _self_s("estimator.estimate_beta_N")),
    ("estimator.estimate_beta_N.calls", _calls("estimator.estimate_beta_N")),
    ("estimator.eigensolves_per_root",
     _ratio(_roots_eigensolves, _calls("estimator.estimate_beta_N"))),
    ("estimator.auto_bracket.s", _span_s("estimator.auto_bracket")),
    ("estimator.auto_bracket.failures",
     lambda tr, n: tr.span("estimator.auto_bracket").errors / n),
    ("estimator.not_converged", _count("estimator.not_converged")),
    ("estimator.qn_bisection_call_ratio",
     _ratio(_count("estimator.bisection_eigensolves"),
            _count("estimator.qn_eigensolves"))),
    ("embed.similarity_graph.s", _span_s("embed.similarity_graph")),
    ("embed.spectral_embed.self_s", _self_s("embed.spectral_embed")),
    ("embed.components", lambda tr, n: sum(tr.samples["embed.components"]) / n),
    ("embed.component_size_max", _components_max),
    ("rbim.CouplingGraph.components.s", _span_s("rbim.CouplingGraph.components")),
    ("classify.train_linear.s", _span_s("classify.train_linear")),
    ("classify.predict.s", _span_s("classify.predict")),
    ("classify.ensemble_decide.s", _span_s("classify.ensemble_decide")),
    ("pipeline.run_pipeline.self_s", _self_s("pipeline.run_pipeline")),
    ("qc.lift.calls", _calls("qc.lift")),
    ("qc.candidates_per_s", _candidates_per_s),
    ("qc.lift.s", _span_s("qc.lift")),
    ("qc.girth.s", _span_s("qc.girth")),
    ("qc.enumerate_cycles.s", _span_s("qc.enumerate_cycles")),
    ("qc.cycles_enumerated", _count("qc.cycles_enumerated")),
    ("qc.cycles_per_candidate",
     _ratio(_count("qc.cycles_in_search"), _edge("qc.optimize_lift", "qc.lift"))),
    ("qc.ace.s", _span_s("qc.ace")),
    ("qc.ace.calls", _calls("qc.ace")),
    ("qc.optimize_lift.self_s", _self_s("qc.optimize_lift")),
    ("trapping.invariant_panel.s", _span_s("trapping.invariant_panel")),
    ("trapping.sets_per_s", _sets_per_s),
    ("trapping.TrappingSet.from_tanner.s",
     _span_s("trapping.TrappingSet.from_tanner")),
    ("zeta.det_crossing_check.s", _span_s("zeta.det_crossing_check")),
    ("zeta.det_crossing_check.self_s", _self_s("zeta.det_crossing_check")),
    ("zeta.poles.s", _span_s("zeta.poles")),
    ("zeta.bass_identity_residual.s", _span_s("zeta.bass_identity_residual")),
    ("zeta.crossings", _count("zeta.crossings")),
    ("zeta.crossings_unmatched", _count("zeta.crossings_unmatched")),
] + [(f"layer.{layer}.self_s", _layer(layer))
     for layer in ("pipeline", "embed", "estimator", "sparse", "classify",
                   "rbim", "qc", "trapping", "zeta")]
# main() adds trace.overhead_frac, trace.unattributed_frac,
# warnings.runtime, run.wall_s and host.probe_<kernel>_us, which come from
# the pass times, warnings and speed probe rather than from the spans.


def _hooks():
    def qn(tr, parent, trace):
        tr.count("estimator.qn_eigensolves", trace.eigensolver_calls)
        tr.count("estimator.not_converged", not trace.converged)

    def bisection(tr, parent, trace):
        tr.count("estimator.bisection_eigensolves", trace.eigensolver_calls)
        tr.count("estimator.not_converged", not trace.converged)

    def components(tr, parent, comps):
        for c in comps:
            tr.sample("rbim.CouplingGraph.components", len(c))
        if parent == "embed.spectral_embed":
            tr.sample("embed.components", len(comps))

    def cycles(tr, parent, found):
        tr.count("qc.cycles_enumerated", len(found))
        if parent == "qc.optimize_lift":
            tr.count("qc.cycles_in_search", len(found))

    def crossings(tr, parent, result):
        cr = result["crossings"]
        tr.count("zeta.crossings", len(cr))
        tr.count("zeta.crossings_unmatched", sum(c["pole"] is None for c in cr))

    return {"estimator.estimate_beta_N": qn,
            "estimator.bisection_baseline": bisection,
            "rbim.CouplingGraph.components": components,
            "qc.enumerate_cycles": cycles,
            "zeta.det_crossing_check": crossings}


def environment(traced):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tracing": traced,
        "profiler": sys.getprofile() is not None or sys.gettrace() is not None,
    }


def os_threads():
    """Threads of this process, as the kernel counts them."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def src_lines(package_dir):
    total = 0
    for dirpath, _, files in os.walk(package_dir):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for _ in fh)
    return total


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_phase(wl, state, seconds, tr, sp):
    """Passes until ``seconds`` have passed; with a tracer, untraced and
    traced passes alternate so both see the same machine conditions.

    ``sp`` samples the host's speed throughout; each untraced pass's cost
    is its wall time over the probe kernels' time in it (see probe.py).  Peak
    memory is read after the first pass: later passes add only the
    allocator's fragmentation, which varies from run to run.
    """
    passes, untraced, traced, windows = [], [], [], []
    first_peak = None
    warn_traced = 0
    start = time.perf_counter()
    sp.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            while True:
                for with_trace in ((False, True) if tr else (False,)):
                    n_warn = len(caught)
                    wl.prepare(state)
                    if with_trace:
                        tr.install()
                    mark = sp.mark()
                    t = time.perf_counter()
                    try:
                        ops = wl.run_pass(state)
                    finally:
                        d = time.perf_counter() - t
                        if with_trace:
                            tr.uninstall()
                    passes.append(ops)
                    if with_trace:
                        traced.append(d)
                        warn_traced += len(caught) - n_warn
                    else:
                        untraced.append(d)
                        windows.append((mark, sp.mark()))
                    if first_peak is None:
                        first_peak = peak_rss_mb()
                need = 1 if tr else 2
                if (len(untraced) >= need
                        and time.perf_counter() - start >= seconds):
                    break
            warns = [(w.category.__name__, str(w.message)) for w in caught]
    finally:
        sp.stop()
    costs = [d / sp.factor_s(a, b) for d, (a, b) in zip(untraced, windows)]
    probe_means = [sp.means_s(a, b) for a, b in windows]
    return (passes, untraced, traced, costs, probe_means, warns, warn_traced,
            first_peak)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import nishigraph
    where = os.path.dirname(os.path.abspath(nishigraph.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"nishigraph imported from {where}, not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    state = wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import probe
    import tracer
    tr = tracer.Tracer(_hooks()) if args.trace else None
    sp = probe.SpeedProbe()
    (passes, untraced, traced, costs, probe_means, warns, warn_traced,
     first_peak) = timed_phase(wl, state, args.seconds, tr, sp)
    last_peak = peak_rss_mb()
    threads = os_threads()
    t_check = time.perf_counter()
    check = wl.check(state, passes)
    check_s = time.perf_counter() - t_check

    attempted = sum(len(ops) for ops in passes)
    failures = []
    for p, ops in enumerate(passes):
        for k, op in enumerate(ops):
            msg = op.error or check.failures.get((p, k))
            if msg:
                failures.append(f"pass {p} op {k} ({op.label}): {msg}")
    run_s = statistics.median(untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_s_main": setup_s,
        "run_s": run_s,
        "run_cost": statistics.median(costs),
        "pass_s_untraced": untraced,
        "pass_cost_untraced": costs,
        "probe_us_median": sp.median_us(),
        "pass_probe_s_untraced": probe_means,
        "probe_samples": sp.mark(),
        "pass_s_traced": traced,
        "peak_rss_mb": first_peak,
        "peak_rss_mb_all_passes": last_peak,
        "os_threads": threads,
        "check_s": check_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "quality": statistics.fmean(check.scores) if check.scores else 0.0,
        "outputs": check.info,
        "runtime_warnings": sum(1 for c, _ in warns if c == "RuntimeWarning"),
        "warning_messages": sorted(set(f"{c}: {m}" for c, m in warns))[:20],
        "src_lines": src_lines(where),
        "environment": environment(bool(args.trace)),
    }
    if tr is not None:
        n = len(traced)
        per_layer = {name: fn(tr, n) for name, fn in PER_LAYER}
        per_layer["trace.overhead_frac"] = (statistics.median(traced) / run_s
                                            - 1.0)
        per_layer["trace.unattributed_frac"] = (1.0 - sum(tr.top.values())
                                                / sum(traced))
        per_layer["warnings.runtime"] = warn_traced / n
        per_layer["run.wall_s"] = run_s
        for kernel, us in report["probe_us_median"].items():
            per_layer[f"host.probe_{kernel}_us"] = us
        report["per_layer"] = per_layer
        report["spans"] = tr.table()
        report["span_edges"] = {f"{a} > {b}": c / n
                                for (a, b), c in sorted(tr.edges.items())}
    print(json.dumps(report, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
