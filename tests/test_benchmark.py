"""The benchmark's contract with the library: every workload of perfbench/
runs one pass under its tracer, with no failed op and no failed check, and
the per-layer metrics that read 0 on it are the ones known to."""

import pytest

_ABSENT = "this workload does not run that layer"
_NO_FAILURE = "no failures on this seed"
_UNREACHED = "span no longer reached (ROADMAP item 4)"

# spans that no workload reaches any more: the work runs elsewhere
_UNREACHED_BY_BOTH = dict.fromkeys([
    "estimator.auto_bracket.failures", "estimator.auto_bracket.s",
    "estimator.bethe_hessian_weighted.calls",
    "estimator.bethe_hessian_weighted.s", "estimator.eigensolves_per_root",
    "sparse.eig_dense.s", "sparse.lambda_min.calls", "sparse.lambda_min.s"],
    _UNREACHED)

# each worker.PER_LAYER metric that reads exactly 0 on a workload's seed-101
# traced pass, with the reason; a metric a change zeroes, or one it brings
# back, fails the test until it is named here or taken out
SILENT_METRICS = {
    "pipelines": {
        **_UNREACHED_BY_BOTH,
        "embed.similarity_graph.s": _UNREACHED,
        "estimator.not_converged": _NO_FAILURE,
        **dict.fromkeys([
            "estimator.qn_bisection_call_ratio", "layer.qc.self_s",
            "layer.trapping.self_s", "layer.zeta.self_s", "qc.ace.calls",
            "qc.ace.s", "qc.candidates_per_s", "qc.cycles_enumerated",
            "qc.cycles_per_candidate", "qc.enumerate_cycles.s", "qc.girth.s",
            "qc.lift.calls", "qc.lift.s", "qc.optimize_lift.self_s",
            "trapping.TrappingSet.from_tanner.s",
            "trapping.invariant_panel.s", "trapping.sets_per_s",
            "zeta.bass_identity_residual.s", "zeta.crossings",
            "zeta.crossings_unmatched", "zeta.det_crossing_check.s",
            "zeta.det_crossing_check.self_s", "zeta.poles.s"], _ABSENT),
    },
    "code-path": {
        **_UNREACHED_BY_BOTH,
        **dict.fromkeys([
            "qc.candidates_per_s", "qc.cycles_per_candidate", "qc.girth.s",
            "qc.lift.calls", "qc.lift.s"], _UNREACHED),
        "estimator.not_converged": _NO_FAILURE,
        "zeta.crossings_unmatched": _NO_FAILURE,
        **dict.fromkeys([
            "classify.ensemble_decide.s", "classify.predict.s",
            "classify.train_linear.s", "embed.component_size_max",
            "embed.components", "embed.similarity_graph.s",
            "embed.spectral_embed.self_s", "layer.classify.self_s",
            "layer.embed.self_s", "layer.pipeline.self_s",
            "layer.rbim.self_s", "pipeline.run_pipeline.self_s",
            "rbim.CouplingGraph.components.s"], _ABSENT),
    },
}


@pytest.mark.parametrize("name", ["pipelines", "code-path"])
def test_workload_pass_runs_and_checks_under_the_tracer(perfbench, name):
    workloads, tracer, worker = perfbench
    wl = workloads.WORKLOADS[name]
    state = wl.setup(101)
    wl.prepare(state)
    tr = tracer.Tracer(worker._hooks())
    tr.install()
    try:
        ops = wl.run_pass(state)
    finally:
        tr.uninstall()
    assert [(op.label, op.error) for op in ops if op.error] == []
    assert wl.check(state, [ops]).failures == {}
    # every traced method was reached through its class
    spans = {"pipelines": ("sparse.SparseSym", "rbim.CouplingGraph.components"),
             "code-path": ("trapping.TrappingSet.from_tanner",
                           "zeta.det_crossing_check")}[name]
    assert all(tr.span(s).calls for s in spans)
    silent = {metric for metric, fn in worker.PER_LAYER if fn(tr, 1) == 0}
    assert silent == SILENT_METRICS[name].keys()
