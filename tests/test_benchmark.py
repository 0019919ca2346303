"""The benchmark's contract with the library: every workload of perfbench/
runs one pass under its tracer, with no failed op and no failed check."""

import pytest


@pytest.mark.parametrize("name", ["pipelines", "code-path"])
def test_workload_pass_runs_and_checks_under_the_tracer(perfbench, name):
    workloads, tracer = perfbench
    wl = workloads.WORKLOADS[name]
    state = wl.setup(101)
    wl.prepare(state)
    tr = tracer.Tracer()
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
