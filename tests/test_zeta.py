"""Non-backtracking operator, determinant identities, and pole matching."""

import os
import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nishigraph
from nishigraph import (CouplingGraph, SimpleGraph, SparseSym, TrappingSet,
                        bass_identity_residual, bass_loose_form_residual,
                        det_crossing_check, enumerate_cycles, lift, poles,
                        read_exponent_file, zeta_reciprocal)
from nishigraph.zeta import _BETA_GRID, _two_core

from util import (cycle_edges, dense_bethe_hessian_by_transpose,
                  det_crossings_by_loop, directed_edge_matrix_by_loop,
                  random_regular)


def complete_graph(n):
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_simple_graph_accumulates_multiplicities():
    g = SimpleGraph(3, [(0, 1), (1, 0), (0, 2), (0, 2)])
    assert list(zip(g.i.tolist(), g.j.tolist())) == [(0, 1), (0, 1),
                                                     (0, 2), (0, 2)]
    assert g._copy.tolist() == [0, 1, 0, 1]
    assert isinstance(g, CouplingGraph)
    assert g.couplings.tolist() == [1.0] * 4
    assert g.components() == [[0, 1, 2]]
    assert SimpleGraph(4, [(3, 1), (3, 1)]).components() == [[0], [1, 3], [2]]
    for a in (g.i, g.j, g.couplings):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert g.n_edges() == 4
    assert g._copy.any()
    assert np.bincount(np.r_[g.i, g.j], minlength=g.n).tolist() == [4, 2, 2]
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 3)])
    # a repeated pair is the one way to write a parallel copy
    with pytest.raises(ValueError, match=re.escape(
            "edges must be 2-tuples or a (k, 2) array")):
        SimpleGraph(2, [(0, 1, 0)])


def test_from_sparse_support_and_multiplicities():
    M = SparseSym(3, [(0, 1, 3.0), (1, 2, 1.0), (0, 0, 5.0)])
    g1 = SimpleGraph.from_sparse(M)
    assert (g1.i.tolist(), g1.j.tolist()) == ([0, 1], [1, 2])
    assert not g1._copy.any()


def test_non_backtracking_matrix_on_square_cycle():
    g = SimpleGraph(4, cycle_edges(4))
    B = g._non_backtracking[1]
    assert B.shape == (8, 8)
    # on a cycle each directed edge has exactly one non-backtracking successor
    assert np.allclose(B.sum(axis=1), 1.0)
    # B permutes the two orientation classes separately: B^4 = I on C4
    assert np.allclose(np.linalg.matrix_power(B, 4), np.eye(8))


@st.composite
def multigraphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=12))
    # multiplicity m is written as m repeated pairs
    return SimpleGraph(n, [e for e in picked
                           for _ in range(draw(st.integers(1, 3)))])


@given(multigraphs())
def test_cached_non_backtracking_matches_loop_oracle(g):
    des, B = directed_edge_matrix_by_loop(g)
    cached_des, cached_B = g._non_backtracking
    assert list(map(tuple, cached_des.tolist())) == des
    assert cached_B.dtype == B.dtype and cached_B.tobytes() == B.tobytes()
    first = poles(g)
    assert poles(g) == first and poles(g) is not first
    for a in (cached_des, cached_B, g._pole_array, g.i, g.j, g._copy):
        assert not a.flags.writeable
    assert g._non_backtracking[1] is cached_B


def test_zeta_reciprocal_square_cycle_closed_form():
    # the length-4 cycle has 1/zeta(u) = (1 - u^4)^2
    g = SimpleGraph(4, cycle_edges(4))
    for u in (0.1, 0.3, 0.7, -0.4):
        assert zeta_reciprocal(g, u) == pytest.approx((1 - u ** 4) ** 2,
                                                      abs=1e-12)


def test_zeta_reciprocal_is_one_on_trees():
    path = SimpleGraph(5, [(i, i + 1) for i in range(4)])
    star = SimpleGraph(5, [(0, j) for j in range(1, 5)])
    for g in (path, star):
        for u in (0.1, 0.3, 0.7):
            assert zeta_reciprocal(g, u) == pytest.approx(1.0, abs=1e-12)


def test_bass_identity_residual_small():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 10))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        if not edges:
            edges = [(0, 1)]
        # multiplicities in {1, 2}: parallel edges enter the Bethe-Hessian
        # once per copy, on both sides of the identity
        mult = rng.integers(1, 3, size=len(edges))
        g = SimpleGraph(n, [e for e, m in zip(edges, mult) for _ in range(m)])
        for u in (0.1, 0.3, 0.7):
            worst = max(worst, bass_identity_residual(g, u))
    assert worst < 1e-9
    # no vertex: both sides are empty determinants, 1
    assert bass_identity_residual(SimpleGraph(0, []), 0.3) == 0.0


def test_determinant_paths_refuse_graphs_over_the_cap():
    g = SimpleGraph(2, [(0, 1)] * 201)
    with pytest.raises(ValueError, match="determinant path capped at 200"):
        zeta_reciprocal(g, 0.1)
    with pytest.raises(ValueError, match="pole computation capped at 200"):
        poles(g)


def test_bass_identity_rejects_unit_circle():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        bass_identity_residual(g, 1.0)


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf])
def test_zeta_reciprocal_and_residuals_refuse_u_that_is_not_finite(u):
    # one check, in zeta_reciprocal, serves the direct call and both
    # residuals
    g = complete_graph(4)
    for fn in (zeta_reciprocal, bass_identity_residual,
               bass_loose_form_residual):
        with pytest.raises(ValueError, match=f"^u = {u} is not finite$"):
            fn(g, u)


def test_loose_form_differs_where_cycle_rank_is_positive():
    # dropping the rank exponent from the edge-count factor breaks the
    # identity whenever |E| != |V|; the strict residual stays at zero
    g = complete_graph(4)
    assert bass_identity_residual(g, 0.3) < 1e-12
    assert bass_loose_form_residual(g, 0.3) > 1e-6


def test_poles_of_square_cycle_lie_on_unit_circle():
    g = SimpleGraph(4, cycle_edges(4))
    ps = poles(g)
    assert len(ps) == 4
    assert all(abs(abs(p) - 1.0) < 1e-9 for p in ps)
    # the four distinct eigenvalue reciprocals are the fourth roots of unity
    vals = sorted((round(p.real, 6), round(p.imag, 6)) for p in ps)
    assert vals == [(-1.0, 0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)] or \
        vals == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_det_crossing_absent_on_unfrustrated_cycle():
    g = SimpleGraph(4, cycle_edges(4))
    out = det_crossing_check(g)
    assert out["no_crossing"] is True
    assert out["crossings"] == []


def test_det_crossing_matches_pole_on_variable_multigraph():
    # variable-incidence multigraph with edge counts {3, 2, 2}: the first
    # determinant sign change lands on a zeta pole
    g = SimpleGraph(4, [(0, 1)] * 3 + [(0, 2)] * 2 + [(1, 3)] * 2)
    out = det_crossing_check(g)
    assert out["no_crossing"] is False
    first = out["crossings"][0]
    assert first["beta"] == pytest.approx(0.367081, abs=1e-4)
    assert first["u"] == pytest.approx(0.351436, abs=1e-4)
    assert first["dist"] < 1e-8


def test_det_crossing_check_on_a_large_regular_graph():
    # 150 edges: det H overflows a double at 87 of the 240 grid points
    # (beta >= 3.86), and the sign alone must still locate the crossing at
    # the Perron pole u = 1/(d - 1)
    g = SimpleGraph(100, random_regular(100, 3, 0))
    out = det_crossing_check(g)
    assert len(out["crossings"]) == 1
    crossing = out["crossings"][0]
    assert crossing["u"] == pytest.approx(0.5, abs=1e-9)
    assert crossing["pole"] == pytest.approx(0.5, abs=1e-9)


def det_sign(g, beta):
    i, j = g.i, g.j
    t = np.full(len(i), np.tanh(beta))
    return np.linalg.slogdet(dense_bethe_hessian_by_transpose(g.n, i, j, t))[0]


def assert_matches_oracle(g, crossings, oracle):
    """The same crossings as the one-solve-per-beta bisection oracle, in the
    same grid intervals, matched to the same poles, within 64 ulp of its
    root, with det H of the whole graph changing sign across each beta."""
    assert len(crossings) == len(oracle)
    for c, o in zip(crossings, oracle):
        assert (np.searchsorted(_BETA_GRID, c["beta"])
                == np.searchsorted(_BETA_GRID, o["beta"]))
        assert c["pole"] == o["pole"]
        assert abs(c["beta"] - o["beta"]) <= 64 * np.spacing(c["beta"])
        assert (det_sign(g, c["beta"] * (1 - 1e-13))
                * det_sign(g, c["beta"] * (1 + 1e-13)) < 0)


def test_det_crossing_check_matches_per_beta_loop_on_h2_sets():
    # Tanner subgraphs of h2 trapping sets, each induced on one cycle of
    # length <= 8.  The secant refinement on the 2-core is checked against
    # one solve per beta of the whole graph and 80 bisection steps, every
    # crossing matched to a pole, and at most 16 determinants per crossing
    # on average (bisection takes about 47)
    g = lift(read_exponent_file(
        str(resources.files("nishigraph").joinpath("data", "h2.exp"))))
    var_sets = sorted({tuple(sorted(set(c.var_nodes(g))))
                       for c in enumerate_cycles(g, 8)})[::24]
    solves = []
    for var_set in var_sets:
        H = TrappingSet.from_tanner(g, var_set).H
        m, a = H.shape
        rows, cols = np.nonzero(H)
        sg = SimpleGraph(a + m, [(int(v), a + int(r)) for r, v in zip(rows, cols)])
        crossings = det_crossing_check(sg)["crossings"]
        assert_matches_oracle(sg, crossings, det_crossings_by_loop(sg))
        assert all(c["pole"] is not None for c in crossings)
        solves += [c["solves"] for c in crossings]
    assert len(var_sets) == 36 and solves
    assert np.mean(solves) <= 16


@st.composite
def multigraphs_with_trees(draw):
    """A multigraph from multigraphs() with up to six vertices hung on it one
    at a time, each from any earlier vertex (so pendant trees and paths) by
    one edge or by two parallel copies, which keep it in the 2-core; then up
    to two isolated vertices, and every label permuted."""
    g = draw(multigraphs())
    n = g.n
    edges = list(zip(g.i.tolist(), g.j.tolist()))
    for _ in range(draw(st.integers(0, 6))):
        edges += [(draw(st.integers(0, n - 1)), n)] * draw(st.integers(1, 2))
        n += 1
    n += draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    return SimpleGraph(n, [(label[a], label[b]) for a, b in edges])


def test_two_core_peels_pendant_paths_and_keeps_parallel_copies():
    # a triangle on 1, 2, 4 with the path 4-3-0 hung on it and a doubled
    # edge 1=5, which is a 2-cycle; 6 is isolated
    g = SimpleGraph(7, [(1, 2), (2, 4), (1, 4), (3, 4), (0, 3), (1, 5), (1, 5)])
    n, i, j = _two_core(g)
    assert (n, i.tolist(), j.tolist()) == (4, [0, 0, 0, 0, 1],
                                           [1, 2, 3, 3, 2])


@given(multigraphs_with_trees())
def test_det_crossing_check_on_the_core_matches_the_whole_graph(g):
    n, i, j = _two_core(g)
    assert (i < j).all()
    assert np.bincount(np.concatenate((i, j)), minlength=n).min(initial=2) >= 2
    assert_matches_oracle(g, det_crossing_check(g)["crossings"],
                          det_crossings_by_loop(g))


@pytest.mark.parametrize("g", [
    SimpleGraph(7, [(0, 1), (1, 2), (1, 3), (4, 5)]),    # a forest
    SimpleGraph(3, [])], ids=["forest", "edgeless"])
def test_det_crossing_check_on_an_empty_core(g):
    assert det_crossing_check(g) == {"crossings": [], "no_crossing": True}


@pytest.mark.parametrize("g, edge", [
    (SimpleGraph(4, [(2, 3), (1, 2)]), (1, 2)),           # a path
    (SimpleGraph(5, [(1, 2), (2, 3), (1, 3), (3, 4)]), (1, 2)),
    (SimpleGraph(5, [(0, 4), (1, 2), (2, 3), (1, 3), (3, 4)]), (0, 4))],
    ids=["tree", "cycle-pendant", "pendant-first"])
def test_det_crossing_check_refuses_saturation_in_the_graphs_own_labels(
        g, edge):
    # at J0 = 10 the grid's last points reach tanh^2 = 1; the refusal names
    # g's first edge in g's labels, whether or not peeling keeps it, and the
    # first saturated square as a plain float
    with pytest.raises(ValueError, match=re.escape(
            f"coupling saturated on edge ({edge[0]},{edge[1]}): tanh^2 = ")
            + r"0\.9999999999\d*$"):
        det_crossing_check(g, J0=10.0)


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize costs 0.16-0.21 s on top of a ~0.6 s import, which is
    # why the crossing refinement is written in zeta itself
    src = os.path.dirname(os.path.dirname(nishigraph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, nishigraph; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
