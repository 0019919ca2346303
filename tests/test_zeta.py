"""Non-backtracking operator, determinant identities, and pole matching."""

import numpy as np
import pytest

from nishigraph import (SimpleGraph, SparseSym, bass_identity_residual,
                        bass_loose_form_residual, det_crossing_check,
                        non_backtracking, poles, zeta_reciprocal)

from util import cycle_edges


def complete_graph(n):
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_simple_graph_accumulates_multiplicities():
    g = SimpleGraph(3, [(0, 1), (1, 0), (0, 2, 2)])
    assert g.mult == {(0, 1): 2, (0, 2): 2}
    assert g.n_edges() == 4
    assert g.is_multigraph()
    assert g.degrees() == [4, 2, 2]
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 3)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 1, 0)])


def test_from_sparse_support_and_multiplicities():
    M = SparseSym(3, [(0, 1, 3.0), (1, 2, 1.0), (0, 0, 5.0)])
    g1 = SimpleGraph.from_sparse(M)
    assert g1.mult == {(0, 1): 1, (1, 2): 1}
    g2 = SimpleGraph.from_sparse(M, multiplicities=True)
    assert g2.mult == {(0, 1): 3, (1, 2): 1}


def test_non_backtracking_matrix_on_square_cycle():
    g = SimpleGraph(4, cycle_edges(4))
    des = non_backtracking(g)
    B = des.B
    assert B.shape == (8, 8)
    # on a cycle each directed edge has exactly one non-backtracking successor
    assert np.allclose(B.sum(axis=1), 1.0)
    # B permutes the two orientation classes separately: B^4 = I on C4
    assert np.allclose(np.linalg.matrix_power(B, 4), np.eye(8))


def test_non_backtracking_rejects_multigraph():
    g = SimpleGraph(2, [(0, 1, 2)])
    with pytest.raises(ValueError):
        non_backtracking(g)


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
        g = SimpleGraph(n, [(i, j, int(m)) for (i, j), m in zip(edges, mult)])
        for u in (0.1, 0.3, 0.7):
            worst = max(worst, bass_identity_residual(g, u))
    assert worst < 1e-9


def test_bass_identity_rejects_unit_circle():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        bass_identity_residual(g, 1.0)


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
    g = SimpleGraph(4, [(0, 1, 3), (0, 2, 2), (1, 3, 2)])
    out = det_crossing_check(g)
    assert out["no_crossing"] is False
    first = out["crossings"][0]
    assert first["beta"] == pytest.approx(0.367081, abs=1e-4)
    assert first["u"] == pytest.approx(0.351436, abs=1e-4)
    assert first["dist"] < 1e-8
