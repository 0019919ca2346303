"""Root finder for the smallest Bethe-Hessian eigenvalue as beta varies."""

import math

import numpy as np
import pytest

from nishigraph import (CouplingGraph, EstimatorConfig, WeightedSystem,
                        auto_bracket, bethe_hessian_unweighted,
                        bethe_hessian_weighted, bisection_baseline,
                        estimate_beta_N, lambda_min)

from util import cycle_edges, random_regular, unit_coupling_graph, unweighted_system


def k4_system():
    return unweighted_system(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(2.0, 1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(-1.0, 2.0)
    with pytest.raises(ValueError):
        EstimatorConfig(1.0, 2.0, eps=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(1.0, 2.0, delta=-1e-3)


def test_unweighted_matrix_formula():
    sysm = k4_system()
    beta = 1.7
    H = bethe_hessian_unweighted(sysm.A, sysm.D, beta)
    A = sysm.A.to_dense()
    expected = (beta ** 2 - 1) * np.eye(4) - beta * A + np.diag(A.sum(axis=1))
    assert np.allclose(H.to_dense(), expected, atol=1e-12)


def test_weighted_matrix_formula_single_edge():
    J = CouplingGraph(2, [(0, 1, -0.8)])
    beta = 0.9
    t = math.tanh(beta * -0.8)
    H = bethe_hessian_weighted(J, beta).to_dense()
    expected = np.array([[1 + t * t / (1 - t * t), -t / (1 - t * t)],
                         [-t / (1 - t * t), 1 + t * t / (1 - t * t)]])
    assert np.allclose(H, expected, atol=1e-12)


def test_weighted_matrix_matches_edge_loop():
    # per-edge reference loop: every edge adds t^2/(1-t^2) to both diagonal
    # entries and -t/(1-t^2) to its off-diagonal pair
    rng = np.random.default_rng(11)
    edges = random_regular(12, 3, 3)
    J = CouplingGraph(12, [(i, j, float(rng.normal())) for i, j in edges])
    beta = 0.8
    expected = np.eye(12)
    for i, j, w in J.edges:
        t = math.tanh(beta * w)
        expected[i, i] += t * t / (1 - t * t)
        expected[j, j] += t * t / (1 - t * t)
        expected[i, j] = expected[j, i] = -t / (1 - t * t)
    H = bethe_hessian_weighted(J, beta)
    assert np.allclose(H.to_dense(), expected, rtol=0, atol=1e-13)
    assert WeightedSystem(J).matrix(beta) == H


def test_weighted_matrix_rejects_saturated_coupling():
    J = CouplingGraph(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        bethe_hessian_weighted(J, 50.0)


def test_complete_graph_eigenvalue_is_quadratic_in_beta():
    # K4 adjacency spectrum {3, -1}: the smallest Bethe-Hessian eigenvalue is
    # (beta - 1)(beta - 2) on the relevant branch
    sysm = k4_system()
    for beta in (1.3, 1.8, 2.4, 2.9):
        lam = lambda_min(sysm.matrix(beta))
        assert lam == pytest.approx((beta - 1) * (beta - 2), abs=1e-9)


def test_quadratic_newton_finds_complete_graph_root():
    tr = estimate_beta_N(k4_system(), EstimatorConfig(1.5, 3.0, eps=1e-6))
    assert tr.converged
    assert abs(tr.beta_N - 2.0) <= 1e-4
    assert abs(tr.lambda_at_root) <= 1e-6
    assert tr.eigensolver_calls == 4  # one quadratic round, one polish step
    d = tr.to_dict()
    assert set(d) == {"beta_N", "lambda_at_root", "eigensolver_calls",
                      "rounds", "converged", "flags", "method"}
    assert sum(len(r) for r in d["rounds"]) == tr.eigensolver_calls


def test_bisection_agrees_but_spends_more_calls():
    tr = estimate_beta_N(k4_system(), EstimatorConfig(1.5, 3.0, eps=1e-6))
    bs = bisection_baseline(k4_system(), 1.5, 3.0, eps=1e-6)
    assert bs.converged
    assert abs(bs.beta_N - tr.beta_N) <= 2e-6
    assert bs.eigensolver_calls == 21
    assert bs.eigensolver_calls >= 3 * tr.eigensolver_calls


def test_cross_validation_on_regular_graphs():
    for k in range(3):
        d = (3, 4, 5)[k % 3]
        n = 20 + 2 * (k % 7)
        sysm = unweighted_system(n, random_regular(n, d, 100 + k))
        lo, hi = 1.5, 2.0 * math.sqrt(d)
        tr = estimate_beta_N(sysm, EstimatorConfig(lo, hi, eps=1e-6))
        bs = bisection_baseline(sysm, lo, hi, eps=1e-6)
        assert tr.converged and bs.converged
        assert abs(tr.beta_N - bs.beta_N) <= 2e-6


def test_low_degree_bracket_converges_at_the_trivial_endpoint():
    # on a plain cycle the eigenvalue at beta = 1 + 1e-6 is already within
    # eps of zero, so both solvers stop at the lower endpoint consistently
    sysm = unweighted_system(6, cycle_edges(6))
    lo, hi = 1 + 1e-6, 2 * math.sqrt(2)
    tr = estimate_beta_N(sysm, EstimatorConfig(lo, hi, eps=1e-6))
    bs = bisection_baseline(sysm, lo, hi, eps=1e-6)
    assert tr.converged and bs.converged
    assert abs(tr.beta_N - bs.beta_N) <= 2e-6
    assert abs(tr.beta_N - lo) <= 1e-5


def test_auto_bracket_spans_a_sign_change():
    J = unit_coupling_graph(60, random_regular(60, 3, 3))
    sysm = WeightedSystem(J)
    lo, hi = auto_bracket(sysm)
    assert lambda_min(bethe_hessian_weighted(J, lo)) > 0
    assert lambda_min(bethe_hessian_weighted(J, hi)) < 0
    tr = estimate_beta_N(sysm, EstimatorConfig(lo, hi, eps=1e-6))
    assert tr.converged
    assert abs(tr.lambda_at_root) <= 1e-6


def test_auto_bracket_reports_missing_sign_change():
    # a tree-shaped coupling graph keeps the operator positive definite all
    # the way to coupling saturation
    J = CouplingGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        auto_bracket(WeightedSystem(J))


def test_signed_couplings_match_the_planted_temperature():
    edges = random_regular(400, 3, 0)
    J, beta_true = sample_couplings(edges)
    tr = estimate_beta_N(WeightedSystem(J), EstimatorConfig(0.95, 2.0, eps=1e-6))
    assert tr.converged
    assert abs(tr.beta_N - beta_true) / beta_true < 0.10


def sample_couplings(edges):
    from nishigraph import sample_nishimori_pm
    return sample_nishimori_pm(400, edges, p_flip=0.1, seed=1000)


def test_bisection_requires_a_sign_change():
    with pytest.raises(ValueError):
        bisection_baseline(k4_system(), 2.5, 3.0, eps=1e-6)
