"""Root finder for the smallest Bethe-Hessian eigenvalue as beta varies."""

import importlib.resources
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given
from hypothesis import strategies as st

from nishigraph import (CouplingGraph, EstimatorConfig, SparseSym,
                        TannerGraph, UnweightedSystem, WeightedSystem,
                        bethe_hessian_weighted, bipartite_adjacency,
                        bisection_baseline, estimate_beta_N, lambda_min)
from nishigraph import estimator, qc
from nishigraph.estimator import _checked_square, _uniform_bethe_hessian
from nishigraph.sparse import bottom_pair

from util import (assert_same_sparse, bethe_hessian_by_column_stack,
                  coupling_graphs, cycle_edges,
                  dense_bethe_hessian_by_transpose, random_regular,
                  unit_coupling_graph, unweighted_system,
                  weighted_non_backtracking)


def k4_system():
    return unweighted_system(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(2.0, 1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(-1.0, 2.0)
    with pytest.raises(ValueError):
        EstimatorConfig(1.0, 2.0, eps=0.0)
    # NaN fails every comparison, and an infinite bound or eps is no window
    for lo, hi, eps in [(math.nan, 2.0, 1e-6), (1.0, math.nan, 1e-6),
                        (1.0, math.inf, 1e-6), (1.0, 2.0, math.nan),
                        (1.0, 2.0, math.inf), (None, None, math.nan)]:
        with pytest.raises(ValueError):
            EstimatorConfig(lo, hi, eps)
    with pytest.raises(ValueError, match="go together"):
        EstimatorConfig(beta_upper=3.0)


@st.composite
def signed_adjacencies(draw):
    """(A, D): signed nonzero weights on distinct edges i < j, in drawn
    order, and D = sum |a| on each row, as the CLI reads an .mtx file
    without --weighted."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(
        [(i, j) for i in range(n) for j in range(i + 1, n)]), unique=True))
    w = draw(st.lists(st.floats(0.05, 3.0).flatmap(
        lambda x: st.sampled_from([x, -x])), min_size=len(pairs),
        max_size=len(pairs)))
    d = np.zeros(n)
    for (i, j), a in zip(pairs, w):
        d[i] += abs(a)
        d[j] += abs(a)
    return (SparseSym(n, [(i, j, a) for (i, j), a in zip(pairs, w)]),
            SparseSym(n, [(k, k, d[k]) for k in range(n) if d[k]]))


@given(signed_adjacencies(), st.floats(0.1, 10.0))
def test_unweighted_matrix_formula(graph, beta):
    # bit for bit the dense diag(d + beta^2 - 1) - beta A
    A, D = graph
    H = UnweightedSystem(A, D).matrix(beta).to_dense()
    expected = np.diag(D.diagonal() + beta * beta - 1) - beta * A.to_dense()
    assert np.array_equal(H, expected)


def test_unweighted_system_refuses_a_diagonal_in_A_or_off_diagonal_D():
    # a stored zero on A's diagonal is no entry; a nonzero one, or an
    # off-diagonal entry of D, is refused by the system
    sysm = k4_system()
    H = sysm.matrix(1.7)
    zero = SparseSym(4, sysm.A.entries + [(0, 0, 0.0)])
    assert UnweightedSystem(zero, sysm.D).matrix(1.7) == H
    bad_A = SparseSym(4, sysm.A.entries + [(0, 0, 1.0)])
    bad_D = SparseSym(4, sysm.D.entries + [(0, 1, 1.0)])
    for A, D, message in ((bad_A, sysm.D, "adjacency must have zero diagonal"),
                          (sysm.A, bad_D, "degree matrix must be diagonal")):
        with pytest.raises(ValueError, match=message):
            UnweightedSystem(A, D)


def lifted(name):
    """(A, D) of the lift of the bundled exponent file name."""
    return qc.bipartite_adjacency(qc.lift(qc.read_exponent_file(str(
        importlib.resources.files("nishigraph").joinpath("data", name)))))


def test_unweighted_form_is_the_unit_coupling_form_at_t_one_over_beta():
    # with t = 1/beta, t^2/(1 - t^2) = 1/(beta^2 - 1) and t/(1 - t^2) =
    # beta/(beta^2 - 1), so (beta^2 - 1)I - beta A + D is beta^2 - 1 times
    # the unit-coupling H(t); tanh(atanh(1/beta)) rounds, so the two agree
    # entrywise within 4 ulp of max|H| (2 measured, on h3)
    for name in ("h1.exp", "h2.exp", "h3.exp"):
        A, D = lifted(name)
        J = CouplingGraph.from_sparse(A)
        for beta in (1.3, 2.0, 3.0, 7.5):
            Hu = UnweightedSystem(A, D).matrix(beta).to_csr()
            Hw = bethe_hessian_weighted(J, math.atanh(1 / beta)).to_csr()
            gap = abs(Hu - (beta * beta - 1) * Hw).max()
            assert gap <= 4 * np.spacing(abs(Hu).max())


def test_unweighted_root_is_coth_of_the_unit_coupling_root():
    # the same variable change maps the roots: beta_u = 1/tanh(beta_w),
    # within 1e-6 at eps 1e-6 (9e-8 measured, on h2)
    cfg = EstimatorConfig(eps=1e-6)
    for name in ("h1.exp", "h2.exp", "h3.exp"):
        A, D = lifted(name)
        u = estimate_beta_N(UnweightedSystem(A, D), cfg)
        w = estimate_beta_N(WeightedSystem(CouplingGraph.from_sparse(A)), cfg)
        assert u.converged and w.converged
        assert abs(u.beta_N - 1 / math.tanh(w.beta_N)) <= 1e-6


def test_weighted_matrix_formula_single_edge():
    J = CouplingGraph(2, [(0, 1, -0.8)])
    beta = 0.9
    t = math.tanh(beta * -0.8)
    H = bethe_hessian_weighted(J, beta).to_dense()
    expected = np.array([[1 + t * t / (1 - t * t), -t / (1 - t * t)],
                         [-t / (1 - t * t), 1 + t * t / (1 - t * t)]])
    assert np.allclose(H, expected, atol=1e-12)
    assert bethe_hessian_weighted(CouplingGraph(0, []), beta) == SparseSym(0, [])


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


def multiplicity_adjacency(n, i, j):
    A = np.zeros((n, n))
    np.add.at(A, (i, j), 1.0)
    return A + A.T


def test_uniform_stack_rows_are_bit_equal_to_scalar_calls():
    # parallel edges and vertices on both sides of an edge, and the empty
    # graph: each matrix of the stack is the one its t alone gives, bit for
    # bit
    for n, i, j in ((5, [0, 0, 1, 2, 2, 3, 1], [1, 1, 2, 3, 4, 4, 4]),
                    (0, [], [])):
        hessian = _uniform_bethe_hessian(multiplicity_adjacency(
            n, np.array(i, dtype=int), np.array(j, dtype=int)))
        t = np.random.default_rng(5).uniform(-0.9, 0.9, 6)
        H = hessian(t)
        assert H.shape == (6, n, n)
        for tr, Hr in zip(t, H):
            assert hessian(float(tr)).shape == (n, n)
            assert Hr.tobytes() == hessian(tr).tobytes()
            assert Hr.tobytes() == hessian(float(tr)).tobytes()


def test_saturation_refusal_names_the_first_entry_in_c_order():
    i = np.array([0, 0, 1, 2, 2, 3, 1])
    j = np.array([1, 1, 2, 3, 4, 4, 4])
    t = np.random.default_rng(5).uniform(-0.9, 0.9, (6, len(i)))
    assert np.array_equal(_checked_square(i, j, t), t * t)
    t[3, 2] = 1.0
    t[4, 0] = -1.0
    with pytest.raises(ValueError, match=re.escape(
            "coupling saturated on edge (1,2): tanh^2 = 1.0") + "$"):
        _checked_square(i, j, t)


@st.composite
def upper_multigraphs(draw, unique=False):
    """(n, i, j): edges i < j, repeated unless unique."""
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ij = np.array(draw(st.lists(st.sampled_from(pairs), max_size=14,
                                unique=unique)),
                  dtype=np.intp).reshape(-1, 2)
    return n, ij[:, 0], ij[:, 1]


@st.composite
def upper_multigraph_couplings(draw, unique=False):
    """(n, i, j, t): an upper_multigraphs graph and one t per edge."""
    n, i, j = draw(upper_multigraphs(unique))
    t = draw(st.lists(st.floats(-0.95, 0.95), min_size=len(i),
                      max_size=len(i)))
    return n, i, j, np.array(t)


@given(upper_multigraph_couplings(unique=True), st.floats(0.1, 2.0))
def test_sparse_assembly_matches_transpose_add_oracle(case, beta):
    # the weighted expressions laid out by _bethe_hessian, bit for bit, with
    # the oracle reading the couplings in the graph's order
    n, i, j, w = case
    J = CouplingGraph(n, np.column_stack((i, j, w))[w != 0])
    H = bethe_hessian_weighted(J, beta).to_dense()
    assert np.array_equal(H, dense_bethe_hessian_by_transpose(
        n, J.i, J.j, np.tanh(beta * J.couplings)))


def weighted_by_column_stack(J, beta):
    """bethe_hessian_weighted's expressions, laid out as a new SparseSym."""
    t = np.tanh(beta * J.couplings)
    t2 = t * t
    c = t2 / (1 - t2)
    diag = 1 + np.bincount(J.i, c, J.n) + np.bincount(J.j, c, J.n)
    return bethe_hessian_by_column_stack(J.n, J.i, J.j, -t / (1 - t2), diag)


def unweighted_by_column_stack(A, D, beta):
    """UnweightedSystem's -beta a and d + beta^2 - 1 on A's nonzero
    off-diagonal entries, laid out as a new SparseSym."""
    off = (A.rows != A.cols) & (A.vals != 0)
    return bethe_hessian_by_column_stack(A.n, A.rows[off], A.cols[off],
                                         -beta * A.vals[off],
                                         D.diagonal() + beta * beta - 1)


@given(coupling_graphs(), st.lists(st.floats(0.05, 2.0), min_size=1,
                                   max_size=3))
def test_weighted_matrices_reuse_one_pattern_bit_for_bit(J, betas):
    # the system's matrices share one pattern; bethe_hessian_weighted builds
    # a system per call, so its matrix is equal but has its own arrays
    system = WeightedSystem(J)
    pattern = system.matrix(betas[0])
    for beta in betas:
        ref = weighted_by_column_stack(J, beta)
        H, once = system.matrix(beta), bethe_hessian_weighted(J, beta)
        assert_same_sparse(H, ref)
        assert_same_sparse(once, ref)
        assert H.rows is pattern.rows and H.cols is pattern.cols
        assert once.rows is not pattern.rows


@st.composite
def tanner_graphs(draw):
    """A TannerGraph of 1-6 checks and 1-10 variables, distinct edges."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    return TannerGraph(m, n, draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
        unique=True)))


@given(tanner_graphs(), st.lists(st.floats(1.0, 5.0), min_size=1, max_size=3))
def test_unweighted_matrices_reuse_one_pattern_bit_for_bit(g, betas):
    A, D = bipartite_adjacency(g)
    system = UnweightedSystem(A, D)
    for beta in betas:
        assert_same_sparse(system.matrix(beta),
                           unweighted_by_column_stack(A, D, beta))


def test_lifted_code_matrices_reuse_one_pattern_bit_for_bit():
    for name in ("h1.exp", "h2.exp", "h3.exp"):
        A, D = lifted(name)
        system = UnweightedSystem(A, D)
        for beta in (1.000001, 1.4142, 2.9411574077896683, 14.0):
            assert_same_sparse(system.matrix(beta),
                               unweighted_by_column_stack(A, D, beta))


def test_each_pattern_is_checked_once_for_every_beta(monkeypatch):
    checked = []
    init = SparseSym.__init__

    def counted(self, n, entries):
        checked.append(n)
        init(self, n, entries)

    J = unit_coupling_graph(6, cycle_edges(6) + [(0, 3)])
    A, D = lifted("h1.exp")
    monkeypatch.setattr(SparseSym, "__init__", counted)
    weighted = WeightedSystem(J)
    for system in (weighted, UnweightedSystem(A, D)):
        estimate_beta_N(system, EstimatorConfig())
        bisection_baseline(system, None, None, 1e-6)
    assert sorted(checked) == [6, A.n]
    # bethe_hessian_weighted checks one pattern per call
    before = bethe_hessian_weighted(J, 0.3)
    bethe_hessian_weighted(J, 0.3)
    assert checked[2:] == [6, 6]
    # a system keeps the arrays J held when it was built: after J takes new
    # ones it returns the matrix it returned before, while
    # bethe_hessian_weighted, a new system, reads the new ones
    K = CouplingGraph(6, [(0, 5, 1.0), (1, 2, -0.5)])
    J.i, J.j, J.couplings = K.i, K.j, K.couplings
    assert_same_sparse(weighted.matrix(0.3), before)
    assert_same_sparse(bethe_hessian_weighted(J, 0.3),
                       weighted_by_column_stack(K, 0.3))


def test_a_nan_temperature_is_refused_at_the_solve_naming_the_first_edge():
    # no coupling saturates at beta = nan, so the matrix is built; every
    # stored entry is NaN, and the solve names the first
    J = CouplingGraph(5, [(1, 2, 1.0), (0, 3, -0.5), (3, 4, 2.0)])
    H = bethe_hessian_weighted(J, math.nan)
    with pytest.raises(ValueError, match=r"^entry \(0,3\) is not finite$"):
        bottom_pair(H, 1e-10)


@given(upper_multigraphs(),
       st.one_of(st.floats(-0.95, 0.95),
                 st.lists(st.floats(-0.95, 0.95), min_size=1, max_size=4)))
def test_uniform_assembly_matches_transpose_add_oracle(graph, t):
    # one t on every edge copy: D and the multiplicities scale t^2/(1-t^2)
    # and t/(1-t^2) once, where the oracle adds one term per copy, so the
    # two agree to within 4 ulp of max|H| (3 measured), not bit for bit
    n, i, j = graph
    t = np.array(t) if isinstance(t, list) else t
    H = _uniform_bethe_hessian(multiplicity_adjacency(n, i, j))(t)
    ref = dense_bethe_hessian_by_transpose(
        n, i, j, np.repeat(np.reshape(t, (-1, 1)), len(i), axis=1))
    assert H.shape == np.shape(t) + (n, n)
    ref = ref.reshape(H.shape)
    scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(H - ref) <= 4 * np.spacing(scale))


@given(upper_multigraph_couplings())
def test_weighted_bass_identity_on_multigraphs(case):
    # det(I - B_t) = prod_e (1 - t_e^2) det H(t), B[e -> f] = t_f; measured
    # residuals stay below 1e-14 relative
    n, i, j, t = case
    lhs = np.linalg.det(np.eye(2 * len(i)) - weighted_non_backtracking(i, j, t))
    rhs = np.prod(1 - t * t) * np.linalg.det(
        dense_bethe_hessian_by_transpose(n, i, j, t))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@st.composite
def positive_coupling_components(draw):
    """A connected CouplingGraph of cycle rank >= 2 (a random tree plus at
    least two more edges) with couplings in [0.5, 1.5], so lambda_min
    changes sign before any coupling saturates."""
    n = draw(st.integers(4, 10))
    tree = [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    rest = [(i, j) for i in range(n) for j in range(i + 1, n)
            if (i, j) not in tree]
    edges = tree + draw(st.lists(st.sampled_from(rest), min_size=2,
                                 max_size=n + 4, unique=True))
    J = draw(st.lists(st.floats(0.5, 1.5), min_size=len(edges),
                      max_size=len(edges)))
    return CouplingGraph(n, [(i, j, w) for (i, j), w in zip(edges, J)])


@given(positive_coupling_components())
def test_root_is_where_the_weighted_non_backtracking_radius_is_one(J):
    # for positive couplings rho(B_t) rises through 1 exactly where
    # lambda_min falls through 0: a bracket-free oracle for the root.  At
    # eps 1e-6 the measured |rho - 1| stays below 2e-6.
    tr = estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=1e-6))
    assert tr.converged
    B = weighted_non_backtracking(J.i, J.j, np.tanh(tr.beta_N * J.couplings))
    assert abs(np.max(np.abs(np.linalg.eigvals(B))) - 1) <= 1e-4


# Slopes are checked where the bottom gap is at least _GAP, against a central
# difference of step _H: measured errors stay below 1e-8 relative.
_GAP = 1e-2
_H = 1e-6


def assert_slope_is_central_difference(system, beta):
    H = system.matrix(beta)
    ev = np.linalg.eigvalsh(H.to_dense())
    assume(ev[1] - ev[0] >= _GAP)
    _, v = bottom_pair(H, 1e-10)
    diff = (lambda_min(system.matrix(beta + _H))
            - lambda_min(system.matrix(beta - _H))) / (2 * _H)
    assert system.slope(beta, v) == pytest.approx(diff, rel=1e-6, abs=1e-6)


@st.composite
def simple_graphs(draw):
    """(n, edges): n >= 2 vertices and at least one edge i < j."""
    n = draw(st.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))


@given(simple_graphs(), st.data())
def test_weighted_slope_is_the_derivative_of_lambda_min(graph, data):
    # signed couplings with |beta J| <= 2, so no coupling nears saturation
    n, edges = graph
    J = data.draw(st.lists(st.floats(0.1, 2.0).flatmap(
        lambda w: st.sampled_from([w, -w])), min_size=len(edges),
        max_size=len(edges)))
    beta = data.draw(st.floats(0.05, 1.0))
    system = WeightedSystem(CouplingGraph(n, [(i, j, w) for (i, j), w
                                              in zip(edges, J)]))
    assert_slope_is_central_difference(system, beta)


@given(simple_graphs(), st.floats(0.2, 4.0))
def test_unweighted_slope_is_the_derivative_of_lambda_min(graph, beta):
    assert_slope_is_central_difference(unweighted_system(*graph), beta)


def test_lanczos_eigenvector_gives_the_dense_slope():
    # above 204 rows the vector comes from the k = 1 Lanczos solve
    rng = np.random.default_rng(3)
    edges = random_regular(500, 3, 4)
    J = CouplingGraph(500, [(i, j, rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1))
                            for i, j in edges])
    system = WeightedSystem(J)
    H = system.matrix(0.9)
    lam, v = bottom_pair(H, 1e-10)
    vals, vecs = np.linalg.eigh(H.to_dense())
    assert vals[1] - vals[0] >= _GAP
    assert lam == pytest.approx(vals[0], abs=1e-10)
    assert system.slope(0.9, v) == pytest.approx(
        system.slope(0.9, vecs[:, 0]), rel=1e-6)


def test_h2_root_solves_take_lanczos_and_match_dense_evr(monkeypatch,
                                                         eigsh_calls):
    # the 328-row h2 lift is past the k = 1 dense edge (204 rows): every
    # solve of both finders is a Lanczos solve, and its eigenvalue is
    # LAPACK evr's
    system = UnweightedSystem(*lifted("h2.exp"))

    def checked(M, tol):
        lam, v = bottom_pair(M, tol)
        ref = sla.eigh(M.to_dense(), subset_by_index=[0, 0], driver="evr")[0]
        assert abs(lam - ref[0]) <= 1e-10
        return lam, v

    monkeypatch.setattr(estimator, "bottom_pair", checked)
    lo, hi = system.bracket
    qn = estimate_beta_N(system, EstimatorConfig(lo, hi, eps=1e-6))
    bs = bisection_baseline(system, lo, hi, eps=1e-6)
    assert qn.converged and bs.converged
    assert abs(qn.beta_N - bs.beta_N) <= 1e-6
    assert (qn.eigensolver_calls, bs.eigensolver_calls) == (5, 22)
    assert eigsh_calls == [328] * 27


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
                      "rounds", "converged", "flags", "method", "bracket"}
    assert d["bracket"] == [1.5, 3.0]
    assert sum(len(r) for r in d["rounds"]) == tr.eigensolver_calls


class CubeRoot:
    """lambda_min(beta) = beta^3 - 2 on one row, with a slope that is zero or
    so small that a Newton step leaves any bracket."""

    n = 1

    def __init__(self, slope):
        self.value = slope

    def matrix(self, beta):
        return SparseSym(1, [(0, 0, beta ** 3 - 2)])

    def slope(self, beta, v):
        return self.value


@pytest.mark.parametrize("slope", [0.0, 1e-12])
def test_newton_step_without_a_usable_slope_bisects(slope):
    tr = estimate_beta_N(CubeRoot(slope), EstimatorConfig(1.0, 2.0, eps=1e-9))
    assert tr.converged
    assert abs(tr.beta_N - 2 ** (1 / 3)) <= 1e-9
    # the parabola's root, then a bisection step for every Newton step
    assert tr.flags[0] == [] and len(tr.flags) > 1
    assert all(f == ["bisection_fallback"] for f in tr.flags[1:])
    assert tr.eigensolver_calls == 3 + len(tr.flags)


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


def test_the_ladder_window_spans_a_sign_change():
    J = unit_coupling_graph(60, random_regular(60, 3, 3))
    tr = estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=1e-6))
    lo, hi = tr.bracket
    assert lambda_min(bethe_hessian_weighted(J, lo)) > 0
    assert lambda_min(bethe_hessian_weighted(J, hi)) < 0
    assert tr.converged and lo < tr.beta_N < hi
    assert abs(tr.lambda_at_root) <= 1e-6


def recorded_tols(monkeypatch):
    """The tol of every solve the estimator makes from here on."""
    tols, solve = [], estimator.bottom_pair

    def recorded(M, tol):
        tols.append(tol)
        return solve(M, tol)

    monkeypatch.setattr(estimator, "bottom_pair", recorded)
    return tols


def ladder_solves(system, eps):
    """The solves the bracket ladder makes for system at eps's tol."""
    ev = estimator._CountedEvaluator(system, min(eps / 10, 1e-8))
    estimator._ladder(ev)
    return ev.calls


@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_a_no_window_root_continues_from_the_ladders_solves(monkeypatch, eps):
    # without a window the root finder climbs the ladder and starts from its
    # end values with no second solve of them: the root of the ladder's
    # window, with the ladder's solves counted in
    J = unit_coupling_graph(60, random_regular(60, 3, 3))
    ladder_calls = ladder_solves(WeightedSystem(J), eps)
    tols = recorded_tols(monkeypatch)
    own = estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=eps))
    windowed = estimate_beta_N(WeightedSystem(J),
                               EstimatorConfig(*own.bracket, eps))
    assert own.converged and own.beta_N == windowed.beta_N
    assert own.round_points == windowed.round_points
    assert own.flags == windowed.flags
    assert own.eigensolver_calls == ladder_calls + windowed.eigensolver_calls - 2
    assert len(tols) == windowed.eigensolver_calls + own.eigensolver_calls


def seven_regular_system():
    """A 7-regular 60-vertex circulant: its unweighted root rho(B) = 6 lies
    above the starting window's 2 sqrt(7)."""
    edges = [(i, (i + s) % 60) for i in range(60) for s in (1, 2, 3)]
    return unweighted_system(60, edges + [(i, i + 30) for i in range(30)])


def test_no_window_bisection_is_bisection_on_the_ladders_window():
    # bisection climbs the same ladder: the beta, rounds and bracket of
    # bisection on that window given explicitly, with the ladder's solves
    # in its count and its two ends solved once
    own = bisection_baseline(seven_regular_system(), None, None, 1e-6)
    windowed = bisection_baseline(seven_regular_system(), *own.bracket, 1e-6)
    assert own.converged and own.method == "bisection"
    assert (own.beta_N, own.round_points, own.bracket) == (
        windowed.beta_N, windowed.round_points, windowed.bracket)
    ladder_calls = ladder_solves(seven_regular_system(), 1e-6)
    assert ladder_calls > 2
    assert own.eigensolver_calls == ladder_calls + windowed.eigensolver_calls - 2
    qn = estimate_beta_N(seven_regular_system(), EstimatorConfig(eps=1e-6))
    assert qn.bracket == own.bracket


def test_the_ladder_climbs_to_the_unweighted_root_above_its_window():
    # on a 7-regular graph the unweighted root rho(B) = d - 1 = 6 lies above
    # 2 sqrt(7), so both ends of the starting window are negative; the
    # ladder climbs past it until lambda_min changes sign around the root
    sysm = seven_regular_system()
    lo, hi = sysm.bracket
    assert (lo, hi) == (1 + 1e-6, 2 * math.sqrt(7))
    assert lambda_min(sysm.matrix(lo)) < 0 and lambda_min(sysm.matrix(hi)) < 0
    tr = estimate_beta_N(sysm, EstimatorConfig(eps=1e-8))
    lo, hi = tr.bracket
    assert 2 * math.sqrt(7) <= lo < 6 < hi
    assert lambda_min(sysm.matrix(hi)) > 0
    assert tr.converged and abs(tr.beta_N - 6) <= 1e-6


def test_a_positive_coupling_root_below_the_window_is_found_below_it():
    # K_n with unit couplings has lambda_min = 1 - (n - 1)t/(1 + t), so its
    # root atanh(1/(n - 2)) lies below the window's 0.05 from n = 23: both
    # finders climb down from 0.05 (H(0) = I) and bracket it there
    for n in range(23, 61):
        J = unit_coupling_graph(n, [(i, j) for i in range(n)
                                    for j in range(i + 1, n)])
        root = math.atanh(1 / (n - 2))
        for tr in (estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=1e-6)),
                   bisection_baseline(WeightedSystem(J), None, None, 1e-6)):
            assert tr.converged and ["ladder_minimum"] not in tr.flags
            assert abs(tr.beta_N - root) <= 1e-6
            lo, hi = tr.bracket
            assert lo < root < hi <= 0.05 and hi / lo == pytest.approx(1.6)
    # one negative coupling keeps the upward climb
    edges = [(i, j, 1.0) for i in range(30) for j in range(i + 1, 30)]
    edges[0] = (0, 1, -1.0)
    tr = estimate_beta_N(WeightedSystem(CouplingGraph(30, edges)),
                         EstimatorConfig(eps=1e-6))
    assert tr.bracket[0] > 1.0


def test_both_finders_report_a_ladder_without_a_sign_change():
    # a tree-shaped coupling graph keeps the operator positive definite all
    # the way to coupling saturation: each finder returns the ladder's
    # smallest rung, flagged, with no window searched
    J = CouplingGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    qn = estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=1e-6))
    bs = bisection_baseline(WeightedSystem(J), None, None, 1e-6)
    for tr, method in ((qn, "quadratic-newton"), (bs, "bisection")):
        assert (tr.converged, tr.flags, tr.method) == (
            False, [["ladder_minimum"]], method)
        assert tr.bracket is None and tr.to_dict()["bracket"] is None
    assert (bs.beta_N, bs.round_points) == (qn.beta_N, qn.round_points)
    # an unweighted forest has no root and never saturates: the ladder
    # spends all its growth steps, one solve at the start and one per step
    g = qc.lift(qc.parse_exponent_text("L=5\n0 -1\n-1 0\n"))
    tr = estimate_beta_N(UnweightedSystem(*qc.bipartite_adjacency(g)),
                         EstimatorConfig(eps=1e-6))
    assert (tr.converged, tr.flags, tr.eigensolver_calls) == (
        False, [["ladder_minimum"]], estimator._BRACKET_EXPANSIONS + 1)


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


def test_an_upper_end_root_is_accepted_by_both_finders():
    # the lower end is no root and the upper one is (2^(1/3) cubes to 2.0
    # exactly): both stop there after two solves, with the same rounds
    hi = 2 ** (1 / 3)
    for tr in (estimate_beta_N(CubeRoot(1.0), EstimatorConfig(1.0, hi, 1e-9)),
               bisection_baseline(CubeRoot(1.0), 1.0, hi, 1e-9)):
        assert (tr.beta_N, tr.lambda_at_root, tr.converged) == (hi, 0.0, True)
        assert tr.round_points == [[(1.0, -1.0)], [(hi, 0.0)]]
        assert (tr.eigensolver_calls, tr.flags) == (2, [])


class CubeRootOfThree(CubeRoot):
    """lambda_min(beta) = beta^3 - 3, which no double makes exactly zero."""

    def matrix(self, beta):
        return SparseSym(1, [(0, 0, beta ** 3 - 3)])


def test_both_finders_report_no_convergence_at_their_step_limits():
    # at eps = 1e-300 no step is a root: each finder stops at its limit and
    # returns its best point, unconverged
    qn = estimate_beta_N(CubeRootOfThree(1.0),
                         EstimatorConfig(1.0, 2.0, eps=1e-300))
    bs = bisection_baseline(CubeRootOfThree(1.0), 1.0, 2.0, eps=1e-300)
    assert not qn.converged and not bs.converged
    assert len(qn.flags) == 100 and len(bs.round_points) == 2 + 300
    for tr in (qn, bs):
        assert abs(tr.beta_N - 3 ** (1 / 3)) <= 1e-15
        assert abs(tr.lambda_at_root) <= 1e-14


def test_bisection_validates_through_the_config_and_names_the_values():
    with pytest.raises(ValueError, match="need 0 < beta_lower < beta_upper"):
        bisection_baseline(k4_system(), 3.0, 1.5, eps=1e-6)
    with pytest.raises(ValueError, match="eps must be positive"):
        bisection_baseline(k4_system(), 1.5, 3.0, eps=0.0)
    with pytest.raises(ValueError, match=r"^no bracket: lambda_min\(2\.5\)="):
        bisection_baseline(k4_system(), 2.5, 3.0, eps=1e-6)
    with pytest.raises(ValueError, match="go together"):
        bisection_baseline(k4_system(), 1.5, None, eps=1e-6)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-9, 1e-11])
def test_the_ladder_solves_at_the_roots_tol(monkeypatch, eps):
    # below eps = 1e-7 the root asks for a finer tol than 1e-8: a no-window
    # search solves its ladder at the root's tol too, and reaches the root
    # the same finer solves give on the same window
    J = unit_coupling_graph(60, random_regular(60, 3, 3))
    tols = recorded_tols(monkeypatch)
    own = estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=eps))
    assert own.converged and len(tols) == own.eigensolver_calls
    assert set(tols) == {min(eps / 10, 1e-8)}
    windowed = estimate_beta_N(WeightedSystem(J),
                               EstimatorConfig(*own.bracket, eps))
    assert own.to_dict()["rounds"] == windowed.to_dict()["rounds"]
    assert own.beta_N == windowed.beta_N


def test_a_ladder_without_a_sign_change_gives_its_smallest_rung(monkeypatch):
    # a path's lambda_min stays positive up to coupling saturation: the
    # search returns the solved rung of the ladder (0.05, then 1.6^k) with
    # the smallest lambda_min, unconverged and flagged, with no solve after
    # the ladder; the eighth rung saturates (tanh^2 within 1e-12 of 1)
    J = CouplingGraph(5, [(k, k + 1, 1.0) for k in range(4)])
    tols = recorded_tols(monkeypatch)
    tr = estimate_beta_N(WeightedSystem(J), EstimatorConfig(eps=1e-4))
    ladder = [0.05] + [1.6 ** k for k in range(6)]
    assert (tr.converged, tr.flags) == (False, [["ladder_minimum"]])
    assert [b for b, _ in tr.round_points[0]] == pytest.approx(ladder)
    assert len(tr.round_points) == 1 and len(tols) == tr.eigensolver_calls == 7
    assert tr.beta_N == pytest.approx(1.6 ** 5)
    assert tr.lambda_at_root == min(lam for _, lam in tr.round_points[0])
    assert tr.bracket is None
