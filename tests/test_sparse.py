"""Symmetric sparse container, eigensolvers, and matrix-market round trips."""

import logging
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given
from hypothesis import strategies as st

import nishigraph.sparse as sparse
from nishigraph import (CouplingGraph, FeatureTable, METProtograph,
                        SimpleGraph, SparseSym, TannerGraph,
                        bethe_hessian_weighted, dmin_upper_bound, eig_dense,
                        enumerate_cycles, lambda_min, lift, optimize_lift,
                        rank_and_kernel, read_matrix_market, select_indices,
                        similarity_graph, spectral_embed, synthetic_features,
                        write_matrix_market)

from util import (cycle_edges, random_connected, random_regular,
                  unweighted_system)


def test_constructor_normalizes_triangle_and_rejects_duplicates():
    M = SparseSym(3, [(1, 0, 2.0), (2, 2, -1.0)])
    assert M.entries == [(0, 1, 2.0), (2, 2, -1.0)]
    with pytest.raises(ValueError):
        SparseSym(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        SparseSym(2, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        SparseSym(-1, [])


# each graph type on n = 3 vertices (a TannerGraph: n checks, n variables)
# from (i, j) pairs; the weighted ones carry a value of 2 on every pair
GRAPH_TYPES = {
    "SparseSym": lambda edges, n=3: SparseSym(n, [(*e, 2.0) for e in edges]),
    "CouplingGraph": lambda edges, n=3: CouplingGraph(
        n, [(*e, 2.0) for e in edges]),
    "SimpleGraph": lambda edges, n=3: SimpleGraph(n, edges),
    "TannerGraph": lambda edges, n=3: TannerGraph(n, n, edges),
}


@pytest.mark.parametrize("make", GRAPH_TYPES.values(), ids=GRAPH_TYPES)
@pytest.mark.parametrize("size", [3.5, math.nan, math.inf, -math.inf, -1])
def test_every_graph_type_refuses_a_size_that_is_not_a_count(make, size):
    # the size is refused by one rule, naming it, before any edge is checked
    # against it: (0, 3) lies outside every size that rounds to 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            make([(0, 1), (0, 3)], size)
    assert re.fullmatch(r"(n|n_checks) must be >= 0 and an integer, got "
                        + re.escape(repr(size)), str(err.value)), err.value


@pytest.mark.parametrize("make", GRAPH_TYPES.values(), ids=GRAPH_TYPES)
@pytest.mark.parametrize("bad", [0.5, math.nan, math.inf, -math.inf, -1, 3,
                                 2 ** 70])
def test_every_graph_type_refuses_an_id_that_is_not_an_integer_in_range(
        make, bad):
    # one parser names the first bad edge as given, before any cast: no id
    # is truncated, and no NaN or huge id sets off a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for edges, named in (([(0, 1), (bad, 2)], [bad, 2]),
                             ([(0, 1), (2, bad)], [2, bad])):
            with pytest.raises(ValueError) as err:
                make(edges)
            shown = re.fullmatch(r"edge \((.+),(.+)\): ids must be integers "
                                 r"in \[0,3\)( x \[0,3\))?", str(err.value))
            assert shown, str(err.value)
            assert [float(x) for x in shown.groups()[:2]] == pytest.approx(
                named, nan_ok=True)


@pytest.mark.parametrize("make", GRAPH_TYPES.values(), ids=GRAPH_TYPES)
def test_integral_float_ids_are_stored_as_the_ints_are(make):
    # and so are an integral float size and a numpy integer size
    want = vars(make([(0, 1), (2, 1)]))
    for edges, n in (([(0.0, 1.0), (2.0, 1)], 3),
                     (np.array([(0.0, 1.0), (2.0, 1.0)]), 3),
                     ([(0, 1), (2, 1)], 3.0), ([(0, 1), (2, 1)], np.int64(3))):
        got = vars(make(edges, n))
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[name].dtype == value.dtype
                assert np.array_equal(got[name], value)
            else:
                assert type(got[name]) is type(value)
                assert got[name] == value


def test_from_dense_requires_symmetry():
    M = np.array([[1.0, 2.0], [2.0, 3.0]])
    S = SparseSym.from_dense(M)
    assert np.allclose(S.to_dense(), M)
    with pytest.raises(ValueError):
        SparseSym.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        SparseSym.from_dense(np.ones((2, 3)))


def test_dense_csr_diagonal_agree():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 7))
    A = (A + A.T) / 2
    S = SparseSym.from_dense(A)
    assert np.allclose(S.to_csr().toarray(), A)
    assert np.allclose(S.diagonal(), np.diag(A))
    eye = SparseSym(4, [(i, i, 1.0) for i in range(4)])
    assert eye.to_dense().tolist() == np.eye(4).tolist()
    assert SparseSym(3, []).entries == []


def test_lambda_min_dense_path_matches_numpy():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    A = (A + A.T) / 2
    S = SparseSym.from_dense(A)
    assert lambda_min(S) == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)


# A k = 1 solve is dense up to 204 rows (200 + 4k): n = 20, 40 and 204 take
# the dense branch; n = 205, 401, 402 and 450 the Lanczos branch, which
# eigsh_calls confirms.
@pytest.mark.parametrize("n", [20, 402])
def test_lambda_min_iterative_path_on_even_cycle_adjacency(n, eigsh_calls):
    # adjacency spectrum of C_n is 2 cos(2 pi k / n); for even n the minimum
    # is exactly -2
    S = SparseSym(n, [(i, j, 1.0) for i, j in cycle_edges(n)])
    assert lambda_min(S) == pytest.approx(-2.0, abs=1e-8)
    assert eigsh_calls == ([n] if n > 204 else [])


@pytest.mark.parametrize("n", [40, 204, 205, 401, 450])
def test_lambda_min_iterative_matches_dense_oracle(n, eigsh_calls):
    rng = np.random.default_rng(2)
    A = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            A[i, j] = A[j, i] = rng.standard_normal()
    S = SparseSym.from_dense(A)
    assert lambda_min(S) == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-8)
    assert eigsh_calls == ([n] if n > 204 else [])


@pytest.mark.parametrize("graph", ["random", "path"])
def test_lambda_min_tol_is_absolute_under_a_large_shift(graph, eigsh_calls):
    # every eigenvalue lies near -1e6, where ARPACK's tol, relative to the
    # Ritz value, would allow an error of about tol * 1e6: lambda_min must
    # pass tol over the row-sum scale to keep its +-tol promise
    n = 600
    A = np.zeros((n, n))
    if graph == "random":
        rng = np.random.default_rng(2)
        for _ in range(3 * n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                A[i, j] = A[j, i] = rng.standard_normal()
    else:
        A[np.arange(n - 1), np.arange(1, n)] = A[np.arange(1, n), np.arange(n - 1)] = 1.0
    A -= 1e6 * np.eye(n)
    got = lambda_min(SparseSym.from_dense(A), 1e-4)
    assert eigsh_calls == [n]
    assert abs(got - np.linalg.eigvalsh(A)[0]) < 1e-4


def test_bottom_eigenpairs_shift_invert_matches_eigh(eigsh_calls):
    # the k-pair Lanczos branch that spectral_embed takes above 200 + 4k
    # vertices, on a sparse weighted Bethe-Hessian
    rng = np.random.default_rng(5)
    n, k = 450, 4
    edges = random_connected(n, 8.0 / n, rng)
    J = CouplingGraph(n, [(i, j, rng.uniform(0.2, 1.0)) for i, j in edges])
    H = bethe_hessian_weighted(J, 0.6)
    ref_vals, ref_vecs = np.linalg.eigh(H.to_dense())
    # distinct bottom eigenvalues, so each vector is defined up to sign
    assert np.min(np.diff(ref_vals[:k + 1])) > 1e-3
    vals, vecs = sparse.bottom_eigenpairs(H, k, 1e-9)
    assert eigsh_calls == [n]
    assert np.max(np.abs(vals - ref_vals[:k])) < 1e-8
    signs = np.sign(np.sum(vecs * ref_vecs[:, :k], axis=0))
    assert np.max(np.abs(vecs * signs - ref_vecs[:, :k])) < 1e-6


def _assert_bottom_matches_eigh(H, k, lam_tol, val_tol, vec_tol):
    """lambda_min and the k bottom pairs of H against numpy's eigh; vectors
    up to sign, so the k + 1 bottom eigenvalues must be distinct."""
    ref_vals, ref_vecs = np.linalg.eigh(H.to_dense())
    assert np.min(np.diff(ref_vals[:k + 1])) > 1e-3
    assert lambda_min(H) == pytest.approx(ref_vals[0], abs=lam_tol)
    vals, vecs = sparse.bottom_eigenpairs(H, k, 1e-9)
    assert np.max(np.abs(vals - ref_vals[:k])) <= val_tol
    signs = np.sign(np.sum(vecs * ref_vecs[:, :k], axis=0))
    assert np.max(np.abs(vecs * signs - ref_vecs[:, :k])) <= vec_tol


def _knn_bethe_hessian(n):
    """The weighted Bethe-Hessian at beta = 0.3 of a p = 12 similarity graph
    on the first n of 330 ten-class rows: about 15 entries per row."""
    ft = synthetic_features(10, 33, 64, 6.0, seed=3)
    J = similarity_graph(FeatureTable(ft.X[:n], ft.labels[:n]), 2.0, 12)
    return bethe_hessian_weighted(J, 0.3)


def test_knn_bethe_hessian_above_400_rows_matches_eigh_by_lanczos(eigsh_calls):
    # a p = 12 similarity graph stores about 15 entries per row; above
    # 200 + 4k rows it is solved by Lanczos whatever its density
    ft = synthetic_features(10, 45, 64, 6.0, seed=3)
    H = bethe_hessian_weighted(similarity_graph(ft, 2.0, 12), 0.3)
    assert H.n == 450 and H.to_csr().nnz >= 10 * H.n
    _assert_bottom_matches_eigh(H, 4, 1e-10, 1e-8, 1e-6)
    assert eigsh_calls == [450, 450]


@pytest.mark.parametrize("k", [1, 4, 32])
def test_knn_bethe_hessian_at_the_dense_edge_is_bit_equal_to_eigh(k,
                                                                  eigsh_calls):
    # 200 + 4k rows, the most that k pairs are solved densely on; lambda_min
    # is the k = 1 case, so above 204 rows it takes Lanczos
    H = _knn_bethe_hessian(200 + 4 * k)
    ref_vals, ref_vecs = np.linalg.eigh(H.to_dense())
    assert lambda_min(H) == pytest.approx(ref_vals[0], abs=1e-10)
    vals, vecs = sparse.bottom_eigenpairs(H, k, 1e-9)
    assert np.array_equal(vals, ref_vals[:k])
    assert np.array_equal(vecs, ref_vecs[:, :k])
    assert eigsh_calls == ([] if k == 1 else [H.n])


@pytest.mark.parametrize("k", [1, 4, 32])
def test_knn_bethe_hessian_past_the_dense_edge_matches_eigh_by_lanczos(
        k, eigsh_calls):
    H = _knn_bethe_hessian(201 + 4 * k)
    _assert_bottom_matches_eigh(H, k, 1e-10, 1e-8, 1e-6)
    assert eigsh_calls == [H.n, H.n]


def test_pm_j_bethe_hessian_above_400_rows_matches_eigh(eigsh_calls):
    # with negative couplings H is no Z-matrix, so the all-ones start
    # vector is no approximate Perron vector
    rng = np.random.default_rng(7)
    n = 460
    edges = random_connected(n, 6.0 / n, rng)
    signs = rng.choice([-1.0, 1.0], size=len(edges), p=[0.3, 0.7])
    J = CouplingGraph(n, [(i, j, s * rng.uniform(0.2, 1.0))
                          for (i, j), s in zip(edges, signs)])
    assert np.any(J.couplings < 0)
    H = bethe_hessian_weighted(J, 0.8)
    _assert_bottom_matches_eigh(H, 4, 1e-10, 1e-8, 1e-6)
    assert eigsh_calls == [n, n]


@pytest.mark.parametrize("n, bands, diagonal, k, dense", [
    (204, 1, False, 1, True), (205, 1, False, 1, False),
    (204, 5, False, 1, True), (401, 1, False, 1, False),
    (401, 5, False, 1, False), (401, 4, True, 1, False),
    (216, 1, False, 4, True), (217, 4, True, 4, False),
    (328, 1, False, 32, True), (329, 1, False, 32, False),
    (2000, 5, False, 1, False), (2001, 5, True, 1, False),
    (402, 1, False, 200, True), (1000, 1, False, 200, True),
    (1001, 1, False, 200, False)])
def test_dense_rule_reads_rows_and_stored_entries_per_row(n, bands, diagonal,
                                                          k, dense):
    # the rule reads rows and k only, dense up to 200 + 4k rows: from 3 to
    # 11 stored entries per row (both triangles and the diagonal, as a CSR
    # matrix holds them: 2 per off-diagonal band, 1 for the diagonal) leave
    # it where n puts it
    ar = np.arange(n)
    entries = [np.column_stack((ar, (ar + s) % n, np.ones(n)))
               for s in range(1, bands + 1)]
    if diagonal:
        entries.append(np.column_stack((ar, ar, np.ones(n))))
    M = SparseSym(n, np.concatenate(entries))
    assert M.to_csr().nnz == n * (2 * bands + diagonal)
    assert sparse._solves_dense(M, k) is dense


def test_lanczos_restarts_when_the_all_ones_start_maps_to_zero(eigsh_calls,
                                                               caplog):
    # a 3-regular graph's H(2) = 6I - 2A maps the all-ones start to zero,
    # which ARPACK refuses: the solve restarts from a seeded positive vector,
    # logged, and finds the bottom pair (0, the normalized all-ones vector)
    n = 450
    H = unweighted_system(n, random_regular(n, 3, 0)).matrix(2.0)
    assert not np.any(H.to_csr() @ np.ones(n))
    with caplog.at_level(logging.INFO, logger="nishigraph.sparse"):
        lam, v = sparse.bottom_pair(H, 1e-10)
    assert eigsh_calls == [n]
    assert abs(lam) <= 1e-10
    assert np.max(np.abs(np.abs(v) - 1 / math.sqrt(n))) < 1e-6
    assert [r.getMessage() for r in caplog.records] == [
        f"{n}-row matrix maps the all-ones start to zero; Lanczos restarts "
        "from a seeded positive vector"]


def test_lambda_min_input_validation(eigsh_calls):
    # a tol that is not positive and finite is refused on the dense (n = 50)
    # and the Lanczos (n = 400) branches before either solves, by lambda_min
    # and by bottom_eigenpairs alike
    for n in (50, 400):
        S = SparseSym(n, [(i, i, 1.0) for i in range(n)])
        for tol in (0.0, math.nan, math.inf, -math.inf):
            for solve in (lambda: lambda_min(S, tol=tol),
                          lambda: sparse.bottom_eigenpairs(S, 2, tol)):
                with pytest.raises(ValueError,
                                   match="^tol must be positive and finite$"):
                    solve()
    assert eigsh_calls == []
    with pytest.raises(ValueError):
        lambda_min(SparseSym(0, []))
    with pytest.raises(ValueError, match="dense path capped at n=2000"):
        eig_dense(SparseSym(2001, []))
    assert len(eig_dense(SparseSym(0, []))) == 0


def _symmetric(n, seed, kind):
    """An n-row SparseSym: a dense standard-normal matrix, a sparse
    Bethe-Hessian-like one (signed off-diagonal, dominant diagonal), or a
    diagonal of small integers, whose bottom eigenvalue repeats."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return SparseSym(n, [(k, k, float(x))
                             for k, x in enumerate(rng.integers(0, 3, n))])
    A = rng.standard_normal((n, n))
    if kind == "sparse":
        A *= rng.random((n, n)) < 4 / n
        A = np.triu(A, 1)
        A += A.T + np.diag(np.abs(A).sum(axis=1) * rng.uniform(0.5, 1.5, n))
    return SparseSym.from_dense(A + A.T if kind == "dense" else A)


@given(st.integers(1, 204), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["dense", "sparse", "diagonal"]))
@example(1, 0, "dense")
@example(204, 0, "sparse")
@example(204, 1, "diagonal")
def test_dense_bottom_pair_is_scipys_evr_bit_for_bit(n, seed, kind):
    M = _symmetric(n, seed, kind)
    lam, v = sparse.bottom_pair(M, 1e-10)
    vals, vecs = sla.eigh(M.to_dense(), subset_by_index=[0, 0], driver="evr")
    assert np.float64(lam).tobytes() == vals[:1].tobytes()
    assert v.shape == (n,) and v.tobytes() == vecs[:, 0].tobytes()


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_is_refused_before_any_solve(n, bad, capfd,
                                                       eigsh_calls):
    # the first stored bad entry is named, on the dense (n = 50) and the
    # Lanczos (n = 400) branches alike, and neither LAPACK nor ARPACK runs
    M = SparseSym(n, [(k, k, 1.0) for k in range(n)]
                  + [(3, 4, bad), (0, 1, bad)])
    for solve in (lambda: sparse.bottom_pair(M, 1e-10),
                  lambda: sparse.bottom_eigenpairs(M, 2, 1e-10),
                  lambda: sparse.bottom_eigenpairs(M, 1, 1e-10)):
        with pytest.raises(ValueError, match=r"^entry \(3,4\) is not finite$"):
            solve()
    assert eigsh_calls == []
    assert capfd.readouterr().err == ""


def test_with_values_shares_the_pattern_and_its_csr_index():
    M = SparseSym(4, [(2, 1, 5.0), (0, 0, 1.0), (1, 3, -2.0)])
    N = M.with_values([7.0, -1.0, 0.5])
    assert N.entries == [(1, 2, 7.0), (0, 0, -1.0), (1, 3, 0.5)]
    assert M.entries == [(1, 2, 5.0), (0, 0, 1.0), (1, 3, -2.0)]
    assert N.rows is M.rows and N.cols is M.cols
    assert not (M.rows.flags.writeable or M.cols.flags.writeable)
    A, B = M.to_csr(), N.to_csr()
    for a in ("indices", "indptr"):
        X, Y = getattr(A, a), getattr(B, a)
        assert np.shares_memory(X, Y) and not X.flags.writeable
    assert np.array_equal(B.toarray(), N.to_dense())
    for vals in ([1.0, 2.0], np.ones((3, 1))):
        with pytest.raises(ValueError, match="stored entries$"):
            M.with_values(vals)


def test_eig_dense_complete_graph_spectrum():
    # K4 adjacency eigenvalues are {-1, -1, -1, 3}
    S = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    spec = eig_dense(S)
    assert len(spec) == 4
    assert spec.tolist() == pytest.approx([-1.0, -1.0, -1.0, 3.0], abs=1e-9)
    assert spec.min() == pytest.approx(-1.0)
    assert spec.max() == pytest.approx(3.0)


def test_rank_and_kernel_counts_laplacian_components():
    # Laplacian kernel dimension equals the number of connected components.
    def laplacian(n, edges):
        deg = [0.0] * n
        ent = []
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
            ent.append((i, j, -1.0))
        ent.extend((i, i, deg[i]) for i in range(n))
        return SparseSym(n, ent)

    path = laplacian(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    rank, kernel = rank_and_kernel(path)
    assert (rank, kernel) == (4, 1)
    two = laplacian(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert rank_and_kernel(two) == (4, 2)
    eye = SparseSym(3, [(i, i, 1.0) for i in range(3)])
    assert rank_and_kernel(eye) == (3, 0)
    for tol in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError,
                           match="^tol must be positive and finite$"):
            rank_and_kernel(SparseSym(2, [(0, 0, 1.0), (1, 1, 1.0)]), tol=tol)


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    A = (A + A.T) / 2
    S = SparseSym.from_dense(A)
    path = tmp_path / "m.mtx"
    write_matrix_market(S, str(path))
    back = read_matrix_market(str(path))
    assert back == S
    assert np.allclose(back.to_dense(), A)


def test_matrix_market_names_the_bad_line(tmp_path):
    head = "%%MatrixMarket matrix coordinate real symmetric\n% note\n"
    cases = [("3 3\n", 3),                       # short size line
             ("3 3 2\n1 1 1.0\n2 1\n", 5),      # short entry
             ("3 3 2\n1 1 1.0\n2 x 1.0\n", 5),  # non-numeric entry
             ("3 3 2\n1 1 1.0\n", 5)]            # missing entry
    path = tmp_path / "t.mtx"
    for body, line in cases:
        path.write_text(head + body)
        with pytest.raises(ValueError, match=f"t.mtx: line {line}:"):
            read_matrix_market(str(path))


def test_matrix_market_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
    with pytest.raises(ValueError):
        read_matrix_market(str(path))


@pytest.mark.parametrize("text, message", [
    # the bad header, size or entry is named by its line
    ("real general\n2 2 1\n", "line 1: not a symmetric MatrixMarket header"),
    ("real skew-symmetric\n2 2 1\n1 2 1.0\n",
     "line 1: not a symmetric MatrixMarket header"),
    ("real general symmetric\n2 2 1\n1 2 1.0\n",
     "line 1: not a symmetric MatrixMarket header"),
    *((f"real symmetric\n{n} {m} {nnz}\n", f"line 2: size {n} x {m} with "
       f"{nnz} entries: need a square size below 2**31 and nnz >= 0")
      for n, m, nnz in ((2, 3, 0), (-1, -1, 0), (2, 2, -1),
                        (2 ** 31, 2 ** 31, 0))),
    ("real symmetric\n% c\n2 2 2\n1 1 1.0\n0 1 1.0\n",
     "line 5: entry (0,1) out of range for n=2"),
    ("real symmetric\n2 2 2\n1 2 1.0\n2 3 1.0\n",
     "line 4: entry (2,3) out of range for n=2"),
    ("real symmetric\n2 2 2\n1 2 1.0\n2 1 5.0\n",
     "line 4: entry (2,1) repeats line 3"),
    *((f"real symmetric\n3 3 2\n1 1 1.0\n3 2 {v}\n",
       f"line 4: entry (3,2) value {float(v)} is not finite")
      for v in ("nan", "inf", "-Infinity")),
    # a Unicode line separator inside a comment does not end the line
    ("real symmetric\n% c\u2028 1 1 1\n1 1 0\n", None),
])
def test_matrix_market_names_the_line_of_a_bad_size_or_entry(tmp_path, text,
                                                             message):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate " + text, encoding="utf-8")
    if message is None:
        assert read_matrix_market(str(path)) == SparseSym(1, [])
        return
    with pytest.raises(ValueError) as err:
        read_matrix_market(str(path))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("header, kind", [
    ("matrix coordinate complex symmetric", "matrix coordinate complex"),
    ("matrix coordinate pattern symmetric", "matrix coordinate pattern"),
    ("matrix array real symmetric", "matrix array real")])
def test_matrix_market_reads_only_coordinate_real_or_integer(tmp_path, header,
                                                             kind):
    # a complex file's entry lines hold the real part first, so reading
    # them as real would drop the imaginary parts without a word
    path = tmp_path / "m.mtx"
    path.write_text(f"%%MatrixMarket {header}\n2 2 1\n1 1 1.0 2.0\n")
    with pytest.raises(ValueError) as err:
        read_matrix_market(str(path))
    assert str(err.value) == (f"{path}: line 1: found {kind!r}; only "
                              "coordinate real or integer matrices are read")
    path.write_text("%%MatrixMarket matrix coordinate integer symmetric\n"
                    "2 2 1\n2 1 3\n")
    assert read_matrix_market(str(path)) == SparseSym(2, [(0, 1, 3.0)])


def test_matrix_market_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\r\n"
                     b"% caf\xe9\n1 1 1\n1 1 2.0\n")
    with pytest.raises(ValueError) as err:
        read_matrix_market(str(path))
    assert str(err.value) == f"{path}: line 2: byte 0xe9 is not UTF-8"


_MM_HEADER = "%%MatrixMarket matrix coordinate real symmetric"
_MM_SMALL = st.integers(-1, 3).map(str)
_MM_TOKEN = st.one_of(_MM_SMALL, st.integers().map(str), st.floats().map(repr),
                      st.sampled_from(["x", "nan", "1e400", "%", "2.5"]))
_MM_LINE = st.one_of(st.tuples(_MM_SMALL, _MM_SMALL, _MM_TOKEN).map(" ".join),
                     st.lists(_MM_TOKEN, max_size=4).map(" ".join),
                     st.just("% note"), st.text(max_size=6))
_MM_SIZE = st.tuples(_MM_SMALL, st.integers(-1, 4).map(str)).map(
    lambda nk: f"{nk[0]} {nk[0]} {nk[1]}")


@given(st.sampled_from([_MM_HEADER, _MM_HEADER.lower(), "%%MatrixMarket",
                        _MM_HEADER + " \x85 1 1 1", ""]),
       st.lists(st.one_of(_MM_SIZE, _MM_LINE), max_size=2),
       st.lists(_MM_LINE, max_size=5))
def test_matrix_market_gives_a_matrix_or_names_the_line(tmp_path_factory,
                                                        header, size, body):
    path = tmp_path_factory.getbasetemp() / "fuzz.mtx"
    path.write_text("\n".join([header] + size + body), encoding="utf-8")
    # the file's lines as text mode reads them; line len + 1 is end of file
    n_lines = len(path.read_text(encoding="utf-8").split("\n"))
    try:
        M = read_matrix_market(str(path))
    except ValueError as exc:
        number = re.fullmatch(rf"{re.escape(str(path))}: line (\d+): .+",
                              str(exc), re.DOTALL)
        assert number and 1 <= int(number[1]) <= n_lines + 1, str(exc)
    else:
        assert isinstance(M, SparseSym)


_BLOBS = synthetic_features(3, 10, 8, 5.0, seed=0)
_FREE = METProtograph([[[None]] * 3 for _ in range(2)], 2, allow_unset=True)


def _search(L=8, restarts=2, steps=5):
    r = optimize_lift(_FREE, L, 6, 2, 0, restarts=restarts, steps=steps)
    return r.proto.cells, r.girth, r.min_ace, r.satisfied, r.restarts_used


# every count a public function takes: (its name in the refusal, its least
# value, a valid value, the call with that count and a comparable result)
PUBLIC_COUNTS = [
    ("n", 0, 3, lambda n: SparseSym(n, [(0, 2, 1.0)]).entries),
    ("n", 0, 3, lambda n: CouplingGraph(n, [(0, 2, 1.0)]).edges),
    ("n", 0, 3, lambda n: SimpleGraph(n, [(0, 2)]).edges),
    ("n_checks", 0, 2, lambda m: TannerGraph(m, 3, [(1, 2)]).edges),
    ("n_vars", 0, 3, lambda n: TannerGraph(2, n, [(1, 2)]).edges),
    ("circulant size", 1, 3,
     lambda L: lift(METProtograph([[[0, 1]]], L)).edges),
    ("p", 1, 3, lambda p: similarity_graph(_BLOBS, 2.0, p).edges),
    ("r", 1, 2, lambda r: spectral_embed(
        similarity_graph(_BLOBS, 2.0, 4), r).coords.tolist()),
    ("s", 1, 3, lambda s: select_indices(_BLOBS, s)),
    ("n_classes", 1, 3, lambda k: synthetic_features(k, 4, 5, 5.0).X.tolist()),
    ("per_class", 1, 3, lambda k: synthetic_features(3, k, 5, 5.0).X.tolist()),
    ("dim", 1, 3, lambda d: synthetic_features(3, 4, d, 5.0).X.tolist()),
    ("max_len", 0, 6, lambda k: [c.vertices for c in enumerate_cycles(
        lift(METProtograph([[[0, 1], [0, 2]]], 3)), k)]),
    ("circulant size", 2, 8, lambda L: _search(L=L)),
    ("restarts", 1, 2, lambda k: _search(restarts=k)),
    ("steps", 0, 5, lambda k: _search(steps=k)),
    ("v", 1, 2, lambda v: dmin_upper_bound([[1, 1, 1], [1, 1, 1]], v)),
]


@pytest.mark.parametrize("name, least, valid, call", PUBLIC_COUNTS)
def test_every_public_count_follows_one_size_rule(name, least, valid, call):
    # a count that is not an integer is refused by name, as every count is
    # by sparse._size; an integral float counts as its integer
    for bad in (2.5, math.nan, "3"):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= "
                           f"{least} and an integer, got "
                           f"{re.escape(repr(bad))}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= "
                       f"{least} and an integer, got {least - 1}$"):
        call(least - 1)
    assert call(float(valid)) == call(valid)
