"""Symmetric sparse container, eigensolvers, and matrix-market round trips."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nishigraph.sparse as sparse
from nishigraph import (CouplingGraph, SparseSym, Spectrum,
                        bethe_hessian_weighted, eig_dense, lambda_min,
                        rank_and_kernel, read_matrix_market,
                        similarity_graph, synthetic_features,
                        write_matrix_market)

from util import cycle_edges, random_connected


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Sizes of the Lanczos (ARPACK) solves made while the test runs; the
    shift each passed is recorded too, and none may have passed one."""
    calls, sigmas = [], []
    eigsh = sparse.spla.eigsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        sigmas.append(kwargs.get("sigma"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(sparse.spla, "eigsh", counted)
    yield calls
    assert sigmas == [None] * len(calls)


def test_constructor_normalizes_triangle_and_rejects_duplicates():
    M = SparseSym(3, [(1, 0, 2.0), (2, 2, -1.0)])
    assert M.entries == [(0, 1, 2.0), (2, 2, -1.0)]
    with pytest.raises(ValueError):
        SparseSym(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        SparseSym(2, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        SparseSym(-1, [])


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
    assert SparseSym.identity(4).to_dense().tolist() == np.eye(4).tolist()
    assert SparseSym.zeros(3).entries == []


def test_lambda_min_dense_path_matches_numpy():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    A = (A + A.T) / 2
    S = SparseSym.from_dense(A)
    assert lambda_min(S) == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-10)


# n = 20, 40 and 400 take the dense branch; n = 401, 402 and 450 the
# Lanczos branch, which eigsh_calls confirms.
@pytest.mark.parametrize("n", [20, 402])
def test_lambda_min_iterative_path_on_even_cycle_adjacency(n, eigsh_calls):
    # adjacency spectrum of C_n is 2 cos(2 pi k / n); for even n the minimum
    # is exactly -2
    S = SparseSym(n, [(i, j, 1.0) for i, j in cycle_edges(n)])
    assert lambda_min(S) == pytest.approx(-2.0, abs=1e-8)
    assert eigsh_calls == ([n] if n > 400 else [])


@pytest.mark.parametrize("n", [40, 400, 401, 450])
def test_lambda_min_iterative_matches_dense_oracle(n, eigsh_calls):
    rng = np.random.default_rng(2)
    A = np.zeros((n, n))
    for _ in range(3 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            A[i, j] = A[j, i] = rng.standard_normal()
    S = SparseSym.from_dense(A)
    assert lambda_min(S) == pytest.approx(np.linalg.eigvalsh(A)[0], abs=1e-8)
    assert eigsh_calls == ([n] if n > 400 else [])


def test_bottom_eigenpairs_shift_invert_matches_eigh(eigsh_calls):
    # the k-pair Lanczos branch that spectral_embed takes above 400
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


def test_knn_bethe_hessian_above_400_rows_matches_eigh_by_lanczos(eigsh_calls):
    # a p = 12 similarity graph stores about 15 entries per row; above 400
    # rows it is solved by Lanczos whatever its density
    ft = synthetic_features(10, 45, 64, 6.0, seed=3)
    H = bethe_hessian_weighted(similarity_graph(ft, 2.0, 12), 0.3)
    assert H.n == 450 and H.to_csr().nnz >= 10 * H.n
    _assert_bottom_matches_eigh(H, 4, 1e-10, 1e-8, 1e-6)
    assert eigsh_calls == [450, 450]


def test_knn_bethe_hessian_at_400_rows_is_bit_equal_to_eigh(eigsh_calls):
    ft = synthetic_features(10, 40, 64, 6.0, seed=3)
    H = bethe_hessian_weighted(similarity_graph(ft, 2.0, 12), 0.3)
    assert H.n == 400
    ref_vals, ref_vecs = np.linalg.eigh(H.to_dense())
    assert lambda_min(H) == pytest.approx(ref_vals[0], abs=1e-10)
    vals, vecs = sparse.bottom_eigenpairs(H, 4, 1e-9)
    assert np.array_equal(vals, ref_vals[:4])
    assert np.array_equal(vecs, ref_vecs[:, :4])
    assert eigsh_calls == []


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
    (400, 1, False, 1, True), (401, 1, False, 1, False),
    (401, 5, False, 1, False), (401, 4, True, 1, False),
    (2000, 5, False, 1, False), (2001, 5, True, 1, False),
    (402, 1, False, 200, True), (403, 1, False, 200, False)])
def test_dense_rule_reads_rows_and_stored_entries_per_row(n, bands, diagonal,
                                                          k, dense):
    # the rule reads rows only: from 3 to 11 stored entries per row (both
    # triangles and the diagonal, as a CSR matrix holds them: 2 per
    # off-diagonal band, 1 for the diagonal) leave it where n puts it
    ar = np.arange(n)
    entries = [np.column_stack((ar, (ar + s) % n, np.ones(n)))
               for s in range(1, bands + 1)]
    if diagonal:
        entries.append(np.column_stack((ar, ar, np.ones(n))))
    M = SparseSym(n, np.concatenate(entries))
    assert M.to_csr().nnz == n * (2 * bands + diagonal)
    assert sparse._solves_dense(M, k) is dense


def test_lambda_min_input_validation():
    S = SparseSym.identity(3)
    with pytest.raises(ValueError):
        lambda_min(S, tol=0.0)
    with pytest.raises(ValueError):
        lambda_min(SparseSym(0, []))


def test_eig_dense_complete_graph_spectrum():
    # K4 adjacency eigenvalues are {-1, -1, -1, 3}
    S = SparseSym(4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
    spec = eig_dense(S)
    assert len(spec) == 4
    assert spec.eigenvalues == pytest.approx([-1.0, -1.0, -1.0, 3.0], abs=1e-9)
    assert spec.min() == pytest.approx(-1.0)
    assert spec.max() == pytest.approx(3.0)


def test_spectrum_is_sorted_regardless_of_input_order():
    s = Spectrum([3.0, -1.0, 2.0], 1e-9)
    assert s.eigenvalues == [-1.0, 2.0, 3.0]


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
    assert rank_and_kernel(SparseSym.identity(3)) == (3, 0)
    with pytest.raises(ValueError):
        rank_and_kernel(SparseSym.identity(2), tol=-1.0)


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
