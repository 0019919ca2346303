"""Symmetric sparse container, eigensolvers, and matrix-market round trips."""

import math

import numpy as np
import pytest

import nishigraph.sparse as sparse
from nishigraph import (CouplingGraph, SparseSym, Spectrum,
                        bethe_hessian_weighted, eig_dense, lambda_min,
                        rank_and_kernel, read_matrix_market,
                        write_matrix_market)

from util import cycle_edges, random_connected


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Counts the shift-invert (ARPACK) solves made while the test runs."""
    calls = []
    eigsh = sparse.spla.eigsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(sparse.spla, "eigsh", counted)
    return calls


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
# shift-invert branch, which eigsh_calls confirms.
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
    # the k-pair shift-invert branch that spectral_embed takes above 400
    # vertices, on a weighted Bethe-Hessian
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
