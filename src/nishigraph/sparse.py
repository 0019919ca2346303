"""Sparse symmetric matrices and extremal eigenvalue routines.

Only the upper triangle is stored; symmetry is by construction.  Every
bottom-of-spectrum solve goes through lambda_min or bottom_eigenpairs, which
share one dense-or-shift-invert rule (_DENSE_SOLVE_N); eig_dense is the
full-spectrum oracle the shift-invert branch is tested against.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_DENSE_CAP = 2000
_ARPACK_MAXITER = 50000
# Bottom-of-spectrum solves on up to this many rows are dense; SuperLU and
# ARPACK run only above it (crossover timings in README).
_DENSE_SOLVE_N = 400


class SparseSym:
    """Symmetric real matrix stored as upper-triangle COO arrays.

    entries is an iterable of (i, j, value) triples, or a (k, 3) array of
    them; each pair is stored as i <= j in the int arrays rows and cols,
    with its value in vals, in insertion order.  Out-of-range pairs and
    duplicates ((i, j) twice, or both (i, j) and (j, i)) are rejected.
    """

    def __init__(self, n, entries):
        if n < 0:
            raise ValueError("negative dimension")
        a = np.asarray(entries if isinstance(entries, np.ndarray)
                       else list(entries), dtype=float)
        if a.size == 0:
            a = a.reshape(0, 3)
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError("entries must be (i, j, value) triples")
        ij = np.sort(a[:, :2].astype(np.int64), axis=1)
        rows, cols = ij[:, 0], ij[:, 1]
        if len(ij) and (rows.min() < 0 or cols.max() >= n):
            k = np.flatnonzero((rows < 0) | (cols >= n))[0]
            raise ValueError(f"entry ({rows[k]},{cols[k]}) out of range for n={n}")
        key = np.sort(rows * n + cols)
        dup = key[1:][key[1:] == key[:-1]]
        if dup.size:
            raise ValueError(f"duplicate entry ({dup[0] // n},{dup[0] % n})")
        self.n = n
        self.rows, self.cols, self.vals = rows, cols, a[:, 2].copy()

    @property
    def entries(self):
        """The stored (i, j, value) triples, i <= j, in insertion order."""
        return list(zip(self.rows.tolist(), self.cols.tolist(),
                        self.vals.tolist()))

    @classmethod
    def from_dense(cls, M, tol=0.0):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("square matrix required")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("matrix is not symmetric")
        i, j = np.nonzero(np.triu(np.abs(M) > tol))
        return cls(M.shape[0], np.column_stack((i, j, M[i, j])))

    @classmethod
    def identity(cls, n):
        ar = np.arange(n)
        return cls(n, np.column_stack((ar, ar, np.ones(n))))

    @classmethod
    def zeros(cls, n):
        return cls(n, [])

    def to_dense(self):
        M = np.zeros((self.n, self.n))
        M[self.rows, self.cols] = self.vals
        M[self.cols, self.rows] = self.vals
        return M

    def to_csr(self):
        off = self.rows != self.cols
        rows = np.concatenate((self.rows, self.cols[off]))
        cols = np.concatenate((self.cols, self.rows[off]))
        vals = np.concatenate((self.vals, self.vals[off]))
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def diagonal(self):
        d = np.zeros(self.n)
        on = self.rows == self.cols
        d[self.rows[on]] = self.vals[on]
        return d

    def __eq__(self, other):
        return (isinstance(other, SparseSym) and self.n == other.n
                and sorted(self.entries) == sorted(other.entries))

    def __repr__(self):
        return f"SparseSym(n={self.n}, nnz={len(self.vals)})"


class Spectrum:
    """Full sorted eigenvalue list with the absolute resolution it was computed at."""

    def __init__(self, eigenvalues, tolerance):
        ev = sorted(float(x) for x in eigenvalues)
        self.eigenvalues = ev
        self.tolerance = float(tolerance)

    def __len__(self):
        return len(self.eigenvalues)

    def min(self):
        return self.eigenvalues[0]

    def max(self):
        return self.eigenvalues[-1]


def lambda_min(M, tol=1e-10):
    """Smallest eigenvalue of a SparseSym, within +-tol.

    The k = 1 case of bottom_eigenpairs' rule: dense eigvalsh (no vectors)
    for n <= _DENSE_SOLVE_N, the shift-invert solve above it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if M.n == 0:
        raise ValueError("empty matrix has no eigenvalues")
    if M.n <= _DENSE_SOLVE_N:
        return float(np.linalg.eigvalsh(M.to_dense())[0])
    return float(bottom_eigenpairs(M, 1, tol)[0][0])


def bottom_eigenpairs(M, k, tol):
    """(eigenvalues, eigenvectors): the k smallest eigenpairs of a SparseSym,
    eigenvalues ascending.

    Dense eigh when n <= max(2k + 2, _DENSE_SOLVE_N), else shift-invert
    Lanczos within +-tol, shifted one unit below the Gershgorin lower bound
    so the k targets are the eigenvalues nearest the shift, from a fixed
    (normalized all-ones) starting vector for reproducibility.
    """
    if M.n <= max(2 * k + 2, _DENSE_SOLVE_N):
        vals, vecs = np.linalg.eigh(M.to_dense())
        return vals[:k], vecs[:, :k]
    A = M.to_csr().tocsc()
    # Gershgorin: min_i (a_ii - sum_{j != i} |a_ij|) bounds the spectrum below.
    diag = A.diagonal()
    absrow = np.abs(A).sum(axis=1).A1 - np.abs(diag)
    sigma = float(np.min(diag - absrow)) - 1.0
    v0 = np.ones(M.n) / np.sqrt(M.n)
    try:
        vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0,
                                tol=tol, maxiter=_ARPACK_MAXITER)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(
            f"eigensolver failed to converge within {_ARPACK_MAXITER} iterations"
        ) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def eig_dense(M):
    """Full spectrum by dense symmetric eigendecomposition (oracle path)."""
    if M.n > _DENSE_CAP:
        raise ValueError(f"dense path capped at n={_DENSE_CAP}")
    if M.n == 0:
        return Spectrum([], 0.0)
    ev = np.linalg.eigvalsh(M.to_dense())
    scale = max(1.0, float(np.max(np.abs(ev))))
    return Spectrum(ev, 1e-9 * scale)


def rank_and_kernel(M, tol=None):
    """(rank, kernel_dim) from the eigenvalue magnitudes; rank + kernel = n.

    tol=None uses 1e-8 times the largest eigenvalue magnitude (scale-free).
    """
    if tol is not None and tol <= 0:
        raise ValueError("tol must be positive")
    if M.n == 0:
        return (0, 0)
    ev = np.array(eig_dense(M).eigenvalues)
    if tol is None:
        scale = float(np.max(np.abs(ev))) if len(ev) else 0.0
        tol = 1e-8 * scale if scale > 0 else 1e-12
    kernel = int(np.sum(np.abs(ev) < tol))
    return (M.n - kernel, kernel)


def write_matrix_market(M, path):
    """Write a SparseSym in Matrix Market symmetric coordinate format (1-based)."""
    lines = ["%%MatrixMarket matrix coordinate real symmetric"]
    lines.append(f"{M.n} {M.n} {len(M.entries)}")
    for i, j, v in sorted(M.entries):
        # store lower triangle as MM symmetric convention expects row >= col
        lines.append(f"{j + 1} {i + 1} {v!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_market(path):
    """Read a symmetric Matrix Market coordinate file into a SparseSym.

    A size or entry line that is missing, short or non-numeric raises
    ValueError naming the file and the 1-based line number.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].lower() if lines else ""
    if "matrixmarket" not in header or "symmetric" not in header:
        raise ValueError(f"{path}: not a symmetric MatrixMarket file")
    k = 1
    while k < len(lines) and lines[k].startswith("%"):
        k += 1

    def fields(k, types):
        line = lines[k] if k < len(lines) else ""
        parts = line.split()
        if len(parts) >= len(types):
            try:
                return [t(x) for t, x in zip(types, parts)]
            except ValueError:
                pass
        raise ValueError(f"{path}: line {k + 1}: expected {len(types)} "
                         f"numbers, found {line or 'end of file'!r}")

    nrow, ncol, nnz = fields(k, (int, int, int))
    if nrow != ncol:
        raise ValueError(f"{path}: non-square matrix")
    entries = [fields(k + 1 + e, (int, int, float)) for e in range(nnz)]
    return SparseSym(nrow, [(r - 1, c - 1, v) for r, c, v in entries])
