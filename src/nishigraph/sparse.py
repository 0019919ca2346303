"""Sparse symmetric matrices and extremal eigenvalue routines.

Only the upper triangle is stored; symmetry is by construction.  Every
bottom-of-spectrum solve goes through lambda_min or bottom_eigenpairs, which
share one dense-or-Lanczos rule (_solves_dense); eig_dense is the
full-spectrum oracle the Lanczos branch is tested against.
"""

import io

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_DENSE_CAP = 2000
_ARPACK_MAXITER = 50000
# Bottom-of-spectrum solves on up to _DENSE_SOLVE_N rows are dense; ARPACK's
# Lanczos runs above (crossover timings in README).
_DENSE_SOLVE_N = 400


def _triples(entries):
    """(i, j, value) arrays, i <= j, from an iterable of (i, j, value)
    triples or a (k, 3) array of them."""
    a = np.asarray(entries if isinstance(entries, np.ndarray)
                   else list(entries), dtype=float)
    if a.size == 0:
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("entries must be (i, j, value) triples")
    ij = np.sort(a[:, :2].astype(np.int64), axis=1)
    return ij[:, 0], ij[:, 1], a[:, 2].copy()


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
        rows, cols, vals = _triples(entries)
        if len(rows) and (rows.min() < 0 or cols.max() >= n):
            k = np.flatnonzero((rows < 0) | (cols >= n))[0]
            raise ValueError(f"entry ({rows[k]},{cols[k]}) out of range for n={n}")
        key = np.sort(rows * n + cols)
        dup = key[1:][key[1:] == key[:-1]]
        if dup.size:
            raise ValueError(f"duplicate entry ({dup[0] // n},{dup[0] % n})")
        self.n = n
        self.rows, self.cols, self.vals = rows, cols, vals

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


def _solves_dense(M, k):
    """Whether the k lowest eigenpairs of M are solved densely: exactly
    when n <= max(2k + 2, _DENSE_SOLVE_N)."""
    return M.n <= max(2 * k + 2, _DENSE_SOLVE_N)


def lambda_min(M, tol=1e-10):
    """Smallest eigenvalue of a SparseSym, within +-tol.

    The k = 1 case of bottom_eigenpairs' rule; its dense branch computes
    the one eigenvalue (LAPACK evr) and no vectors.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if M.n == 0:
        raise ValueError("empty matrix has no eigenvalues")
    if _solves_dense(M, 1):
        return float(sla.eigh(M.to_dense(), eigvals_only=True,
                               subset_by_index=[0, 0], driver="evr")[0])
    return float(bottom_eigenpairs(M, 1, tol)[0][0])


def bottom_eigenpairs(M, k, tol):
    """(eigenvalues, eigenvectors): the k smallest eigenpairs of a SparseSym,
    eigenvalues ascending.

    Dense eigh when _solves_dense(M, k), else Lanczos for the smallest
    algebraic eigenvalues within +-tol, from a fixed (normalized all-ones)
    starting vector for reproducibility.  ARPACK's tol is relative to each
    Ritz value, which the largest absolute row sum bounds, so it is passed
    tol over that sum (at least 1).
    """
    if _solves_dense(M, k):
        vals, vecs = np.linalg.eigh(M.to_dense())
        return vals[:k], vecs[:, :k]
    A = M.to_csr()
    scale = max(1.0, float(abs(A).sum(axis=1).max()))
    v0 = np.ones(M.n) / np.sqrt(M.n)
    try:
        vals, vecs = spla.eigsh(A, k=k, which="SA", v0=v0, tol=tol / scale,
                                maxiter=_ARPACK_MAXITER)
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
    kernel = _kernel_dim(np.array(eig_dense(M).eigenvalues), tol)
    return (M.n - kernel, kernel)


def _kernel_dim(ev, tol=None):
    """Count of eigenvalues ev below tol in magnitude, by rank_and_kernel's
    rule for tol=None (1e-12 when every eigenvalue is 0)."""
    ev = np.abs(ev)
    if tol is None:
        tol = 1e-8 * ev.max() if len(ev) and ev.max() > 0 else 1e-12
    return int(np.sum(ev < tol))


def write_matrix_market(M, path):
    """Write a SparseSym in Matrix Market symmetric coordinate format (1-based)."""
    lines = ["%%MatrixMarket matrix coordinate real symmetric"]
    lines.append(f"{M.n} {M.n} {len(M.entries)}")
    for i, j, v in sorted(M.entries):
        # store lower triangle as MM symmetric convention expects row >= col
        lines.append(f"{j + 1} {i + 1} {v!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_text(path):
    """A UTF-8 file's text with every line end made a newline, as a
    text-mode file reads it; a byte that is not UTF-8 is a ValueError naming
    the file and the byte's 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).read()
    except UnicodeDecodeError as exc:
        head = io.StringIO(data[:exc.start].decode("utf-8"), newline=None)
        line = head.read().count("\n") + 1
        raise ValueError(f"{path}: line {line}: byte {data[exc.start]:#04x} "
                         "is not UTF-8") from None


def read_matrix_market(path):
    """Read a symmetric Matrix Market coordinate file of real or integer
    entries into a SparseSym.

    A bad header (complex, pattern and array files included); a size or
    entry line that is missing, short or non-numeric; a size that is not
    square, is negative or reaches 2**31; an entry out of range or
    repeating an earlier pair; and a byte that is not UTF-8 each raise
    ValueError naming the file and the 1-based line number.
    """
    lines = _read_text(path).split("\n")

    def fail(k, message):
        raise ValueError(f"{path}: line {k + 1}: {message}")

    def fields(k, types):
        line = lines[k] if k < len(lines) else ""
        parts = line.split()
        if len(parts) >= len(types):
            try:
                return [t(x) for t, x in zip(types, parts)]
            except ValueError:
                pass
        fail(k, f"expected {len(types)} numbers, found {line or 'end of file'!r}")

    header = lines[0].lower().split()
    if header[:1] != ["%%matrixmarket"] or header[4:5] != ["symmetric"]:
        fail(0, "not a symmetric MatrixMarket header")
    if header[1:4] not in (["matrix", "coordinate", "real"],
                           ["matrix", "coordinate", "integer"]):
        fail(0, f"found {' '.join(header[1:4])!r}; only coordinate real or "
                "integer matrices are read")
    k = 1
    while k < len(lines) and lines[k].startswith("%"):
        k += 1
    n, ncol, nnz = fields(k, (int, int, int))
    # SparseSym keys pair (i, j) as i * n + j in int64
    if not (n == ncol and 0 <= n < 2 ** 31 and nnz >= 0):
        fail(k, f"size {n} x {ncol} with {nnz} entries: need a square size "
                "below 2**31 and nnz >= 0")
    entries = {}
    for k in range(k + 1, k + 1 + nnz):
        r, c, v = fields(k, (int, int, float))
        if not (1 <= r <= n and 1 <= c <= n):
            fail(k, f"entry ({r},{c}) out of range for n={n}")
        pair = (min(r, c), max(r, c))
        if pair in entries:
            fail(k, f"entry ({r},{c}) repeats line {entries[pair][0] + 1}")
        entries[pair] = (k, r - 1, c - 1, v)
    return SparseSym(n, [e[1:] for e in entries.values()])
