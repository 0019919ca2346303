"""Sparse symmetric matrices and extremal eigenvalue routines.

Only the upper triangle is stored; symmetry is by construction.  Every
bottom-of-spectrum solve goes through bottom_pair (lambda_min is its
eigenvalue) or bottom_eigenpairs, which share one dense-or-Lanczos rule
(_solves_dense) and one refusal of a non-finite entry; eig_dense is the
full-spectrum oracle the Lanczos branch is tested against.
"""

import copy
import io
import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dsyevr, dsyevr_lwork

log = logging.getLogger(__name__)

_DENSE_CAP = 2000
_ARPACK_MAXITER = 50000


def _frozen(a):
    a.flags.writeable = False
    return a


def _refuse(i, j, bad, message):
    """ValueError naming the first edge (i[k], j[k]) where bad holds."""
    if bad.any():
        k = bad.argmax()
        raise ValueError(message.format(i[k], j[k]))


def _size(n, name, least=0):
    """n as a Python int, if it is an integer >= least (an integral float or
    a numpy integer included); otherwise a ValueError naming it."""
    integral = isinstance(n, (int, np.integer)) or (
        isinstance(n, (float, np.floating)) and float(n).is_integer())
    if not (integral and n >= least):
        raise ValueError(f"{name} must be >= {least} and an integer, got {n!r}")
    return int(n)


def _finite_rows(rows, where):
    """rows as a float array; ValueError naming where(k), the place of the
    first row k that holds a NaN or an infinity."""
    X = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{where(int(bad.argmax()))}: non-finite value")
    return X


def _edges(edges, width, n, m=None):
    """(i, j) int64 ids, and for width 3 float values, from an iterable of
    (i, j) pairs or (i, j, value) triples, or a (k, width) array of them.
    With m None the graph is undirected on n vertices and each pair comes
    back as i <= j, else it is bipartite on n x m and pairs come back as
    given.  The first edge whose ids are not integers in range is a
    ValueError naming it as given."""
    a = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    a = a.astype(float) if a.dtype == object else a  # ints beyond int64
    a = a.reshape(0, width) if a.size == 0 else a
    if a.ndim != 2 or a.shape[1] != width or a.dtype.kind not in "iuf":
        raise ValueError(f"edges must be {width}-tuples or a (k, {width}) array")
    i, j = a[:, 0], a[:, 1]
    # NaN stays NaN through np.minimum and np.maximum
    lo, hi = (np.minimum(i, j), np.maximum(i, j)) if m is None else (i, j)
    ok = (lo >= 0) & (hi < (n if m is None else m))
    if m is not None:
        ok &= (hi >= 0) & (lo < n)
    if a.dtype.kind == "f":
        ok &= (np.floor(lo) == lo) & (np.floor(hi) == hi)
    span = f"[0,{n})" if m is None else f"[0,{n}) x [0,{m})"
    _refuse(i, j, ~ok, "edge ({},{}): ids must be integers in " + span)
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    return (lo, hi) if width == 2 else (lo, hi, a[:, 2].astype(float))


class SparseSym:
    """Symmetric real matrix stored as upper-triangle COO arrays.

    entries is an iterable of (i, j, value) triples, or a (k, 3) array of
    them; each pair is stored as i <= j in the read-only int arrays rows
    and cols, with its value in vals, in insertion order.  A size n that is
    not an integer >= 0, ids not integers in [0, n) and duplicates ((i, j)
    twice, or both (i, j) and (j, i)) are rejected.  with_values gives
    other values on the same pattern, which it does not check again.
    """

    def __init__(self, n, entries):
        n = _size(n, "n")
        rows, cols, vals = _edges(entries, 3, n)
        key = np.sort(rows * n + cols)
        dup = key[1:][key[1:] == key[:-1]]
        if dup.size:
            raise ValueError(f"duplicate entry ({dup[0] // n},{dup[0] % n})")
        self.n = n
        self.rows, self.cols, self.vals = _frozen(rows), _frozen(cols), vals
        # to_csr's (indptr, indices, take), made once per pattern and shared
        # by every with_values copy
        self._csr_index = []

    def with_values(self, vals):
        """This matrix with vals, one per stored entry in the same order, as
        its values; the pattern and its CSR index are shared, not copied."""
        vals = np.asarray(vals, dtype=float)
        if vals.shape != self.vals.shape:
            raise ValueError(f"values of shape {vals.shape} for "
                             f"{len(self.vals)} stored entries")
        M = copy.copy(self)
        M.vals = vals
        return M

    @property
    def entries(self):
        """The stored (i, j, value) triples, i <= j, in insertion order."""
        return list(zip(self.rows.tolist(), self.cols.tolist(),
                        self.vals.tolist()))

    @classmethod
    def from_dense(cls, M):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("square matrix required")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("matrix is not symmetric")
        i, j = np.nonzero(np.triu(np.abs(M) > 0))
        return cls(M.shape[0], np.column_stack((i, j, M[i, j])))

    def to_dense(self):
        M = np.zeros((self.n, self.n))
        M[self.rows, self.cols] = self.vals
        M[self.cols, self.rows] = self.vals
        return M

    def to_csr(self):
        """The full symmetric matrix in CSR form.  Its index arrays are
        those of the COO -> CSR conversion of both triangles, made on the
        first call for the pattern and read-only; each call gathers the
        values into them."""
        if not self._csr_index:
            off = self.rows != self.cols
            rows = np.concatenate((self.rows, self.cols[off]))
            cols = np.concatenate((self.cols, self.rows[off]))
            # each CSR slot's entry, by converting the entries' positions
            take = np.concatenate((np.arange(len(self.vals)),
                                   np.flatnonzero(off)))
            A = sp.csr_matrix((take, (rows, cols)), shape=(self.n, self.n))
            self._csr_index.append(tuple(_frozen(a) for a in
                                         (A.indptr, A.indices, A.data)))
        indptr, indices, take = self._csr_index[0]
        return sp.csr_matrix((self.vals[take], indices, indptr),
                             shape=(self.n, self.n))

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


def _solves_dense(M, k):
    """Whether the k lowest eigenpairs of M are solved densely: exactly
    when n <= 200 + 4k, the measured dense/Lanczos crossover (README);
    ARPACK's Lanczos runs above."""
    return M.n <= 200 + 4 * k


def lambda_min(M, tol=1e-10):
    """Smallest eigenvalue of a SparseSym, within +-tol."""
    return bottom_pair(M, tol)[0]


def _check_tol(tol):
    """ValueError unless tol is positive and finite."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def _refuse_non_finite(M):
    """ValueError naming M's first stored entry that is NaN or infinite."""
    _refuse(M.rows, M.cols, ~np.isfinite(M.vals),
            "entry ({},{}) is not finite")


def bottom_pair(M, tol):
    """(lambda, v): the smallest eigenvalue of a SparseSym, within +-tol, and
    a unit eigenvector v for it.

    The k = 1 case of bottom_eigenpairs' rule; its dense branch computes the
    one pair by LAPACK's dsyevr, called as scipy.linalg.eigh(...,
    subset_by_index=[0, 0], driver="evr") calls it, but on the dense
    matrix's transpose, the same symmetric matrix in Fortran order, which
    dsyevr overwrites instead of copying.  A tol that is not positive and
    finite is a ValueError.
    """
    _check_tol(tol)
    if M.n == 0:
        raise ValueError("empty matrix has no eigenvalues")
    if not _solves_dense(M, 1):
        vals, vecs = bottom_eigenpairs(M, 1, tol)
        return float(vals[0]), vecs[:, 0]
    _refuse_non_finite(M)
    lwork, liwork = (int(x) for x in dsyevr_lwork(M.n, lower=1)[:2])
    w, z, _, _, info = dsyevr(M.to_dense().T, compute_v=1, range="I",
                              lower=1, il=1, iu=1, lwork=lwork, liwork=liwork,
                              overwrite_a=1)
    if info:
        raise LinAlgError(f"dsyevr failed with info {info}")
    return float(w[0]), z[:, 0]


def bottom_eigenpairs(M, k, tol):
    """(eigenvalues, eigenvectors): the k smallest eigenpairs of a SparseSym,
    eigenvalues ascending.

    Dense eigh when _solves_dense(M, k), else Lanczos for the smallest
    algebraic eigenvalues within +-tol, from a fixed (normalized all-ones)
    starting vector for reproducibility.  ARPACK refuses a start that M
    maps to zero (a d-regular graph's Bethe-Hessian at beta = d - 1): that
    solve restarts, logged, from a fixed seeded positive vector.  ARPACK's
    tol is relative to each Ritz value, which the largest absolute row sum
    bounds, so it is passed tol over that sum (at least 1).  A tol that is
    not positive and finite, or a NaN or an infinite entry, which is named,
    is a ValueError before either solve.
    """
    _check_tol(tol)
    _refuse_non_finite(M)
    if _solves_dense(M, k):
        vals, vecs = np.linalg.eigh(M.to_dense())
        return vals[:k], vecs[:, :k]
    A = M.to_csr()
    scale = max(1.0, float(abs(A).sum(axis=1).max()))
    v0 = np.ones(M.n) / np.sqrt(M.n)
    if not np.any(A @ v0):
        log.info("%d-row matrix maps the all-ones start to zero; Lanczos "
                 "restarts from a seeded positive vector", M.n)
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, M.n)
    # ARPACK gets the CSR product itself: the same kernel and bits as
    # eigsh(A), without its wrapper's round trip through an (n, 1) array
    op = spla.LinearOperator(A.shape, matvec=lambda x: A @ x, dtype=A.dtype)
    try:
        vals, vecs = spla.eigsh(op, k=k, which="SA", v0=v0, tol=tol / scale,
                                maxiter=_ARPACK_MAXITER)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(
            f"eigensolver failed to converge within {_ARPACK_MAXITER} iterations"
        ) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def eig_dense(M):
    """Ascending full spectrum by dense eigendecomposition (oracle path)."""
    if M.n > _DENSE_CAP:
        raise ValueError(f"dense path capped at n={_DENSE_CAP}")
    return np.linalg.eigvalsh(M.to_dense())


def rank_and_kernel(M, tol=None):
    """(rank, kernel_dim) from the eigenvalue magnitudes; rank + kernel = n.

    tol=None uses 1e-8 times the largest eigenvalue magnitude (scale-free);
    any other tol must be positive and finite.
    """
    if tol is not None:
        _check_tol(tol)
    kernel = _kernel_dim(eig_dense(M), tol)
    return (M.n - kernel, kernel)


def _kernel_dim(ev, tol=None):
    """Count of values ev (eigenvalues or singular values) below tol in
    magnitude, by rank_and_kernel's rule for tol=None (1e-12 when every
    value is 0)."""
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
    square, is negative or reaches 2**31; an entry out of range, NaN or
    infinite, or repeating an earlier pair; and a byte that is not UTF-8
    each raise ValueError naming the file and the 1-based line number.
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
        if not np.isfinite(v):
            fail(k, f"entry ({r},{c}) value {v} is not finite")
        pair = (min(r, c), max(r, c))
        if pair in entries:
            fail(k, f"entry ({r},{c}) repeats line {entries[pair][0] + 1}")
        entries[pair] = (k, r - 1, c - 1, v)
    return SparseSym(n, [e[1:] for e in entries.values()])
