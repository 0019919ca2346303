"""Topological and spectral invariant panel for trapping-set incidence matrices.

The variable-node graph is the column-interaction graph of the incidence
matrix: adjacency H^T H with its diagonal zeroed, so off-diagonal entry (i, j)
counts the checks shared by variables i and j.
"""

import io
import json

import numpy as np

from .estimator import _bethe_hessian
from .sparse import SparseSym, _kernel_dim, _read_text, eig_dense

_NEG_TOL = -1e-8


class TrappingSet:
    """Binary check/variable incidence; a = variable count, b = odd-degree checks."""

    def __init__(self, H):
        H = np.asarray(H, dtype=int)
        if H.ndim != 2 or H.size == 0:
            raise ValueError("nonempty 2-D incidence matrix required")
        if not ((H == 0) | (H == 1)).all():
            raise ValueError("incidence entries must be 0/1")
        self.H = H
        self.a = int(H.shape[1])
        self.b = int(np.sum(H.sum(axis=1) % 2 == 1))

    @classmethod
    def from_text(cls, text, source="<text>"):
        """Rows of 0/1 cells, packed ("0110") or space-separated ("0 1 1 0"),
        one format per text, chosen by its first row; blank lines and "#"
        comments are skipped, and lines end as in a text-mode file.  A row in
        the other format, a row of another width or a cell other than 0/1 is
        a ValueError naming source and the 1-based line."""
        rows = []
        spaced = None
        for number, line in enumerate(io.StringIO(text, newline=None), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split()
            if spaced is None:
                spaced = len(cells) > 1
            elif len(cells) > 1 and not spaced:
                raise ValueError(f"{source}: line {number}: space-separated "
                                 "row in a file of packed rows")
            if not spaced:
                cells = list(line)
            bad = [c for c in cells if c not in ("0", "1")]
            if bad:
                raise ValueError(f"{source}: line {number}: "
                                 f"cell {bad[0]!r} is not 0 or 1")
            if rows and len(cells) != len(rows[0]):
                raise ValueError(f"{source}: line {number}: {len(cells)} "
                                 f"cells, expected {len(rows[0])}")
            rows.append([int(c) for c in cells])
        if not rows:
            raise ValueError(f"{source}: no incidence rows")
        return cls(np.array(rows, dtype=int))

    @classmethod
    def from_file(cls, path):
        return cls.from_text(_read_text(path), path)

    @classmethod
    def from_tanner(cls, g, var_indices):
        """The trapping set induced by a variable subset of a Tanner graph:
        a row per check touching it and a column per variable, in order."""
        cols = sorted(set(var_indices))
        if cols and (cols[0] < 0 or cols[-1] >= g.n_vars):
            raise ValueError(f"variable index out of range [0, {g.n_vars})")
        col = np.full(g.n_vars, -1)
        col[cols] = np.arange(len(cols))
        check, var = g._edge_array.T
        on = col[var] >= 0
        live = np.zeros(g.n_checks, dtype=bool)
        live[check[on]] = True
        H = np.zeros((np.count_nonzero(live), len(cols)), dtype=int)
        H[np.cumsum(live)[check[on]] - 1, col[var[on]]] = 1
        return cls(H)

    def label(self):
        return f"TS({self.a},{self.b})"


class InvariantReport:
    """One column of the invariant panel for a single trapping set."""

    FIELDS = ("rho", "r_crit", "neg_modes_r1", "genus", "k0", "k1",
              "kervaire", "betti0", "betti1_mod2", "cycle_rank")

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw[f])

    def to_dict(self):
        return {f: getattr(self, f) for f in self.FIELDS}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _variable_graph(ts):
    """Dense A_vn: H^T H with its diagonal zeroed."""
    A = (ts.H.T @ ts.H).astype(float)
    np.fill_diagonal(A, 0.0)
    return A


def _laplacian(ts):
    A = _variable_graph(ts)
    return np.diag(A.sum(axis=1)) - A


def variable_adjacency(ts):
    """(A_vn, D_vn, L): zero-diagonal H^T H, its degree matrix, and D - A."""
    A = _variable_graph(ts)
    d = A.sum(axis=1)
    nz = np.flatnonzero(d)
    D = SparseSym(ts.a, np.column_stack((nz, nz, d[nz])))
    return SparseSym.from_dense(A), D, SparseSym.from_dense(np.diag(d) - A)


def spectral_radius(ts):
    """(rho, r_crit): largest eigenvalue magnitude of A_vn and its square root."""
    ev = np.linalg.eigvalsh(_variable_graph(ts))
    rho = float(max(abs(ev[0]), abs(ev[-1])))
    return rho, float(np.sqrt(rho))


def betti(ts, tol=1e-8):
    """(betti0, betti1_mod2_formula, cycle_rank).

    betti0 is the Laplacian kernel dimension of the variable-node graph.  The
    second value is the rank-nullity expression n - rank(L) - betti0, exposed
    separately because it is identically zero.  cycle_rank is |E| - |V| + c
    on the bipartite subgraph of the variables and the checks that touch
    them.  A check joins only variables adjacent in the variable-node graph,
    so c is that graph's component count, a - |spanning forest|, and
    cycle_rank = |E| - (live checks) - |spanning forest|, counted exactly.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    betti0 = _kernel_dim(np.linalg.eigvalsh(_laplacian(ts)), tol)
    rank = ts.a - betti0
    cycle_rank = (np.count_nonzero(ts.H) - np.count_nonzero(ts.H.any(axis=1))
                  - spanning_forest_incidence(ts).shape[1])
    return betti0, ts.a - rank - betti0, int(cycle_rank)


def negative_modes(ts, r=1.0):
    """Count of negative eigenvalues of the uniform-coupling Bethe-Hessian at beta=r.

    Couplings are +1 on every edge of the variable-node graph (multiplicities
    ignored); eigenvalues below -1e-8 count as negative.

    By the Bass identity det(I - uB) = (1-u^2)^|E| det H(u), the count equals
    the number of real eigenvalues >= 1/tanh(r) of the non-backtracking
    matrix B of that support graph, with multiplicity. On a forest
    det(I - uB) = 1, so the count is 0 at every r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    i, j = np.nonzero(np.triu(_variable_graph(ts)))
    t = np.full(len(i), np.tanh(r))
    ev = np.linalg.eigvalsh(_bethe_hessian(ts.a, i, j, t, dense=True))
    return int(np.sum(ev < _NEG_TOL))


def continuous_genus(ts):
    """Scalar twist measure: (sum sqrt(lambda+) - sum sqrt(-lambda-)) / (2 sqrt(n)).

    Computed on the combinatorial Laplacian of the variable-node graph, whose
    spectrum is nonnegative, so the second sum is empty.
    """
    ev = np.linalg.eigvalsh(_laplacian(ts))
    pos = ev[ev > 1e-12]
    neg = ev[ev < -1e-12]
    return float((np.sqrt(pos).sum() - np.sqrt(-neg).sum()) / (2 * np.sqrt(ts.a)))


def dirac_spectrum(ts):
    """Spectrum of [[0, A_vn], [A_vn^T, 0]]; symmetric about zero."""
    Ad = _variable_graph(ts)
    n = ts.a
    D = np.zeros((2 * n, 2 * n))
    D[:n, n:] = Ad
    D[n:, :n] = Ad.T
    return eig_dense(SparseSym.from_dense(D))


def kasparov_k(S, T):
    """(k0, k1) of the block operator [[0, S, T], [S^T, 0, 0], [T^T, 0, 0]].

    k0 is the kernel dimension of the square of the operator (equal to the
    kernel of the operator itself, as it is symmetric); k1 is its rank mod 2.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if S.shape[0] != T.shape[0]:
        raise ValueError(f"row counts differ: {S.shape[0]} vs {T.shape[0]}")
    a = S.shape[0]
    ms, mt = S.shape[1], T.shape[1]
    n = a + ms + mt
    D = np.zeros((n, n))
    D[:a, a:a + ms] = S
    D[:a, a + ms:] = T
    D[a:a + ms, :a] = S.T
    D[a + ms:, :a] = T.T
    kernel = _kernel_dim(np.linalg.eigvalsh(D))
    return kernel, (n - kernel) % 2


def spanning_forest_incidence(ts):
    """Vertex-by-edge 0/1 incidence of a BFS spanning forest of the variable graph."""
    Ad = _variable_graph(ts) != 0
    n = ts.a
    visited = [False] * n
    forest_edges = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in range(n):
                if Ad[u, w] and not visited[w]:
                    visited[w] = True
                    forest_edges.append((min(u, w), max(u, w)))
                    queue.append(w)
    inc = np.zeros((n, len(forest_edges)), dtype=int)
    for e, (u, w) in enumerate(sorted(forest_edges)):
        inc[u, e] = 1
        inc[w, e] = 1
    return inc


def invariant_panel(ts):
    """Assemble the full invariant panel for one trapping set.

    The block operator uses S = H^T (variables by checks) and T = the
    spanning-forest incidence of the variable-node graph, the orientation
    forced by the equal-row-count requirement.
    """
    rho, r_crit = spectral_radius(ts)
    neg = negative_modes(ts, 1.0)
    genus = continuous_genus(ts)
    k0, k1 = kasparov_k(ts.H.T, spanning_forest_incidence(ts))
    betti0, betti1_formula, cycle_rank = betti(ts)
    return InvariantReport(rho=rho, r_crit=r_crit, neg_modes_r1=neg,
                           genus=genus, k0=k0, k1=k1, kervaire=k1,
                           betti0=betti0, betti1_mod2=betti1_formula,
                           cycle_rank=cycle_rank)
