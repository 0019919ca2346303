"""Topological and spectral invariant panel for trapping-set incidence matrices.

The variable-node graph is the column-interaction graph of the incidence
matrix: adjacency A_vn = H^T H with its diagonal zeroed, so off-diagonal entry
(i, j) counts the checks shared by variables i and j.  Each TrappingSet builds
it, and its BFS spanning forest, once; every invariant reads them from there.
"""

import functools
import io

import numpy as np

from .estimator import _uniform_bethe_hessian
from .sparse import _frozen, _kernel_dim, _read_text

_NEG_TOL = -1e-8


class TrappingSet:
    """A read-only copy H of a binary check/variable incidence; a = variable
    count, b = odd-degree checks, A_vn = the read-only variable-node graph."""

    def __init__(self, H):
        H = _frozen(np.array(H, dtype=int))
        if H.ndim != 2 or H.size == 0:
            raise ValueError("nonempty 2-D incidence matrix required")
        if not ((H == 0) | (H == 1)).all():
            raise ValueError("incidence entries must be 0/1")
        self.H = H
        self.a = int(H.shape[1])
        self.b = int(np.sum(H.sum(axis=1) % 2 == 1))
        A = (H.T @ H).astype(float)
        np.fill_diagonal(A, 0.0)
        self.A_vn = _frozen(A)

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

    @functools.cached_property
    def _forest(self):
        """spanning_forest_incidence(self), read-only, built on first use."""
        Ad = self.A_vn != 0
        n = self.a
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
        return _frozen(inc)


class InvariantReport:
    """One column of the invariant panel for a single trapping set."""

    FIELDS = ("rho", "r_crit", "neg_modes_r1", "genus", "k0", "k1",
              "kervaire", "betti0", "betti1_mod2", "cycle_rank")

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw[f])

    def to_dict(self):
        return {f: getattr(self, f) for f in self.FIELDS}


def spectral_radius(ts):
    """(rho, r_crit): largest eigenvalue magnitude of A_vn and its square root."""
    ev = np.linalg.eigvalsh(ts.A_vn)
    rho = float(max(abs(ev[0]), abs(ev[-1])))
    return rho, float(np.sqrt(rho))


def betti(ts):
    """(betti0, betti1_mod2_formula, cycle_rank).

    betti0 is the Laplacian kernel dimension of the variable-node graph,
    its component count a - |spanning forest|, counted exactly.  The second
    value is the rank-nullity expression n - rank(L) - betti0, exposed
    separately because it is identically zero.  cycle_rank is |E| - |V| + c
    on the bipartite subgraph of the variables and the checks that touch
    them.  A check joins only variables adjacent in the variable-node graph,
    so c is betti0, and cycle_rank = |E| - (live checks) - |spanning forest|.
    """
    forest = spanning_forest_incidence(ts).shape[1]
    betti0 = ts.a - forest
    cycle_rank = (np.count_nonzero(ts.H) - np.count_nonzero(ts.H.any(axis=1))
                  - forest)
    return betti0, ts.a - forest - betti0, int(cycle_rank)


def negative_modes(ts):
    """Count of negative eigenvalues of the uniform-coupling Bethe-Hessian at beta=1.

    Couplings are +1 on every edge of the variable-node graph (multiplicities
    ignored); eigenvalues below -1e-8 count as negative.

    By the Bass identity det(I - uB) = (1-u^2)^|E| det H(u), the count equals
    the number of real eigenvalues >= 1/tanh(1) of the non-backtracking
    matrix B of that support graph, with multiplicity. On a forest
    det(I - uB) = 1, so the count is 0.  tanh^2(1) = 0.58 is far from
    saturation.
    """
    H = _uniform_bethe_hessian(ts.A_vn != 0)(np.tanh(1.0))
    return int(np.sum(np.linalg.eigvalsh(H) < _NEG_TOL))


def continuous_genus(ts):
    """Scalar twist measure: (sum sqrt(lambda+) - sum sqrt(-lambda-)) / (2 sqrt(n)).

    Computed on the combinatorial Laplacian of the variable-node graph, whose
    spectrum is nonnegative, so the second sum is empty.
    """
    A = ts.A_vn
    ev = np.linalg.eigvalsh(np.diag(A.sum(axis=1)) - A)
    pos = ev[ev > 1e-12]
    neg = ev[ev < -1e-12]
    return float((np.sqrt(pos).sum() - np.sqrt(-neg).sum()) / (2 * np.sqrt(ts.a)))


def kasparov_k(S, T):
    """(k0, k1) of the block operator [[0, S, T], [S^T, 0, 0], [T^T, 0, 0]].

    k0 is the operator's kernel dimension, k1 its rank mod 2.  Its
    eigenvalues are +-sigma for each singular value sigma of M = [S T] and 0
    otherwise, so its rank is 2 rank M, and k1 is 0 for every input; rank M
    counts the singular values _kernel_dim does not.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    if S.shape[0] != T.shape[0]:
        raise ValueError(f"row counts differ: {S.shape[0]} vs {T.shape[0]}")
    M = np.hstack((S, T))
    sv = np.linalg.svd(M, compute_uv=False)
    rank = 2 * (len(sv) - _kernel_dim(sv))
    return sum(M.shape) - rank, rank % 2


def spanning_forest_incidence(ts):
    """Vertex-by-edge 0/1 incidence of a BFS spanning forest of the variable graph."""
    return ts._forest


def invariant_panel(ts):
    """Assemble the full invariant panel for one trapping set.

    The block operator uses S = H^T (variables by checks) and T = the
    spanning-forest incidence of the variable-node graph, the orientation
    forced by the equal-row-count requirement.
    """
    rho, r_crit = spectral_radius(ts)
    neg = negative_modes(ts)
    genus = continuous_genus(ts)
    k0, k1 = kasparov_k(ts.H.T, spanning_forest_incidence(ts))
    betti0, betti1_formula, cycle_rank = betti(ts)
    return InvariantReport(rho=rho, r_crit=r_crit, neg_modes_r1=neg,
                           genus=genus, k0=k0, k1=k1, kervaire=k1,
                           betti0=betti0, betti1_mod2=betti1_formula,
                           cycle_rank=cycle_rank)
