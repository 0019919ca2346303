"""Non-backtracking operator, Bass determinant identities, and pole matching.

The directed-edge operator B acts on ordered edge copies; B[(u,v),(v,w)] = 1
whenever w != u (and, for parallel copies, whenever the step does not reverse
the exact copy just traversed).  Determinants are evaluated densely: these
routines are correctness oracles, not large-scale tools.
"""

import numpy as np

from .estimator import _bethe_hessian

_EDGE_CAP = 500
_DET_CAP = 200


class SimpleGraph:
    """Undirected graph with integer edge multiplicities."""

    def __init__(self, n, edges):
        self.n = int(n)
        mult = {}
        for e in edges:
            i, j = int(e[0]), int(e[1])
            m = int(e[2]) if len(e) > 2 else 1
            if i == j:
                raise ValueError("self-loops not supported")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if m < 1:
                raise ValueError("edge multiplicity must be >= 1")
            key = (min(i, j), max(i, j))
            mult[key] = mult.get(key, 0) + m
        self.mult = dict(sorted(mult.items()))

    @classmethod
    def from_sparse(cls, M, multiplicities=False):
        """Off-diagonal support of a SparseSym; weights become multiplicities on request."""
        edges = []
        for i, j, v in M.entries:
            if i != j and v != 0:
                m = int(round(v)) if multiplicities else 1
                edges.append((i, j, max(m, 1)))
        return cls(M.n, edges)

    def n_edges(self):
        return sum(self.mult.values())

    def is_multigraph(self):
        return any(m > 1 for m in self.mult.values())

    def degrees(self):
        d = [0] * self.n
        for (i, j), m in self.mult.items():
            d[i] += m
            d[j] += m
        return d


class DirectedEdgeSpace:
    """Ordered edge copies plus the non-backtracking matrix over them."""

    def __init__(self, directed_edges, B):
        self.directed_edges = directed_edges
        self.B = B


def _directed_edge_matrix(g):
    # one directed pair per edge copy, lexicographic by (tail, head, copy)
    des = []
    for (i, j), m in g.mult.items():
        for copy in range(m):
            des.append((i, j, copy))
            des.append((j, i, copy))
    des.sort()
    idx = {e: k for k, e in enumerate(des)}
    B = np.zeros((len(des), len(des)))
    for (u, v, c1) in des:
        for (x, y, c2) in des:
            if x == v and not (y == u and c2 == c1 and
                               (min(u, v), max(u, v)) == (min(x, y), max(x, y))):
                B[idx[(u, v, c1)], idx[(x, y, c2)]] = 1
    return DirectedEdgeSpace(des, B)


def non_backtracking(g):
    """Directed-edge non-backtracking operator of a simple graph."""
    if g.is_multigraph():
        raise ValueError("multigraphs not supported by the public operator")
    if g.n_edges() > _EDGE_CAP:
        raise ValueError(f"edge count capped at {_EDGE_CAP}")
    return _directed_edge_matrix(g)


def zeta_reciprocal(g, u):
    """det(I - uB): reciprocal of the cycle-product zeta function."""
    if g.n_edges() > _DET_CAP:
        raise ValueError(f"determinant path capped at {_DET_CAP} edges")
    B = _directed_edge_matrix(g).B
    return float(np.linalg.det(np.eye(len(B)) - u * B))


def _edge_arrays(g):
    """Endpoint index arrays of g's edges, each repeated by its multiplicity."""
    ij = np.array(list(g.mult), dtype=np.intp).reshape(-1, 2)
    m = np.array(list(g.mult.values()), dtype=np.intp)
    return np.repeat(ij[:, 0], m), np.repeat(ij[:, 1], m)


def _bass_sides(g, u):
    """(det(I - uB), H(u), (1-u^2)^(|E|-|V|)), with H(u) the uniform-coupling
    Bethe-Hessian after the substitution u = tanh(beta J)."""
    if abs(abs(u) - 1.0) < 1e-12:
        raise ValueError("u = +-1 is outside the identity's domain")
    i, j = _edge_arrays(g)
    H = _bethe_hessian(g.n, i, j, np.full(len(i), float(u)), dense=True)
    return zeta_reciprocal(g, u), H, (1 - u * u) ** (g.n_edges() - g.n)


def bass_identity_residual(g, u):
    """|det(I - uB) - (1-u^2)^(|E|-|V|) det((1-u^2) H(u))| — vanishes identically.

    H(u) is the uniform-coupling Bethe-Hessian under u = tanh(beta J); the
    three-term determinant det(I - uA + u^2(D - I)) is the internal reference
    form, and equals det((1-u^2) H(u)) entrywise.
    """
    lhs, H, vol = _bass_sides(g, u)
    return abs(lhs - vol * np.linalg.det((1 - u * u) * H))


def bass_loose_form_residual(g, u):
    """Residual of the looser written form without the (1-u^2)^n volume factor.

    Reported for diagnostics only; it does not vanish in general.
    """
    lhs, H, vol = _bass_sides(g, u)
    return abs(lhs - vol * np.linalg.det(H))


def poles(g):
    """Reciprocals of the nonzero eigenvalues of B, deduplicated to 1e-8."""
    if g.n_edges() > _DET_CAP:
        raise ValueError(f"pole computation capped at {_DET_CAP} edges")
    B = _directed_edge_matrix(g).B
    if len(B) == 0:
        return []
    ev = np.linalg.eigvals(B)
    out = []
    for lam in ev:
        if abs(lam) < 1e-10:
            continue
        p = 1.0 / lam
        if not any(abs(p - q) < 1e-8 for q in out):
            out.append(complex(p))
    return sorted(out, key=lambda z: (abs(z), z.real, z.imag))


def det_crossing_check(g, J0=1.0, beta_grid=None, pole_tol=1e-4):
    """Locate determinant sign changes of the coupled Bethe-Hessian and match
    each crossing's u = tanh(beta J0) against a zeta pole.

    Returns {"crossings": [...], "no_crossing": bool}; a forest or a graph
    whose determinant never changes sign on the grid yields a structured
    no-crossing result rather than an error.
    """
    if beta_grid is None:
        beta_grid = np.linspace(0.05, 6.0, 240)
    beta_grid = np.asarray(beta_grid, dtype=float)
    i, j = _edge_arrays(g)

    def det(betas):
        # only the sign is used: det itself overflows a double on graphs of
        # about a hundred vertices
        t = np.repeat(np.tanh(np.asarray(betas) * J0)[:, None], len(i), axis=1)
        return np.linalg.slogdet(_bethe_hessian(g.n, i, j, t, dense=True))[0]

    dets = det(beta_grid).tolist()
    pole_list = poles(g)
    crossings = []
    for k in range(len(beta_grid) - 1):
        if dets[k] == 0 or dets[k] * dets[k + 1] > 0:
            continue
        lo, hi = beta_grid[k], beta_grid[k + 1]
        flo = dets[k]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # lo and hi are adjacent floats: no later step moves them
            fm = float(det([mid])[0])
            if fm == 0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        beta_star = 0.5 * (lo + hi)
        u_star = float(np.tanh(beta_star * J0))
        dists = [abs(u_star - p) for p in pole_list]
        if dists and min(dists) < pole_tol:
            j = int(np.argmin(dists))
            crossings.append({"beta": beta_star, "u": u_star,
                              "pole": pole_list[j], "dist": float(dists[j])})
        else:
            crossings.append({"beta": beta_star, "u": u_star,
                              "pole": None, "dist": None})
    return {"crossings": crossings, "no_crossing": not crossings}
