"""Non-backtracking operator, Bass determinant identities, and pole matching.

The directed-edge operator B acts on ordered edge copies; B[(u,v),(v,w)] = 1
whenever w != u (and, for parallel copies, whenever the step does not reverse
the exact copy just traversed).  Determinants are evaluated densely: these
routines are correctness oracles, not large-scale tools.
"""

import functools

import numpy as np

from .estimator import _checked_square, _uniform_bethe_hessian
from .rbim import CouplingGraph
from .sparse import _frozen

_DET_CAP = 200

# det_crossing_check's beta grid and its pole-matching radius in u
_BETA_GRID = _frozen(np.linspace(0.05, 6.0, 240))
_POLE_TOL = 1e-4


class SimpleGraph(CouplingGraph):
    """Undirected graph with integer edge multiplicities.

    edges holds (i, j) pairs, or is a (k, 2) array of them; a repeated pair
    is one more parallel copy.  Each edge copy is one entry of the
    CouplingGraph arrays i < j, with a unit coupling and a copy number in
    the read-only array _copy.  A SimpleGraph is treated as immutable: its
    non-backtracking matrix, poles and uniform-coupling Bethe-Hessian are
    cached properties, built on first use.
    """

    def __init__(self, n, edges):
        # a copy's number is its offset in its run of equal keys
        key = self._store(n, edges, 2)
        self._copy = _frozen(np.arange(len(key)) - key.searchsorted(key))

    @classmethod
    def from_sparse(cls, M):
        """The off-diagonal nonzero support of a SparseSym, one copy per edge."""
        off = (M.rows != M.cols) & (M.vals != 0)
        return cls(M.n, np.column_stack((M.rows[off], M.cols[off])))

    def n_edges(self):
        return len(self.i)

    @functools.cached_property
    def _non_backtracking(self):
        """(directed edges, B), built on first use.

        Each edge copy gives the directed edges (i, j, copy) and (j, i, copy),
        ordered by (tail, head, copy).  B[a, b] = 1 when b's tail is a's head
        and b is not a's own copy reversed.
        """
        e = np.arange(len(self.i))
        eid = np.concatenate((e, e))
        des = np.column_stack((np.concatenate((self.i, self.j)),
                               np.concatenate((self.j, self.i)),
                               np.concatenate((self._copy, self._copy))))
        order = np.lexsort(des.T[::-1])
        des, eid = des[order], eid[order]
        B = ((des[:, 1, None] == des[None, :, 0])
             & (eid[:, None] != eid[None, :])).astype(float)
        return _frozen(des), _frozen(B)

    @functools.cached_property
    def _pole_array(self):
        """poles() as a read-only complex array, computed on first use."""
        B = self._non_backtracking[1]
        out = []
        for lam in (np.linalg.eigvals(B) if len(B) else ()):
            if abs(lam) < 1e-10:
                continue
            p = 1.0 / lam
            if not any(abs(p - q) < 1e-8 for q in out):
                out.append(complex(p))
        out.sort(key=lambda z: (abs(z), z.real, z.imag))
        return _frozen(np.array(out, dtype=complex))

    @functools.cached_property
    def _hessian(self):
        """t -> the Bethe-Hessian with coupling t on every edge copy."""
        return _uniform_bethe_hessian(_adjacency(self.n, self.i, self.j))


def _adjacency(n, i, j):
    """Dense multiplicity adjacency of the edge copies (i, j), i != j."""
    A = np.bincount(i * n + j, minlength=n * n).reshape(n, n)
    return A + A.T


def zeta_reciprocal(g, u):
    """det(I - uB): reciprocal of the cycle-product zeta function."""
    if not np.isfinite(u):
        raise ValueError(f"u = {u} is not finite")
    if g.n_edges() > _DET_CAP:
        raise ValueError(f"determinant path capped at {_DET_CAP} edges")
    B = g._non_backtracking[1]
    return float(np.linalg.det(np.eye(len(B)) - u * B))


def _bass_sides(g, u):
    """(det(I - uB), H(u), (1-u^2)^(|E|-|V|)), with H(u) the uniform-coupling
    Bethe-Hessian after the substitution u = tanh(beta J)."""
    if abs(abs(u) - 1.0) < 1e-12:
        raise ValueError("u = +-1 is outside the identity's domain")
    lhs = zeta_reciprocal(g, u)  # refuses a u that is not finite
    H = g._hessian(float(u))
    return lhs, H, (1 - u * u) ** (g.n_edges() - g.n)


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
    return [complex(p) for p in g._pole_array]


def _refine_crossing(f, lo, hi, flo, fhi):
    """(root, evaluations) of f on (lo, hi), where f(lo) and f(hi) differ in
    sign: Illinois false position, with a bisection step whenever its point
    is not strictly inside (lo, hi).  Like bisection, it stops once no new
    point lies strictly inside, since no later step could move either end.
    """
    solves = 0
    kept = 0  # the end a step left in place: -1 for lo, +1 for hi
    while True:
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return x, solves
        fx = f(x)
        solves += 1
        if fx == 0:
            return x, solves
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
            if kept == 1:
                fhi *= 0.5  # hi kept twice: halve it so the next point crosses
            kept = 1
        else:
            hi, fhi = x, fx
            if kept == -1:
                flo *= 0.5
            kept = -1


def _two_core(g):
    """(n, i, j): g's 2-core, vertices relabelled in order (so i < j holds).

    Each round drops every edge copy with an end of degree 1, parallel
    copies counted in the degree, until none is left; then every vertex
    with no edge left.  Eliminating a leaf k on an edge with t multiplies
    det H by H_kk = 1/(1 - t^2) and leaves the Bethe-Hessian of g - k, so
    det H_g = det H_core * prod over dropped edges of 1/(1 - t_e^2).
    """
    i, j = g.i, g.j
    while True:
        leaf = np.bincount(np.concatenate((i, j)), minlength=g.n) == 1
        keep = ~(leaf[i] | leaf[j])
        if keep.all():
            break
        i, j = i[keep], j[keep]
    label = np.zeros(g.n, dtype=np.intp)
    label[i] = label[j] = 1
    n = int(label.sum())
    label = label.cumsum() - 1
    return n, label[i], label[j]


def det_crossing_check(g, J0=1.0):
    """Locate determinant sign changes of the coupled Bethe-Hessian and match
    each crossing's u = tanh(beta J0) against a zeta pole.

    The scan runs on g's 2-core (_two_core): det H_g is det H_core times a
    positive factor, so it has the same signs and roots.  Sign changes are
    bracketed on the grid _BETA_GRID and refined by _refine_crossing on
    f(beta) = sign * exp(logabsdet(beta) - logabsdet(lo)) of the core, which
    is continuous, linear near a simple root, and cannot overflow where det
    itself does (on graphs of about a hundred vertices).  Returns
    {"crossings": [...], "no_crossing": bool}; each crossing records beta, u,
    the matched pole of g within _POLE_TOL (or None) with its distance, and
    ``solves``, the single-beta determinants its refinement took.  A forest
    or a graph whose determinant never changes sign on the grid yields a
    structured no-crossing result rather than an error.  A grid point where
    tanh^2(beta J0) is within 1e-12 of 1 is refused before peeling, with the
    ValueError _checked_square raises for the whole graph, naming g's first
    edge: the factor 1/(1 - t^2) of every dropped edge needs 1 - t^2 != 0.
    A non-finite J0 is refused first.
    """
    if not np.isfinite(J0):
        raise ValueError(f"J0 = {J0} is not finite")
    tanh = np.tanh(_BETA_GRID * J0)
    if g.n_edges():
        _checked_square(g.i[:1], g.j[:1], tanh[:, None])
    n, i, j = _two_core(g)
    if not n:
        return {"crossings": [], "no_crossing": True}

    hessian = _uniform_bethe_hessian(_adjacency(n, i, j))
    signs, logdets = np.linalg.slogdet(hessian(tanh))
    pole_list = poles(g)
    crossings = []
    for k in np.flatnonzero((signs[:-1] != 0) & (signs[:-1] * signs[1:] <= 0)):
        ref = logdets[k]

        def f(beta):
            sign, logdet = np.linalg.slogdet(hessian(np.tanh(beta * J0)))
            return float(sign * np.exp(logdet - ref))

        beta_star, solves = _refine_crossing(
            f, float(_BETA_GRID[k]), float(_BETA_GRID[k + 1]), float(signs[k]),
            float(signs[k + 1] * np.exp(logdets[k + 1] - ref)))
        u_star = float(np.tanh(beta_star * J0))
        dists = [abs(u_star - p) for p in pole_list]
        if dists and min(dists) < _POLE_TOL:
            m = int(np.argmin(dists))
            match = {"pole": pole_list[m], "dist": float(dists[m])}
        else:
            match = {"pole": None, "dist": None}
        crossings.append({"beta": beta_star, "u": u_star, **match,
                          "solves": solves})
    return {"crossings": crossings, "no_crossing": not crossings}
