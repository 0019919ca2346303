"""Bethe-Hessian assembly and the quadratic-Newton root finder for the
inverse temperature at which the smallest Bethe-Hessian eigenvalue vanishes.

The root finder solves at the bracket's ends and midpoint, goes to the root
of the exact parabola through the three values, then takes Newton steps on
the exact slope lambda'(beta) = v^T H'(beta) v (Hellmann-Feynman, with v the
bottom eigenvector each solve returns), one solve per step, until
|lambda| < eps.  Every step stays inside the current sign bracket: one that
would leave it, or meets a zero slope, is a bisection step flagged
"bisection_fallback".  That also covers a near-degenerate bottom eigenvalue,
whose slope is only one-sided.  Given no bracket, either finder climbs
the bracket ladder first, with the same cached solves.  On the pipeline's
components a root takes 4.9 solves, its ladder's included, and the h2 root
5.  A plain bisection baseline shares the trace format so eigensolver-call
counts are directly comparable (the h2 root: 22).
"""

import math

import numpy as np

from .sparse import SparseSym, bottom_pair

# quadratic-Newton solves after the first three before giving up
_MAX_STEPS = 100
_BISECTION_STEPS = 300
# WeightedSystem's starting bracket; the ladder's growth factor and growth
# steps
_BRACKET = (0.05, 1.0)
_BRACKET_FACTOR = 1.6
_BRACKET_EXPANSIONS = 40


class EstimatorConfig:
    """The root's window, or neither bound for the ladder's, and its eps."""

    def __init__(self, beta_lower=None, beta_upper=None, eps=1e-6):
        if (beta_lower is None) != (beta_upper is None):
            raise ValueError("beta_lower and beta_upper go together")
        if beta_lower is not None and not 0 < beta_lower < beta_upper < math.inf:
            raise ValueError("need 0 < beta_lower < beta_upper < inf")
        if not 0 < eps < math.inf:
            raise ValueError("eps must be positive and finite")
        self.beta_lower = None if beta_lower is None else float(beta_lower)
        self.beta_upper = None if beta_upper is None else float(beta_upper)
        self.eps = float(eps)


class EstimatorTrace:
    """A finder's result; bracket is the window it searched, None when the
    ladder found no sign change."""

    def __init__(self, beta_N, lambda_at_root, eigensolver_calls, round_points,
                 converged, flags, method, bracket):
        self.beta_N = beta_N
        self.lambda_at_root = lambda_at_root
        self.eigensolver_calls = eigensolver_calls
        self.round_points = round_points
        self.converged = converged
        self.flags = flags
        self.method = method
        self.bracket = bracket

    def to_dict(self):
        return {
            "beta_N": self.beta_N,
            "lambda_at_root": self.lambda_at_root,
            "eigensolver_calls": self.eigensolver_calls,
            "rounds": [[(float(b), float(l)) for b, l in pts]
                       for pts in self.round_points],
            "converged": self.converged,
            "flags": self.flags,
            "method": self.method,
            "bracket": self.bracket and [float(b) for b in self.bracket],
        }


def _checked_square(i, j, t):
    """t * t, for t of shape (..., |E|); ValueError naming the edge
    (i[e], j[e]) of the first entry, in C order, whose square is within
    1e-12 of 1, where the Bethe-Hessian's couplings saturate."""
    t2 = t * t
    sat = np.flatnonzero(np.abs(1 - t2) <= 1e-12)
    if sat.size:
        e = sat[0] % len(i)
        raise ValueError(f"coupling saturated on edge ({i[e]},{j[e]}): "
                         f"tanh^2 = {float(t2.flat[sat[0]])!r}")
    return t2


def _bethe_hessian(n, i, j):
    """A Bethe-Hessian's pattern as a SparseSym on n vertices, valued 0: the
    distinct edges (i, j), i != j, in the given order, then the diagonal.
    Its with_values(np.concatenate((off, diag))) is the matrix with off on
    the edges and diag on the diagonal.  WeightedSystem and UnweightedSystem
    each build, and so check, theirs once, and each matrix(beta) passes its
    own values."""
    ar = np.arange(n)
    return SparseSym(n, np.column_stack((np.concatenate((i, ar)),
                                         np.concatenate((j, ar)),
                                         np.zeros(len(i) + n))))


def _uniform_bethe_hessian(A):
    """The map t -> I + t^2/(1-t^2) D - t/(1-t^2) A, the Bethe-Hessian with
    one coupling t = tanh(beta J) on every edge copy, for a graph's dense
    symmetric multiplicity adjacency A (zero diagonal) and D = diag(A 1).

    t is a float or a 1-D array; k values give k stacked (n, n) matrices,
    each bit-identical to the one its value alone gives.  A t with t^2 = 1
    is the caller's to refuse (_checked_square names the edge).
    """
    A = np.asarray(A, dtype=float)
    n = len(A)
    d = A.sum(axis=1)

    def hessian(t):
        t2 = t * t
        q = 1 - t2
        H = np.multiply.outer(-t / q, A)
        H.reshape(H.shape[:-2] + (n * n,))[..., ::n + 1] = (
            1 + np.multiply.outer(t2 / q, d))
        return H

    return hessian


class UnweightedSystem:
    """Root-finding target lambda_min((beta^2-1)I - beta A + D); bracket,
    the ladder's starting window, runs from just above the trivial root
    beta = 1 to twice the square root of the largest degree.  A zero
    diagonal of A and a diagonal D are checked once, and A's nonzero
    off-diagonal (i, j, a), kept in stored order, serve matrix and slope;
    the Bethe-Hessian's pattern is checked once too, and matrix(beta) only
    gives it values."""

    def __init__(self, A, D):
        on = A.rows == A.cols
        if np.any(A.vals[on] != 0):
            raise ValueError("adjacency must have zero diagonal")
        if np.any(D.rows != D.cols):
            raise ValueError("degree matrix must be diagonal")
        off = ~on & (A.vals != 0)
        self.A, self.D, self.n = A, D, A.n
        self._i, self._j, self._a = A.rows[off], A.cols[off], A.vals[off]
        self._d = D.diagonal()
        self._pattern = _bethe_hessian(self.n, self._i, self._j)
        self.bracket = (1 + 1e-6, 2 * math.sqrt(self._d.max(initial=1.0)))

    def matrix(self, beta):
        return self._pattern.with_values(np.concatenate(
            (-beta * self._a, self._d + beta * beta - 1)))

    def slope(self, beta, v):
        """v^T H'(beta) v = 2 beta - v^T A v for a unit vector v."""
        return 2 * beta - 2 * float(self._a @ (v[self._i] * v[self._j]))


class WeightedSystem:
    """Root-finding target lambda_min of the coupled Bethe-Hessian; bracket,
    the ladder's starting window, is _BRACKET.  J's read-only i, j and
    couplings arrays, as they are when the system is built, serve matrix
    and slope; the Bethe-Hessian's pattern is checked once, and
    matrix(beta) only gives it values."""

    def __init__(self, J):
        self.n = J.n
        self._i, self._j, self._couplings = J.i, J.j, J.couplings
        self._pattern = _bethe_hessian(self.n, self._i, self._j)
        self.bracket = _BRACKET

    def matrix(self, beta):
        """Coupled Bethe-Hessian, t = tanh(beta J_e) on each edge e: H_kk =
        1 + sum_{e at k} t_e^2/(1 - t_e^2) and H_ij = -t_e/(1 - t_e^2); a
        ValueError when some t_e^2 is within 1e-12 of 1."""
        t = np.tanh(beta * self._couplings)
        t2 = _checked_square(self._i, self._j, t)
        c = t2 / (1 - t2)
        diag = (1 + np.bincount(self._i, c, self.n)
                + np.bincount(self._j, c, self.n))
        return self._pattern.with_values(np.concatenate((-t / (1 - t2),
                                                         diag)))

    def slope(self, beta, v):
        """v^T H'(beta) v: with t = tanh(beta J), H' has diagonal
        sum 2tJ/(1-t^2) and off-diagonal -J(1+t^2)/(1-t^2) on each edge."""
        J = self._couplings
        t = np.tanh(beta * J)
        vi, vj = v[self._i], v[self._j]
        return float(np.sum(2 * J / (1 - t * t)
                            * (t * (vi * vi + vj * vj) - (1 + t * t) * vi * vj)))


def bethe_hessian_weighted(J, beta):
    """The coupled Bethe-Hessian of J at beta, WeightedSystem(J).matrix(beta),
    its pattern checked on every call."""
    return WeightedSystem(J).matrix(beta)


class _CountedEvaluator:
    """(lambda_min, its beta-derivative) of system.matrix(beta), lambda
    within tol, cached per beta; calls counts the solves made.  The
    derivative is the Hellmann-Feynman slope system.slope(beta, v) at the
    bottom eigenvector v, one-sided where the bottom eigenvalue is
    degenerate.  Each finder makes one, so a root found after the ladder
    reuses the ladder's solves and counts them in its eigensolver_calls."""

    def __init__(self, system, tol):
        self.system = system
        self.tol = tol
        self.cache = {}
        self.calls = 0

    def pair(self, beta):
        if beta not in self.cache:
            lam, v = bottom_pair(self.system.matrix(beta), self.tol)
            self.cache[beta] = (lam, self.system.slope(beta, v))
            self.calls += 1
        return self.cache[beta]

    def __call__(self, beta):
        return self.pair(beta)[0]


def _search_start(ev, cfg, method):
    """(((lo, lambda_min(lo)), (hi, lambda_min(hi))), None) for cfg's window,
    or else _ladder's, lo solved first, when the ends strictly change sign,
    so a root inside wins over an end within eps of it.  Otherwise (None,
    the finished trace): converged at the first end that is an eps-root, so
    an end touching the root (e.g. a double root at the edge of a spectrum
    with lambda_min >= 0) converges without a sign change; or, when the
    ladder finds no sign change, its smallest-lambda_min rung, unconverged,
    with rounds [the rungs solved], flags [["ladder_minimum"]] and no
    bracket.  ValueError when a given window's ends share a sign."""
    lo, hi = cfg.beta_lower, cfg.beta_upper
    if lo is None:
        window = _ladder(ev)
        if window is None:
            best = min(ev.cache, key=ev)
            return None, EstimatorTrace(
                best, ev(best), ev.calls, [[(b, ev(b)) for b in ev.cache]],
                False, [["ladder_minimum"]], method, None)
        lo, hi = window
    l_lo, l_hi = ev(lo), ev(hi)
    if l_lo * l_hi < 0:
        return ((lo, l_lo), (hi, l_hi)), None
    for beta, lam in ((lo, l_lo), (hi, l_hi)):
        if abs(lam) < cfg.eps:
            return None, EstimatorTrace(
                beta, lam, ev.calls, [[(lo, l_lo)], [(hi, l_hi)]], True, [],
                method, (lo, hi))
    raise ValueError(
        f"no bracket: lambda_min({lo})={l_lo:.3e} and lambda_min({hi})={l_hi:.3e} "
        "share a sign")


def _parabola_root(pts, lo, hi):
    """The root in (lo, hi) of the parabola through three (beta, lambda)
    points, or nan when there is none (rounding can put it outside)."""
    (b1, l1), (b2, l2), (b3, l3) = pts
    V = np.array([[b1 * b1, b1, 1.0], [b2 * b2, b2, 1.0], [b3 * b3, b3, 1.0]])
    a, b, c = (float(x) for x in np.linalg.solve(V, np.array([l1, l2, l3])))
    disc = b * b - 4 * a * c
    if disc < 0:
        return math.nan
    # both roots without cancellation; a = 0 leaves the linear root c / q
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = (c / q if q else math.nan, q / a if a else math.nan)
    return next((x for x in roots if lo < x < hi), math.nan)


def estimate_beta_N(system, cfg):
    """Quadratic-Newton root of lambda_min(beta), as the module docstring
    describes, from _search_start's ends.  Rounds are the first three points,
    then one per step; flags holds one list per step."""
    ev = _CountedEvaluator(system, min(cfg.eps / 10, 1e-8))
    ends, trace = _search_start(ev, cfg, "quadratic-newton")
    if trace is not None:
        return trace
    (lo, l_lo), (hi, l_hi) = ends
    window = (lo, hi)
    beta = 0.5 * (lo + hi)
    lam, g = ev.pair(beta)
    pts = [(lo, l_lo), (beta, lam), (hi, l_hi)]
    rounds = [pts]
    flags = []
    while abs(lam) >= cfg.eps:
        if len(flags) == _MAX_STEPS:
            best = min(ev.cache, key=lambda b: abs(ev(b)))
            return EstimatorTrace(best, ev(best), ev.calls, rounds, False,
                                  flags, "quadratic-newton", window)
        if lam * l_lo < 0:
            hi = beta
        else:
            lo, l_lo = beta, lam
        # the first step goes to the parabola's root, the later ones are
        # Newton steps
        if flags:
            beta = beta - lam / g if g else math.nan
        else:
            beta = _parabola_root(pts, lo, hi)
        step_flags = []
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
            step_flags.append("bisection_fallback")
        lam, g = ev.pair(beta)
        rounds.append([(beta, lam)])
        flags.append(step_flags)
    return EstimatorTrace(beta, lam, ev.calls, rounds, True, flags,
                          "quadratic-newton", window)


def bisection_baseline(system, beta_lower, beta_upper, eps):
    """Plain bisection on the sign of lambda_min from _search_start's ends,
    in the window beta_lower, beta_upper or, both None, the ladder's; same
    trace format."""
    cfg = EstimatorConfig(beta_lower, beta_upper, eps)
    ev = _CountedEvaluator(system, min(eps / 10, 1e-8))
    ends, trace = _search_start(ev, cfg, "bisection")
    if trace is not None:
        return trace
    (lo, l_lo), (hi, l_hi) = ends
    window = (lo, hi)
    rounds = [[(lo, l_lo)], [(hi, l_hi)]]
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        l_mid = ev(mid)
        rounds.append([(mid, l_mid)])
        if abs(l_mid) < eps:
            return EstimatorTrace(mid, l_mid, ev.calls, rounds, True, [],
                                  "bisection", window)
        if l_lo * l_mid < 0:
            hi = mid
        else:
            lo, l_lo = mid, l_mid
    best = 0.5 * (lo + hi)
    return EstimatorTrace(best, ev(best), ev.calls, rounds, False, [],
                          "bisection", window)


def _ladder(ev):
    """(lo, hi) where lambda_min has opposite signs, from ev.system.bracket:
    while lambda_min(hi) has the sign of lambda_min(lo), lo moves to hi and
    hi grows by _BRACKET_FACTOR, at most _BRACKET_EXPANSIONS times (the
    unweighted root, d - 1 on a d-regular graph, can pass 2 sqrt(d_max)).
    A WeightedSystem with all couplings positive and lambda_min(lo) < 0
    climbs down instead, hi to lo and lo / _BRACKET_FACTOR, as H(0) = I puts
    its root in (0, lo).  None when a climb runs out or a later rung
    saturates a coupling; the first rung's ValueError propagates."""
    lo, hi = ev.system.bracket
    negative = ev(lo) < 0
    down = negative and isinstance(ev.system, WeightedSystem) and bool(
        np.all(ev.system._couplings > 0))
    step = 1 / _BRACKET_FACTOR if down else _BRACKET_FACTOR
    near, far = (lo, lo * step) if down else (lo, hi)
    for _ in range(_BRACKET_EXPANSIONS):
        try:
            l_far = ev(far)
        except ValueError:
            return None
        if (l_far < 0) != negative:
            return (far, near) if down else (near, far)
        near, far = far, far * step
    return None
