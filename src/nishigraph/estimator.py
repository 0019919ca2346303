"""Bethe-Hessian assembly and the quadratic-Newton root finder for the
inverse temperature at which the smallest Bethe-Hessian eigenvalue vanishes.

Each round samples the current window at its endpoints and midpoint, fits the
exact parabola through the three values, takes the root (-b - sqrt(disc))/(2a)
when it lies inside the window (the other root, or the window midpoint, when
it does not — both flagged), checks the tolerance, and otherwise applies one
forward-difference Newton correction before re-centering a window of a
quarter of the previous width.  A plain bisection baseline shares the trace
format so eigensolver-call counts are directly comparable.
"""

import math

import numpy as np

from .sparse import SparseSym, lambda_min


class EstimatorConfig:
    def __init__(self, beta_lower, beta_upper, eps=1e-6, delta=None, max_rounds=30):
        if not (0 < beta_lower < beta_upper):
            raise ValueError("need 0 < beta_lower < beta_upper")
        if eps <= 0:
            raise ValueError("eps must be positive")
        if delta is not None and delta <= 0:
            raise ValueError("delta must be positive")
        self.beta_lower = float(beta_lower)
        self.beta_upper = float(beta_upper)
        self.eps = float(eps)
        self.delta = delta
        self.max_rounds = int(max_rounds)


class EstimatorTrace:
    def __init__(self, beta_N, lambda_at_root, eigensolver_calls, round_points,
                 converged, flags, method):
        self.beta_N = beta_N
        self.lambda_at_root = lambda_at_root
        self.eigensolver_calls = eigensolver_calls
        self.round_points = round_points
        self.converged = converged
        self.flags = flags
        self.method = method

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
        }


def _bethe_hessian(n, i, j, t, dense=False):
    """Weighted Bethe-Hessian on n vertices from edge endpoint arrays i, j
    (i != j; parallel edges repeated) and per-edge t = tanh(beta J):

        H_kk = 1 + sum_{e at k} t_e^2 / (1 - t_e^2)
        H_ij = -sum_{e = ij} t_e / (1 - t_e^2)

    Returns an ndarray when dense, else a SparseSym (which needs distinct
    edges).  Raises ValueError when some t_e^2 is within 1e-12 of 1.
    """
    t2 = t * t
    q = 1 - t2
    sat = np.flatnonzero(np.abs(q) <= 1e-12)
    if sat.size:
        e = sat[0]
        raise ValueError(f"coupling saturated on edge ({i[e]},{j[e]}): "
                         f"tanh^2 = {t2[e]!r}")
    c = t2 / q
    diag = 1 + np.bincount(i, c, n) + np.bincount(j, c, n)
    off = -t / q
    if dense:
        H = np.bincount(i * n + j, off, n * n).reshape(n, n)
        H += H.T
        H.flat[::n + 1] = diag
        return H
    ar = np.arange(n)
    return SparseSym(n, np.column_stack((np.concatenate((i, ar)),
                                         np.concatenate((j, ar)),
                                         np.concatenate((off, diag)))))


def _coupling_arrays(J):
    """(i, j, J_ij) arrays over the edges of a CouplingGraph."""
    e = np.array(J.edges, dtype=float).reshape(-1, 3)
    return e[:, 0].astype(np.intp), e[:, 1].astype(np.intp), e[:, 2]


def bethe_hessian_weighted(J, beta):
    """Coupled Bethe-Hessian: diagonal 1 + sum_k tanh^2(bJ)/(1-tanh^2(bJ)),
    off-diagonal -tanh(bJ)/(1-tanh^2(bJ)) on each edge."""
    i, j, Jv = _coupling_arrays(J)
    return _bethe_hessian(J.n, i, j, np.tanh(beta * Jv))


def bethe_hessian_unweighted(A, D, beta):
    """(beta^2 - 1) I - beta A + D for a zero-diagonal adjacency A."""
    on = A.rows == A.cols
    if np.any(A.vals[on] != 0):
        raise ValueError("adjacency must have zero diagonal")
    if np.any(D.rows != D.cols):
        raise ValueError("degree matrix must be diagonal")
    off = ~on & (A.vals != 0)
    ar = np.arange(A.n)
    return SparseSym(A.n, np.column_stack((
        np.concatenate((A.rows[off], ar)), np.concatenate((A.cols[off], ar)),
        np.concatenate((-beta * A.vals[off], D.diagonal() + beta * beta - 1)))))


class UnweightedSystem:
    """Root-finding target lambda_min((beta^2-1)I - beta A + D)."""

    def __init__(self, A, D):
        self.A = A
        self.D = D
        self.n = A.n

    def matrix(self, beta):
        return bethe_hessian_unweighted(self.A, self.D, beta)


class WeightedSystem:
    """Root-finding target lambda_min of the coupled Bethe-Hessian; the edge
    arrays are read from J once, and matrix(beta) recomputes the values."""

    def __init__(self, J):
        self.J = J
        self.n = J.n
        self._edges = _coupling_arrays(J)

    def matrix(self, beta):
        i, j, Jv = self._edges
        return _bethe_hessian(self.n, i, j, np.tanh(beta * Jv))


class _CountedEvaluator:
    def __init__(self, system, tol):
        self.system = system
        self.tol = tol
        self.cache = {}
        self.calls = 0

    def __call__(self, beta):
        if beta not in self.cache:
            self.cache[beta] = lambda_min(self.system.matrix(beta), self.tol)
            self.calls += 1
        return self.cache[beta]


def _fit_parabola(b1, l1, b2, l2, b3, l3):
    V = np.array([[b1 * b1, b1, 1.0], [b2 * b2, b2, 1.0], [b3 * b3, b3, 1.0]])
    return np.linalg.solve(V, np.array([l1, l2, l3]))


def estimate_beta_N(system, cfg):
    """Quadratic-Newton estimate of the root of lambda_min(beta)."""
    ev = _CountedEvaluator(system, min(cfg.eps / 10, 1e-8))
    lo, hi = cfg.beta_lower, cfg.beta_upper
    # Accept an endpoint that is already an eps-root before demanding a sign
    # change, so a bracket whose edge touches the root (e.g. a spectrum with
    # lambda_min >= 0 everywhere and a double root at the edge) converges the
    # same way the bisection baseline does.
    l_lo = ev(lo)
    if abs(l_lo) < cfg.eps:
        return EstimatorTrace(lo, l_lo, ev.calls, [[(lo, l_lo)]], True, [],
                              "quadratic-newton")
    l_hi = ev(hi)
    if abs(l_hi) < cfg.eps:
        return EstimatorTrace(hi, l_hi, ev.calls, [[(lo, l_lo)], [(hi, l_hi)]],
                              True, [], "quadratic-newton")
    if l_lo * l_hi > 0:
        raise ValueError(
            f"no bracket: lambda_min({lo})={l_lo:.3e} and lambda_min({hi})={l_hi:.3e} "
            "share a sign")
    rounds = []
    flags = []
    window = (lo, hi)
    for _ in range(cfg.max_rounds):
        b1, b3 = window
        b2 = 0.5 * (b1 + b3)
        pts = [(b1, ev(b1)), (b2, ev(b2)), (b3, ev(b3))]
        round_flags = []
        best_here = min(pts, key=lambda p: abs(p[1]))
        if abs(best_here[1]) < cfg.eps:
            rounds.append(pts)
            return EstimatorTrace(best_here[0], best_here[1], ev.calls, rounds,
                                  True, flags, "quadratic-newton")
        a, b, c = _fit_parabola(*pts[0], *pts[1], *pts[2])
        beta_t = None
        if abs(a) < 1e-300:
            if b != 0:
                beta_t = -c / b
                round_flags.append("linear_fit")
            else:
                round_flags.append("degenerate_fit")
        else:
            disc = b * b - 4 * a * c
            if disc < 0:
                round_flags.append("bisection_fallback")
            else:
                sq = math.sqrt(disc)
                stated = (-b - sq) / (2 * a)
                other = (-b + sq) / (2 * a)
                inside = lambda x: b1 - 1e-12 <= x <= b3 + 1e-12
                if inside(stated):
                    beta_t = stated
                elif inside(other):
                    beta_t = other
                    round_flags.append("root_branch_swapped")
                else:
                    beta_t = b2
                    round_flags.append("root_clamped")
        if beta_t is None:
            # one bisection step on the sign structure of the three samples
            l1, l2 = pts[0][1], pts[1][1]
            window = (b1, b2) if l1 * l2 <= 0 else (b2, b3)
            rounds.append(pts)
            flags.append(round_flags)
            continue
        if not (b1 - 1e-12 <= beta_t <= b3 + 1e-12):
            beta_t = b2
            round_flags.append("root_clamped")
        l_t = ev(beta_t)
        pts = pts + [(beta_t, l_t)]
        if abs(l_t) < cfg.eps:
            rounds.append(sorted(pts))
            flags.append(round_flags)
            return EstimatorTrace(beta_t, l_t, ev.calls, rounds, True, flags,
                                  "quadratic-newton")
        delta = cfg.delta if cfg.delta is not None else 1e-3 * abs(beta_t)
        l_d = ev(beta_t + delta)
        pts = pts + [(beta_t + delta, l_d)]
        g = (l_d - l_t) / delta
        if g == 0:
            beta_new = beta_t
            round_flags.append("zero_slope")
        else:
            beta_new = beta_t - l_t / g
        w = b3 - b1
        new_lo = max(beta_new - w / 4, cfg.beta_lower)
        new_hi = min(beta_new + w / 4, cfg.beta_upper)
        if new_hi - new_lo < 1e-15:
            round_flags.append("window_collapsed")
            new_lo = max(beta_new - w / 4, 1e-12)
            new_hi = new_lo + w / 2
        window = (new_lo, new_hi)
        rounds.append(sorted(pts))
        flags.append(round_flags)
    best_beta = min(ev.cache, key=lambda b: abs(ev.cache[b]))
    return EstimatorTrace(best_beta, ev.cache[best_beta], ev.calls, rounds,
                          False, flags, "quadratic-newton")


def bisection_baseline(system, beta_lower, beta_upper, eps, max_iter=300):
    """Plain bisection on the sign of lambda_min, same trace format."""
    if not (0 < beta_lower < beta_upper) or eps <= 0:
        raise ValueError("invalid bracket or eps")
    ev = _CountedEvaluator(system, min(eps / 10, 1e-8))
    rounds = []
    l_lo = ev(beta_lower)
    rounds.append([(beta_lower, l_lo)])
    if abs(l_lo) < eps:
        return EstimatorTrace(beta_lower, l_lo, ev.calls, rounds, True, [],
                              "bisection")
    l_hi = ev(beta_upper)
    rounds.append([(beta_upper, l_hi)])
    if abs(l_hi) < eps:
        return EstimatorTrace(beta_upper, l_hi, ev.calls, rounds, True, [],
                              "bisection")
    if l_lo * l_hi > 0:
        raise ValueError("no bracket: endpoint eigenvalues share a sign")
    lo, hi = beta_lower, beta_upper
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        l_mid = ev(mid)
        rounds.append([(mid, l_mid)])
        if abs(l_mid) < eps:
            return EstimatorTrace(mid, l_mid, ev.calls, rounds, True, [],
                                  "bisection")
        if l_lo * l_mid < 0:
            hi = mid
        else:
            lo, l_lo = mid, l_mid
    best = 0.5 * (lo + hi)
    return EstimatorTrace(best, ev(best), ev.calls, rounds, False, [],
                          "bisection")


def auto_bracket(system, lo=0.05, hi=1.0, factor=1.6, max_expand=40):
    """Grow the upper end until lambda_min changes sign; returns (lo, hi).

    Convenience for coupled systems, where lambda_min starts near 1 at small
    beta and decreases through zero in the regime of interest.
    """
    l_lo = lambda_min(system.matrix(lo), 1e-8)
    if l_lo < 0:
        raise ValueError("lambda_min already negative at the lower end")
    for _ in range(max_expand):
        try:
            l_hi = lambda_min(system.matrix(hi), 1e-8)
        except ValueError:
            raise ValueError("no sign change before coupling saturation") from None
        if l_hi < 0:
            return lo, hi
        lo = hi
        hi *= factor
    raise ValueError("no sign change found while expanding the bracket")
