"""Exact and approximate matrix permanents, plus the code-distance bound.

The exact path is Ryser's inclusion-exclusion formula with Gray-code column
updates (exact integer arithmetic).  The approximate path minimizes the Bethe
free energy by damped message passing; its exponential is a lower-side
estimate of the permanent for nonnegative matrices.
"""

import itertools
import math

import numpy as np

_RYSER_CAP = 20
_BETHE_CAP = 12
# bethe_permanent's message-passing rounds and convex damping weight
_BETHE_ITERS = 3000
_BETHE_DAMPING = 0.5


def _to_rows(M):
    """Nested-list copy; integral inputs become exact ints, others stay float."""
    rows = [[float(x) for x in row] for row in M]
    if all(x.is_integer() for row in rows for x in row):
        return [[int(x) for x in row] for row in rows]
    return rows


def permanent(M):
    """Exact permanent of a square nonnegative matrix (Ryser with Gray-code
    updates; integer inputs are computed in exact integer arithmetic)."""
    M = _to_rows(M)
    m = len(M)
    if m == 0:
        return 1
    if any(len(row) != m for row in M):
        raise ValueError("permanent requires a square matrix")
    if m > _RYSER_CAP:
        raise ValueError(f"permanent capped at m={_RYSER_CAP}")
    if any(x < 0 for row in M for x in row):
        raise ValueError("negative entries not supported")
    # Ryser with Gray-code subset walk: maintain per-row sums over the subset.
    sums = [0] * m
    total = 0
    prev_gray = 0
    sign = 1 if m % 2 == 0 else -1
    for k in range(1, 1 << m):
        gray = k ^ (k >> 1)
        changed = gray ^ prev_gray
        col = changed.bit_length() - 1
        add = 1 if gray & changed else -1
        for i in range(m):
            sums[i] += add * M[i][col]
        prod = 1
        for s in sums:
            prod *= s
            if prod == 0:
                break
        total += (-1) ** (bin(gray).count("1")) * prod
        prev_gray = gray
    return sign * total


def rect_permanent(M):
    """Permanent of a rectangular matrix: sum over injections of the short side.

    Agrees with the square permanent when the matrix is square, and with
    perm(M^T) always.
    """
    M = _to_rows(M)
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows < cols:
        M = [list(col) for col in zip(*M)]
        rows, cols = cols, rows
    if cols == 0:
        return 1
    if rows > 12:
        raise ValueError("rectangular permanent capped at 12 rows")
    total = 0
    for assign in itertools.permutations(range(rows), cols):
        prod = 1
        for j, i in enumerate(assign):
            prod *= M[i][j]
            if prod == 0:
                break
        total += prod
    return total


def dmin_upper_bound(weight_matrix, v):
    """Minimum-distance upper bound from permanents of column-deleted minors.

    For every (v+1)-subset S of columns, sums perm of the minor with column i
    removed over i in S; returns the minimum over subsets.  Minors keep all
    rows, so they are rectangular whenever the row count differs from v.
    """
    W = _to_rows(weight_matrix)
    m = len(W)
    n = len(W[0]) if m else 0
    if v + 1 > n:
        raise ValueError(f"subset size {v + 1} exceeds column count {n}")
    if v < 1:
        raise ValueError("v must be >= 1")
    best = None
    for S in itertools.combinations(range(n), v + 1):
        total = 0
        for i in S:
            keep = [j for j in S if j != i]
            minor = [[W[r][j] for j in keep] for r in range(m)]
            if m == v:
                total += permanent(minor)
            else:
                total += rect_permanent(minor)
        if best is None or total < best:
            best = total
    return best


def bethe_permanent(M):
    """Bethe-free-energy permanent approximation by damped message passing.

    Returns (value, converged).  Zero entries are allowed provided every row
    and column retains at least one positive entry; rows or columns with a
    single positive entry pin the corresponding marginal to 1.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    m = M.shape[0]
    if m > _BETHE_CAP:
        raise ValueError(f"bethe permanent capped at m={_BETHE_CAP}")
    if np.any(M < 0):
        raise ValueError("entries must be nonnegative")
    if np.any((M > 0).sum(axis=0) == 0) or np.any((M > 0).sum(axis=1) == 0):
        raise ValueError("a zero row or column forces permanent 0")
    if m == 1:
        return float(M[0, 0]), True
    support = M > 0
    a = np.where(support, 1.0, 0.0)
    b = np.where(support, 1.0, 0.0)
    gamma_old = np.where(support, 1.0 / m, 0.0)
    converged = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_BETHE_ITERS):
            # alternating row/column message updates with convex damping
            denom_a = (M * b).sum(axis=1, keepdims=True) - M * b
            new_a = np.where(support, np.where(denom_a > 0, 1.0 / np.maximum(denom_a, 1e-300), np.inf), 0.0)
            a = np.where(np.isinf(new_a) | np.isinf(a), new_a,
                         _BETHE_DAMPING * a + (1 - _BETHE_DAMPING) * new_a)
            denom_b = (M * a).sum(axis=0, keepdims=True) - M * a
            new_b = np.where(support, np.where(denom_b > 0, 1.0 / np.maximum(denom_b, 1e-300), np.inf), 0.0)
            b = np.where(np.isinf(new_b) | np.isinf(b), new_b,
                         _BETHE_DAMPING * b + (1 - _BETHE_DAMPING) * new_b)
            mab = M * a * b
            gamma = np.where(support, 1.0 / (1.0 + 1.0 / np.where(mab > 0, mab, 1e-300)), 0.0)
            gamma[np.isinf(mab)] = 1.0
            if np.max(np.abs(gamma - gamma_old)) < 1e-12:
                gamma_old = gamma
                converged = True
                break
            gamma_old = gamma
    gamma = gamma_old
    # Bethe free energy: sum g*ln(g/M) - sum (1-g)*ln(1-g) over the support.
    F = 0.0
    for i in range(m):
        for j in range(m):
            g = gamma[i, j]
            if not support[i, j]:
                continue
            if g > 1e-300:
                F += g * math.log(g / M[i, j])
            one_m = 1.0 - g
            if one_m > 1e-300:
                F -= one_m * math.log(one_m)
    return float(math.exp(-F)), bool(converged)
