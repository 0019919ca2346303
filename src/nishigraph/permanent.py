"""Exact and approximate matrix permanents, plus the code-distance bound.

The exact path is Ryser's inclusion-exclusion formula with Gray-code column
updates, for every m x n shape (exact integer arithmetic).  The approximate
path minimizes the Bethe free energy by damped message passing; its
exponential is a lower-side estimate of the permanent for nonnegative
matrices.  All three functions check their input by one rule, `_to_rows`.
"""

import itertools
import math
import operator

import numpy as np

_RYSER_CAP = 20
_BETHE_CAP = 12
# bethe_permanent's message-passing rounds and convex damping weight
_BETHE_ITERS = 3000
_BETHE_DAMPING = 0.5


def _to_rows(M):
    """Nested-list copy of a 2-D matrix whose entries are finite and >= 0;
    integral inputs become exact ints, others stay float.  A scalar or 1-D
    input, a row of another length than row 0 and a bad entry are each a
    ValueError, the last two naming the first such row or (row, col)."""
    try:
        rows = [list(row) for row in M]
    except TypeError:
        raise ValueError("a permanent needs a 2-D matrix") from None
    n = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {r} has {len(row)} entries, row 0 has {n}")
        for c, v in enumerate(row):
            try:
                x = float(v)
            except (TypeError, OverflowError):
                x = math.nan
            if not 0 <= x < math.inf:
                raise ValueError(f"entry ({r},{c}) = {v} is not finite and >= 0")
            row[c] = x
    if all(x.is_integer() for row in rows for x in row):
        return [[int(x) for x in row] for row in rows]
    return rows


def permanent(M):
    """Exact permanent of an m x n nonnegative matrix: the sum over the
    injections of its shorter side into its longer one of the products of
    the entries they pick (1 for an empty side).

    Ryser's formula with Gray-code column updates, after transposing so that
    m <= n: a column subset X of size s <= m adds (-1)^(m-s) C(n-s, m-s)
    prod_i sum_{j in X} a_ij, a larger one nothing.  Integer inputs are
    computed in exact integer arithmetic.
    """
    M = _to_rows(M)
    m, n = len(M), len(M[0]) if M else 0
    if m > n:
        M, m, n = [list(col) for col in zip(*M)], n, m
    if m == 0:
        return 1
    if n > _RYSER_CAP:
        raise ValueError(f"permanent capped at {_RYSER_CAP} rows or columns")
    # (-1)^s C(n-s, m-s) by subset size s; the (-1)^m goes on at the end
    coef = [(-1) ** s * math.comb(n - s, m - s) for s in range(m + 1)]
    # Gray-code subset walk: maintain per-row sums over the subset.
    sums = [0] * m
    total = 0
    size = 0
    for k in range(1, 1 << n):
        # Gray code k ^ (k >> 1) differs from step k-1's in k's lowest set bit
        col = (k & -k).bit_length() - 1
        add = 1 if (k ^ (k >> 1)) >> col & 1 else -1
        size += add
        for i in range(m):
            sums[i] += add * M[i][col]
        if size > m:
            continue
        prod = 1
        for s in sums:
            prod *= s
            if prod == 0:
                break
        total += coef[size] * prod
    return (-1) ** m * total


def dmin_upper_bound(weight_matrix, v):
    """Minimum-distance upper bound from permanents of column-deleted minors
    (Smarandache and Vontobel, IEEE Trans. IT, 2012).

    For every (v+1)-subset S of columns, sums perm of the minor with column i
    removed over i in S; returns the minimum over subsets.  Minors keep all
    rows, and each v-column minor's permanent is computed once.
    """
    W = _to_rows(weight_matrix)
    n = len(W[0]) if W else 0
    try:
        v = operator.index(v)
    except TypeError:
        raise ValueError(f"v = {v} is not an integer") from None
    if v + 1 > n:
        raise ValueError(f"subset size {v + 1} exceeds column count {n}")
    if v < 1:
        raise ValueError("v must be >= 1")
    perm = {keep: permanent([[row[j] for j in keep] for row in W])
            for keep in itertools.combinations(range(n), v)}
    best = None
    for S in itertools.combinations(range(n), v + 1):
        total = 0
        for k in range(v + 1):
            total += perm[S[:k] + S[k + 1:]]
        best = total if best is None else min(best, total)
    return best


def bethe_permanent(M):
    """Bethe-free-energy permanent approximation by damped message passing.

    Returns (value, converged).  Zero entries are allowed provided every row
    and column retains at least one positive entry; rows or columns with a
    single positive entry pin the corresponding marginal to 1.
    """
    M = np.array(_to_rows(M), dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    m = M.shape[0]
    if m > _BETHE_CAP:
        raise ValueError(f"bethe permanent capped at m={_BETHE_CAP}")
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
