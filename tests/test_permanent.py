"""Exact, rectangular, and message-passing permanents plus the distance bound."""

import math

import numpy as np
import pytest

from nishigraph import (bethe_permanent, dmin_upper_bound, permanent,
                        rect_permanent)

from util import naive_permanent


def test_small_closed_forms():
    assert permanent([]) == 1
    assert permanent([[7]]) == 7
    # perm [[a,b],[c,d]] = a d + b c
    assert permanent([[1, 2], [3, 4]]) == 10
    assert permanent([[1] * 4 for _ in range(4)]) == math.factorial(4)


def test_integer_inputs_stay_exact_integers():
    val = permanent([[2, 1], [1, 2]])
    assert val == 5 and isinstance(val, int)
    val = permanent(np.array([[2, 1], [1, 2]]))
    assert val == 5 and isinstance(val, int)


def test_float_inputs_supported():
    assert permanent([[0.5, 0.5], [0.5, 0.5]]) == pytest.approx(0.5)
    assert naive_permanent([[0.25]]) == pytest.approx(0.25)


def test_gray_code_matches_permutation_oracle_on_integers():
    rng = np.random.default_rng(99)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        M = rng.integers(0, 5, size=(m, m))
        assert permanent(M) == naive_permanent(M)


def test_gray_code_matches_permutation_oracle_on_floats():
    rng = np.random.default_rng(7)
    for _ in range(15):
        m = int(rng.integers(1, 7))
        M = rng.random((m, m)) + 0.1
        assert permanent(M) == pytest.approx(naive_permanent(M), rel=1e-12)


def test_permanent_validation():
    with pytest.raises(ValueError):
        permanent([[1, 2]])
    with pytest.raises(ValueError):
        permanent([[-1]])
    with pytest.raises(ValueError):
        permanent(np.ones((21, 21)))
    with pytest.raises(ValueError):
        naive_permanent(np.ones((8, 8)))


def test_rect_permanent_counts_injections():
    # all-ones m x n counts injections: n! / (n-m)!
    assert rect_permanent([[1, 1, 1], [1, 1, 1]]) == 6
    assert rect_permanent([[1], [1], [1]]) == 3  # transposed orientation
    rng = np.random.default_rng(11)
    M = rng.integers(0, 4, size=(4, 4))
    assert rect_permanent(M) == permanent(M)
    with pytest.raises(ValueError):
        rect_permanent(np.ones((13, 2)))


def test_distance_bound_all_ones_weight():
    assert dmin_upper_bound([[1, 1, 1], [1, 1, 1]], v=2) == 6
    with pytest.raises(ValueError):
        dmin_upper_bound([[1, 1], [1, 1]], v=2)
    with pytest.raises(ValueError):
        dmin_upper_bound([[1, 1, 1]], v=0)


def test_bethe_all_ones_value():
    # all-ones K x K: the message-passing optimum gives (K!/K^K)^... the
    # K = 3 value is 64/27
    val, converged = bethe_permanent(np.ones((3, 3)))
    assert converged
    assert val == pytest.approx(64.0 / 27.0, abs=1e-9)


def test_bethe_two_by_two_boundary_case():
    # the stationary point sits on the boundary of the feasible set; the
    # estimate is still the exact boundary value and stays below the permanent
    val, _ = bethe_permanent([[2.0, 1.0], [1.0, 2.0]])
    assert val == pytest.approx(4.0, abs=1e-6)
    assert val <= permanent([[2, 1], [1, 2]]) + 1e-9


def test_bethe_one_by_one_is_identity():
    val, converged = bethe_permanent([[3.5]])
    assert converged
    assert val == pytest.approx(3.5, abs=1e-9)


def test_bethe_lower_bounds_exact_on_positive_matrices():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        M = rng.random((m, m)) + 0.1
        approx, _ = bethe_permanent(M)
        assert approx <= permanent(M) * (1 + 1e-9)


def test_bethe_validation():
    with pytest.raises(ValueError):
        bethe_permanent(np.ones((13, 13)))
    with pytest.raises(ValueError):
        bethe_permanent([[1.0, 2.0]])
