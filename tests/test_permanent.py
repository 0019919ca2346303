"""Exact (any shape) and message-passing permanents plus the distance bound."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nishigraph import bethe_permanent, dmin_upper_bound, permanent

from util import dmin_bound_by_oracle, naive_permanent


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
        permanent([[1, 2], [3]])
    with pytest.raises(ValueError):
        permanent([[-1]])
    with pytest.raises(ValueError):
        permanent(np.ones((21, 21)))
    with pytest.raises(ValueError):
        naive_permanent(np.ones((8, 8)))


def test_permanent_counts_injections_on_rectangles():
    # all-ones m x n counts injections: n! / (n-m)!
    assert permanent([[1, 1, 1], [1, 1, 1]]) == 6
    assert permanent([[1], [1], [1]]) == 3  # transposed orientation
    assert permanent([[1, 2]]) == 3
    # 13 rows are within the cap of 20 on the longer side
    val = permanent(np.ones((13, 2)))
    assert val == 13 * 12 and isinstance(val, int)
    rng = np.random.default_rng(11)
    M = rng.integers(0, 4, size=(4, 4))
    assert permanent(M) == naive_permanent(M)


@given(st.data())
def test_permanent_equals_injection_oracle_on_every_shape(data):
    m, n = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    exact = data.draw(st.booleans())
    entries = st.integers(0, 4) if exact else st.floats(0.1, 1.0)
    M = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=m, max_size=m)),
                 dtype=int if exact else float).reshape(m, n)
    want = naive_permanent(M)
    if m == 0 or n == 0:
        assert want == 1
    for A in (M, M.T):
        if exact:
            assert permanent(A) == want
        else:
            assert permanent(A) == pytest.approx(want, rel=1e-12)


def test_distance_bound_equals_its_definition_for_every_row_count():
    rng = np.random.default_rng(5)
    # rows fewer than, equal to and more than v
    for m, v, n in [(1, 3, 5), (2, 3, 6), (3, 3, 5), (4, 4, 6), (5, 2, 4),
                    (4, 1, 3)]:
        for _ in range(4):
            W = rng.integers(0, 4, size=(m, n))
            got = dmin_upper_bound(W, v)
            assert got == dmin_bound_by_oracle(W, v) and isinstance(got, int)


def test_distance_bound_all_ones_weight():
    assert dmin_upper_bound([[1, 1, 1], [1, 1, 1]], v=2) == 6
    with pytest.raises(ValueError):
        dmin_upper_bound([[1, 1], [1, 1]], v=2)
    with pytest.raises(ValueError):
        dmin_upper_bound([[1, 1, 1]], v=0)


@pytest.mark.parametrize("v, shown", [(1.5, "1.5"), (math.nan, "nan"),
                                      (2.0, "2.0"), ("2", "2"),
                                      (np.float64(1.5), "1.5")])
def test_distance_bound_refuses_a_v_that_is_not_an_integer(v, shown):
    with pytest.raises(ValueError, match=f"^v = {re.escape(shown)} is not an "
                                         "integer$"):
        dmin_upper_bound([[1, 1, 1], [1, 1, 1]], v)
    # numpy integers stay accepted
    assert dmin_upper_bound([[1, 1, 1], [1, 1, 1]], np.int64(2)) == 6


@pytest.mark.parametrize("fn, over_cap, cap", [
    (permanent, np.ones((2, 21)), "permanent capped at 20 rows or columns"),
    (lambda M: dmin_upper_bound(M, v=1), np.ones((21, 2)),
     "permanent capped at 20 rows or columns"),
    (bethe_permanent, np.ones((13, 13)), "bethe permanent capped at m=12")],
    ids=["permanent", "dmin_upper_bound", "bethe_permanent"])
def test_every_permanent_refuses_bad_input_by_one_rule(fn, over_cap, cap):
    for M, message in [
            ([[1, 1], [1]], "row 1 has 1 entries, row 0 has 2"),
            ([1, 1], "a permanent needs a 2-D matrix"),
            (np.array([[1, 1], [np.nan, 1]]), "entry (1,0) = nan is not "
             "finite and >= 0"),
            ([[1, math.inf], [1, 1]], "entry (0,1) = inf"),
            ([[1, 1], [1, -math.inf]], "entry (1,1) = -inf"),
            ([[1, 1], [-2, 1]], "entry (1,0) = -2"),
            ([[10 ** 400, 1], [1, 1]], "entry (0,0) = 1000"),
            (over_cap, cap)]:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            fn(M)


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
    for M in ([[0.0, 0.0], [1.0, 2.0]], [[0.0, 1.0], [0.0, 2.0]]):
        with pytest.raises(ValueError, match="zero row or column"):
            bethe_permanent(M)
