"""Induced-subgraph invariants: spectra, counting, genus, and index pairs."""

import math
import re
from importlib import resources

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st

from nishigraph import (METProtograph, TrappingSet, betti, continuous_genus,
                        invariant_panel, kasparov_k, lift, negative_modes,
                        spanning_forest_incidence, spectral_radius)

from util import (betti_by_components, kasparov_k_by_sparse,
                  trapping_matrix_by_loop)


def load(name):
    path = resources.files("nishigraph").joinpath("data", name)
    return TrappingSet.from_file(str(path))


def test_from_text_and_label():
    ts = load("ts_4_2.txt")
    assert ts.H.shape == (5, 4)
    assert ts.label() == "TS(4,2)"
    assert load("ts_4_6.txt").label() == "TS(4,6)"
    assert load("ts_9_2.txt").label() == "TS(9,2)"


def test_trapping_set_validation():
    for H in ([1, 0, 1], [[[1]]], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="nonempty 2-D incidence"):
            TrappingSet(H)
    with pytest.raises(ValueError, match="entries must be 0/1"):
        TrappingSet([[1, 2], [0, 1]])
    with pytest.raises(ValueError, match=re.escape("row counts differ: 2 vs 3")):
        kasparov_k(np.ones((2, 2)), np.ones((3, 1)))


def test_from_text_reads_both_formats_alike():
    packed = TrappingSet.from_text("# packed\n10\n\n11\n")
    spaced = TrappingSet.from_text("1 0\n1 1\n")
    assert packed.H.tolist() == spaced.H.tolist() == [[1, 0], [1, 1]]


@pytest.mark.parametrize("text, message", [
    ("10\n01 1\n", "line 2: space-separated row in a file of packed rows"),
    ("1 0\n1 1 0\n", "line 2: 3 cells, expected 2"),
    ("11\n\n1x1\n", "line 3: cell 'x' is not 0 or 1"),
])
def test_from_file_names_the_file_and_line(tmp_path, text, message):
    path = tmp_path / "ts.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        TrappingSet.from_file(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_from_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "ts.txt"
    path.write_bytes(b"# caf\xc3\xa9\r\n10\r\n0\xe9\n")
    with pytest.raises(ValueError) as err:
        TrappingSet.from_file(str(path))
    assert str(err.value) == f"{path}: line 3: byte 0xe9 is not UTF-8"


_ROW_TEXT = st.text(st.sampled_from(list("01 \t#x\n\r\x0b\x0c\x85\u2028"))
                    | st.characters(), max_size=40)


@given(_ROW_TEXT)
def test_from_text_gives_a_set_or_names_the_line(text):
    # a row is a line (ended by "\n", "\r\n" or "\r", as in a file read in
    # text mode) that is neither blank nor a comment
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [k for k, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("#")]
    try:
        ts = TrappingSet.from_text(text, "fuzz.txt")
    except ValueError as exc:
        message = str(exc)
        if message == "fuzz.txt: no incidence rows":
            assert not rows
        else:
            number = re.fullmatch(r"fuzz\.txt: line (\d+): .+", message,
                                  re.DOTALL)
            assert number and int(number[1]) in rows, message
    else:
        assert ts.H.shape[0] == len(rows)


def test_from_text_counts_lines_at_newlines_only():
    # a form feed or a Unicode line separator is inside a line, not a break
    assert TrappingSet.from_text("1\x0c0\n0 1\n").H.tolist() == [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match=r"^<text>: line 2: 3 cells"):
        TrappingSet.from_text("1 0\u2028\n1 1 0\n")


def test_from_tanner_restriction():
    g = lift(METProtograph([[[0], [0]], [[0], [0]]], L=2))
    ts = TrappingSet.from_tanner(g, [0, 1])
    assert ts.a == 2
    assert ts.H.shape[1] == 2
    with pytest.raises(ValueError, match=r"out of range \[0, 4\)"):
        TrappingSet.from_tanner(g, [0, 4])
    with pytest.raises(ValueError, match="out of range"):
        TrappingSet.from_tanner(g, [-1, 2])


_TANNER = lift(METProtograph([[[0], [1], [3]], [[2], [0], [5]]], L=7))


@given(st.lists(st.integers(0, _TANNER.n_vars - 1), min_size=1, max_size=9))
def test_from_tanner_matches_edge_loop_oracle(var_indices):
    ts = TrappingSet.from_tanner(_TANNER, var_indices)
    expected = trapping_matrix_by_loop(_TANNER, var_indices)
    assert ts.H.dtype == expected.dtype
    assert np.array_equal(ts.H, expected)


def test_variable_graph_is_read_only_and_has_zero_diagonal():
    ts = load("ts_9_2.txt")
    expected = ts.H.T @ ts.H
    np.fill_diagonal(expected, 0)
    assert ts.A_vn.dtype == float
    assert np.array_equal(ts.A_vn, expected)
    assert not ts.A_vn.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ts.A_vn[0, 1] = 0.0


def test_spanning_forest_is_built_once_per_set_and_read_only():
    # the panel's betti and kasparov_k read the one cached forest
    ts = load("ts_9_2.txt")
    forest = spanning_forest_incidence(ts)
    invariant_panel(ts)
    assert spanning_forest_incidence(ts) is forest
    assert not forest.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        forest[0, 0] = 1


def test_trapping_set_owns_a_read_only_copy_of_its_incidence():
    # an edit to the caller's array after construction changes nothing:
    # H, the label and A_vn stay those of the set as built
    H = np.array([[1, 1, 0], [0, 1, 1]])
    ts = TrappingSet(H)
    H[0, 2] = 1
    assert ts.H.tolist() == [[1, 1, 0], [0, 1, 1]]
    assert ts.label() == "TS(3,0)" == TrappingSet(ts.H).label()
    assert betti(ts) == betti(TrappingSet([[1, 1, 0], [0, 1, 1]]))
    with pytest.raises(ValueError, match="read-only"):
        ts.H[0, 2] = 1


def test_variable_adjacency_has_zero_diagonal():
    dense = load("ts_4_2.txt").A_vn
    assert np.allclose(np.diag(dense), 0.0)
    # shared-check counts between consecutive variables form a path
    expected = np.zeros((4, 4))
    for i in range(3):
        expected[i, i + 1] = expected[i + 1, i] = 1.0
    assert np.allclose(dense, expected)


def test_spectral_radius_path_graph_closed_form():
    # the 4-variable chain has variable-adjacency spectral radius
    # 2 cos(pi / 5), the golden ratio
    rho, r_crit = spectral_radius(load("ts_4_2.txt"))
    assert rho == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert r_crit == pytest.approx(math.sqrt(rho), abs=1e-12)


def test_spectral_radius_frozen_values():
    assert spectral_radius(load("ts_4_6.txt"))[0] == pytest.approx(4.0, abs=1e-9)
    assert spectral_radius(load("ts_9_2.txt"))[0] == pytest.approx(
        8.91678807164202, abs=1e-9)


def test_betti_counts():
    assert betti(load("ts_4_2.txt")) == (1, 0, 0)
    assert betti(load("ts_4_6.txt"))[2] == 4
    assert betti(load("ts_9_2.txt"))[2] == 11


def test_negative_modes_at_unit_ratio():
    assert negative_modes(load("ts_4_2.txt")) == 0
    assert negative_modes(load("ts_4_6.txt")) == 0
    assert negative_modes(load("ts_9_2.txt")) == 1


def test_continuous_genus_frozen_values():
    assert continuous_genus(load("ts_4_2.txt")) == pytest.approx(
        1.006834873031462, abs=1e-9)
    assert continuous_genus(load("ts_4_6.txt")) == pytest.approx(
        1.5285974440432075, abs=1e-9)
    assert continuous_genus(load("ts_9_2.txt")) == pytest.approx(
        3.068686190184337, abs=1e-9)


def test_kasparov_pair_frozen_values():
    for name, expected in (("ts_4_2.txt", (4, 0)), ("ts_4_6.txt", (12, 0)),
                           ("ts_9_2.txt", (14, 0))):
        ts = load(name)
        S = ts.H.T
        T = spanning_forest_incidence(ts)
        assert kasparov_k(S, T) == expected


def test_invariant_panel_full_report():
    rep = invariant_panel(load("ts_4_2.txt"))
    d = rep.to_dict()
    assert set(d) == set(rep.FIELDS)
    assert d["rho"] == pytest.approx(1.6180339887498951, abs=1e-9)
    assert d["r_crit"] == pytest.approx(1.272019649514069, abs=1e-9)
    assert d["neg_modes_r1"] == 0
    assert d["genus"] == pytest.approx(1.006834873031462, abs=1e-9)
    assert (d["k0"], d["k1"], d["kervaire"]) == (4, 0, 0)
    assert (d["betti0"], d["betti1_mod2"], d["cycle_rank"]) == (1, 0, 0)
    assert "rho" in rep.to_dict()


def test_invariant_panel_second_report():
    d = invariant_panel(load("ts_9_2.txt")).to_dict()
    assert d["rho"] == pytest.approx(8.91678807164202, abs=1e-9)
    assert d["r_crit"] == pytest.approx(2.986099139620455, abs=1e-9)
    assert d["neg_modes_r1"] == 1
    assert d["cycle_rank"] == 11


@st.composite
def incidence_matrices(draw):
    """0/1 matrices, some with zero rows or columns, some block-diagonal
    (so their variable graphs are disconnected)."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        m, a = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        cells = draw(st.lists(st.integers(0, 1), min_size=m * a, max_size=m * a))
        blocks.append(np.array(cells).reshape(m, a))
    return sla.block_diag(*blocks).astype(int)


@given(incidence_matrices())
def test_panel_matches_component_and_sparse_oracles(H):
    ts = TrappingSet(H)
    b = betti_by_components(ts)
    assert betti(ts) == b
    S, T = ts.H.T, spanning_forest_incidence(ts)
    k0, k1 = kasparov_k_by_sparse(S, T)
    assert kasparov_k(S, T) == (k0, k1)
    # the block's rank is twice that of [S T], so it is even
    assert k1 == 0
    rho, r_crit = spectral_radius(ts)
    assert invariant_panel(ts).to_dict() == {
        "rho": rho, "r_crit": r_crit, "neg_modes_r1": negative_modes(ts),
        "genus": continuous_genus(ts), "k0": k0, "k1": k1, "kervaire": k1,
        "betti0": b[0], "betti1_mod2": b[1], "cycle_rank": b[2]}

