"""Induced-subgraph invariants: spectra, counting, genus, and index pairs."""

import math
from importlib import resources

import numpy as np
import pytest

from nishigraph import (METProtograph, TrappingSet, betti, continuous_genus,
                        dirac_spectrum, invariant_panel, kasparov_k, lift,
                        negative_modes, spanning_forest_incidence,
                        spectral_radius, variable_adjacency)


def load(name):
    path = resources.files("nishigraph").joinpath("data", name)
    return TrappingSet.from_file(str(path))


def test_from_text_and_label():
    ts = load("ts_4_2.txt")
    assert ts.H.shape == (5, 4)
    assert ts.label() == "TS(4,2)"
    assert load("ts_4_6.txt").label() == "TS(4,6)"
    assert load("ts_9_2.txt").label() == "TS(9,2)"


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


def test_from_tanner_restriction():
    g = lift(METProtograph([[[0], [0]], [[0], [0]]], L=2))
    ts = TrappingSet.from_tanner(g, [0, 1])
    assert ts.a == 2
    assert ts.H.shape[1] == 2


def test_variable_adjacency_has_zero_diagonal():
    A, D, L = variable_adjacency(load("ts_4_2.txt"))
    dense = A.to_dense()
    assert np.allclose(np.diag(dense), 0.0)
    # shared-check counts between consecutive variables form a path
    expected = np.zeros((4, 4))
    for i in range(3):
        expected[i, i + 1] = expected[i + 1, i] = 1.0
    assert np.allclose(dense, expected)
    assert np.allclose(D.diagonal(), dense.sum(axis=1))
    assert np.allclose(L.to_dense(), np.diag(dense.sum(axis=1)) - dense)


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


def test_dirac_spectrum_is_symmetric_about_zero():
    spec = dirac_spectrum(load("ts_4_6.txt"))
    ev = np.array(spec.eigenvalues)
    assert np.allclose(np.sort(ev), np.sort(-ev), atol=1e-8)


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
    assert "rho" in rep.to_json()


def test_invariant_panel_second_report():
    d = invariant_panel(load("ts_9_2.txt")).to_dict()
    assert d["rho"] == pytest.approx(8.91678807164202, abs=1e-9)
    assert d["r_crit"] == pytest.approx(2.986099139620455, abs=1e-9)
    assert d["neg_modes_r1"] == 1
    assert d["cycle_rank"] == 11
