"""Coupling graphs, the exact-enumeration oracles, and disorder sampling."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nishigraph
from nishigraph import CouplingGraph, SparseSym, sample_nishimori_pm

from util import (SpinConfig, assert_same_graph, coupling_graphs, exact_thermo,
                  hamiltonian, random_regular, subgraph_by_constructor)


def test_coupling_graph_validation():
    J = CouplingGraph(3, [(0, 1, 1.0), (1, 2, -1.0)])
    assert J.n == 3
    assert len(J.edges) == 2
    with pytest.raises(ValueError):
        CouplingGraph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        CouplingGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    # the arrays are read-only, so a zero coupling cannot be written in
    for a in (J.i, J.j, J.couplings):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_coupling_graph_from_sparse():
    M = SparseSym(3, [(0, 1, 0.5), (1, 2, -2.0)])
    J = CouplingGraph.from_sparse(M)
    assert sorted((i, j, w) for i, j, w in J.edges) == [(0, 1, 0.5), (1, 2, -2.0)]


def test_components_order_and_membership():
    # union-find on these edges would root the groups at 6, 7 and 3; the
    # contract orders groups by their smallest vertex, members ascending
    J = CouplingGraph(8, [(6, 0, 1.0), (5, 1, 1.0), (7, 2, 1.0),
                          (6, 4, 1.0), (7, 5, 1.0)])
    assert J.components() == [[0, 4, 6], [1, 2, 5, 7], [3]]
    assert CouplingGraph(3, []).components() == [[0], [1], [2]]
    assert CouplingGraph(0, []).components() == []


@given(coupling_graphs(), st.data())
def test_subgraph_is_the_constructors_graph_of_its_edges(J, data):
    # each component, and any ascending vertex list
    drawn = sorted(data.draw(st.sets(st.integers(0, J.n - 1))))
    for vertices in J.components() + [drawn]:
        assert_same_graph(J.subgraph(vertices),
                          subgraph_by_constructor(J, vertices))


def test_subgraph_refuses_vertices_that_are_not_ascending_ids_in_range():
    J = CouplingGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    for vertices in ([1, 0], [0, 0], [-1, 2], [0, 4], [0.0, 1.0], [[0, 1]]):
        with pytest.raises(ValueError, match=r"^vertices must be ascending "
                                             r"distinct ids in \[0,4\)$"):
            J.subgraph(vertices)
    assert J.subgraph([]).n == 0 and J.subgraph([1, 2]).edges == []


def test_spin_config_validation():
    s = SpinConfig([1, -1, 1])
    assert len(s) == 3
    with pytest.raises(ValueError):
        SpinConfig([1, 0, 1])


def test_hamiltonian_sign_convention():
    J = CouplingGraph(2, [(0, 1, 1.0)])
    assert hamiltonian(SpinConfig([1, 1]), J) == -1.0
    assert hamiltonian(SpinConfig([1, -1]), J) == 1.0
    with pytest.raises(ValueError):
        hamiltonian(SpinConfig([1, 1, 1]), J)


def test_two_spin_free_energy_closed_form():
    # Z = 2 e^{beta} + 2 e^{-beta} = 4 cosh(beta)
    J = CouplingGraph(2, [(0, 1, 1.0)])
    for beta in (0.1, 1.0, 2.0):
        logZ, mags = exact_thermo(J, beta)
        assert abs(logZ - math.log(4.0 * math.cosh(beta))) <= 1e-12
        assert np.allclose(mags, 0.0, atol=1e-12)


def test_exact_thermo_matches_direct_enumeration_on_frustrated_triangle():
    J = CouplingGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -1.0)])
    beta = 0.7
    Z = 0.0
    for bits in range(8):
        s = [1 if bits & (1 << k) else -1 for k in range(3)]
        Z += math.exp(-beta * hamiltonian(SpinConfig(s), J))
    logZ, _ = exact_thermo(J, beta)
    assert logZ == pytest.approx(math.log(Z), abs=1e-12)


def test_exact_thermo_enumeration_cap():
    with pytest.raises(ValueError):
        exact_thermo(CouplingGraph(21, []), 1.0)


def test_energy_is_invariant_under_global_spin_flip():
    edges = random_regular(30, 3, 77)
    rng = np.random.default_rng(123)
    J = CouplingGraph(30, [(i, j, float(rng.choice([-1.0, 1.0])))
                           for i, j in edges])
    worst = 0.0
    for _ in range(200):
        s = rng.choice([-1, 1], size=30)
        worst = max(worst, abs(hamiltonian(SpinConfig(s), J)
                               - hamiltonian(SpinConfig(-s), J)))
    assert worst == 0.0


def test_sample_matched_temperature_formula():
    edges = random_regular(20, 3, 4)
    for p in (0.05, 0.1, 0.3):
        J, beta_N = sample_nishimori_pm(20, edges, p_flip=p, seed=0)
        assert beta_N == pytest.approx(0.5 * math.log((1 - p) / p), abs=1e-12)
        assert all(w in (-1.0, 1.0) for _, _, w in J.edges)


def test_sample_flip_rate_concentrates():
    edges = random_regular(1000, 3, 8)
    J, _ = sample_nishimori_pm(1000, edges, p_flip=0.1, seed=2)
    frac = sum(1 for _, _, w in J.edges if w < 0) / len(J.edges)
    # 1500 edges: three sigma around p = 0.1 is about +-0.024
    assert abs(frac - 0.1) < 0.03


def test_sample_is_deterministic_per_seed():
    edges = random_regular(12, 3, 1)
    J1, _ = sample_nishimori_pm(12, edges, p_flip=0.2, seed=5)
    J2, _ = sample_nishimori_pm(12, edges, p_flip=0.2, seed=5)
    assert J1.edges == J2.edges


def test_sample_rejects_degenerate_flip_rates():
    edges = [(0, 1)]
    for p in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            sample_nishimori_pm(2, edges, p_flip=p)


def test_import_leaves_scipy_special_and_optimize_unloaded():
    # no package module uses scipy.special, and zeta refines crossings
    # itself, so no import of the package pays for loading either module
    src = os.path.dirname(os.path.dirname(nishigraph.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import nishigraph; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.special', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
