"""Feature tables, similarity graphs, and critical-temperature embeddings."""

import json
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import nishigraph.embed as embed
import nishigraph.estimator as estimator
from nishigraph import (CouplingGraph, Embedding, EstimatorConfig,
                        FeatureTable, select_indices, similarity_graph,
                        spectral_embed, synthetic_features)

from util import (assert_same_graph, rank_features_by_rest_mean,
                  similarity_graph_by_loop, spectral_embed_by_pairs,
                  subgraph_by_constructor)


def test_feature_table_validation():
    with pytest.raises(ValueError):
        FeatureTable(np.zeros(3))
    with pytest.raises(ValueError):
        FeatureTable(np.zeros((3, 2)), labels=[0, 1])
    # the CSV reader's label rule: an integer in [0, 2**63), row named
    for labels, row, value in [([-1, 0], 0, "-1"),
                               ([0, 1e30], 1, "1000000000000000019884624838656"),
                               ([2 ** 63, 0], 0, "9223372036854775808"),
                               ([1, np.uint64(2 ** 63)], 1, "9223372036854775808"),
                               ([2 ** 64 + 1, 0], 0, "18446744073709551617")]:
        with pytest.raises(ValueError, match=f"^row {row}: label {value} is "
                           r"not in \[0, 2\*\*63\)$"):
            FeatureTable(np.zeros((2, 2)), labels=labels)
    assert FeatureTable(np.zeros((1, 2)), [2 ** 63 - 1]).labels[0] == 2 ** 63 - 1
    for labels, row, value in [([0.5, 1.7, 2.2], 0, "0.5"),
                               ([0.0, 1.0, 2.2], 2, "2.2"),
                               ([1.0, np.nan, 2.0], 1, "nan"),
                               ([1.0, 2.0, np.inf], 2, "inf")]:
        with pytest.raises(ValueError, match=f"^row {row}: label {value} is "
                           "not an integer$"):
            FeatureTable(np.zeros((3, 2)), labels=labels)
    ft = FeatureTable(np.zeros((4, 3)), labels=[1, 0, 1, 2])
    assert (ft.n_samples, ft.n_features) == (4, 3)
    assert ft.classes() == [0, 1, 2]
    labels = FeatureTable(np.zeros((3, 2)), [1.0, 0.0, 2.0]).labels
    assert labels.dtype.kind == "i" and labels.tolist() == [1, 0, 2]
    with pytest.raises(ValueError):
        FeatureTable(np.zeros((2, 2))).classes()


def test_feature_table_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ft = FeatureTable(rng.standard_normal((5, 3)), labels=[0, 1, 0, 2, 1])
    path = tmp_path / "f.csv"
    ft.to_csv(str(path))
    back = FeatureTable.from_csv(str(path))
    assert np.array_equal(back.X, ft.X)
    assert np.array_equal(back.labels, ft.labels)
    unlabeled = FeatureTable(ft.X)
    unlabeled.to_csv(str(path))
    back = FeatureTable.from_csv(str(path))
    assert back.labels is None
    assert np.array_equal(back.X, ft.X)


def test_feature_table_raw_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    ft = FeatureTable(rng.standard_normal((4, 6)).astype(np.float32))
    path = tmp_path / "f.bin"
    ft.to_raw(str(path))
    back = FeatureTable.from_raw(str(path))
    assert np.allclose(back.X, ft.X, atol=1e-7)
    (tmp_path / "short.bin").write_bytes(b"\x00" * 8)
    (tmp_path / "short.bin.json").write_text('{"rows": 2, "cols": 2}')
    with pytest.raises(ValueError):
        FeatureTable.from_raw(str(tmp_path / "short.bin"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_table_raw_refuses_a_non_finite_cell(tmp_path, value):
    X = np.ones((4, 3), dtype=np.float32)
    X[2, 1] = X[3, 0] = value
    # the table refuses the first bad row too, 0-based as the label
    # refusals count (a NaN row would otherwise sit alone in the graph), so
    # the file is written by hand
    with pytest.raises(ValueError, match="^row 2: non-finite value$"):
        FeatureTable(X)
    path = tmp_path / "f.bin"
    path.write_bytes(X.astype("<f4").tobytes())
    (tmp_path / "f.bin.json").write_text('{"rows": 4, "cols": 3}')
    with pytest.raises(ValueError, match=f"^{path}: row 3: non-finite value$"):
        FeatureTable.from_raw(str(path))


def test_synthetic_features_layout():
    ft = synthetic_features(3, 20, 50, separation=8.0, seed=4)
    assert ft.X.shape == (60, 50)
    assert sorted(np.bincount(ft.labels)) == [20, 20, 20]
    # same class pairs sit closer in cosine distance than cross-class pairs
    U = ft.X / np.linalg.norm(ft.X, axis=1, keepdims=True)
    C = U @ U.T
    same = [C[i, j] for i in range(60) for j in range(i + 1, 60)
            if ft.labels[i] == ft.labels[j]]
    cross = [C[i, j] for i in range(60) for j in range(i + 1, 60)
             if ft.labels[i] != ft.labels[j]]
    assert np.mean(same) > np.mean(cross) + 0.2
    again = synthetic_features(3, 20, 50, separation=8.0, seed=4)
    assert np.array_equal(again.X, ft.X)


def test_select_indices_finds_discriminative_columns():
    rng = np.random.default_rng(2)
    X = 0.01 * rng.standard_normal((40, 10))
    y = np.array([0] * 20 + [1] * 20)
    X[:20, 3] += 5.0   # feature 3 separates the classes
    X[20:, 7] += 5.0   # feature 7 separates them the other way
    ft = FeatureTable(X, y)
    sel = select_indices(ft, 2)
    assert set(sel) == {0, 1}
    assert set(sel[0]) == {3, 7}
    assert set(sel[1]) == {3, 7}
    with pytest.raises(ValueError):
        select_indices(ft, 11)
    for s in (0, -1):
        with pytest.raises(ValueError, match=f"^s must be at least 1, got {s}$"):
            select_indices(ft, s)
    with pytest.raises(ValueError):
        select_indices(FeatureTable(X), 2)
    # columns 1, 4 and 6 separate the classes equally well, the rest not at
    # all: ties break low
    X = np.zeros((4, 8))
    X[:2, [1, 4, 6]] = 1.0
    ft = FeatureTable(X, [0, 0, 1, 1])
    assert select_indices(ft, 2) == {0: [1, 4], 1: [1, 4]}
    assert select_indices(ft, 4) == {0: [0, 1, 4, 6], 1: [0, 1, 4, 6]}
    with pytest.raises(ValueError, match="^class 2 has fewer than 2 samples$"):
        select_indices(FeatureTable(X, [0, 0, 0, 2]), 2)
    with pytest.raises(ValueError, match="^a single class covers all samples$"):
        select_indices(FeatureTable(X, [3, 3, 3, 3]), 2)


@st.composite
def ranking_cases(draw):
    """Labelled features: two to five classes (labels drawn from 0-99) of
    2-12 rows, Gaussian columns, columns with scales from 1e-3 to 1e3, or
    small integers (every sum exact, so many gaps tie exactly), at times with
    rows repeated from a few distinct ones and columns copied from others."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.integers(2, 12), min_size=2, max_size=5))
    labels = rng.permutation(np.repeat(
        rng.choice(100, len(sizes), replace=False), sizes))
    n, d = len(labels), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["gaussian", "scaled", "integer"]))
    X = rng.standard_normal((n, d))
    if kind == "scaled":
        X *= 10.0 ** rng.uniform(-3, 3, d)
    elif kind == "integer":
        X = rng.integers(-2, 3, (n, d)).astype(float)
    if draw(st.booleans()):
        X = X[rng.integers(0, draw(st.integers(1, n)), n)]
    if draw(st.booleans()):
        X = X[:, rng.integers(0, d, d)]
    return FeatureTable(X, labels), kind


@given(ranking_cases())
def test_class_sum_ranking_matches_the_rest_of_data_oracle(case):
    # the rest-of-data mean from the column totals orders the features as
    # the mean of the other rows does: each prefix that ends where the
    # oracle's next gap is clearly smaller (by 1e-12 of the two columns'
    # largest entry) holds the same columns, equal columns keep the lower
    # first, and exact sums give the oracle's order itself
    ft, kind = case
    got, want = embed._rank_features(ft), rank_features_by_rest_mean(ft)
    assert list(got) == list(want)
    scale = np.abs(ft.X).max(axis=0)
    same = [(a, b) for a in range(ft.n_features)
            for b in range(a + 1, ft.n_features)
            if np.array_equal(ft.X[:, a], ft.X[:, b])]
    for c, order in want.items():
        mask = ft.labels == c
        gap = np.abs(ft.X[mask].mean(axis=0) - ft.X[~mask].mean(axis=0))
        if kind == "integer":
            assert np.array_equal(got[c], order)
        tol = 1e-12 * np.maximum(scale[order[:-1]], scale[order[1:]])
        for k in np.flatnonzero(gap[order[:-1]] - gap[order[1:]] > tol):
            assert set(got[c][:k + 1]) == set(order[:k + 1])
        rank = np.argsort(got[c])
        assert all(rank[a] < rank[b] for a, b in same)


def test_feature_ranking_copies_no_other_rows():
    # one class's rows at a time, a tenth of the table for ten classes; a
    # copy of the other rows per class would be nine tenths
    ft = synthetic_features(10, 40, 256, 20.0, seed=1)
    tracemalloc.start()
    try:
        embed._rank_features(ft)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * ft.X.nbytes


def test_similarity_graph_kernel_and_sparsity():
    # two clusters of identical rows: within-cluster cosine distance is 0 so
    # the kernel weight is exactly 1
    X = np.vstack([np.tile([1.0, 0.0], (3, 1)), np.tile([0.0, 1.0], (3, 1))])
    J = similarity_graph(FeatureTable(X), gamma=2.0, p=2)
    weights = {(i, j): w for i, j, w in J.edges}
    assert weights[(0, 1)] == pytest.approx(1.0)
    assert weights[(1, 2)] == pytest.approx(1.0)
    # cross-cluster weight, if kept, is exp(-gamma * 1) for orthogonal rows
    for (i, j), w in weights.items():
        if (i < 3) != (j < 3):
            assert w == pytest.approx(np.exp(-2.0), abs=1e-12)
    assert all(i != j for i, j, _ in J.edges)
    with pytest.raises(ValueError):
        similarity_graph(FeatureTable(X), gamma=0.0, p=2)
    # p is a count: an integral float counts, anything else is refused by
    # the one size rule before the Gram is formed
    for p in (0, 2.5, np.nan, "2"):
        with pytest.raises(ValueError, match=re.escape(
                f"p must be >= 1 and an integer, got {p!r}")):
            similarity_graph(FeatureTable(X), gamma=1.0, p=p)
    assert similarity_graph(FeatureTable(X), 2.0, 2.0).edges == J.edges
    with pytest.raises(ValueError):
        similarity_graph(FeatureTable(np.zeros((2, 2))), gamma=1.0, p=1)


@st.composite
def top_p_cases(draw):
    """Features (Gaussian, binarized, or few distinct rows repeated, so many
    kernel weights tie), a kernel width, p up to n + 1 and a row-block size
    from one row to all of them."""
    n = draw(st.integers(1, 24))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, dim))
    kind = draw(st.sampled_from(["gaussian", "binarized", "repeated"]))
    if kind == "binarized":
        X = np.where(X >= 0, 1.0, -1.0)
    elif kind == "repeated":
        X = X[rng.integers(0, min(draw(st.integers(1, 4)), n), n)]
    gamma = draw(st.sampled_from([0.3, 1.0, 2.0, 3.7, 15.0]))
    p = draw(st.integers(1, n + 1))
    block = draw(st.integers(1, n * n))
    return FeatureTable(X), gamma, p, block


def assert_same_graph_where_clear(got, want, X, gamma, p):
    """got has want's edges between rows whose p-th and (p+1)-th kernel
    weights on X's rows are apart, and its couplings to 1e-12 on every
    shared edge."""
    n = len(X)
    q = min(p, n - 1)
    if q < 1:
        assert got.edges == want.edges == []
        return
    G = X @ X.T
    nrm = np.sqrt(np.diag(G))
    W = np.exp(-gamma * (1 - np.clip(G / np.outer(nrm, nrm), -1, 1)) ** 2)
    np.fill_diagonal(W, -np.inf)
    top = -np.sort(-W, axis=1)
    clear = top[:, q - 1] - top[:, q] > 1e-12
    got = {(i, j): w for i, j, w in got.edges}
    want = {(i, j): w for i, j, w in want.edges}
    assert ({e for e in got if clear[list(e)].all()}
            == {e for e in want if clear[list(e)].all()})
    for e in got.keys() & want.keys():
        assert got[e] == pytest.approx(want[e], rel=1e-12, abs=0)


# row 0's cosines to rows 1 and 2 are one ulp apart, row 2's the larger,
# and both round to one weight: ranked on cosines row 0 keeps row 2, where
# a rank on weights, ties to the lower column, kept row 1
_ULP_APART = FeatureTable([[1.0, 0.0, 0.0], [1.0, 0.049, 0.039],
                           [1.0, 0.048999991849, 0.039000010241]])


@given(top_p_cases())
@example((_ULP_APART, 2.0, 1, 9))
def test_similarity_graph_matches_per_row_oracle(case):
    # on the one Gram X X^T, the same edges and bit-equal weights as one
    # lexsort per row on the cosines, whatever the row blocks (they need not
    # divide n), and the same (i, j) arrays at another gamma; the builder's
    # own Gram, summed in column chunks of the same budget, gives them where
    # the rows' p-th weights are clear
    ft, gamma, p, block = case
    want = similarity_graph_by_loop(ft, gamma, p)
    G = ft.X @ ft.X.T
    with mock.patch.object(embed, "_TOP_P_BLOCK", block):
        got = embed._top_p_graph(G, gamma, p)
        assert got.edges == want
        other = embed._top_p_graph(G, 50.0, p)
        assert (other.i.tobytes(), other.j.tobytes()) == (got.i.tobytes(),
                                                          got.j.tobytes())
        J = similarity_graph(ft, gamma, p)
    assert_same_graph_where_clear(J, CouplingGraph(ft.n_samples, want), ft.X,
                                  gamma, p)


@st.composite
def nested_gram_cases(draw):
    """Features with column scales from 1e-3 to 1e3, at times with repeated
    rows or a row that is zero on the smallest set's columns, one to three
    nested column sets in any order (equal sets included), each with a
    kernel width and a p up to n + 1, and a working-set budget of under 4n
    entries: Gram chunks of one to three columns, mirror and top-p blocks
    of one to three rows."""
    n = draw(st.integers(3, 60))
    dim = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, dim)
    if draw(st.booleans()):
        X = X[rng.integers(0, draw(st.integers(1, n)), n)]
    order = rng.permutation(dim)
    sizes = draw(st.lists(st.integers(1, dim), min_size=1, max_size=3))
    sets = [np.sort(order[:k]) for k in sizes]
    if draw(st.booleans()):
        X[draw(st.integers(0, n - 1)), order[:min(sizes)]] = 0.0
    return X, [(cols, draw(st.sampled_from([0.3, 1.0, 2.0, 3.7, 15.0])),
                draw(st.integers(1, n + 1))) for cols in sets], \
        draw(st.integers(1, 4 * n - 1))


@given(nested_gram_cases())
def test_nested_gram_graphs_match_one_graph_per_set(case):
    # each graph has similarity_graph's edges on the set's columns between
    # rows whose p-th and (p+1)-th weights are apart, and its couplings on
    # every shared edge; a zero row on the smallest set is refused as
    # similarity_graph refuses it there
    X, specs, block = case
    inner, gamma, p = min(specs, key=lambda s: len(s[0]))
    with mock.patch.object(embed, "_TOP_P_BLOCK", block):
        try:
            similarity_graph(FeatureTable(X[:, inner]), gamma, p)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                embed._similarity_graphs(X, specs)
            return
        graphs = embed._similarity_graphs(X, specs)
        refs = [similarity_graph(FeatureTable(X[:, cols]), gamma, p)
                for cols, gamma, p in specs]
    for J, ref, (cols, gamma, p) in zip(graphs, refs, specs):
        assert_same_graph_where_clear(J, ref, X[:, cols], gamma, p)


def test_nested_gram_edge_cases_behave_as_one_product():
    # small integers make every Gram entry exact, so the chunked, mirrored
    # Gram gives the per-row oracle's graph bit for bit, in chunks of one
    # column, for a set that adds no column too (one equal to the last); a
    # one-row table has no edge and a zero-row table no vertex
    X = np.array([[1., 2, 0], [0, 1, 1], [2, 0, 1], [1, 1, 1], [0, 2, 1]])
    cols = np.arange(3)
    specs = [(cols, 1.0, 2), (cols, 2.0, 3), ([0, 1], 1.0, 2)]
    with mock.patch.object(embed, "_TOP_P_BLOCK", 1):
        graphs = embed._similarity_graphs(X, specs)
    for J, (c, gamma, p) in zip(graphs, specs):
        assert J.edges == similarity_graph_by_loop(FeatureTable(X[:, c]),
                                                   gamma, p)
    one = similarity_graph(FeatureTable([[1.0, 2.0]]), 1.0, 3)
    assert (one.n, one.edges) == (1, [])
    with pytest.raises(ValueError, match="^zero-norm feature row 0$"):
        similarity_graph(FeatureTable([[0.0, 0.0]]), 1.0, 3)
    none = embed._similarity_graphs(np.zeros((0, 4)),
                                    [(np.arange(4), 1.0, 2), ([1], 1.0, 2)])
    assert [(J.n, J.edges) for J in none] == [(0, []), (0, [])]


def test_nested_gram_refuses_sets_that_are_not_nested():
    X = np.random.default_rng(0).standard_normal((5, 4))
    with pytest.raises(ValueError, match="column sets are not nested"):
        embed._similarity_graphs(X, [([0, 1, 2], 1.0, 2), ([2, 3], 1.0, 2)])


def test_spectral_embed_shapes_and_normalization():
    ft = synthetic_features(3, 15, 30, separation=8.0, seed=6)
    J = similarity_graph(ft, gamma=2.0, p=6)
    emb = spectral_embed(J, 4, graph_id="g0")
    assert emb.coords.shape == (45, 4)
    assert emb.r == 4
    assert emb.graph_id == "g0"
    assert np.allclose(np.linalg.norm(emb.coords, axis=0), 1.0, atol=1e-9)
    # deterministic sign convention: first nonzero entry of each column >= 0
    for k in range(4):
        col = emb.coords[:, k]
        nz = np.where(np.abs(col) > 1e-12)[0]
        assert col[nz[0]] > 0
    with pytest.raises(ValueError):
        spectral_embed(J, 45)
    for r in (0, 2.5, np.nan):
        with pytest.raises(ValueError, match=re.escape(
                f"r must be >= 1 and an integer, got {r!r}")):
            spectral_embed(J, r)
    again = spectral_embed(J, 4.0, graph_id="g0")
    assert again.coords.tobytes() == emb.coords.tobytes()


def test_spectral_embed_solves_each_temperature_once(monkeypatch):
    # the root finder starts from the bracket's end values instead of
    # solving them again
    solved = []
    solve = estimator.bottom_pair

    def recorded(M, tol):
        solved.append((M.n, M.vals.tobytes()))
        return solve(M, tol)

    monkeypatch.setattr(estimator, "bottom_pair", recorded)
    ft = synthetic_features(3, 15, 30, separation=8.0, seed=6)
    spectral_embed(similarity_graph(ft, gamma=2.0, p=6), 4)
    assert solved and len(set(solved)) == len(solved)


def test_each_component_is_the_constructors_subgraph(monkeypatch):
    # built from the parent's checked arrays, array for array the graph
    # CouplingGraph's constructor builds from the relabelled edges
    seen, eigs = [], embed._component_eigs

    def recorded(J, k, cfg):
        seen.append(J)
        return eigs(J, k, cfg)

    monkeypatch.setattr(embed, "_component_eigs", recorded)
    ft = synthetic_features(3, 15, 30, separation=8.0, seed=6)
    J = similarity_graph(ft, gamma=2.0, p=6)
    spectral_embed(J, 4)
    comps = [c for c in J.components() if len(c) > 1]
    assert len(comps) == len(seen) == 3
    for sub, comp in zip(seen, comps):
        assert_same_graph(sub, subgraph_by_constructor(J, comp))


def test_component_roots_take_at_most_six_solves(monkeypatch):
    # graph 0 of the separated pipeline datasets: ten components of about 100
    # vertices, each root counting its bracket's solves (4.9 measured)
    traces, solves = [], []
    root, solve = embed.estimate_beta_N, estimator.bottom_pair

    def recorded_root(system, cfg):
        traces.append(root(system, cfg))
        return traces[-1]

    def recorded_solve(M, tol):
        solves.append(M.n)
        return solve(M, tol)

    monkeypatch.setattr(embed, "estimate_beta_N", recorded_root)
    monkeypatch.setattr(estimator, "bottom_pair", recorded_solve)
    ft = synthetic_features(10, 100, 1280, 20.0)
    spectral_embed(similarity_graph(ft, 2.0, 12), 32)
    calls = [tr.eigensolver_calls for tr in traces]
    assert len(calls) == 10 and sum(calls) == len(solves)
    assert np.mean(calls) <= 6


def test_disconnected_components_occupy_disjoint_columns():
    # two components; global eigenvalue ordering keeps their eigenvectors in
    # separate embedding columns, so the components stay distinguishable
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)]
    J = CouplingGraph(6, edges)
    emb = spectral_embed(J, 2)
    supports = []
    for k in range(2):
        nz = set(np.where(np.abs(emb.coords[:, k]) > 1e-9)[0].tolist())
        supports.append(nz)
    assert supports[0] <= {0, 1, 2} or supports[0] <= {3, 4, 5}
    assert supports[1] <= {0, 1, 2} or supports[1] <= {3, 4, 5}
    assert supports[0] != supports[1]


def test_ladder_minimum_on_a_tree_component_is_logged(caplog):
    # a path has no sign change of lambda_min (its Bethe-Hessian is positive
    # definite at every beta), so its temperature is the bracket ladder's
    # minimum; K4 brackets normally
    edges = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    edges += [(4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0), (7, 8, 1.0)]
    with caplog.at_level("DEBUG", logger="nishigraph.embed"):
        spectral_embed(CouplingGraph(9, edges), 2)
    warnings = [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "component of 5 vertices" in warnings[0]
    assert "no sign change" in warnings[0] and "beta=" in warnings[0]
    debug = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
    assert [m.split(":")[0] for m in debug] == ["component of 4 vertices",
                                                "component of 5 vertices"]


def test_no_sign_change_takes_a_ladder_point_with_no_further_solve(
        monkeypatch):
    # a path's lambda_min stays positive up to coupling saturation: its beta
    # is the solved rung of the bracket ladder (0.05, then 1.6^k) with the
    # smallest lambda_min, and no solve follows the ladder
    betas, solved = [], []
    matrix, solve = estimator.WeightedSystem.matrix, estimator.bottom_pair

    def recorded_matrix(self, beta):
        betas.append(beta)
        return matrix(self, beta)

    def recorded_solve(M, tol):
        lam, v = solve(M, tol)
        solved.append((betas[-1], lam))
        return lam, v

    monkeypatch.setattr(estimator.WeightedSystem, "matrix", recorded_matrix)
    monkeypatch.setattr(estimator, "bottom_pair", recorded_solve)
    emb = spectral_embed(CouplingGraph(5, [(k, k + 1, 1.0) for k in range(4)]),
                         2)
    ladder = [0.05, 1.0]
    while len(ladder) < 8:
        ladder.append(ladder[-1] * 1.6)
    # the eighth rung saturates (tanh^2 within 1e-12 of 1) and is not solved
    assert [b for b, _ in solved] == ladder[:7]
    assert emb.beta_N_used == min(solved, key=lambda bl: bl[1])[0]
    # after the ladder, only the embedding's own matrix is assembled
    assert betas == ladder + [emb.beta_N_used]
    assert emb.beta_N_used == pytest.approx(1.6 ** 5)


def test_saturation_before_the_first_rung_is_an_error():
    # with no rung solved there is no ladder point to fall back on, and the
    # saturation refusal reaches the caller
    J = CouplingGraph(3, [(0, 1, 1000.0), (1, 2, 1000.0)])
    with pytest.raises(ValueError, match="^coupling saturated on edge"):
        spectral_embed(J, 1)


def test_nested_similarity_graphs_hold_one_gram_sized_array():
    # the running Gram, updated in place, is the only n x n array, beside
    # chunks and row blocks of 2^16 entries (1.48 n^2 doubles measured at
    # n = 1,000, d = 128); a second n x n array would pass 2 n^2
    n = 1000
    X = np.random.default_rng(0).standard_normal((n, 128))
    specs = [(np.arange(k), 2.0, 12) for k in (32, 64, 128)]
    tracemalloc.start()
    try:
        embed._similarity_graphs(X, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.55 * n * n * 8


@st.composite
def coupling_graphs(draw):
    """Coupling graphs of one to five pieces (isolated vertices, paths,
    random trees, cycles and cliques) under a random vertex relabelling,
    with unit or U(0.3, 1.5) couplings, and an r from 1 to n - 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges, n = [], 0
    for kind, size in draw(st.lists(st.tuples(
            st.sampled_from(["isolated", "path", "tree", "cycle", "clique"]),
            st.integers(2, 9)), min_size=1, max_size=5)):
        if kind == "isolated":
            size = 1
        elif kind == "path":
            edges += [(n + k, n + k + 1) for k in range(size - 1)]
        elif kind == "tree":
            edges += [(n + int(rng.integers(0, k)), n + k)
                      for k in range(1, size)]
        elif kind == "cycle":
            size = max(size, 3)
            edges += [(n + k, n + (k + 1) % size) for k in range(size)]
        else:
            edges += [(n + a, n + b) for a in range(size)
                      for b in range(a + 1, size)]
        n += size
    if n < 2:
        n = 2
    perm = rng.permutation(n)
    w = (np.ones(len(edges)) if draw(st.booleans())
         else rng.uniform(0.3, 1.5, len(edges)))
    J = CouplingGraph(n, [(perm[a], perm[b], x)
                          for (a, b), x in zip(edges, w)])
    return J, draw(st.integers(1, n - 1))


@given(coupling_graphs())
def test_spectral_embed_matches_one_vector_per_pair(case):
    # writing only the r chosen columns gives the same bits as placing every
    # component pair in a full n-vector and sorting them all
    J, r = case
    got, want = spectral_embed(J, r), spectral_embed_by_pairs(J, r)
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.beta_N_used == want.beta_N_used


def test_spectral_embed_peak_memory_is_a_few_outputs():
    # 40 components of 25 vertices, r = 16: the peak stays within a small
    # multiple of the coordinates, with no n-vector per component pair
    # (45 times the coordinates with one)
    J = similarity_graph(synthetic_features(40, 25, 64, 20.0, seed=1), 2.0, 12)
    tracemalloc.start()
    try:
        emb = spectral_embed(J, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * emb.coords.nbytes


def test_explicit_window_without_a_root_is_an_error():
    # a path has no sign change of lambda_min; with a window given there is
    # no grid fallback, and the root finder's refusal reaches the caller
    J = CouplingGraph(5, [(k, k + 1, 1.0) for k in range(4)])
    with pytest.raises(ValueError, match="^no bracket: .* share a sign$"):
        spectral_embed(J, 2, cfg=EstimatorConfig(0.05, 3.0, eps=1e-4))


def test_spectral_embed_accepts_explicit_temperature_window():
    ft = synthetic_features(2, 12, 20, separation=8.0, seed=7)
    J = similarity_graph(ft, gamma=2.0, p=5)
    emb = spectral_embed(J, 3, cfg=EstimatorConfig(0.05, 3.0, eps=1e-4))
    assert emb.coords.shape == (24, 3)
    assert emb.beta_N_used > 0


def test_embedding_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    emb = Embedding(rng.standard_normal((6, 3)), 0.42, "gA")
    path = tmp_path / "e.csv"
    emb.to_csv(str(path))
    back = Embedding.from_csv(str(path))
    assert np.allclose(back.coords, emb.coords, atol=1e-15)
    assert back.beta_N_used == pytest.approx(0.42)
    assert back.graph_id == "gA"


def test_csv_readers_name_the_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    cases = [(FeatureTable, "", 1),                         # empty file
             (FeatureTable, "f0,f1,label\n1,2,0\n\n3,4\n", 4),  # short row
             (FeatureTable, "f0,f1\n1,2\n3,4,5\n", 3),       # long row
             (FeatureTable, "f0,f1\n1,2\n3,x\n", 3),         # non-numeric
             (FeatureTable, "f0,f1\n", 2),                   # no data row
             (Embedding, "", 1),
             (Embedding, "e0,e1,beta_N,graph_id\n1,2,0.5,g\n3\n", 3),
             (Embedding, "e0,e1,beta_N,graph_id\n1,2,0.5,g\n3,y,,\n", 3),
             (Embedding, "e0,e1,beta_N,graph_id\n1,2,b,g\n", 2),
             (FeatureTable, b"f0,f1\n1,2\n3,\xff\n", 3),       # not UTF-8
             (FeatureTable, "f0,label\n1,0\n2,-1\n", 3),       # negative label
             (Embedding, "x0,beta_N\n1,0.5\n", 1),              # no e column
             (Embedding, "e0,beta_N,graph_id\n1,nan,g\n", 2),   # beta_N NaN
             (FeatureTable, "f0\n1\n" + "2" * 131073 + "\n", 3)]  # csv limit
    for cls, text, line in cases:
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv: line {line}:"):
            cls.from_csv(str(path))


_CSV_CELL = st.one_of(st.floats().map(repr), st.integers().map(str),
                     st.sampled_from(["", "x", "nan", "-1", "1e400", '"',
                                      "label", "e0"]),
                     st.text(max_size=4))
_CSV_LINE = st.lists(_CSV_CELL, max_size=4).map(",".join)
_CSV = st.builds(
    lambda header, lines, end, tail: end.join([header] + lines).encode() + tail,
    st.one_of(st.sampled_from(["f0,f1", "f0,f1,label", "label", "e0",
                               "e0,e1,beta_N,graph_id", ""]), _CSV_LINE),
    st.lists(_CSV_LINE, max_size=5), st.sampled_from(["\n", "\r\n", "\r"]),
    st.binary(max_size=2))
_SIDE_VALUE = st.one_of(st.integers(-2, 4), st.floats(), st.text(max_size=2),
                        st.none(), st.booleans())
_SIDECAR = st.one_of(
    st.fixed_dictionaries({"rows": _SIDE_VALUE, "cols": _SIDE_VALUE}).map(
        lambda d: json.dumps(d).encode()),
    st.sampled_from([b"[2, 2]", b"{", b'{"rows": 1}', b"\xff"]),
    st.text(max_size=6).map(str.encode))
_RAW = st.one_of(st.binary(max_size=24), st.lists(
    st.floats(width=32), max_size=6).map(lambda x: struct.pack(f"<{len(x)}f", *x)))


@given(_CSV, _SIDECAR, _RAW)
def test_readers_give_a_value_or_name_the_file(tmp_path_factory, text, sidecar,
                                               raw):
    base = tmp_path_factory.getbasetemp()
    csv_path, raw_path = str(base / "fuzz.csv"), str(base / "fuzz.raw")
    with open(csv_path, "wb") as fh:
        fh.write(text)
    with open(raw_path, "wb") as fh:
        fh.write(raw)
    with open(raw_path + ".json", "wb") as fh:
        fh.write(sidecar)
    for path, read, kind in ((csv_path, FeatureTable.from_csv, FeatureTable),
                             (csv_path, Embedding.from_csv, Embedding),
                             (raw_path, FeatureTable.from_raw, FeatureTable)):
        try:
            value = read(path)
        except ValueError as exc:
            assert str(exc).startswith(path), str(exc)
            if path == csv_path:  # every CSV refusal also names a line
                assert re.match(rf"{re.escape(path)}: line \d+: ", str(exc))
        else:
            assert isinstance(value, kind)


def test_embedding_validation():
    with pytest.raises(ValueError):
        Embedding(np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        Embedding(np.full((2, 2), np.nan), 0.1)
