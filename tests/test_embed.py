"""Feature tables, similarity graphs, and critical-temperature embeddings."""

import numpy as np
import pytest

from nishigraph import (CouplingGraph, Embedding, EstimatorConfig,
                        FeatureTable, binarize, select_indices,
                        similarity_graph, spectral_embed, synthetic_features)


def test_feature_table_validation():
    with pytest.raises(ValueError):
        FeatureTable(np.zeros(3))
    with pytest.raises(ValueError):
        FeatureTable(np.zeros((3, 2)), labels=[0, 1])
    with pytest.raises(ValueError):
        FeatureTable(np.zeros((2, 2)), labels=[-1, 0])
    ft = FeatureTable(np.zeros((4, 3)), labels=[1, 0, 1, 2])
    assert (ft.n_samples, ft.n_features) == (4, 3)
    assert ft.classes() == [0, 1, 2]
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


def test_binarize_signs():
    ft = FeatureTable(np.array([[0.5, -0.2], [0.0, -3.0]]))
    fb = binarize(ft)
    assert fb.binarized
    assert fb.X.tolist() == [[1.0, -1.0], [1.0, -1.0]]


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
    with pytest.raises(ValueError):
        select_indices(FeatureTable(X), 2)


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
    with pytest.raises(ValueError):
        similarity_graph(FeatureTable(X), gamma=1.0, p=0)
    with pytest.raises(ValueError):
        similarity_graph(FeatureTable(np.zeros((2, 2))), gamma=1.0, p=1)


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
        spectral_embed(J, 0)
    with pytest.raises(ValueError):
        spectral_embed(J, 45)


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


def test_grid_fallback_on_a_tree_component_is_logged(caplog):
    # a path has no sign change of lambda_min (its Bethe-Hessian is positive
    # definite at every beta), so its temperature comes from the grid
    # fallback; K4 brackets normally
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
             (Embedding, "e0,e1,beta_N,graph_id\n1,2,b,g\n", 2)]
    for cls, text, line in cases:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv: line {line}:"):
            cls.from_csv(str(path))


def test_embedding_validation():
    with pytest.raises(ValueError):
        Embedding(np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        Embedding(np.full((2, 2), np.nan), 0.1)
