"""End-to-end embed/classify/ensemble runs on synthetic features."""

import hashlib

import numpy as np
import pytest

import nishigraph.estimator as estimator
import nishigraph.pipeline as pipeline
from nishigraph import (EnsembleConfig, FeatureTable, SparseSym,
                        WeightedSystem, accuracy, ensemble_decide,
                        predict, predict_labels, run_pipeline, select_indices,
                        similarity_graph, stratified_split,
                        synthetic_features)
from nishigraph.embed import _similarity_graphs
from nishigraph.pipeline import (DEFAULT_GRAPHS, _restrict_features,
                                 confusion_to_csv, metrics_table)

from util import rank_features_by_rest_mean


def small_features(seed=5):
    return synthetic_features(3, 40, 64, separation=8.0, seed=seed)


def test_stratified_split_layout():
    labels = np.repeat([0, 1, 2], 20)
    train, test = stratified_split(labels, 0.25, seed=0)
    assert len(train) == 45 and len(test) == 15
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(60))
    for c in range(3):
        assert (labels[test] == c).sum() == 5
    t2, s2 = stratified_split(labels, 0.25, seed=0)
    assert np.array_equal(train, t2) and np.array_equal(test, s2)
    t3, _ = stratified_split(labels, 0.25, seed=1)
    assert not np.array_equal(train, t3)


def test_stratified_split_keeps_at_least_one_test_row():
    labels = np.array([0, 0, 0, 1, 1, 1])
    _, test = stratified_split(labels, 0.05, seed=0)
    assert (labels[test] == 0).sum() == 1
    assert (labels[test] == 1).sum() == 1


def test_run_pipeline_separable_classes():
    result, embeddings, models = run_pipeline(small_features(), r=6,
                                              test_fraction=0.25, seed=0)
    assert result["classes"] == [0, 1, 2]
    assert result["n_train"] == 90 and result["n_test"] == 30
    assert len(result["beta_N"]) == 3
    assert all(b > 0 for b in result["beta_N"])
    assert len(result["per_graph_accuracy"]) == 3
    assert result["ensemble_accuracy"] == 1.0
    assert result["ensemble_accuracy"] >= min(result["per_graph_accuracy"])
    confusion = np.array(result["confusion"])
    assert confusion.sum() == 30
    assert np.array_equal(confusion.sum(axis=1), [10, 10, 10])
    assert len(embeddings) == 3 and len(models) == 3
    assert all(e.coords.shape == (120, 6) for e in embeddings)


def test_run_pipeline_is_deterministic():
    r1, _, _ = run_pipeline(small_features(), r=5, test_fraction=0.25, seed=2)
    r2, _, _ = run_pipeline(small_features(), r=5, test_fraction=0.25, seed=2)
    assert r1 == r2


def test_run_pipeline_soft_mode():
    result, _, _ = run_pipeline(small_features(), r=5, test_fraction=0.25,
                                seed=0, mode="soft")
    assert result["mode"] == "soft"
    assert result["ensemble_accuracy"] >= 0.9


@pytest.mark.parametrize("policy, message", [
    ({"mode": "mean"}, "mode must be 'majority' or 'soft'"),
], ids=["mode"])
def test_a_bad_ensemble_policy_is_refused_before_any_work(monkeypatch, caplog,
                                                          policy, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("similarity graphs built for a refused policy")

    monkeypatch.setattr(pipeline, "_similarity_graphs", unreachable)
    with pytest.raises(ValueError, match=message):
        run_pipeline(small_features(), r=5, **policy)
    assert not caplog.records


def test_ensemble_reads_posterior_columns_as_model_classes():
    # class 0 keeps one sample, which the split puts in the test rows: the
    # models know classes 1..3, so posterior column k is class k + 1
    ft = synthetic_features(4, 30, 64, separation=20.0, seed=3)
    keep = ft.labels != 0
    keep[np.flatnonzero(ft.labels == 0)[0]] = True
    ft = FeatureTable(ft.X[keep], ft.labels[keep])
    result, embeddings, models = run_pipeline(ft, r=6, seed=0)
    _, test_idx = stratified_split(ft.labels, 0.25, seed=0)
    y_true = ft.labels[test_idx]
    assert result["classes"] == [0, 1, 2, 3]
    assert all(m.classes == [1, 2, 3] for m in models)
    P = np.stack([predict(m, e.coords) for m, e in zip(models, embeddings)])
    votes = np.array(models[0].classes)[ensemble_decide(P[:, test_idx],
                                                        EnsembleConfig())]
    assert result["ensemble_accuracy"] == accuracy(y_true, votes)
    assert result["per_graph_accuracy"] == [
        accuracy(y_true, predict_labels(m, e.coords)[test_idx])
        for m, e in zip(models, embeddings)]
    # every row but the class-0 one is classified right
    assert result["ensemble_accuracy"] == 1 - 1 / len(test_idx)


def test_features_are_ranked_once_per_run(monkeypatch):
    # both restricted graphs slice the one ranking of the training rows, and
    # each slice keeps the columns select_indices picks on its own
    ft = small_features()
    rank = pipeline._rank_features
    rows = []

    def counted(table):
        rows.append(table.n_samples)
        return rank(table)

    monkeypatch.setattr(pipeline, "_rank_features", counted)
    run_pipeline(ft, r=5, seed=0)
    assert rows == [90]
    train_idx, _ = stratified_split(ft.labels, 0.25, seed=0)
    train_ft = FeatureTable(ft.X[train_idx], ft.labels[train_idx])
    ranking = rank(train_ft)
    for gcfg in DEFAULT_GRAPHS:
        cols = list(range(ft.n_features))
        if gcfg["s_frac"] < 1.0:
            s = max(2, int(round(gcfg["s_frac"] * ft.n_features)))
            cols = sorted(set().union(*select_indices(train_ft, s).values()))
        assert np.array_equal(_restrict_features(ft, ranking, gcfg["s_frac"]),
                              cols)


def test_default_graph_column_sets_are_nested():
    ft = small_features()
    train_idx, _ = stratified_split(ft.labels, 0.25, seed=0)
    ranking = pipeline._rank_features(
        FeatureTable(ft.X[train_idx], ft.labels[train_idx]))
    sets = [set(_restrict_features(ft, ranking, g["s_frac"]).tolist())
            for g in sorted(DEFAULT_GRAPHS, key=lambda g: g["s_frac"])]
    assert sets[-1] == set(range(ft.n_features))
    assert all(a <= b for a, b in zip(sets, sets[1:]))
    assert len(sets[0]) < ft.n_features


def pipeline_specs(ft):
    """The (cols, gamma, p) of each graph run_pipeline builds on ft with its
    default split (seed 0)."""
    train_idx, _ = stratified_split(ft.labels, 0.25, seed=0)
    ranking = pipeline._rank_features(
        FeatureTable(ft.X[train_idx], ft.labels[train_idx]))
    return [(_restrict_features(ft, ranking, g["s_frac"]), g["gamma"], g["p"])
            for g in DEFAULT_GRAPHS]


def test_nested_gram_graphs_match_per_set_graphs_on_benchmark_data():
    # the benchmark's separated dataset: each of run_pipeline's graphs has
    # the edges similarity_graph finds on the restricted table
    ft = synthetic_features(10, 100, 1280, 20.0, seed=101000)
    specs = pipeline_specs(ft)
    for J, (cols, gamma, p) in zip(_similarity_graphs(ft.X, specs), specs):
        ref = similarity_graph(FeatureTable(ft.X[:, cols]), gamma, p)
        assert np.array_equal(J.i, ref.i) and np.array_equal(J.j, ref.j)
        assert np.allclose(J.couplings, ref.couplings, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape, digests", [
    ((10, 100, 1280, 20.0),
     ["54b5f92f231aa1d2b15eda2de503f67dbda3d6b3d62484e917b507f08ae24e87",
      "4c88bb67994bb5188a07f73d376006f1027ec004aa8706909df733187f6fbf89",
      "160770c9abbbdfbe7bb7ebb7a928d47d2b53856389bca9b6eeefc8a7795071d7"]),
    ((10, 50, 1280, 6.0),
     ["e2b5f3fb9e4893e0856f1288ec672e125278a66e754f6adaac590060d3cf6269",
      "3679d25e8c5d221fc389fc9192ad6ab36f4c9f96bccb976993638538fe35ec76",
      "0014cf73af1ed8fbd816b1e3a8e7ca343cc49af65ccbf12b57acc27d02607051"])])
def test_benchmark_graphs_keep_their_edges(shape, digests):
    # the first dataset of each benchmark stage at seed 101: the (i, j)
    # arrays of run_pipeline's three graphs, sha256 of i's bytes then j's,
    # as the kernel-ranked selection gave them (equal at one and two BLAS
    # threads)
    ft = synthetic_features(*shape, seed=101000)
    graphs = _similarity_graphs(ft.X, pipeline_specs(ft))
    assert [hashlib.sha256(J.i.tobytes() + J.j.tobytes()).hexdigest()
            for J in graphs] == digests


@pytest.mark.parametrize("seed", range(101, 106))
def test_class_sum_ranking_restricts_the_benchmark_columns_as_the_oracle(seed):
    # the first dataset of each benchmark stage: every graph's column set
    # from the class-sum ranking is the one the per-class copy of the other
    # rows gives
    for ft in (synthetic_features(10, 100, 1280, 20.0, seed=1000 * seed),
               synthetic_features(10, 50, 1280, 6.0, seed=1000 * seed)):
        train_idx, _ = stratified_split(ft.labels, 0.25, seed=0)
        train_ft = FeatureTable(ft.X[train_idx], ft.labels[train_idx])
        got = pipeline._rank_features(train_ft)
        want = rank_features_by_rest_mean(train_ft)
        for gcfg in DEFAULT_GRAPHS:
            assert np.array_equal(
                _restrict_features(ft, got, gcfg["s_frac"]),
                _restrict_features(ft, want, gcfg["s_frac"]))


def test_restriction_refuses_more_columns_than_the_table_has():
    ft = FeatureTable(np.arange(8.0)[:, None], np.repeat([0, 1], 4))
    ranking = pipeline._rank_features(ft)
    with pytest.raises(ValueError, match="s exceeds the feature dimension"):
        _restrict_features(ft, ranking, 0.5)


def test_run_pipeline_requires_labels():
    ft = small_features()
    ft.labels = None
    with pytest.raises(ValueError):
        run_pipeline(ft, r=4)


def test_report_artifacts(tmp_path):
    result, _, _ = run_pipeline(small_features(), r=5, test_fraction=0.25,
                                seed=0)
    path = tmp_path / "confusion.csv"
    confusion_to_csv(result["confusion"], result["classes"], str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "true\\pred"
    assert sum(int(x) for x in lines[1].split(",")[1:]) == 10
    table = metrics_table(result)
    rows = table.splitlines()
    assert rows[0] == "class,precision,recall,f1,support"
    assert len(rows) == 5
    assert rows[-1].startswith("accuracy,")


def test_a_pipeline_checks_each_pattern_once(monkeypatch):
    # work counts: one pattern check per system built, however many solves
    # it makes
    counts = dict.fromkeys(("checks", "systems", "solves"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(SparseSym, "__init__",
                        counting("checks", SparseSym.__init__))
    monkeypatch.setattr(WeightedSystem, "__init__",
                        counting("systems", WeightedSystem.__init__))
    monkeypatch.setattr(estimator, "bottom_pair",
                        counting("solves", estimator.bottom_pair))
    run_pipeline(synthetic_features(3, 40, 32, 2.0, seed=0))
    assert counts["checks"] == counts["systems"] == 3
    assert counts["solves"] >= 4 * counts["systems"]
