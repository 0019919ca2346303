"""Linear softmax models and the ensemble decision."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nishigraph import classify
from nishigraph import (EnsembleConfig, LinearModel, accuracy,
                        confusion_matrix, ensemble_decide, per_class_metrics,
                        predict, predict_labels, train_linear)

from util import ensemble_decide_by_row, train_linear_row_major


def blobs(seed=0, per=30, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X = np.vstack([c + spread * rng.standard_normal((per, 2)) for c in centers])
    y = np.repeat([0, 1, 2], per)
    return X, y


def test_train_linear_separable_blobs():
    X, y = blobs()
    model = train_linear(X, y, seed=0)
    P = predict(model, X)
    assert P.shape == (90, 3)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert accuracy(y, predict_labels(model, X)) == 1.0


def test_train_linear_is_deterministic():
    X, y = blobs(3)
    m1 = train_linear(X, y, seed=5)
    m2 = train_linear(X, y, seed=5)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.b, m2.b)


def test_predict_labels_uses_original_class_ids():
    X, y = blobs()
    relabeled = np.array([3, 7, 9])[y]
    model = train_linear(X, relabeled, seed=0)
    assert set(predict_labels(model, X)) <= {3, 7, 9}
    assert model.classes == [3, 7, 9]


def test_train_linear_rejects_single_class():
    with pytest.raises(ValueError):
        train_linear(np.zeros((5, 2)), np.zeros(5, dtype=int))


@st.composite
def training_tables(draw):
    """Rows of embedding scale (norm about 1, at most 3), K classes with
    non-contiguous labels, one of which has a single row."""
    K = draw(st.integers(2, 12))
    n = draw(st.integers(K, 200))
    d = draw(st.integers(1, 40))
    labels = 3 * np.array(sorted(draw(st.sets(st.integers(0, 10 ** 6),
                                              min_size=K, max_size=K)))) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    single = draw(st.integers(0, K - 1))
    others = np.delete(np.arange(K), single)
    yk = np.concatenate([np.arange(K), rng.choice(others, n - K)])
    scale = draw(st.sampled_from([0.1, 1.0, 3.0]))
    X = scale * rng.standard_normal((n, d)) / np.sqrt(d)
    return X, labels[rng.permutation(yk)], draw(st.integers(0, 1000))


def pipeline_shaped_table():
    """The benchmark pipeline's training rows in shape: n = 750 rows of
    d = 32 coordinates, K = 10 classes of 75 rows each."""
    rng = np.random.default_rng(750)
    X = rng.standard_normal((750, 32)) / np.sqrt(32)
    return X, 3 * rng.permutation(np.repeat(np.arange(10), 75)) + 1, 11


@given(training_tables())
@example(pipeline_shaped_table())
def test_train_linear_matches_row_major_oracle(case):
    # same descent in the other layout: sums run in another order, so the
    # weights agree to rounding and the labels wherever the top two
    # posteriors are not tied
    X, y, seed = case
    model = train_linear(X, y, seed=seed)
    ref = train_linear_row_major(X, y, seed=seed)
    assert model.classes == ref.classes
    tol = 1e-10 * np.abs(ref.W).max()
    assert np.abs(model.W - ref.W).max() <= tol
    assert np.abs(model.b - ref.b).max() <= tol
    top_two = np.sort(predict(ref, X), axis=1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > 1e-9
    assert np.array_equal(predict_labels(model, X)[clear],
                          predict_labels(ref, X)[clear])


@given(training_tables(), st.lists(st.integers(0, 1), max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_train_linear_on_a_list_is_one_call_per_set(case, wider, data):
    # the table and 0-3 more sets of its width or one column wider: sets of
    # one width descend as one stack, each width as its own
    X, y, seed = case
    rng = np.random.default_rng(data)
    sets = [X] + [rng.standard_normal((len(X), X.shape[1] + w)) for w in wider]
    models = train_linear(sets, y, seed=seed)
    assert len(models) == len(sets)
    for k, (Xk, model) in enumerate(zip(sets, models)):
        ref = train_linear(Xk, y, seed=seed + k)
        assert model.classes == ref.classes
        assert np.array_equal(model.W, ref.W)
        assert np.array_equal(model.b, ref.b)


def test_list_refusals_name_the_set_before_any_descent(monkeypatch):
    # with no epoch count, a descent run before the refusal would raise a
    # TypeError instead; the bad set's width is not the first set's
    X, y = blobs()
    sets = [X, np.hstack([X, X[:, :1]]), np.hstack([X, X])]
    sets[2][17, 0] = np.nan
    monkeypatch.setattr(classify, "_EPOCHS", None)
    with pytest.raises(ValueError,
                       match="^set 2: row 17: non-finite value$"):
        train_linear(sets, y)
    with pytest.raises(ValueError, match="^set 1: 90 labels for 87 rows$"):
        train_linear([X, sets[1][3:], X], y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_is_named(bad):
    X, y = blobs()
    X[17, 1] = bad
    with pytest.raises(ValueError, match="^row 17: non-finite value$"):
        train_linear(X, y)
    model = train_linear(*blobs())
    with pytest.raises(ValueError, match="^row 17: non-finite value$"):
        predict(model, X)


def test_train_linear_names_both_sizes():
    X, y = blobs()
    with pytest.raises(ValueError, match="^89 labels for 90 rows$"):
        train_linear(X, y[1:])


def test_a_set_that_is_not_2_d_is_refused_by_its_shape(monkeypatch):
    X, y = blobs()
    monkeypatch.setattr(classify, "_EPOCHS", None)
    with pytest.raises(ValueError, match=r"^X must be 2-D, got shape \(90,\)$"):
        train_linear(X[:, 0], y)
    with pytest.raises(ValueError,
                       match=r"^set 1: X must be 2-D, got shape \(90,\)$"):
        train_linear([X, X[:, 0]], y)
    with pytest.raises(ValueError,
                       match=r"^set 0: X must be 2-D, got shape \(90, 2, 1\)$"):
        train_linear([X[:, :, None]], y)


def test_predict_refuses_a_width_other_than_the_models():
    model = train_linear(*blobs())
    for X, shape in ((np.zeros((4, 3)), r"\(4, 3\)"),
                     (np.zeros(5), r"\(1, 5\)"),
                     (np.zeros((2, 2, 2)), r"\(2, 2, 2\)")):
        with pytest.raises(ValueError, match=f"^X of shape {shape} for a "
                                             "model of input width 2$"):
            predict(model, X)
    # a 1-D X of the model's width is one row
    row = np.array([4.0, 0.1])
    assert np.array_equal(predict(model, row), predict(model, row[None]))


def test_linear_model_json_round_trip():
    X, y = blobs()
    model = train_linear(X, y, seed=0)
    back = LinearModel.from_json(model.to_json())
    assert np.allclose(back.W, model.W)
    assert np.allclose(back.b, model.b)
    assert back.classes == model.classes
    with pytest.raises(ValueError):
        LinearModel.from_json('{"kind": "other"}')


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(mode="mean")


def test_majority_vote_beats_a_dissenter():
    P = [[[0.8, 0.1, 0.1]], [[0.6, 0.3, 0.1]], [[0.1, 0.7, 0.2]]]
    assert ensemble_decide(P, EnsembleConfig()) == 0


def test_three_way_split_without_arbiter_soft_averages():
    P = [[[0.9, 0.05, 0.05]], [[0.1, 0.6, 0.3]], [[0.2, 0.2, 0.6]]]
    # votes 0, 1, 2; the mean posterior peaks at class 0
    assert ensemble_decide(P, EnsembleConfig()) == 0


def test_soft_mode_averages_posteriors():
    P = [[[0.6, 0.4]], [[0.1, 0.9]], [[0.2, 0.8]]]
    assert ensemble_decide(P, EnsembleConfig(mode="soft")) == 1


def test_ensemble_decide_validation():
    with pytest.raises(ValueError, match=r"\(3, n, K\).*\(2, 1, 1\)"):
        ensemble_decide(np.ones((2, 1, 1)), EnsembleConfig())


@st.composite
def stacked_posteriors(draw):
    """(3, n, K) posteriors: coarse integer values, which force vote and
    top-two ties, or floats."""
    n = draw(st.integers(1, 8))
    K = draw(st.integers(2, 5))
    value = draw(st.sampled_from([st.integers(0, 3).map(float),
                                  st.floats(0, 1, allow_subnormal=False)]))
    values = draw(st.lists(value, min_size=3 * n * K, max_size=3 * n * K))
    return np.array(values).reshape(3, n, K)


@given(stacked_posteriors())
def test_ensemble_decide_matches_the_one_row_rule(P):
    for mode in ("majority", "soft"):
        cfg = EnsembleConfig(mode)
        out = ensemble_decide(P, cfg)
        assert out.tolist() == [ensemble_decide_by_row(P[:, k], cfg)
                                for k in range(P.shape[1])]


def test_metrics_hand_computed_case():
    y_true = [0, 0, 1, 1, 2, 2]
    y_pred = [0, 1, 1, 1, 2, 0]
    classes = [0, 1, 2]
    M = confusion_matrix(y_true, y_pred, classes)
    assert M.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
    assert accuracy(y_true, y_pred) == pytest.approx(4 / 6)
    m = per_class_metrics(y_true, y_pred, classes)
    assert m[0]["precision"] == pytest.approx(0.5)
    assert m[0]["recall"] == pytest.approx(0.5)
    assert m[1]["precision"] == pytest.approx(2 / 3)
    assert m[1]["recall"] == pytest.approx(1.0)
    assert m[2]["precision"] == pytest.approx(1.0)
    assert m[2]["recall"] == pytest.approx(0.5)
    assert m[2]["f1"] == pytest.approx(2 / 3)
    assert all(m[c]["support"] == 2 for c in classes)
    assert accuracy([], []) == 0.0
