"""End-to-end run: features -> three similarity graphs -> spectral embeddings
-> linear classifiers -> ensemble decision, with metrics in a fixed layout.

Graph diversity comes from per-graph kernel parameters and discriminative
feature-index subsets selected on the training split only.
"""

import numpy as np

from .classify import (EnsembleConfig, accuracy, confusion_matrix,
                       ensemble_decide, per_class_metrics, predict,
                       train_linear)
from .embed import (FeatureTable, _rank_features, _similarity_graphs,
                    spectral_embed)

DEFAULT_GRAPHS = (
    {"gamma": 2.0, "p": 12, "s_frac": 1.0},
    {"gamma": 4.0, "p": 10, "s_frac": 0.5},
    {"gamma": 1.0, "p": 15, "s_frac": 0.25},
)


def stratified_split(labels, test_fraction, seed):
    """Deterministic per-class split; returns (train_idx, test_idx).
    ValueError unless 0 < test_fraction < 1."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    train, test = [], []
    for c in sorted(set(int(x) for x in labels)):
        idx = np.where(labels == c)[0]
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, int(round(test_fraction * len(idx))))
        test.extend(idx[:n_test])
        train.extend(idx[n_test:])
    return np.array(sorted(train)), np.array(sorted(test))


def _restrict_features(ft, ranking, s_frac):
    """The sorted indices of ft's columns in the union of each class's
    s_frac share of top-ranked features, ranking being _rank_features of the
    training rows.  Each class's share is a prefix of its order, so a
    smaller s_frac keeps a subset of a larger one's columns."""
    if s_frac >= 1.0:
        return np.arange(ft.n_features)
    s = max(2, int(round(s_frac * ft.n_features)))
    if s > ft.n_features:
        raise ValueError("s exceeds the feature dimension")
    return np.unique(np.concatenate([order[:s] for order in ranking.values()]))


def run_pipeline(ft, r=32, test_fraction=0.25, seed=0, mode="majority"):
    """Full embed/classify/ensemble run on a labeled feature table, one
    embedding per graph of DEFAULT_GRAPHS.

    Returns (result, embeddings, models): evaluate_ensemble's metrics with
    each embedding's beta_N added, the embeddings, and the fitted models.
    """
    cfg = EnsembleConfig(mode)
    if ft.labels is None:
        raise ValueError("labeled features required")
    train_idx, test_idx = stratified_split(ft.labels, test_fraction, seed)
    ranking = _rank_features(FeatureTable(ft.X[train_idx],
                                          ft.labels[train_idx]))
    # the graphs' column sets are nested, so one running Gram builds all
    # three; it is freed before the first embedding
    graphs = _similarity_graphs(ft.X, [
        (_restrict_features(ft, ranking, g["s_frac"]), g["gamma"], g["p"])
        for g in DEFAULT_GRAPHS])
    embeddings = [spectral_embed(J, r, graph_id=f"graph{g_id}")
                  for g_id, J in enumerate(graphs)]
    result, models = evaluate_ensemble(
        [e.coords for e in embeddings], ft.labels, train_idx, test_idx, seed,
        cfg)
    result["beta_N"] = [float(e.beta_N_used) for e in embeddings]
    return result, embeddings, models


def evaluate_ensemble(coords, labels, train_idx, test_idx, seed, cfg):
    """(metrics, models): a linear model per embedding, all trained by one
    train_linear call on the list of their training rows, and the test
    metrics of the ensemble under the EnsembleConfig cfg.  Posterior column
    k is models[0].classes[k]; a class absent from the training rows has
    none."""
    y = np.asarray(labels)
    classes = sorted(set(int(c) for c in y))
    models = train_linear([X[train_idx] for X in coords], y[train_idx],
                          seed=seed)
    posteriors = np.stack([predict(m, X[test_idx])
                           for m, X in zip(models, coords)])
    seen = np.array(models[0].classes)
    votes = seen[posteriors.argmax(axis=2)]
    y_ens = seen[ensemble_decide(posteriors, cfg)]
    y_true = y[test_idx]
    metrics = {
        "classes": classes,
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
        "per_graph_accuracy": [accuracy(y_true, v) for v in votes],
        "ensemble_accuracy": accuracy(y_true, y_ens),
        "per_class": per_class_metrics(y_true, y_ens, classes),
        "confusion": confusion_matrix(y_true, y_ens, classes).tolist(),
        "mode": cfg.mode,
    }
    return metrics, models


def confusion_to_csv(confusion, classes, path):
    with open(path, "w") as fh:
        fh.write("true\\pred," + ",".join(str(c) for c in classes) + "\n")
        for c, row in zip(classes, confusion):
            fh.write(str(c) + "," + ",".join(str(int(x)) for x in row) + "\n")


def metrics_table(result):
    """Fixed-layout text table: per-class precision/recall/F1 plus accuracy."""
    lines = ["class,precision,recall,f1,support"]
    for c in result["classes"]:
        m = result["per_class"][c]
        lines.append(f"{c},{m['precision']:.4f},{m['recall']:.4f},"
                     f"{m['f1']:.4f},{m['support']}")
    lines.append(f"accuracy,{result['ensemble_accuracy']:.4f},,,"
                 f"{result['n_test']}")
    return "\n".join(lines)
