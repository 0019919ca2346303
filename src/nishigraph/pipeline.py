"""End-to-end run: features -> three similarity graphs -> spectral embeddings
-> linear classifiers -> ensemble decision, with metrics in a fixed layout.

Graph diversity comes from per-graph kernel parameters and discriminative
feature-index subsets selected on the training split only.
"""

import numpy as np

from .classify import (EnsembleConfig, accuracy, arbiter_train,
                       confusion_matrix, ensemble_decide, per_class_metrics,
                       predict, train_linear)
from .embed import FeatureTable, select_indices, similarity_graph, spectral_embed

DEFAULT_GRAPHS = (
    {"gamma": 2.0, "p": 12, "s_frac": 1.0},
    {"gamma": 4.0, "p": 10, "s_frac": 0.5},
    {"gamma": 1.0, "p": 15, "s_frac": 0.25},
)


def stratified_split(labels, test_fraction, seed):
    """Deterministic per-class split; returns (train_idx, test_idx)."""
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


def _restrict_features(ft, train_idx, s_frac):
    """Union of per-class discriminative indices computed on the training rows."""
    if s_frac >= 1.0:
        return ft.X
    s = max(2, int(round(s_frac * ft.n_features)))
    train_ft = FeatureTable(ft.X[train_idx], ft.labels[train_idx])
    per_class = select_indices(train_ft, s)
    union = sorted(set().union(*per_class.values()))
    return ft.X[:, union]


def run_pipeline(ft, r=32, graphs=DEFAULT_GRAPHS, test_fraction=0.25, seed=0,
                 mode="majority", margin_threshold=0.0, use_arbiter=False):
    """Full embed/classify/ensemble run on a labeled feature table.

    Returns a dict with per-graph and ensemble test metrics, the confusion
    matrix, embeddings, and the fitted models.
    """
    if ft.labels is None:
        raise ValueError("labeled features required")
    train_idx, test_idx = stratified_split(ft.labels, test_fraction, seed)
    y = np.asarray(ft.labels)
    classes = ft.classes()
    embeddings = []
    models = []
    posteriors = []
    beta_list = []
    for g_id, gcfg in enumerate(graphs):
        Xg = _restrict_features(ft, train_idx, gcfg.get("s_frac", 1.0))
        sub = FeatureTable(Xg, ft.labels)
        J = similarity_graph(sub, gcfg["gamma"], gcfg["p"])
        emb = spectral_embed(J, r, graph_id=f"graph{g_id}")
        model = train_linear(emb.coords[train_idx], y[train_idx], seed=seed + g_id)
        P = predict(model, emb.coords)
        embeddings.append(emb)
        models.append(model)
        posteriors.append(P)
        beta_list.append(emb.beta_N_used)

    arbiter_obj = None
    if use_arbiter:
        concat = np.hstack([e.coords for e in embeddings])
        votes_train = np.stack([np.array([m.classes[k] for k in P[train_idx].argmax(axis=1)])
                                for m, P in zip(models, posteriors)])
        conf = confusion_matrix(
            np.tile(y[train_idx], 3), votes_train.ravel(), classes)
        np.fill_diagonal(conf, 0)
        flat = [(conf[i, j] + conf[j, i], classes[i], classes[j])
                for i in range(len(classes)) for j in range(i + 1, len(classes))]
        flat.sort(reverse=True)
        pairs = [(a, b) for cnt, a, b in flat[:3] if cnt > 0]
        if pairs:
            try:
                arbiter_obj = arbiter_train(concat[train_idx], y[train_idx], pairs,
                                            seed=seed)
            except ValueError:
                arbiter_obj = None

    def decide_row(k):
        arb = None
        if arbiter_obj is not None:
            concat_row = np.hstack([e.coords[k] for e in embeddings])

            def arb(a, b, row=concat_row):
                winner = arbiter_obj.decide(row, classes[a], classes[b])
                return classes.index(winner)
        cfg = EnsembleConfig(mode=mode, margin_threshold=margin_threshold,
                             arbiter=arb)
        kidx = ensemble_decide([P[k] for P in posteriors], cfg)
        return classes[kidx]

    y_ens = np.array([decide_row(k) for k in test_idx])
    y_true = y[test_idx]
    per_graph_acc = []
    for m, P in zip(models, posteriors):
        pred = np.array([m.classes[k] for k in P[test_idx].argmax(axis=1)])
        per_graph_acc.append(accuracy(y_true, pred))
    result = {
        "classes": classes,
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
        "beta_N": [float(b) for b in beta_list],
        "per_graph_accuracy": [float(a) for a in per_graph_acc],
        "ensemble_accuracy": accuracy(y_true, y_ens),
        "per_class": per_class_metrics(y_true, y_ens, classes),
        "confusion": confusion_matrix(y_true, y_ens, classes).tolist(),
        "mode": mode,
    }
    return result, embeddings, models


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
