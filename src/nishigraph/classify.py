"""Linear softmax classification on embeddings and the three-graph ensemble
decision rule: majority vote with a soft-vote fallback, or soft vote alone.

Training is fixed-epoch full-batch gradient descent so results are exactly
reproducible from the seed.
"""

import json

import numpy as np

# epochs, step sizes and weight decay of the fixed-epoch gradient descents
_EPOCHS = 300
_LR = 0.5
_WEIGHT_DECAY = 1e-4


def _softmax(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


class LinearModel:
    def __init__(self, W, b, classes):
        self.W = np.asarray(W, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.classes = list(classes)

    def to_json(self):
        return json.dumps({
            "kind": "linear-softmax",
            "version": 1,
            "classes": self.classes,
            "W": self.W.ravel().tolist(),
            "W_shape": list(self.W.shape),
            "b": self.b.tolist(),
        })

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if obj.get("kind") != "linear-softmax":
            raise ValueError("not a linear-softmax model file")
        W = np.array(obj["W"], dtype=float).reshape(obj["W_shape"])
        return cls(W, np.array(obj["b"], dtype=float), obj["classes"])


def _check_finite(X, where=""):
    """ValueError naming the first row of X that holds a NaN or an infinity,
    after the prefix where."""
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{where}row {int(bad.argmax())} holds a non-finite "
                         "value")


def train_linear(X, y, seed=0):
    """Softmax regression by full-batch gradient descent; deterministic per
    seed.  X is one (n, d) array, for which one LinearModel is returned, or
    a list of (n, d_k) arrays that share the labels y, for which a list of
    models is returned, the k-th seeded seed + k.  Every set is checked
    before any descent runs, and the list form's refusals name the set.

    The loop runs class-major: logits, posteriors and gradients are (K, n)
    arrays, so the softmax reductions run across contiguous rows of length n
    instead of along n rows of length K, which numpy does several times
    slower.  b is W's last column, against a column of ones in X, so an
    epoch is one matrix product for the logits and one for the gradients of
    W and b together; sets of one width descend as one stack of them."""
    y = np.asarray(y, dtype=int)
    one = not isinstance(X, (list, tuple))
    sets = [np.asarray(x, dtype=float) for x in ([X] if one else X)]
    for k, x in enumerate(sets):
        where = "" if one else f"set {k}: "
        if x.ndim != 2:
            raise ValueError(f"{where}X must be 2-D, got shape {x.shape}")
        if len(y) != len(x):
            raise ValueError(f"{where}{len(y)} labels for {len(x)} rows")
        _check_finite(x, where)
    classes, yk = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("at least 2 classes required")
    n, K = len(y), len(classes)
    Y = np.zeros((K, n))
    Y[yk, np.arange(n)] = 1.0
    models = [None] * len(sets)
    for d in {x.shape[1] for x in sets}:
        stack = [k for k, x in enumerate(sets) if x.shape[1] == d]
        Wa = np.zeros((len(stack), K, d + 1))  # W and, in the last column, b
        Xa = np.ones((len(stack), n, d + 1))
        for i, k in enumerate(stack):
            W0 = np.random.default_rng(seed + k).standard_normal((d, K))
            Wa[i, :, :d] = 0.01 * W0.T
            Xa[i, :, :d] = sets[k]
        # the logits' product took twice as long on a transposed view of Xa
        Xat = Xa.transpose(0, 2, 1).copy()
        decay = np.append(np.full(d, 1 - _LR * _WEIGHT_DECAY), 1.0)
        G = np.empty((len(stack), K, n))  # logits, posteriors, then P - Y
        top = np.empty((len(stack), 1, n))
        grad = np.empty_like(Wa)
        for _ in range(_EPOCHS):
            np.matmul(Wa, Xat, out=G)
            np.max(G, axis=1, out=top, keepdims=True)
            G -= top
            np.exp(G, out=G)
            np.sum(G, axis=1, out=top, keepdims=True)
            G /= top
            G -= Y
            np.matmul(G, Xa, out=grad)
            grad *= _LR / n
            Wa *= decay
            Wa -= grad
        for i, k in enumerate(stack):
            models[k] = LinearModel(Wa[i, :, :d].T.copy(), Wa[i, :, d].copy(),
                                    classes.tolist())
    return models[0] if one else models


def predict(model, X):
    """Class posterior rows (sum to 1) for each input row; a 1-D X is one
    row.  ValueError unless the rows are model.W.shape[0] wide."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != len(model.W):
        raise ValueError(f"X of shape {X.shape} for a model of input width "
                         f"{len(model.W)}")
    _check_finite(X)
    return _softmax(X @ model.W + model.b)


def predict_labels(model, X):
    """The most probable of model.classes for each input row."""
    return np.array(model.classes)[predict(model, X).argmax(axis=1)]


class EnsembleConfig:
    def __init__(self, mode="majority"):
        if mode not in ("majority", "soft"):
            raise ValueError("mode must be 'majority' or 'soft'")
        self.mode = mode


def ensemble_decide(P, cfg):
    """One posterior column per row from P, the three voters' (n, K)
    posteriors stacked to shape (3, n, K).

    Majority mode: a column chosen by at least two voters wins, and a
    three-way split goes to the argmax of the mean posterior.  Soft mode
    takes that argmax on every row.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or len(P) != 3:
        raise ValueError(f"posteriors of shape (3, n, K) expected, got shape "
                         f"{P.shape}")
    chosen = P.mean(axis=0).argmax(axis=1)
    if cfg.mode == "majority":
        v0, v1, v2 = P.argmax(axis=2)
        chosen = np.where((v0 == v1) | (v0 == v2), v0,
                          np.where(v1 == v2, v1, chosen))
    return chosen


def accuracy(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float((y_true == y_pred).mean()) if len(y_true) else 0.0


def confusion_matrix(y_true, y_pred, classes):
    idx = {c: k for k, c in enumerate(classes)}
    M = np.zeros((len(classes), len(classes)), dtype=int)
    for t, p in zip(y_true, y_pred):
        M[idx[int(t)], idx[int(p)]] += 1
    return M


def per_class_metrics(y_true, y_pred, classes):
    """{class: {precision, recall, f1, support}} from the confusion matrix."""
    M = confusion_matrix(y_true, y_pred, classes)
    out = {}
    for k, c in enumerate(classes):
        tp = M[k, k]
        fp = M[:, k].sum() - tp
        fn = M[k, :].sum() - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[c] = {"precision": float(prec), "recall": float(rec),
                  "f1": float(f1), "support": int(M[k, :].sum())}
    return out
