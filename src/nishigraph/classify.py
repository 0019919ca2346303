"""Linear softmax classification on embeddings, a pairwise MLP arbiter, and
the three-graph ensemble decision rule with margin-threshold fallback.

Training is fixed-epoch full-batch gradient descent so results are exactly
reproducible from the seed.
"""

import json

import numpy as np

# epochs, step sizes and weight decay of the fixed-epoch gradient descents
_EPOCHS = 300
_LR = 0.5
_WEIGHT_DECAY = 1e-4
_ARBITER_EPOCHS = 400
_ARBITER_LR = 0.3


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


def _check_finite(X):
    """ValueError naming the first row of X that holds a NaN or an infinity."""
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"row {int(bad.argmax())} holds a non-finite value")


def train_linear(X, y, seed=0):
    """Softmax regression by full-batch gradient descent; deterministic per seed.

    The loop runs class-major: logits, posteriors and gradients are (K, n)
    arrays, so the softmax reductions run across contiguous rows of length n
    instead of along n rows of length K, which numpy does several times
    slower."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) != len(X):
        raise ValueError(f"{len(y)} labels for {len(X)} rows")
    _check_finite(X)
    classes, yk = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("at least 2 classes required")
    n, d = X.shape
    K = len(classes)
    rng = np.random.default_rng(seed)
    Wt = 0.01 * rng.standard_normal((d, K)).T.copy()
    bt = np.zeros((K, 1))
    Xt = X.T.copy()
    Y = np.zeros((K, n))
    Y[yk, np.arange(n)] = 1.0
    G = np.empty((K, n))  # logits, then posteriors, then the loss gradient
    for _ in range(_EPOCHS):
        np.matmul(Wt, Xt, out=G)
        G += bt
        G -= G.max(axis=0)
        np.exp(G, out=G)
        G /= G.sum(axis=0)
        G -= Y
        G /= n
        Wt -= _LR * (G @ X + _WEIGHT_DECAY * Wt)
        bt -= _LR * G.sum(axis=1, keepdims=True)
    return LinearModel(Wt.T.copy(), bt.ravel(), classes.tolist())


def predict(model, X):
    """Class posterior rows (sum to 1) for each input row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_finite(X)
    return _softmax(X @ model.W + model.b)


def predict_labels(model, X):
    """The most probable of model.classes for each input row."""
    return np.array(model.classes)[predict(model, X).argmax(axis=1)]


class PairwiseArbiter:
    """One small MLP per confusable class pair (single hidden layer, width 2r)."""

    def __init__(self, models):
        self.models = models  # {(a, b) with a < b: (W1, b1, w2, b2)}

    def pairs(self):
        return sorted(self.models)

    def decide(self, x, a, b):
        """Winner between classes a and b for embedding row x; falls back to a
        if the pair was never trained."""
        key = (min(a, b), max(a, b))
        if key not in self.models:
            return a
        W1, b1, w2, b2 = self.models[key]
        h = np.tanh(np.asarray(x, dtype=float) @ W1 + b1)
        score = float(h @ w2 + b2)
        # positive score votes for the larger class label of the pair
        return key[1] if score > 0 else key[0]


def arbiter_train(X, y, pairs, seed=0):
    """Train one binary MLP per pair; errors name the pair when data is short."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    d = X.shape[1]
    hidden = 2 * d
    models = {}
    rng = np.random.default_rng(seed)
    for a, b in pairs:
        a, b = int(min(a, b)), int(max(a, b))
        mask = (y == a) | (y == b)
        if (y == a).sum() < 10 or (y == b).sum() < 10:
            raise ValueError(f"pair ({a},{b}) needs >= 10 samples per class")
        Xp = X[mask]
        tp = np.where(y[mask] == b, 1.0, -1.0)
        W1 = rng.standard_normal((d, hidden)) / np.sqrt(d)
        b1 = np.zeros(hidden)
        w2 = rng.standard_normal(hidden) / np.sqrt(hidden)
        b2 = 0.0
        n = len(tp)
        for _ in range(_ARBITER_EPOCHS):
            H = np.tanh(Xp @ W1 + b1)
            s = H @ w2 + b2
            # logistic loss on the +-1 target
            grad_s = -tp / (1 + np.exp(tp * s)) / n
            gw2 = H.T @ grad_s
            gb2 = grad_s.sum()
            gH = np.outer(grad_s, w2) * (1 - H * H)
            W1 -= _ARBITER_LR * (Xp.T @ gH)
            b1 -= _ARBITER_LR * gH.sum(axis=0)
            w2 -= _ARBITER_LR * gw2
            b2 -= _ARBITER_LR * gb2
        models[(a, b)] = (W1, b1, w2, b2)
    return PairwiseArbiter(models)


class EnsembleConfig:
    def __init__(self, mode="majority", margin_threshold=0.0, arbiter=None):
        if mode not in ("majority", "soft"):
            raise ValueError("mode must be 'majority' or 'soft'")
        if not margin_threshold >= 0:
            raise ValueError("margin threshold must be >= 0")
        self.mode = mode
        self.margin_threshold = float(margin_threshold)
        self.arbiter = arbiter


def ensemble_decide(posteriors, cfg):
    """Combine three posterior vectors into one class decision.

    Majority mode: a label chosen by at least two voters wins, the deciding
    posterior being the mean over the agreeing voters; a three-way split goes
    to the arbiter when available and to soft voting otherwise.  Soft mode
    averages the three posteriors.  In both modes, a top-two margin below the
    threshold hands the final word to the arbiter when one is configured.
    """
    P = [np.asarray(p, dtype=float) for p in posteriors]
    if len(P) != 3:
        raise ValueError("exactly three posterior vectors expected")
    K = len(P[0])
    if any(len(p) != K for p in P):
        raise ValueError("posterior dimensions differ")

    def top_two(p):
        order = np.argsort(-p, kind="stable")
        return int(order[0]), int(order[1])

    votes = [int(np.argmax(p)) for p in P]
    deciding = None
    chosen = None
    if cfg.mode == "majority":
        for lab in set(votes):
            if votes.count(lab) >= 2:
                agree = [p for p, v in zip(P, votes) if v == lab]
                deciding = np.mean(agree, axis=0)
                chosen = lab
                break
        if chosen is None:
            if cfg.arbiter is not None:
                avg = np.mean(P, axis=0)
                a, b = top_two(avg)
                return int(cfg.arbiter(a, b))
            deciding = np.mean(P, axis=0)
            chosen = int(np.argmax(deciding))
    else:
        deciding = np.mean(P, axis=0)
        chosen = int(np.argmax(deciding))
    first, second = top_two(deciding)
    margin = deciding[first] - deciding[second]
    if margin < cfg.margin_threshold and cfg.arbiter is not None:
        return int(cfg.arbiter(first, second))
    return int(chosen)


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
