"""Feature ingestion, similarity-graph construction, and spectral embedding at
the estimated critical inverse temperature.

The similarity kernel is exp(-gamma * d^2) on squared cosine distance, with
per-vertex top-p sparsification symmetrized by union.  Embeddings are the
eigenvectors at the bottom of the coupled Bethe-Hessian spectrum assembled at
the estimated root temperature.
"""

import csv
import json
import logging
import struct

import numpy as np

from .estimator import (EstimatorConfig, WeightedSystem, auto_bracket,
                        estimate_beta_N)
from .rbim import CouplingGraph
from .sparse import bottom_eigenpairs, lambda_min

log = logging.getLogger(__name__)


class FeatureTable:
    """Rectangular sample-by-feature block with optional integer labels."""

    def __init__(self, X, labels=None, binarized=False):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("feature table must be 2-D")
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if len(labels) != X.shape[0]:
                raise ValueError("label count does not match row count")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be nonnegative")
        self.X = X
        self.labels = labels
        self.binarized = bool(binarized)

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]

    def classes(self):
        if self.labels is None:
            raise ValueError("no labels present")
        return sorted(set(int(x) for x in self.labels))

    @classmethod
    def from_csv(cls, path):
        header, records = _csv_records(path)
        has_label = header[-1].strip().lower() == "label"
        types = [float] * (len(header) - has_label) + [int] * has_label
        rows = [_csv_fields(path, line, rec, types, exact=True)
                for line, rec in records]
        if has_label:
            return cls([r[:-1] for r in rows], [r[-1] for r in rows])
        return cls(rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            cols = [f"f{i}" for i in range(self.n_features)]
            if self.labels is not None:
                writer.writerow(cols + ["label"])
                for row, lab in zip(self.X, self.labels):
                    writer.writerow([repr(float(x)) for x in row] + [int(lab)])
            else:
                writer.writerow(cols)
                for row in self.X:
                    writer.writerow([repr(float(x)) for x in row])

    @classmethod
    def from_raw(cls, path, sidecar=None):
        """Little-endian float32 matrix with a JSON sidecar {rows, cols}."""
        if sidecar is None:
            sidecar = path + ".json"
        with open(sidecar) as fh:
            meta = json.load(fh)
        rows, cols = int(meta["rows"]), int(meta["cols"])
        with open(path, "rb") as fh:
            buf = fh.read()
        need = rows * cols * 4
        if len(buf) != need:
            raise ValueError(f"{path}: expected {need} bytes, found {len(buf)}")
        X = np.array(struct.unpack(f"<{rows * cols}f", buf),
                     dtype=float).reshape(rows, cols)
        return cls(X)

    def to_raw(self, path, sidecar=None):
        if sidecar is None:
            sidecar = path + ".json"
        with open(path, "wb") as fh:
            fh.write(self.X.astype("<f4").tobytes())
        with open(sidecar, "w") as fh:
            json.dump({"rows": self.n_samples, "cols": self.n_features}, fh)


class Embedding:
    """Per-sample spectral coordinates plus the temperature that produced them."""

    def __init__(self, coords, beta_N_used, graph_id=""):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise ValueError("coords must be samples x r with r >= 1")
        if not np.isfinite(coords).all():
            raise ValueError("non-finite embedding coordinates")
        self.coords = coords
        self.beta_N_used = float(beta_N_used)
        self.graph_id = str(graph_id)

    @property
    def r(self):
        return self.coords.shape[1]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"e{i}" for i in range(self.r)] + ["beta_N", "graph_id"])
            for k, row in enumerate(self.coords):
                tail = [repr(self.beta_N_used), self.graph_id] if k == 0 else ["", ""]
                writer.writerow([repr(float(x)) for x in row] + tail)

    @classmethod
    def from_csv(cls, path):
        header, records = _csv_records(path)
        r = sum(1 for h in header if h.startswith("e"))
        coords = [_csv_fields(path, line, rec, [float] * r)
                  for line, rec in records]
        line, first = records[0]
        beta, gid = 0.0, ""
        if len(first) > r and first[r]:
            beta = _csv_fields(path, line, first[r:], [float])[0]
            gid = first[r + 1] if len(first) > r + 1 else ""
        return cls(coords, beta, gid)


def _csv_records(path):
    """A CSV file's header and its non-blank records, each with its 1-based
    line; ValueError naming the file and the line if either is missing."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        records = [(reader.line_num, rec) for rec in reader if rec]
    if not header or not records:
        raise ValueError(f"{path}: line {reader.line_num + 1 if header else 1}:"
                         f" expected {'a data row' if header else 'a header'},"
                         " found end of file")
    return header, records


def _csv_fields(path, line, rec, types, exact=False):
    """rec's first len(types) cells converted by types; ValueError naming the
    file and the line for a short record (with exact, any other length) or
    a bad cell."""
    if len(rec) < len(types) or (exact and len(rec) > len(types)):
        raise ValueError(f"{path}: line {line}: expected {len(types)} "
                         f"fields, found {len(rec)}")
    try:
        return [t(x) for t, x in zip(types, rec)]
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None


def select_indices(ft, s):
    """Per class, the s feature indices with the largest absolute difference
    between the class mean and the rest-of-data mean; ties break low."""
    if ft.labels is None:
        raise ValueError("labels required for index selection")
    if s > ft.n_features:
        raise ValueError("s exceeds the feature dimension")
    out = {}
    for c in ft.classes():
        mask = ft.labels == c
        if mask.sum() < 2:
            raise ValueError(f"class {c} has fewer than 2 samples")
        if (~mask).sum() == 0:
            raise ValueError("a single class covers all samples")
        gap = np.abs(ft.X[mask].mean(axis=0) - ft.X[~mask].mean(axis=0))
        order = np.lexsort((np.arange(ft.n_features), -gap))
        out[c] = sorted(int(i) for i in order[:s])
    return out


def binarize(ft):
    """Map entries to their sign, with sign(0) = +1; idempotent."""
    Xb = np.where(ft.X >= 0, 1.0, -1.0)
    return FeatureTable(Xb, ft.labels, binarized=True)


def similarity_graph(ft, gamma, p):
    """Kernelized cosine-similarity graph with union top-p sparsification."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    X = ft.X
    norms = np.linalg.norm(X, axis=1)
    bad = np.where(norms == 0)[0]
    if bad.size:
        raise ValueError(f"zero-norm feature row {int(bad[0])}")
    U = X / norms[:, None]
    C = np.clip(U @ U.T, -1.0, 1.0)
    d = 1.0 - C
    W = np.exp(-gamma * d * d)
    np.fill_diagonal(W, 0.0)
    n = ft.n_samples
    keep = set()
    p_eff = min(p, n - 1)
    for i in range(n):
        order = np.lexsort((np.arange(n), -W[i]))
        picked = 0
        for j in order:
            if j == i:
                continue
            keep.add((min(i, int(j)), max(i, int(j))))
            picked += 1
            if picked >= p_eff:
                break
    edges = [(i, j, float(W[i, j])) for i, j in sorted(keep)]
    return CouplingGraph(n, edges)


def _sign_fix(vecs):
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.where(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def spectral_embed(J, r, cfg=None, graph_id=""):
    """Embed the graph's vertices with the r bottom eigenvectors of the
    coupled Bethe-Hessian at the estimated root temperature.

    The Bethe-Hessian is block-diagonal across connected components, so the
    bottom spectrum is assembled globally: each component contributes its own
    eigenpairs (with its own temperature estimate, logged), the pairs are
    sorted by eigenvalue, and the r smallest become the coordinate columns.
    Rows of distinct components therefore occupy disjoint column supports.
    """
    if r < 1 or r >= J.n:
        raise ValueError("need 1 <= r < n")
    comps = J.components()
    if len(comps) > 1:
        log.info("graph has %d components; embedding each separately",
                 len(comps))
    pairs = []
    betas = []
    for comp in comps:
        if len(comp) == 1:  # an isolated vertex: H = [1]
            vals_c, vecs_c = [1.0], np.ones((1, 1))
        else:
            idx = {v: k for k, v in enumerate(comp)}
            sub = J if len(comps) == 1 else CouplingGraph(len(comp), [
                (idx[i], idx[j], w) for i, j, w in J.edges if i in idx])
            beta_c, vals_c, vecs_c = _component_eigs(sub, min(r, len(comp)),
                                                     cfg)
            betas.append(beta_c)
        for t in range(len(vals_c)):
            vec = np.zeros(J.n)
            vec[comp] = vecs_c[:, t]
            pairs.append((float(vals_c[t]), len(pairs), vec))
    pairs.sort(key=lambda kv: (kv[0], kv[1]))
    coords = np.stack([vec for _, _, vec in pairs[:r]], axis=1)
    coords = coords / np.linalg.norm(coords, axis=0, keepdims=True)
    coords = _sign_fix(coords)
    return Embedding(coords, float(np.mean(betas)) if betas else 0.0, graph_id)


def _component_eigs(J, k, cfg):
    """(beta, eigenvalues, eigenvectors) for one connected coupling graph."""
    system = WeightedSystem(J)
    try:
        beta = estimate_beta_N(system, cfg or EstimatorConfig(
            *auto_bracket(system), eps=1e-4)).beta_N
    except ValueError as exc:
        if cfg is not None:
            raise
        # no sign change on this component: fall back to the grid point
        # where lambda_min is smallest
        beta = _argmin_beta(system)
        log.warning("component of %d vertices: %s; using grid argmin "
                    "beta=%.6g", J.n, exc, beta)
    log.debug("component of %d vertices: beta=%.6g", J.n, beta)
    vals, vecs = bottom_eigenpairs(system.matrix(beta), k, 1e-9)
    return beta, vals, vecs


_ARGMIN_GRID = np.geomspace(0.1, 3.0, 12)


def _argmin_beta(system):
    """The grid point where lambda_min is smallest (first on ties), scanning
    up to the first saturated coupling; 1.0 if the first one saturates."""
    vals = []
    for b in _ARGMIN_GRID:
        try:
            vals.append(lambda_min(system.matrix(b)))
        except ValueError:
            break
    return float(_ARGMIN_GRID[np.argmin(vals)]) if vals else 1.0


def synthetic_features(n_classes, per_class, dim, separation, seed=0):
    """Gaussian class blobs in a high-dimensional feature space.

    Each class mean is a random unit direction scaled by `separation`; unit
    isotropic noise is added.  Returns a labeled FeatureTable.
    """
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    X = np.zeros((n_classes * per_class, dim))
    y = np.zeros(n_classes * per_class, dtype=int)
    for c in range(n_classes):
        lo = c * per_class
        X[lo:lo + per_class] = means[c] + rng.standard_normal((per_class, dim))
        y[lo:lo + per_class] = c
    perm = rng.permutation(len(y))
    return FeatureTable(X[perm], y[perm])
