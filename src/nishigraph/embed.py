"""Feature ingestion, similarity-graph construction, and spectral embedding at
the estimated critical inverse temperature.

Each vertex keeps its top-p cosines, symmetrized by union, and only the
kept edges are weighted by the kernel exp(-gamma * d^2), d = 1 - cosine.
Embeddings are the eigenvectors at the bottom of the coupled Bethe-Hessian
spectrum assembled at the estimated root temperature.
"""

import csv
import io
import json
import logging

import numpy as np
from scipy.linalg.blas import dsyrk

from .estimator import EstimatorConfig, WeightedSystem, estimate_beta_N
from .rbim import CouplingGraph
from .sparse import _read_text, _size, bottom_eigenpairs

log = logging.getLogger(__name__)

# the similarity-graph builder's working set, in doubles: the Gram update
# takes columns, and the mirror and the top-p selection rows, in blocks of
# about this many entries
_TOP_P_BLOCK = 1 << 16


class FeatureTable:
    """Rectangular sample-by-feature block with optional integer labels; a
    NaN or infinite feature, or a label that is not an integer in [0, 2**63)
    (1.0 is one, 0.5 and NaN are not), is a ValueError naming its row."""

    def __init__(self, X, labels=None):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("feature table must be 2-D")
        X = _finite_rows(X, lambda k: f"row {k}")
        if labels is not None:
            raw = np.asarray(labels)
            for k, x in enumerate(raw.tolist()):  # `_label`'s rule, row named
                if isinstance(x, float) and not x.is_integer():
                    raise ValueError(f"row {k}: label {x!r} is not an integer")
                if not 0 <= x < 2 ** 63:
                    raise ValueError(f"row {k}: label {int(x)} is not in "
                                     "[0, 2**63)")
            labels = np.asarray(raw, dtype=int)
            if len(labels) != X.shape[0]:
                raise ValueError("label count does not match row count")
        self.X = X
        self.labels = labels

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
        types = [float] * (len(header) - has_label) + [_label] * has_label
        rows = [_csv_fields(path, line, rec, types, exact=True)
                for line, rec in records]
        if has_label:
            X, labels = [r[:-1] for r in rows], [r[-1] for r in rows]
        else:
            X, labels = rows, None
        return cls(_finite_rows(X, lambda k: f"{path}: line {records[k][0]}"),
                   labels)

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
    def from_raw(cls, path):
        """Little-endian float32 matrix with a JSON sidecar {rows, cols} at
        path + ".json"; a NaN or an infinity is a ValueError naming the file
        and the 1-based row, a sidecar that is not JSON one naming its
        line."""
        sidecar = path + ".json"
        try:
            meta = json.loads(_read_text(sidecar))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}: line {exc.lineno}: not JSON: "
                             f"{exc.msg}") from None
        try:
            rows, cols = int(meta["rows"]), int(meta["cols"])
            if rows < 0 or cols < 0:
                raise ValueError
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValueError(f"{sidecar}: expected a JSON object with "
                             "nonnegative integer 'rows' and 'cols'") from None
        with open(path, "rb") as fh:
            buf = fh.read()
        need = rows * cols * 4
        if len(buf) != need:
            raise ValueError(f"{path}: expected {need} bytes, found {len(buf)}")
        X = np.frombuffer(buf, dtype="<f4").astype(float).reshape(rows, cols)
        return cls(_finite_rows(X, lambda k: f"{path}: row {k + 1}"))

    def to_raw(self, path):
        with open(path, "wb") as fh:
            fh.write(self.X.astype("<f4").tobytes())
        with open(path + ".json", "w") as fh:
            json.dump({"rows": self.n_samples, "cols": self.n_features}, fh)


class Embedding:
    """Per-sample spectral coordinates plus the temperature that produced
    them: beta_N_used is the mean of the per-component estimates (0.0 when
    every component is a single vertex)."""

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
            for k, row in enumerate(self.coords.tolist()):
                tail = [repr(self.beta_N_used), self.graph_id] if k == 0 else ["", ""]
                writer.writerow(list(map(repr, row)) + tail)

    @classmethod
    def from_csv(cls, path):
        header, records = _csv_records(path)
        r = sum(1 for h in header if h.startswith("e"))
        if not r:
            raise ValueError(f"{path}: line 1: no coordinate column (e0, e1, "
                             "...) in the header")
        coords = _finite_rows([
            _csv_fields(path, line, rec, [float] * r) for line, rec in records],
            lambda k: f"{path}: line {records[k][0]}")
        line, first = records[0]
        beta, gid = 0.0, ""
        if len(first) > r and first[r]:
            beta = _csv_fields(path, line, first[r:], [float])[0]
            if not np.isfinite(beta):
                raise ValueError(f"{path}: line {line}: non-finite beta_N")
            gid = first[r + 1] if len(first) > r + 1 else ""
        return cls(coords, beta, gid)


def _csv_records(path):
    """A CSV file's header and its non-blank records, each with its 1-based
    line, read by _read_text; ValueError naming the file and the line if
    either is missing or the csv module refuses a line."""
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        header = next(reader, None)
        records = [(reader.line_num, rec) for rec in reader if rec]
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
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


def _label(text):
    """A class label read from text: an integer in [0, 2**63)."""
    try:
        label = int(text)
    except ValueError:
        raise ValueError(f"expected an integer label, found "
                         f"{text.strip()!r}") from None
    if not 0 <= label < 2 ** 63:
        raise ValueError(f"label {label} is not in [0, 2**63)")
    return label


def _finite_rows(rows, where):
    """rows as a float array; ValueError naming where(k), the place of the
    first row k that holds a NaN or an infinity."""
    X = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"{where(int(bad.argmax()))}: non-finite value")
    return X


def _rank_features(ft):
    """Per class, every feature index ordered by decreasing absolute
    difference between the class mean and the rest-of-data mean; ties break
    low."""
    if ft.labels is None:
        raise ValueError("labels required for index selection")
    out = {}
    # each rest-of-data mean from the column totals, (S - S_c) / (n - n_c)
    total = ft.X.sum(axis=0)
    for c in ft.classes():
        mask = ft.labels == c
        n_c = int(mask.sum())
        if n_c < 2:
            raise ValueError(f"class {c} has fewer than 2 samples")
        if n_c == ft.n_samples:
            raise ValueError("a single class covers all samples")
        S_c = ft.X[mask].sum(axis=0)
        gap = np.abs(S_c / n_c - (total - S_c) / (ft.n_samples - n_c))
        out[c] = np.lexsort((np.arange(ft.n_features), -gap))
    return out


def select_indices(ft, s):
    """Per class, the s feature indices with the largest absolute difference
    between the class mean and the rest-of-data mean; ties break low."""
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if s > ft.n_features:
        raise ValueError("s exceeds the feature dimension")
    return {c: sorted(int(i) for i in order[:s])
            for c, order in _rank_features(ft).items()}


def similarity_graph(ft, gamma, p):
    """Kernelized cosine-similarity graph with union top-p sparsification."""
    return _similarity_graphs(ft.X, [(np.arange(ft.n_features), gamma, p)])[0]


def _similarity_graphs(X, specs):
    """similarity_graph of X's columns cols, with gamma and p, for each
    (cols, gamma, p) in specs, from one running Gram matrix G.  The column
    sets are visited smallest first, and each adds only its new columns,
    G += X_b X_b^T, so every column enters one product.  The update writes
    one triangle of G in place (dsyrk), a chunk of about _TOP_P_BLOCK
    entries of columns at a time, and the triangle is then mirrored in row
    blocks, so G is the one n x n array.  ValueError unless each set holds
    the next smaller one."""
    if not all(0 < gamma < np.inf for _, gamma, _ in specs):
        raise ValueError("gamma must be positive and finite")
    specs = [(cols, gamma, _size(p, "p", 1)) for cols, gamma, p in specs]
    graphs = [None] * len(specs)
    n = len(X)
    G, done = np.zeros((n, n)), np.empty(0, dtype=np.intp)
    for g in sorted(range(len(specs)), key=lambda g: len(specs[g][0])):
        cols, gamma, p = specs[g]
        if not np.isin(done, cols).all():
            raise ValueError("column sets are not nested")
        new = np.setdiff1d(cols, done)
        if n and len(new):
            step = max(1, _TOP_P_BLOCK // n)
            # G.T is Fortran-ordered, so dsyrk updates G's lower triangle
            for start in range(0, len(new), step):
                Xc = X.take(new[start:start + step], axis=1)
                dsyrk(1.0, Xc.T, beta=1.0, c=G.T, trans=1, overwrite_c=1)
            for start in range(0, n, step):
                stop = start + step
                G[start:stop, stop:] = G[stop:, start:stop].T
                D = G[start:stop, start:stop]
                i, j = np.triu_indices(len(D), 1)
                D[i, j] = D[j, i]
        done = cols
        graphs[g] = _top_p_graph(G, gamma, p)
    return graphs


def _top_p_graph(G, gamma, p):
    """The union top-p graph of the cosines G / (n n^T) of the Gram matrix
    G, n = sqrt(diag G), weighted by the kernel exp(-gamma * d^2) with
    d = 1 - cosine.  The kernel falls as the cosine rises, so the choice is
    made on the cosines and the kernel runs on the kept edges only."""
    nrm = np.sqrt(G.diagonal())
    bad = np.where(nrm == 0)[0]
    if bad.size:
        raise ValueError(f"zero-norm feature row {int(bad[0])}")
    n = len(G)
    p = min(p, n - 1)
    if p < 1:
        return CouplingGraph(n, [])
    # Row i keeps its p largest cosines off the diagonal, unclipped, ties
    # broken by the lower column: every cosine at or above the p-th largest,
    # less the highest-column ties when more tie than fit.  Cosines an ulp
    # apart do not tie, even where their weights round alike.  Rows go in
    # blocks of about _TOP_P_BLOCK entries, so no n x n block is made.
    rows, cols = [], []
    step = max(1, _TOP_P_BLOCK // n)
    for start in range(0, n, step):
        C = G[start:start + step] / np.outer(nrm[start:start + step], nrm)
        b = np.arange(len(C))
        C[b, start + b] = -np.inf
        kth = np.partition(C, n - p, axis=1)[:, n - p, None]
        keep = C >= kth
        extra = np.count_nonzero(keep, axis=1) - p
        for row in np.flatnonzero(extra):
            tied = np.flatnonzero(C[row] == kth[row])
            keep[row, tied[-extra[row]:]] = False
        r, c = np.nonzero(keep)
        rows.append(start + r)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    pair = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    i, j = pair // n, pair % n
    d = 1.0 - np.clip(G[i, j] / (nrm[i] * nrm[j]), -1.0, 1.0)
    return CouplingGraph(n, np.column_stack((i, j, np.exp(-gamma * d * d))))


def spectral_embed(J, r, cfg=None, graph_id=""):
    """Embed the graph's vertices with the r bottom eigenvectors of the
    coupled Bethe-Hessian at the estimated root temperature.

    The Bethe-Hessian is block-diagonal across connected components, so the
    bottom spectrum is assembled globally: each component keeps its own
    eigenpairs (with its own temperature estimate, logged), one stable sort
    of their eigenvalues picks the r smallest, ties in component order, and
    only those vectors are written, each into its component's rows of a
    zeroed column.  Rows of distinct components therefore occupy disjoint
    column supports.  Columns are normalised, and each one's first entry
    above 1e-12 in magnitude made positive.
    """
    r = _size(r, "r", 1)
    if r >= J.n:
        raise ValueError("need 1 <= r < n")
    comps = J.components()
    if len(comps) > 1:
        log.info("graph has %d components; embedding each separately",
                 len(comps))
    vals, pairs, betas = [], [], []
    for comp in comps:
        if len(comp) == 1:  # an isolated vertex: H = [1]
            vals_c, vecs_c = np.ones(1), np.ones((1, 1))
        else:
            beta_c, vals_c, vecs_c = _component_eigs(
                J.subgraph(comp), min(r, len(comp)), cfg)
            betas.append(beta_c)
        vals.append(vals_c)
        pairs += [(comp, vec) for vec in vecs_c.T]
    coords = np.zeros((J.n, r))
    for col, p in enumerate(np.argsort(np.concatenate(vals), kind="stable")[:r]):
        comp, vec = pairs[p]
        coords[comp, col] = vec
    coords /= np.linalg.norm(coords, axis=0)
    first = (np.abs(coords) > 1e-12).argmax(axis=0)
    coords[:, coords[first, np.arange(r)] < -1e-12] *= -1
    return Embedding(coords, float(np.mean(betas)) if betas else 0.0, graph_id)


def _component_eigs(J, k, cfg):
    """(beta, eigenvalues, eigenvectors) for one connected coupling graph."""
    system = WeightedSystem(J)
    tr = estimate_beta_N(system, cfg or EstimatorConfig(eps=1e-4))
    beta = tr.beta_N
    if ["ladder_minimum"] in tr.flags:
        log.warning("component of %d vertices: no sign change on the ladder; "
                    "using its smallest lambda_min, beta=%.6g", J.n, beta)
    log.debug("component of %d vertices: beta=%.6g", J.n, beta)
    vals, vecs = bottom_eigenpairs(system.matrix(beta), k, 1e-9)
    return beta, vals, vecs


def synthetic_features(n_classes, per_class, dim, separation, seed=0):
    """Gaussian class blobs in a high-dimensional feature space.

    Each class mean is a random unit direction scaled by `separation`; unit
    isotropic noise is added.  Returns a labeled FeatureTable; ValueError
    for a count below 1 or a non-finite separation.
    """
    if min(n_classes, per_class, dim) < 1:
        raise ValueError("n_classes, per_class and dim must be >= 1")
    if not np.isfinite(separation):
        raise ValueError("separation must be finite")
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
