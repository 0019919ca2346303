"""Shared test helpers: pinned random-graph generators, system builders,
reference implementations of scored quantities, and the brute-force
permanent and Ising-enumeration oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from nishigraph import (CouplingGraph, Cycle, LinearModel, SparseSym,
                        UnweightedSystem, ace, lift, rank_and_kernel)
from nishigraph.classify import _EPOCHS, _LR, _WEIGHT_DECAY, _softmax
from nishigraph.embed import Embedding, _component_eigs
from nishigraph.permanent import _to_rows
from nishigraph.zeta import poles


def random_regular(n, d, seed):
    """d-regular simple graph on n vertices by rejection-sampled pairing."""
    rng = np.random.default_rng(seed)
    while True:
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for k in range(0, len(stubs), 2):
            i, j = int(stubs[k]), int(stubs[k + 1])
            if i == j or (min(i, j), max(i, j)) in edges:
                ok = False
                break
            edges.add((min(i, j), max(i, j)))
        if ok:
            return sorted(edges)


def random_connected(n, p, rng):
    """Erdos-Renyi G(n, p) conditioned on connectivity (rejection)."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        ij = np.array(edges, dtype=int).reshape(-1, 2)
        graph = sp.coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])),
                              shape=(n, n))
        if connected_components(graph, directed=False)[0] == 1:
            return edges


def unweighted_system(n, edges):
    """UnweightedSystem with unit adjacency and degree diagonal."""
    deg = Counter()
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    A = SparseSym(n, [(i, j, 1.0) for i, j in edges])
    D = SparseSym(n, [(i, i, float(deg[i])) for i in range(n)])
    return UnweightedSystem(A, D)


def unit_coupling_graph(n, edges):
    return CouplingGraph(n, [(i, j, 1.0) for i, j in edges])


def cycle_edges(L):
    return [(i, (i + 1) % L) for i in range(L)]


def lifted_score(proto, min_girth):
    """Lift-search score (girth, -#girth cycles, min ACE over cycles shorter
    than min_girth + 4) from the lifted graph: BFS girth, DFS cycle census
    to min(min_girth + 4, 12) and per-cycle ACE."""
    g = lift(proto)
    gir = girth_by_full_bfs(g)
    if math.isinf(gir):
        return math.inf, 0, math.inf
    scan = min(int(min_girth) + 4, 12)
    scan -= scan % 2
    cycles = cycles_by_full_dfs(g, scan) if scan >= 4 else []
    n_short = sum(1 for c in cycles if c.length == gir)
    aces = [ace(c, g) for c in cycles if c.length < min_girth + 4]
    min_ace_found = min(aces) if aces else math.inf
    return gir, -n_short, min_ace_found


def cycles_by_full_dfs(g, max_len):
    """qc.enumerate_cycles without its distance bound: every path of up to
    max_len vertices above its anchor is extended, whether or not it can
    still close, and each cycle is kept in the direction whose second
    vertex is the smaller."""
    adj = g.adjacency_lists()
    found = []

    def dfs(start, path, on_path):
        u = path[-1]
        for w in adj[u]:
            if w == start and len(path) >= 4 and path[1] < path[-1]:
                found.append(Cycle(list(path)))
            elif w > start and w not in on_path and len(path) < max_len:
                path.append(w)
                on_path.add(w)
                dfs(start, path, on_path)
                on_path.discard(w)
                path.pop()

    for start in range(g.n_vertices()):
        dfs(start, [start], {start})
    return sorted(found, key=lambda c: (c.length, c.vertices))


def girth_by_full_bfs(g):
    """qc.girth without its early stop: a full BFS from every root, each
    edge to a vertex no nearer the root than the current one closing a
    cycle, other than the edge back to the parent."""
    adj = g.adjacency_lists()
    n = g.n_vertices()
    best = math.inf
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if dist[w] == -1:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and dist[w] >= dist[u]:
                        best = min(best, dist[u] + dist[w] + 1)
            queue = nxt
    return best


def directed_edge_matrix_by_loop(g):
    """(directed edges, B) of g by a Python double loop over edge copies:
    one directed pair per copy, lexicographic by (tail, head, copy), and
    B[a, b] = 1 where b leaves a's head without reversing a's own copy."""
    des = []
    for (i, j), m in Counter(zip(g.i.tolist(), g.j.tolist())).items():
        for copy in range(m):
            des.append((i, j, copy))
            des.append((j, i, copy))
    des.sort()
    idx = {e: k for k, e in enumerate(des)}
    B = np.zeros((len(des), len(des)))
    for (u, v, c1) in des:
        for (x, y, c2) in des:
            if x == v and not (y == u and c2 == c1 and
                               (min(u, v), max(u, v)) == (min(x, y), max(x, y))):
                B[idx[(u, v, c1)], idx[(x, y, c2)]] = 1
    return des, B


def det_crossings_by_loop(g, J0=1.0):
    """det_crossing_check's crossing list, one determinant per beta: every
    grid point assembled on its own, then 80 bisection steps per sign change."""
    beta_grid = np.linspace(0.05, 6.0, 240)
    i, j = g.i, g.j

    def det(beta):
        t = np.full(len(i), np.tanh(beta * J0))
        H = dense_bethe_hessian_by_transpose(g.n, i, j, t)
        return float(np.linalg.det(H))

    dets = [det(b) for b in beta_grid]
    pole_list = poles(g)
    crossings = []
    for k in range(len(beta_grid) - 1):
        if dets[k] == 0 or dets[k] * dets[k + 1] > 0:
            continue
        lo, hi = beta_grid[k], beta_grid[k + 1]
        flo = dets[k]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = det(mid)
            if fm == 0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        beta_star = 0.5 * (lo + hi)
        u_star = float(np.tanh(beta_star * J0))
        dists = [abs(u_star - p) for p in pole_list]
        if dists and min(dists) < 1e-4:
            m = int(np.argmin(dists))
            crossings.append({"beta": beta_star, "u": u_star,
                              "pole": pole_list[m], "dist": float(dists[m])})
        else:
            crossings.append({"beta": beta_star, "u": u_star,
                              "pole": None, "dist": None})
    return crossings


def similarity_graph_by_loop(ft, gamma, p):
    """similarity_graph's edge list from one lexsort per row: row i keeps
    its min(p, n - 1) largest off-diagonal cosines C (unclipped), ties to
    the lower column; the union of the rows' picks, each edge (i < j) with
    W[i, j], the kernel on C clipped to [-1, 1]."""
    X = ft.X
    G = X @ X.T
    nrm = np.sqrt(np.diag(G))
    C = G / np.outer(nrm, nrm)
    d = 1.0 - np.clip(C, -1.0, 1.0)
    W = np.exp(-gamma * d * d)
    n = ft.n_samples
    keep = set()
    p_eff = min(p, n - 1)
    for i in range(n):
        order = np.lexsort((np.arange(n), -C[i]))
        picked = 0
        for j in order:
            if j == i:
                continue
            keep.add((min(i, int(j)), max(i, int(j))))
            picked += 1
            if picked >= p_eff:
                break
    return [(i, j, float(W[i, j])) for i, j in sorted(keep)]


def rank_features_by_rest_mean(ft):
    """_rank_features from a copy of each class's other rows: per class,
    every feature index by decreasing absolute difference between the class
    mean and the mean of the other rows, ties low."""
    out = {}
    for c in ft.classes():
        mask = ft.labels == c
        gap = np.abs(ft.X[mask].mean(axis=0) - ft.X[~mask].mean(axis=0))
        out[c] = np.lexsort((np.arange(ft.n_features), -gap))
    return out


def spectral_embed_by_pairs(J, r, cfg=None):
    """spectral_embed's coordinates and beta_N_used from one full n-vector
    per component eigenpair: the connected graph solved whole, every pair
    sorted by (eigenvalue, insertion), the r first stacked, normalised, and
    each column negated when its first entry above 1e-12 in magnitude is
    negative."""
    comps = J.components()
    label, local = np.empty((2, J.n), dtype=np.intp)
    for c, comp in enumerate(comps):
        label[comp] = c
        local[comp] = np.arange(len(comp))
    pairs, betas = [], []
    for c, comp in enumerate(comps):
        if len(comp) == 1:
            vals_c, vecs_c = [1.0], np.ones((1, 1))
        else:
            sub = J
            if len(comps) > 1:
                on = label[J.i] == c
                sub = CouplingGraph(len(comp), np.column_stack(
                    (local[J.i[on]], local[J.j[on]], J.couplings[on])))
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
    for k in range(r):
        col = coords[:, k]
        nz = np.where(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            coords[:, k] = -col
    return Embedding(coords, float(np.mean(betas)) if betas else 0.0)


def dense_bethe_hessian_by_transpose(n, i, j, t):
    """The weighted Bethe-Hessian as a dense array, from edges (i, j),
    i < j, parallel edges repeated, and per-edge t of shape (..., |E|), one
    stacked (n, n) matrix per leading index: one upper-triangle scatter of
    the off-diagonal terms, then H += H^T, then the diagonal."""
    t2 = t * t
    q = 1 - t2
    k = math.prod(t.shape[:-1])
    at = np.arange(0, k * n, n)[:, None]
    c = (t2 / q).ravel()
    diag = (1 + np.bincount((at + i).ravel(), c, k * n)
            + np.bincount((at + j).ravel(), c, k * n))
    H = np.bincount(((at + i) * n + j).ravel(), (-t / q).ravel(),
                    k * n * n).reshape(k, n, n)
    H += H.transpose(0, 2, 1)
    H.reshape(k, n * n)[:, ::n + 1] = diag.reshape(k, n)
    return H.reshape(t.shape[:-1] + (n, n))


@st.composite
def coupling_graphs(draw):
    """A CouplingGraph on 2 to 30 vertices with at most n distinct edges,
    so it often has several components; its couplings lie in [0.05, 2],
    all positive or of either sign."""
    n = draw(st.integers(2, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]).map(sorted)
                          .map(tuple), min_size=1, max_size=n, unique=True))
    signs = [1.0, -1.0] if draw(st.booleans()) else [1.0]
    w = draw(st.lists(st.tuples(st.floats(0.05, 2.0), st.sampled_from(signs)),
                      min_size=len(pairs), max_size=len(pairs)))
    return CouplingGraph(n, [(i, j, x * s) for (i, j), (x, s) in zip(pairs, w)])


def subgraph_by_constructor(J, vertices):
    """J's subgraph induced on the ascending list vertices, vertices[k]
    relabelled k, built and checked by CouplingGraph's constructor."""
    local = np.full(J.n, -1)
    local[vertices] = np.arange(len(vertices))
    on = (local[J.i] >= 0) & (local[J.j] >= 0)
    return CouplingGraph(len(vertices), np.column_stack(
        (local[J.i[on]], local[J.j[on]], J.couplings[on])))


def assert_same_graph(G, H):
    """G and H hold the same n and the same read-only i, j and couplings
    arrays, bit for bit and dtype for dtype."""
    assert type(G) is type(H) and G.n == H.n
    for a in ("i", "j", "couplings"):
        x, y = getattr(G, a), getattr(H, a)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert not x.flags.writeable


def bethe_hessian_by_column_stack(n, i, j, off, diag):
    """A Bethe-Hessian built as a new SparseSym, every entry checked: off
    on the edges (i, j) in the given order, then diag on the diagonal."""
    ar = np.arange(n)
    return SparseSym(n, np.column_stack((np.concatenate((i, ar)),
                                         np.concatenate((j, ar)),
                                         np.concatenate((off, diag)))))


def assert_same_sparse(H, ref):
    """H and ref hold the same n, rows, cols and vals and give the same
    dense and CSR arrays, bit for bit and dtype for dtype; H's to_csr is
    read twice, as its index is made on the first call."""
    assert H.n == ref.n
    pairs = [(getattr(H, a), getattr(ref, a)) for a in ("rows", "cols", "vals")]
    pairs.append((H.to_dense(), ref.to_dense()))
    for A in (H.to_csr(), H.to_csr()):
        B = ref.to_csr()
        pairs += [(getattr(A, a), getattr(B, a))
                  for a in ("data", "indices", "indptr")]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def betti_by_components(ts, tol=1e-8):
    """betti(ts) with betti0 the Laplacian kernel from rank_and_kernel on a
    SparseSym (tol 1e-8), not a spanning-forest count, and the bipartite
    subgraph's components from connected_components on its COO graph."""
    A = (ts.H.T @ ts.H).astype(float)
    np.fill_diagonal(A, 0.0)
    L = np.diag(A.sum(axis=1)) - A
    rank, betti0 = rank_and_kernel(SparseSym.from_dense(L), tol)
    live = ts.H[ts.H.any(axis=1)]
    rows, cols = np.nonzero(live)
    n_vertices = ts.a + live.shape[0]
    graph = sp.coo_matrix((np.ones(len(rows)), (cols, ts.a + rows)),
                          shape=(n_vertices, n_vertices))
    comps = connected_components(graph, directed=False)[0]
    return betti0, ts.a - rank - betti0, len(rows) - n_vertices + comps


def kasparov_k_by_sparse(S, T):
    """kasparov_k(S, T) with the block operator's rank and kernel from
    rank_and_kernel on a SparseSym."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    T = np.atleast_2d(np.asarray(T, dtype=float))
    a, ms = S.shape
    D = np.zeros((a + ms + T.shape[1],) * 2)
    D[:a, a:a + ms] = S
    D[:a, a + ms:] = T
    D[a:a + ms, :a] = S.T
    D[a + ms:, :a] = T.T
    rank, kernel = rank_and_kernel(SparseSym.from_dense(D))
    return kernel, rank % 2


def trapping_matrix_by_loop(g, var_indices):
    """TrappingSet.from_tanner(g, var_indices).H by one pass over g.edges:
    rows are the checks touching the subset, columns the sorted subset."""
    var_indices = sorted(set(var_indices))
    col_of = {v: c for c, v in enumerate(var_indices)}
    rows = {}
    for c, v in g.edges:
        if v in col_of:
            rows.setdefault(c, set()).add(col_of[v])
    H = np.zeros((len(rows), len(var_indices)), dtype=int)
    for r, check in enumerate(sorted(rows)):
        for c in rows[check]:
            H[r, c] = 1
    return H


def bipartite_adjacency_by_loop(g):
    """bipartite_adjacency(g) from Python loops over g.edges."""
    n = g.n_vertices()
    A = SparseSym(n, [(v, g.check_id(c), 1.0) for c, v in g.edges])
    deg = np.zeros(n)
    for c, v in g.edges:
        deg[v] += 1
        deg[g.check_id(c)] += 1
    D = SparseSym(n, [(i, i, deg[i]) for i in range(n) if deg[i] != 0])
    return A, D


def weighted_non_backtracking(i, j, t):
    """Weighted non-backtracking matrix B_t of a multigraph with edges
    (i[e], j[e]), parallel edges repeated, by a Python double loop: directed
    edge 2e runs i[e] -> j[e] and 2e + 1 runs back, and B[a, b] = t of b's
    edge where b leaves a's head along another edge than a's."""
    ends = [(int(a), int(b)) for e in zip(i, j) for a, b in (e, e[::-1])]
    B = np.zeros((len(ends), len(ends)))
    for a, (_, head) in enumerate(ends):
        for b, (tail, _) in enumerate(ends):
            if tail == head and a // 2 != b // 2:
                B[a, b] = t[b // 2]
    return B


def train_linear_row_major(X, y, seed=0):
    """train_linear's gradient descent in sample-major layout: logits,
    posteriors and gradients are (n, K) arrays, W is (d, K)."""
    X = np.asarray(X, dtype=float)
    classes = sorted(set(int(c) for c in y))
    yk = np.array([classes.index(int(c)) for c in y])
    n, d = X.shape
    K = len(classes)
    W = 0.01 * np.random.default_rng(seed).standard_normal((d, K))
    b = np.zeros(K)
    Y = np.eye(K)[yk]
    for _ in range(_EPOCHS):
        G = (_softmax(X @ W + b) - Y) / n
        W -= _LR * (X.T @ G + _WEIGHT_DECAY * W)
        b -= _LR * G.sum(axis=0)
    return LinearModel(W, b, classes)


def ensemble_decide_by_row(posteriors, cfg):
    """ensemble_decide on one row: three posterior vectors in, one column
    out."""
    P = [np.asarray(p, dtype=float) for p in posteriors]
    votes = [int(np.argmax(p)) for p in P]
    if cfg.mode == "majority":
        for lab in set(votes):
            if votes.count(lab) >= 2:
                return lab
    return int(np.argmax(np.mean(P, axis=0)))


def naive_permanent(M):
    """Injection-sum oracle for an m x n matrix: over the injections of the
    shorter side into the longer one, the sum of the products of the entries
    they pick; exponential, capped at 7 rows or columns."""
    M = _to_rows(M)
    m, n = len(M), len(M[0]) if M else 0
    if max(m, n) > 7:
        raise ValueError("naive oracle capped at 7 rows or columns")
    if m > n:
        M, m, n = [list(col) for col in zip(*M)], n, m
    total = 0
    for cols in itertools.permutations(range(n), m):
        prod = 1
        for i, j in enumerate(cols):
            prod *= M[i][j]
            if prod == 0:
                break
        total += prod
    return total


def dmin_bound_by_oracle(W, v):
    """The distance bound from its definition: over every (v+1)-subset S of
    W's columns, the sum over i in S of the injection-sum permanent of W's
    columns S minus i; the minimum over subsets."""
    W = np.asarray(W)
    return min(sum(naive_permanent(W[:, [j for j in S if j != i]]) for i in S)
               for S in itertools.combinations(range(W.shape[1]), v + 1))


_ENUM_CAP = 20


class SpinConfig:
    """Vector of +-1 spins."""

    def __init__(self, s):
        s = np.asarray(s, dtype=int)
        if not np.isin(s, (-1, 1)).all():
            raise ValueError("spins must be +-1")
        self.s = s

    def __len__(self):
        return len(self.s)


def hamiltonian(s, J):
    """Energy -sum_{(ij)} J_ij s_i s_j."""
    if len(s) != J.n:
        raise ValueError(f"spin length {len(s)} != coupling dimension {J.n}")
    sv = s.s
    return float(-sum(Jij * sv[i] * sv[j] for i, j, Jij in J.edges))


def exact_thermo(J, beta):
    """(logZ, magnetizations) by exhaustive enumeration over all 2^n configurations."""
    n = J.n
    if n > _ENUM_CAP:
        raise ValueError(f"exact enumeration capped at n={_ENUM_CAP}")
    if n == 0:
        return 0.0, np.zeros(0)
    count = 1 << n
    # spins[k, i] = +-1 for bit i of configuration k
    ks = np.arange(count, dtype=np.int64)
    spins = np.where((ks[:, None] >> np.arange(n)) & 1 == 1, 1, -1).astype(np.int8)
    energy_scaled = np.zeros(count)
    for i, j, Jij in J.edges:
        energy_scaled += Jij * (spins[:, i] * spins[:, j]).astype(float)
    log_w = beta * energy_scaled  # -beta * H
    top = log_w.max()
    logZ = float(top + np.log(np.sum(np.exp(log_w - top))))
    w = np.exp(log_w - logZ)
    mags = (w[:, None] * spins).sum(axis=0)
    return logZ, mags
