"""Quasi-cyclic Tanner-graph construction and cycle machinery.

A protograph cell holds a list of circulant shifts; an empty list is a zero
block and a list with several distinct shifts is a multi-edge-type cell.
Lifting replaces each shift k by the LxL identity shifted right by k, so a
check i in block-row r couples to variable (i + k) mod L in block-column c.
"""

import functools
import io
import math

import numpy as np

from .sparse import SparseSym, _edges, _frozen, _read_text, _refuse, _size


class METProtograph:
    """Block description of a QC-LDPC code: per-cell shift lists plus circulant size.

    cells[r][c] is a list of shifts in [0, L), each an integer (an integral
    float or a numpy integer is stored as a Python int); None entries mark
    shifts left free for the lift optimizer (only when allow_unset=True).
    """

    def __init__(self, cells, L, allow_unset=False):
        L = _size(L, "circulant size", 1)
        if not cells or not cells[0]:
            raise ValueError("empty protograph")
        width = len(cells[0])
        self.cells = [[[] for _ in row] for row in cells]
        for r, row in enumerate(cells):
            if len(row) != width:
                raise ValueError("ragged protograph rows")
            for c, cell in enumerate(row):
                for k in cell:
                    if k is None:
                        if not allow_unset:
                            raise ValueError(f"unset shift in cell ({r},{c})")
                    else:
                        k = _size(k, f"shift in cell ({r},{c})")
                        if k >= L:
                            raise ValueError(f"shift {k} out of range [0,{L}) "
                                             f"in cell ({r},{c})")
                        if k in self.cells[r][c]:
                            raise ValueError(f"repeated shift {k} in cell ({r},{c}) "
                                             "would create parallel edges")
                    self.cells[r][c].append(k)
        if not any(cell for row in cells for cell in row):
            raise ValueError("protograph has no nonzero cell")
        self.m_b = len(cells)
        self.n_b = width
        self.L = L

    @property
    def family(self):
        """"spherical" for one block row, "toroidal" for two, else "generic"."""
        return {1: "spherical", 2: "toroidal"}.get(self.m_b, "generic")

    def weight_matrix(self):
        """Integer matrix of per-cell shift counts (the protograph weights)."""
        return np.array([[len(c) for c in row] for row in self.cells], dtype=int)

    def has_unset(self):
        return any(k is None for row in self.cells for cell in row for k in cell)


class TannerGraph:
    """Bipartite check/variable graph; its distinct (check, var) edges are
    stored once, as the sorted, read-only (|E|, 2) int array _edge_array."""

    def __init__(self, n_checks, n_vars, edges):
        n_checks, n_vars = _size(n_checks, "n_checks"), _size(n_vars, "n_vars")
        c, v = _edges(edges, 2, n_checks, n_vars)
        key = c * n_vars + v
        order = np.argsort(key)
        e = np.column_stack((c, v))[order]
        _refuse(*e.T, np.r_[False, np.diff(key[order]) == 0],
                "duplicate edge ({},{})")
        self._edge_array = _frozen(e)
        self.n_checks, self.n_vars = n_checks, n_vars

    @property
    def edges(self):
        """The (check, var) pairs, sorted."""
        return list(map(tuple, self._edge_array.tolist()))

    # Global vertex ids put variables first (0..n_vars-1), checks after.
    def n_vertices(self):
        return self.n_vars + self.n_checks

    def check_id(self, c):
        return self.n_vars + c

    def adjacency_lists(self):
        """Each vertex's sorted neighbours, one read-only tuple per vertex."""
        return self._adjacency

    @functools.cached_property
    def _adjacency(self):
        adj = [[] for _ in range(self.n_vertices())]
        # the edges are sorted by (check, var), so every list fills in order
        for c, v in self._edge_array.tolist():
            adj[v].append(self.check_id(c))
            adj[self.check_id(c)].append(v)
        return tuple(map(tuple, adj))

    def check_degrees(self):
        return np.bincount(self._edge_array[:, 0], minlength=self.n_checks).tolist()

    def var_degrees(self):
        return np.bincount(self._edge_array[:, 1], minlength=self.n_vars).tolist()


class Cycle:
    """Closed simple cycle in a Tanner graph, stored as a global-vertex sequence."""

    def __init__(self, vertices):
        if len(vertices) < 4 or len(vertices) % 2 != 0:
            raise ValueError("cycle length must be even and >= 4")
        if len(set(vertices)) != len(vertices):
            raise ValueError("repeated vertex in cycle")
        self.vertices = list(vertices)
        self.length = len(vertices)

    def var_nodes(self, g):
        return [v for v in self.vertices if v < g.n_vars]


def lift(proto):
    """Expand a protograph into its lifted Tanner graph.

    Shift k in cell (r, c) contributes edges (r*L + i, c*L + (i + k) mod L)
    for all i, i.e. each circulant is the identity shifted right by k.
    """
    if proto.has_unset():
        raise ValueError("protograph has unset shifts; run the optimizer first")
    L = proto.L
    r, c, k = _base_edges(proto)
    i = np.arange(L)
    edges = np.column_stack(((r[:, None] * L + i).ravel(),
                             (c[:, None] * L + (i + k[:, None]) % L).ravel()))
    return TannerGraph(proto.m_b * L, proto.n_b * L, edges)


def _base_edges(proto):
    """(block row, block column, shift) arrays, one entry per shift of each cell."""
    return np.array([(r, c, k) for r, row in enumerate(proto.cells)
                     for c, cell in enumerate(row) for k in cell],
                    dtype=np.intp).reshape(-1, 3).T


def girth(g):
    """Length of the shortest cycle, or math.inf if the graph is a forest.

    A BFS from each root; a cycle closed at depth d is at least 2d + 1
    long, so each BFS stops once that reaches the shortest found so far."""
    adj = g.adjacency_lists()
    n = g.n_vertices()
    best = math.inf
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = [root]
        while queue and 2 * dist[queue[0]] + 1 < best:
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


def enumerate_cycles(g, max_len):
    """All simple cycles of length <= max_len, each reported once.

    Depth-first search from each anchor vertex, restricted to vertices with
    larger index so every cycle is discovered from its minimum vertex; of
    its two directions, the one kept has the smaller second vertex.  A path
    of k vertices extends to w only if k + dist[w] <= max_len, dist[w] being
    w's BFS distance to the anchor over the same vertices (max_len + 1 past
    depth max_len // 2): no path closing the cycle from w is shorter.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len % 2 != 0:
        raise ValueError("max_len must be even")
    if max_len > 12:
        raise ValueError("cycle enumeration capped at length 12")
    adj = g.adjacency_lists()
    found = []

    def dfs(start, path, on_path):
        u = path[-1]
        for w in adj[u]:
            if w == start and len(path) >= 4 and path[1] < path[-1]:
                found.append(Cycle(list(path)))
            elif (w > start and w not in on_path
                  and len(path) + dist[w] <= max_len):
                path.append(w)
                on_path.add(w)
                dfs(start, path, on_path)
                on_path.discard(w)
                path.pop()

    for start in range(g.n_vertices()):
        dist = [max_len + 1] * len(adj)
        dist[start] = 0
        frontier = [start]
        for d in range(1, max_len // 2 + 1):
            reached = []
            for u in frontier:
                for w in adj[u]:
                    if w > start and dist[w] > d:
                        dist[w] = d
                        reached.append(w)
            frontier = reached
        dfs(start, [start], {start})
    return sorted(found, key=lambda c: (c.length, c.vertices))


def ace(cycle, g):
    """Approximate cycle EMD: sum of (degree - 2) over the cycle's variable nodes.

    The cycle must lie in g: every vertex in [0, n_vertices) and each
    consecutive pair, the last and first included, adjacent."""
    adj, vs = g.adjacency_lists(), cycle.vertices
    if not (all(0 <= u < len(adj) for u in vs)
            and all(w in adj[u] for u, w in zip(vs, vs[1:] + vs[:1]))):
        raise ValueError("cycle is not contained in the graph")
    return sum(len(adj[v]) - 2 for v in cycle.var_nodes(g))


def bipartite_adjacency(g):
    """(A, D) for the bipartite graph with variables first, then checks.

    A = [[0, H^T], [H, 0]] with zero diagonal; D holds the row sums of A.
    """
    n = g.n_vertices()
    var, check = g._edge_array[:, 1], g.check_id(g._edge_array[:, 0])
    A = SparseSym(n, np.column_stack((var, check, np.ones(len(var)))))
    deg = np.bincount(np.concatenate((var, check)), minlength=n)
    nz = np.flatnonzero(deg)
    D = SparseSym(n, np.column_stack((nz, nz, deg[nz])))
    return A, D


class LiftSearchResult:
    """Outcome of a greedy lift search: best shifts plus achieved quality."""

    def __init__(self, proto, girth_achieved, min_ace_achieved, satisfied, restarts_used):
        self.proto = proto
        self.girth = girth_achieved
        self.min_ace = min_ace_achieved
        self.satisfied = satisfied
        self.restarts_used = restarts_used


# Elements of one chunk's gathered (starts, edges, predecessors, L) array.
_WALK_CHUNK = 1 << 21
# Walk counts that may reach this are kept as exact Python ints.
_INT64_WALKS = 2 ** 63


def _closed_walks(proto, max_len, ace_len):
    """Closed tailless walks on the protograph whose shift sum is 0 mod L.

    Each shift of each cell is one base edge; directed edge 2e walks it from
    check to variable (adding the shift), 2e + 1 walks it back (subtracting
    it).  A walk DP over states (directed edge, shift sum mod L) runs from
    every directed edge and counts the walks that return to their start
    state; a min-plus DP beside it carries the ACE, adding colweight - 2 on
    entering a variable block.  Returns ({length: closed walks}, min ACE).
    The dict is exact at the shortest closing length in 4..max_len and is
    empty when no walk closes by max_len; the minimum is over the closed
    walks of length <= ace_len (math.inf when there are none).
    """
    L, m_b = proto.L, proto.m_b
    colw = proto.weight_matrix().sum(axis=0)
    r, c, k = _base_edges(proto)
    tail = np.column_stack((r, m_b + c)).ravel()
    head = np.column_stack((m_b + c, r)).ravel()
    shift = np.column_stack((k, -k)).ravel()
    step_ace = np.column_stack((colw[c] - 2, np.zeros_like(c))).ravel()
    D = len(tail)
    # pred[d]: the edges that may precede d (ending at its tail, not d
    # reversed), padded with the all-zero / all-inf sentinel row D
    d = np.arange(D)
    may = (head[None, :] == tail[:, None]) & (d[None, :] != (d ^ 1)[:, None])
    rows, cols = np.nonzero(may)
    P = max(1, int(may.sum(axis=1).max()))
    pred = np.full((D, P), D)
    pred[rows, np.arange(len(rows)) - np.searchsorted(rows, rows)] = cols
    # entering d moves shift sum s - shift[d] to s
    moved = ((np.arange(L)[None, :] - shift[:, None]) % L)[None]
    # no start has more than P^max_len walks of length max_len
    dtype = np.int64 if D * P ** max_len < _INT64_WALKS else object
    counts, min_ace, shortest = {}, math.inf, math.inf
    chunk = max(1, _WALK_CHUNK // (D * P * L))
    for lo in range(0, D, chunk):
        starts = np.arange(lo, min(lo + chunk, D))
        home = (np.arange(len(starts)), starts, 0)  # each start's start state
        walks = np.zeros((len(starts), D + 1, L), dtype=dtype)
        walks[home] = 1
        cost = np.full((len(starts), D + 1, L), math.inf)
        cost[home] = 0
        length = 0
        while length < min(max_len, max(ace_len, shortest)):
            length += 1
            walks[:, :D] = np.take_along_axis(walks[:, pred].sum(axis=2), moved, 2)
            cost[:, :D] = np.take_along_axis(
                cost[:, pred].min(axis=2) + step_ace[None, :, None], moved, 2)
            if length < 4 or length % 2:
                continue
            closed = int(walks[home].sum())
            if closed:
                counts[length] = counts.get(length, 0) + closed
                shortest = min(shortest, length)
            if length <= ace_len:
                min_ace = min(min_ace, cost[home].min())
    return counts, (int(min_ace) if math.isfinite(min_ace) else math.inf)


def _score_lift(proto, min_girth):
    """(girth, -#girth cycles, min ACE over cycles shorter than min_girth + 4)
    of the lift, from the protograph.

    A length-l cycle of the lift is a closed tailless block walk with shift
    sum 0 mod L (Fossorier 2004).  Each closed block walk lifts to L closed
    walks, and at l = girth these are the cycles, each met 2l times, so the
    lift has L * walks / (2 l) girth cycles.  Every lift of a block walk has
    its ACE, and a closed tailless walk contains a cycle no longer and of no
    larger ACE, so the walk minimum is the cycle minimum.  When no walk
    closes by the scan length the lift's girth comes from a BFS.
    """
    scan = min(int(min_girth) + 4, 12)
    scan -= scan % 2
    ace_len = max((n for n in range(4, scan + 1, 2) if n < min_girth + 4), default=0)
    counts, min_ace_found = _closed_walks(proto, scan, ace_len)
    if not counts:
        return girth(lift(proto)), 0, math.inf
    gir = min(counts)
    return gir, -(proto.L * counts[gir] // (2 * gir)), min_ace_found


def optimize_lift(proto_pattern, L, min_girth, min_ace, seed,
                  restarts=24, steps=150):
    """Greedy randomized search for shifts meeting girth and ACE targets.

    Hill-climbs single-shift changes under the lexicographic objective
    (girth, -count of minimum-girth cycles, minimum ACE); deterministic per
    seed, first restart reaching the target wins.
    """
    if L < 2:
        raise ValueError("circulant size must be >= 2 for a lift search")
    if proto_pattern.m_b > 8 or proto_pattern.n_b > 8 or L > 64:
        raise ValueError("lift search capped at 8x8 blocks and L <= 64")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    free = [(r, c, idx)
            for r, row in enumerate(proto_pattern.cells)
            for c, cell in enumerate(row)
            for idx, k in enumerate(cell) if k is None]

    def build(assign):
        """The candidate's protograph, or None when a cell repeats a shift."""
        cells = [[list(cell) for cell in row] for row in proto_pattern.cells]
        for (r, c, idx), k in zip(free, assign):
            cells[r][c][idx] = k
        if any(len(set(cell)) < len(cell) for row in cells for cell in row):
            return None
        return METProtograph(cells, L)

    def meets(score):
        gir, _, mace = score
        return gir >= min_girth and (math.isinf(mace) or mace >= min_ace)

    if not free:
        proto = METProtograph(proto_pattern.cells, L)
        score = _score_lift(proto, min_girth)
        return LiftSearchResult(proto, score[0], score[2], meets(score), 0)

    best = None  # (score, proto, restart_index)
    for restart in range(restarts):
        for _ in range(200):
            assign = [int(rng.integers(0, L)) for _ in free]
            proto = build(assign)
            if proto is not None:
                break
        else:
            raise RuntimeError("could not draw a valid shift assignment")
        score = _score_lift(proto, min_girth)
        for _ in range(steps):
            if meets(score):
                break
            pos = int(rng.integers(0, len(free)))
            old = assign[pos]
            assign[pos] = int(rng.integers(0, L))
            cand = build(assign)
            scored = None if cand is None else _score_lift(cand, min_girth)
            if scored is not None and scored > score:
                score, proto = scored, cand
            else:
                assign[pos] = old
        if best is None or score > best[0] or meets(score):
            best = (score, proto, restart)
        if meets(score):
            break
    score, proto, restart = best
    return LiftSearchResult(proto, score[0], score[2], meets(score), restart + 1)


def parse_exponent_text(text):
    """Parse the exponent-matrix text format.

    First non-comment line is `L=<int>`; each later line is one block-row of
    whitespace-separated cells, a cell being `-1` (zero block) or a
    comma-separated shift list.  Lines end as in a text-mode file, and every
    error is a ValueError naming the 1-based line.
    """
    L = None
    rows = []
    lineno = 0
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if L is None:
            if not line.startswith("L="):
                raise ValueError(f"line {lineno}: expected header 'L=<int>'")
            try:
                L = int(line[2:])
                if L < 1:
                    raise ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: bad circulant size {line[2:]!r}") from None
            continue
        row = []
        for cellno, tok in enumerate(line.split()):
            if tok == "-1":
                row.append([])
                continue
            try:
                shifts = [int(s) for s in tok.split(",")]
            except ValueError:
                raise ValueError(
                    f"line {lineno}: cell {cellno} is not a shift list: {tok!r}") from None
            for k in shifts:
                if not (0 <= k < L):
                    raise ValueError(
                        f"line {lineno}: cell {cellno} shift {k} outside [0,{L})")
            if len(set(shifts)) < len(shifts):
                k = next(k for i, k in enumerate(shifts) if k in shifts[:i])
                raise ValueError(f"line {lineno}: cell {cellno} repeats shift {k}")
            row.append(shifts)
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: {len(row)} cells, expected {len(rows[0])}")
        rows.append(row)
        last = lineno
    if L is None or not rows:
        expected = "header 'L=<int>'" if L is None else "a block row"
        raise ValueError(f"line {lineno + 1}: expected {expected}, found end of file")
    try:
        return METProtograph(rows, L)
    except ValueError as exc:
        raise ValueError(f"line {last}: {exc}") from None


def read_exponent_file(path):
    text = _read_text(path)
    try:
        return parse_exponent_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

