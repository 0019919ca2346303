"""Shared test helpers: pinned random-graph generators and system builders."""

from collections import Counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from nishigraph import CouplingGraph, SparseSym, UnweightedSystem


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
