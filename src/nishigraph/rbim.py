"""Random-bond Ising couplings: the array-backed coupling graph and a
two-point coupling sampler with known inverse temperature satisfying the
alignment condition between disorder and thermal averages.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .sparse import _edges, _frozen, _refuse, _size

_P_FLOOR = 1e-6


class CouplingGraph:
    """Symmetric weighted graph carrying the couplings J_ij.

    edges is an iterable of (i, j, J_ij) triples, or a (k, 3) array of them;
    each is stored as i < j in the read-only int arrays i and j, with its
    coupling in couplings, sorted stably by (i, j).  A size n that is not
    an integer >= 0, ids that are not integers in [0, n), self-couplings,
    duplicate pairs, and zero or non-finite couplings are rejected.
    """

    def __init__(self, n, edges):
        key = self._store(n, edges, 3)
        _refuse(self.i, self.j, np.r_[False, np.diff(key) == 0],
                "duplicate edge ({},{})")
        _refuse(self.i, self.j, ~np.isfinite(self.couplings)
                | (self.couplings == 0),
                "coupling on ({},{}) must be finite and nonzero")

    def _store(self, n, edges, width):
        """Set n and the edge arrays from the edges _edges parses, (i, j, J)
        for width 3 and (i, j) with unit couplings for width 2, refusing
        the first self-loop; returns the sorted keys i * n + j."""
        self.n = _size(n, "n")
        i, j, *w = _edges(edges, width, self.n)
        w = w[0] if w else np.ones(len(i))
        _refuse(i, j, i == j, "self-loop ({},{}) not allowed")
        key = i * self.n + j
        order = np.argsort(key, kind="stable")
        self.i, self.j, self.couplings = (_frozen(a[order]) for a in (i, j, w))
        return key[order]

    @property
    def edges(self):
        """The (i, j, J_ij) triples, i < j, sorted."""
        return list(zip(self.i.tolist(), self.j.tolist(),
                        self.couplings.tolist()))

    @classmethod
    def from_sparse(cls, M):
        """The nonzero entries of a SparseSym as couplings; a diagonal one
        is refused as a self-loop."""
        nz = M.vals != 0
        return cls(M.n, np.column_stack((M.rows[nz], M.cols[nz], M.vals[nz])))

    def subgraph(self, vertices):
        """The subgraph induced on vertices, ascending distinct ids, with
        vertices[k] relabelled k.  The relabelling is monotone, so this
        graph's checked, sorted arrays restricted to the subgraph's edges
        stay sorted, and they are not checked again."""
        v = np.asarray(vertices)
        v = v if v.size else v.astype(np.int64)  # [] reads as floats
        if v.ndim != 1 or (v.size and (v.dtype.kind not in "iu" or v[0] < 0
                                       or v[-1] >= self.n
                                       or np.any(np.diff(v) <= 0))):
            raise ValueError(f"vertices must be ascending distinct ids in "
                             f"[0,{self.n})")
        local = np.full(self.n, -1)
        local[v] = np.arange(len(v))
        i, j = local[self.i], local[self.j]
        on = (i >= 0) & (j >= 0)
        sub = CouplingGraph.__new__(CouplingGraph)
        sub.n = len(v)
        sub.i, sub.j, sub.couplings = (_frozen(a[on])
                                       for a in (i, j, self.couplings))
        return sub

    def components(self):
        """Vertex lists of the connected components, each ascending, ordered
        by their smallest vertex; isolated vertices are singletons."""
        graph = sp.coo_matrix((np.ones(len(self.i)), (self.i, self.j)),
                              shape=(self.n, self.n))
        _, labels = connected_components(graph, directed=False)
        by_label = np.argsort(labels, kind="stable")
        groups = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
        return sorted((g.tolist() for g in groups if g.size),
                      key=lambda g: g[0])


def sample_nishimori_pm(n, edges, p_flip, seed=0):
    """Draw +-1 couplings (flip probability p_flip) with the matched temperature.

    Each edge is -1 with probability p_flip; the returned beta is the value
    at which the two-point coupling distribution satisfies
    P(+1)/P(-1) = exp(2 beta), i.e. beta = ln((1-p)/p) / 2.
    """
    if not (_P_FLOOR < p_flip < 0.5):
        raise ValueError(f"p_flip must lie in ({_P_FLOOR}, 0.5)")
    rng = np.random.default_rng(seed)
    edges = list(edges)
    signs = np.where(rng.random(len(edges)) < p_flip, -1.0, 1.0)
    J = CouplingGraph(n, [(i, j, s) for (i, j), s in zip(edges, signs)])
    beta_N = 0.5 * np.log((1 - p_flip) / p_flip)
    return J, float(beta_N)
