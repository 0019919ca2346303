"""Random-bond Ising primitives: Hamiltonian, exact small-system thermodynamics,
label-derived couplings, and a two-point coupling sampler with known inverse
temperature satisfying the alignment condition between disorder and thermal
averages.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.special import logsumexp

_ENUM_CAP = 20
_P_FLOOR = 1e-6


class CouplingGraph:
    """Symmetric weighted graph carrying the couplings J_ij."""

    def __init__(self, n, edges):
        self.n = int(n)
        seen = set()
        clean = []
        for i, j, J in edges:
            i, j, J = int(i), int(j), float(J)
            if i == j:
                raise ValueError("self-coupling not allowed")
            if i > j:
                i, j = j, i
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            if not np.isfinite(J) or J == 0:
                raise ValueError(f"coupling on ({i},{j}) must be finite and nonzero")
            seen.add((i, j))
            clean.append((i, j, J))
        self.edges = sorted(clean)

    @classmethod
    def from_sparse(cls, M):
        return cls(M.n, [(i, j, v) for i, j, v in M.entries if i != j and v != 0])

    def components(self):
        """Vertex lists of the connected components, each ascending, ordered
        by their smallest vertex; isolated vertices are singletons."""
        ij = np.array([e[:2] for e in self.edges], dtype=np.intp).reshape(-1, 2)
        graph = sp.coo_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])),
                              shape=(self.n, self.n))
        _, labels = connected_components(graph, directed=False)
        groups = {}
        for v, c in enumerate(labels.tolist()):
            groups.setdefault(c, []).append(v)
        return list(groups.values())


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
    logZ = float(logsumexp(log_w))
    w = np.exp(log_w - logZ)
    mags = (w[:, None] * spins).sum(axis=0)
    return logZ, mags


def label_couplings(labels, edges):
    """+1 coupling for same-label endpoints, -1 otherwise."""
    labels = np.asarray(labels)
    n = len(labels)
    return CouplingGraph(
        n, [(i, j, 1.0 if labels[i] == labels[j] else -1.0) for i, j in edges])


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
