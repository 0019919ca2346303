"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed in ``setup`` (the
library sees only those inputs), runs one pass of work in ``run_pass``, and
checks every pass's outputs in ``check`` after the timed phase, against the
oracle paths the library already has.  A pass is a list of ``Op`` records,
one per checked unit of work; an op fails if it raised or if its check
failed.
"""

import hashlib
import json
import math
import os
import traceback

import numpy as np

import nishigraph as ng
from nishigraph import estimator, qc, trapping, zeta
from nishigraph.pipeline import DEFAULT_GRAPHS

_DATA = os.path.join(os.path.dirname(ng.__file__), "data")


class Op:
    """One checked unit of work: its label, output and failure, if any."""

    __slots__ = ("label", "value", "error")

    def __init__(self, label, value=None, error=None):
        self.label = label
        self.value = value
        self.error = error


def attempt(label, fn, *args):
    """Run one op; an exception becomes the op's failure, with its traceback."""
    try:
        return Op(label, fn(*args))
    except Exception:  # an op boundary: record and keep measuring
        return Op(label, error=traceback.format_exc(limit=4))


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CheckResult:
    """Failures per op (by position in the pass) and the scores, each in
    [0, 1], whose mean is the workload's quality: one per checked answer,
    or the ensemble accuracies where a stage has them."""

    def __init__(self):
        self.failures = {}  # (pass_index, op_index) -> message
        self.scores = []
        self.info = {}

    def expect(self, key, ok, message):
        self.scores.append(1.0 if ok else 0.0)
        if not ok:
            self.failures.setdefault(key, message)


# -- classification path ---------------------------------------------------

class Pipeline:
    """Stage: features -> three similarity graphs -> embeddings -> ensemble.

    Pass k embeds its own dataset, drawn with seed ``1000 * seed + k`` before
    the pass is timed.  Accuracy on one held-out split of 10 x 50 samples
    varies by several percent from seed to seed; the mean over a run's
    datasets varies much less, and so does the median pass time.
    """

    R = 32
    EPS = 1e-4  # the estimator eps spectral_embed uses for each component
    CHECK_ROOTS = 3  # passes whose roots are checked against the dense spectrum

    def __init__(self, per_class, separation, connected):
        self.per_class = per_class
        self.separation = separation
        self.connected = connected

    def _dataset(self, seed, k):
        return ng.synthetic_features(10, self.per_class, 1280, self.separation,
                                     seed=1000 * seed + k)

    def setup(self, seed):
        return {"seed": seed, "next": 0, "ft": self._dataset(seed, 0)}

    def prepare(self, state):
        if state["ft"] is None:
            state["ft"] = self._dataset(state["seed"], state["next"])

    def run_pass(self, state):
        k, ft = state["next"], state["ft"]
        state["next"], state["ft"] = k + 1, None
        return [attempt("run_pipeline", self._one, k, ft)]

    def _one(self, k, ft):
        result, embeddings, _ = ng.run_pipeline(ft, r=self.R)
        return k, result, [e.coords for e in embeddings]

    def _graphs(self, ft):
        # The graphs run_pipeline builds, from the same public pieces and the
        # same training split (seed 0), so β can be checked on them.
        train_idx, _ = ng.stratified_split(ft.labels, 0.25, 0)
        for gcfg in DEFAULT_GRAPHS:
            X = ft.X
            if gcfg.get("s_frac", 1.0) < 1.0:
                s = max(2, int(round(gcfg["s_frac"] * ft.n_features)))
                per_class = ng.select_indices(
                    ng.FeatureTable(ft.X[train_idx], ft.labels[train_idx]), s)
                X = ft.X[:, sorted(set().union(*per_class.values()))]
            yield ng.similarity_graph(ng.FeatureTable(X, ft.labels),
                                      gcfg["gamma"], gcfg["p"])

    def _check_roots(self, res, key, ft, betas):
        # Each graph is one connected component here, so its beta_N is the
        # root the estimator returned: the dense spectrum must vanish there.
        for J, beta in zip(self._graphs(ft), betas):
            comps = len(J.components())
            if comps != 1:
                res.expect(key, False,
                           f"graph has {comps} components; workload expects 1")
                continue
            H = ng.bethe_hessian_weighted(J, beta).to_dense()
            lam_min = float(np.linalg.eigvalsh(H)[0])
            res.info.setdefault("dense_lambda_min_at_beta", []).append(lam_min)
            res.expect(key, abs(lam_min) < self.EPS,
                       f"|lambda_min| = {abs(lam_min):.3e} at beta {beta} "
                       f"exceeds eps {self.EPS}")

    def check(self, state, passes):
        res = CheckResult()
        done = [(p, o.value) for p, ops in enumerate(passes)
                for o in ops if o.error is None]
        if not done:
            return res
        accuracies = []
        for p, (k, result, _) in done:
            betas = result["beta_N"]
            res.expect((p, 0), all(math.isfinite(b) and b > 0 for b in betas),
                       f"non-finite or non-positive beta_N {betas}")
            accuracies.append(result["ensemble_accuracy"])
            if self.connected and p < self.CHECK_ROOTS:
                self._check_roots(res, (p, 0), self._dataset(state["seed"], k),
                                  betas)
        # The same dataset again must give the same result and embeddings.
        p, (k, result, coords) = done[0]
        _, again, again_coords = self._one(k, self._dataset(state["seed"], k))
        res.expect((p, 0), again == result and all(
            np.array_equal(a, b) for a, b in zip(again_coords, coords)),
            f"dataset {k} gave a different result when repeated")
        res.scores = accuracies
        res.info["ensemble_accuracy"] = accuracies
        return res


# -- code path ---------------------------------------------------------------

class LiftSearch:
    """Stage: one optimize_lift search on an all-free 3x5 pattern.

    At L=12 a 3x5 lift has girth at most 6, and every 6-cycle through
    degree-3 variables has ACE 3 < 4, so the target is never met and every
    search scores restarts x (steps + 1) candidates.  The candidates it
    draws, and so its cost, depend on the search seed: over twelve search
    seeds the cost varied by up to 1.5 times.  Every pass of every run
    therefore searches with the same seed, ``SEARCH_SEED``; the benchmark
    seed varies the code-analysis stage's inputs only.
    """

    M_B, N_B, L = 3, 5, 12
    MIN_GIRTH, MIN_ACE = 6, 4
    RESTARTS, STEPS = 1, 8
    SEARCH_SEED = 0

    def setup(self, seed):
        pattern = qc.METProtograph([[[None]] * self.N_B for _ in range(self.M_B)],
                                   self.L, allow_unset=True)
        return {"pattern": pattern}

    def prepare(self, state):
        pass

    def run_pass(self, state):
        return [attempt("optimize_lift", self._search, state["pattern"],
                        self.SEARCH_SEED)]

    def _search(self, pattern, search_seed):
        return search_seed, qc.optimize_lift(
            pattern, self.L, self.MIN_GIRTH, self.MIN_ACE, search_seed,
            self.RESTARTS, self.STEPS)

    def _recompute(self, proto):
        """Girth and min ACE of the lift, from the lifted-graph oracle paths."""
        g = qc.lift(proto)
        gir = qc.girth(g)
        scan = min(self.MIN_GIRTH + 4, 12)
        cycles = qc.enumerate_cycles(g, scan - scan % 2)
        aces = [qc.ace(c, g) for c in cycles if c.length < self.MIN_GIRTH + 4]
        return gir, (min(aces) if aces else math.inf)

    def check(self, state, passes):
        res = CheckResult()
        digests = {}  # pass index -> digest of the shifts found
        for p, ops in enumerate(passes):
            op = ops[0]
            if op.error is not None:
                continue
            search_seed, r = op.value
            gir, mace = self._recompute(r.proto)
            res.expect((p, 0), gir == r.girth,
                       f"reported girth {r.girth}, lifted graph has {gir}")
            res.expect((p, 0), mace == r.min_ace,
                       f"reported min ACE {r.min_ace}, lifted graph has {mace}")
            res.expect((p, 0), not r.satisfied,
                       "target met, which a 3x5 lift at L=12 cannot do; the "
                       "candidate count is no longer fixed")
            digests[p] = _digest(r.proto.cells)
            res.info.setdefault("searches", []).append(
                (search_seed, digests[p], r.girth, r.min_ace))
        # Every pass searched with the same seed: each must have found the
        # same shifts.
        first = next(iter(digests.values()), None)
        for p, d in digests.items():
            res.expect((p, 0), d == first,
                       f"search seed {self.SEARCH_SEED} found different "
                       "shifts when repeated")
        return res


def relabelled_h2(seed):
    """The bundled h2 code (seed 0) or a random relabelling of it.

    Shift k in cell (r, c) becomes (u*k + b_c - a_r) mod L for a unit u and
    offsets a, b drawn from the seed.  That keeps every cell's weight and is
    a graph isomorphism of the lift, so the cycle census, and with it the
    amount of work, is the same for every seed while the concrete vertex
    labels and trapping-set matrices change.
    """
    proto = qc.read_exponent_file(os.path.join(_DATA, "h2.exp"))
    if seed == 0:
        return proto
    rng = np.random.default_rng(seed)
    L = proto.L
    u = int(rng.integers(1, L))
    while math.gcd(u, L) != 1:
        u = int(rng.integers(1, L))
    a = rng.integers(0, L, proto.m_b)
    b = rng.integers(0, L, proto.n_b)
    cells = [[sorted(int((u * k + b[c] - a[r]) % L) for k in cell)
              for c, cell in enumerate(row)] for r, row in enumerate(proto.cells)]
    return qc.METProtograph(cells, L)


def tanner_subgraph(ts):
    """The trapping set's bipartite variable/check graph as a SimpleGraph."""
    m, a = ts.H.shape
    rows, cols = np.nonzero(ts.H)
    return zeta.SimpleGraph(a + m, [(int(v), a + int(r))
                                    for r, v in zip(rows, cols)])


def census(g, max_len):
    """Cycles up to max_len with their ACE, and the (length, ACE) histogram."""
    cycles = qc.enumerate_cycles(g, max_len)
    aces = [qc.ace(c, g) for c in cycles]
    hist = {}
    for c, a in zip(cycles, aces):
        key = f"{c.length}:{a}"
        hist[key] = hist.get(key, 0) + 1
    return cycles, aces, hist


class CodeAnalysis:
    """Stage: cycle census of h2, then the invariant panel and
    zeta diagnostics of the trapping sets induced on its short cycles, then
    the estimator pair.

    The 861 distinct sets are ordered by the (length, ACE) of the first
    cycle that induces them and every SAMPLE-th one is analysed.  Class sizes
    are invariant under relabelling, so every seed analyses the same number
    of sets from each class, and a pass stays short enough to repeat.
    """

    MAX_LEN = 8
    SAMPLE = 4
    U_VALUES = (0.1, 0.3, 0.7)
    BASS_TOL = 1e-8
    EPS = 1e-6

    def setup(self, seed):
        g = qc.lift(relabelled_h2(seed))
        return {"g": g, "seed": seed}

    def prepare(self, state):
        pass

    def run_pass(self, state):
        g = state["g"]
        census_op = attempt("census", census, g, self.MAX_LEN)
        ops = [census_op]
        if census_op.error is None:
            cycles, aces, hist = census_op.value
            census_op.value = hist
            sets = {}
            for c, a in zip(cycles, aces):
                var_set = tuple(sorted(set(c.var_nodes(g))))
                sets.setdefault(var_set, (c.length, a))
            chosen = sorted(sets, key=sets.get)[::self.SAMPLE]
            state["n_sets"] = len(chosen)
            ops.extend(attempt("trapping_set", self._one_set, g, var_set)
                       for var_set in chosen)
        ops.append(attempt("beta_roots", self._roots, g))
        return ops

    def _one_set(self, g, var_set):
        ts = trapping.TrappingSet.from_tanner(g, var_set)
        panel = trapping.invariant_panel(ts).to_dict()
        sg = tanner_subgraph(ts)
        n_poles = len(zeta.poles(sg))
        crossings = zeta.det_crossing_check(sg)["crossings"]
        residual = max(zeta.bass_identity_residual(sg, u) for u in self.U_VALUES)
        return {"panel": panel, "poles": n_poles, "crossings": len(crossings),
                "unmatched": sum(c["pole"] is None for c in crossings),
                "residual": residual}

    def _roots(self, g):
        A, D = qc.bipartite_adjacency(g)
        system = estimator.UnweightedSystem(A, D)
        max_deg = max(v for _, _, v in D.entries)
        lo, hi = 1 + 1e-6, 2 * math.sqrt(max_deg)
        cfg = estimator.EstimatorConfig(lo, hi, eps=self.EPS)
        qn = estimator.estimate_beta_N(system, cfg)
        bis = estimator.bisection_baseline(system, lo, hi, self.EPS)
        return qn, bis

    def check(self, state, passes):
        res = CheckResult()
        reference = None
        if state["seed"] != 0:
            # A relabelling is an isomorphism: its census must equal the
            # bundled code's, cycle lengths and ACE values alike.
            reference = census(qc.lift(relabelled_h2(0)), self.MAX_LEN)[2]
        digests = set()
        totals = {"crossings": 0, "unmatched": 0, "max_residual": 0.0}
        for p, ops in enumerate(passes):
            summary = []
            for k, op in enumerate(ops):
                if op.error is not None:
                    continue
                if op.label == "census":
                    if reference is not None:
                        res.expect((p, k), op.value == reference,
                                   "relabelled census differs from h2's")
                    summary.append(op.value)
                elif op.label == "trapping_set":
                    v = op.value
                    res.expect((p, k), v["residual"] <= self.BASS_TOL,
                               f"Bass residual {v['residual']:.3e} > "
                               f"{self.BASS_TOL}")
                    summary.append(v)
                    if p == 0:
                        totals["crossings"] += v["crossings"]
                        totals["unmatched"] += v["unmatched"]
                        totals["max_residual"] = max(totals["max_residual"],
                                                     v["residual"])
                else:
                    qn, bis = op.value
                    res.expect((p, k), qn.converged and bis.converged,
                               "an estimator did not converge")
                    res.expect((p, k), abs(qn.beta_N - bis.beta_N) <= self.EPS,
                               f"quadratic-Newton {qn.beta_N} and bisection "
                               f"{bis.beta_N} differ by more than {self.EPS}")
                    summary.append([qn.beta_N, bis.beta_N])
                    if p == 0:
                        totals["beta_qn"] = qn.beta_N
                        totals["beta_bisection"] = bis.beta_N
                        totals["eigensolves_qn"] = qn.eigensolver_calls
                        totals["eigensolves_bisection"] = bis.eigensolver_calls
            digests.add(_digest(summary))
        if passes:
            res.expect((0, 0), len(digests) == 1,
                       "passes disagree on the analysis results")
        res.info.update(totals)
        res.info["trapping_sets"] = state.get("n_sets", 0)
        return res


class Stages:
    """A workload whose pass runs its stages one after the other."""

    def __init__(self, name, why, *stages):
        self.name = name
        self.why = why
        self.stages = stages

    def setup(self, seed):
        return {"stages": [st.setup(seed) for st in self.stages], "sizes": []}

    def prepare(self, state):
        for st, sub in zip(self.stages, state["stages"]):
            st.prepare(sub)

    def run_pass(self, state):
        parts = [st.run_pass(sub) for st, sub in zip(self.stages, state["stages"])]
        state["sizes"].append([len(ops) for ops in parts])
        return [op for ops in parts for op in ops]

    def check(self, state, passes):
        res = CheckResult()
        start = [0] * len(passes)
        for i, (st, sub) in enumerate(zip(self.stages, state["stages"])):
            own = []
            for p, ops in enumerate(passes):
                n = state["sizes"][p][i]
                own.append(ops[start[p]:start[p] + n])
            part = st.check(sub, own)
            res.failures.update({(p, start[p] + k): msg
                                 for (p, k), msg in part.failures.items()})
            res.scores.extend(part.scores)
            res.info.setdefault("stages", []).append(part.info)
            for p, ops in enumerate(own):
                start[p] += len(ops)
        return res


WORKLOADS = {w.name: w for w in (
    Stages("pipelines",
           "both pipeline shapes: graphs that split into 10 components (many "
           "small eigensolves, per-component assembly) and connected "
           "multi-class graphs (few large solves, accuracy below 1)",
           Pipeline(100, 20.0, connected=False),
           Pipeline(50, 6.0, connected=True)),
    Stages("code-path",
           "only workload on qc, trapping and zeta: a lift search "
           "(enumerate_cycles, ace) and trapping-set analysis, mostly "
           "det_crossing_check with a Bethe-Hessian assembler",
           LiftSearch(), CodeAnalysis()),
)}
