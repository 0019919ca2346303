"""Outside-in tracing of nishigraph's layers.

Spans are recorded from this package only; no code under ``src/`` knows it
is traced.  ``Tracer.install`` replaces every public function of each layer
module, plus the public methods named in ``METHODS``, with a timing wrapper.
Functions are matched by object identity and the wrapper is set in every
``nishigraph.*`` namespace that holds the same object, so a call is traced
whichever module it is reached through, and a later refactor that moves an
import does not silently drop a span.

Spans are aggregated in memory as they close: per name (calls, total
seconds, self seconds, exceptions) and per (parent, child) name pair.  A
span's self time is its duration minus the time its child spans cover.
Time of a traced pass that no top-level span covers is the unattributed
time.
"""

import collections
import importlib
import inspect
import sys
import time

# Layer modules, in the order the report lists them.  ``cli`` is a thin JSON
# wrapper over these and is not traced.  ``permanent`` is traced but no
# workload reaches it: the dmin bound on the bundled codes takes under 10 ms
# and no open item targets it, so no workload is padded to exercise it.
LAYERS = ("pipeline", "embed", "estimator", "sparse", "classify", "rbim",
          "qc", "trapping", "zeta", "permanent")

# Public methods worth a span of their own.  Other methods (Cycle.edge_set,
# TannerGraph.check_id, ...) run millions of times per pass and are left to
# the self time of the function that calls them.  rbim is measured through
# CouplingGraph.components only: its module functions are exact-enumeration
# tools that no workload calls.
METHODS = (
    ("sparse", "SparseSym", "__init__"),
    ("sparse", "SparseSym", "to_csr"),
    ("sparse", "SparseSym", "to_dense"),
    ("rbim", "CouplingGraph", "components"),
    ("trapping", "TrappingSet", "from_tanner"),
)


class SpanStats:
    __slots__ = ("calls", "s", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Span and counter store plus the wrappers that feed it.

    ``hooks`` maps a span name to ``hook(tracer, parent_name, result)``,
    called after a successful return, so counts are taken at the same
    boundary as the span.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.stats = collections.defaultdict(SpanStats)
        self.edges = collections.Counter()
        self.counts = collections.Counter()
        self.samples = collections.defaultdict(list)
        self.top = collections.Counter()  # seconds of top-level spans by name
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] += n

    def sample(self, name, value):
        self.samples[name].append(value)

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        stat = self.stats[name]
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            stat.calls += 1
            stat.s += dur
            stat.self_s += dur - frame[1]
            if parent is None:
                self.top[name] += dur
            else:
                parent[1] += dur
                self.edges[(parent[0], name)] += 1
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, parent[0] if parent else None, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package="nishigraph"):
        """Wrap the layers' public callables; ``uninstall`` restores them."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = (f"{layer}.{cls_name}" if meth == "__init__"
                    else f"{layer}.{cls_name}.{meth}")
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def span(self, name):
        return self.stats[name] if name in self.stats else SpanStats()

    def layer_self_s(self):
        out = collections.Counter()
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def table(self):
        """Every span name with its totals, for the run report."""
        return {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s,
                       "errors": st.errors}
                for name, st in sorted(self.stats.items())}
