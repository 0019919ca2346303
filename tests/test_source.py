"""Source hygiene: every name a package module imports is used there, every
private name one package module takes from another is listed, and so are
every exported name and every public method of an exported class that no
package module uses; no package module binds a mutable container at module
level."""

import ast
from pathlib import Path

import nishigraph

# "user <- owner._name" for each private name a package module takes from
# another one; a new entry is a new coupling between modules, so it is
# named here first
PRIVATE_IMPORTS = {
    "cli <- embed._label",
    "cli <- qc._score_lift",
    "cli <- sparse._read_text",
    "embed <- sparse._read_text",
    "embed <- sparse._size",
    "pipeline <- embed._rank_features",
    "pipeline <- embed._similarity_graphs",
    "qc <- sparse._edges",
    "qc <- sparse._frozen",
    "qc <- sparse._read_text",
    "qc <- sparse._refuse",
    "qc <- sparse._size",
    "rbim <- sparse._edges",
    "rbim <- sparse._frozen",
    "rbim <- sparse._refuse",
    "rbim <- sparse._size",
    "trapping <- estimator._uniform_bethe_hessian",
    "trapping <- sparse._frozen",
    "trapping <- sparse._kernel_dim",
    "trapping <- sparse._read_text",
    "zeta <- estimator._checked_square",
    "zeta <- estimator._uniform_bethe_hessian",
    "zeta <- sparse._frozen",
}

# each name in nishigraph.__all__ that no package module other than
# __init__ references, with the use that keeps it; a new entry is public
# surface the package itself does not need, so it is named here first
UNCALLED_EXPORTS = {
    "bethe_hessian_weighted": "the benchmark's root check and the tests' "
                              "one-beta matrices",
    "bethe_permanent": "the permanent bounds planned for the lift search",
    "dmin_upper_bound": "the permanent bounds planned for the lift search",
    "lambda_min": "the tests' bottom-eigenvalue checks and the README's "
                  "library API",
    "optimize_lift": "the code-path benchmark workload's lift search",
    "rank_and_kernel": "the component-count oracle in tests/util.py",
    "sample_nishimori_pm": "signed couplings with a known beta_N, for the "
                           "study of which root the search returns",
    "select_indices": "the pipelines benchmark workload's feature slices",
}

# each public method or property of a class in nishigraph.__all__ that no
# package module references as an attribute, with the use that keeps it
UNCALLED_METHODS = {
    "FeatureTable.to_raw": "writes the raw matrix and sidecar from_raw reads",
    "LinearModel.from_json": "reads the model.json that classify --out writes",
    "SparseSym.from_dense": "builds the test oracles' matrices in "
                            "tests/util.py",
    "TrappingSet.from_tanner": "the code-path benchmark workload's "
                               "trapping sets",
}


def _modules():
    for path in sorted(Path(nishigraph.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_module_has_an_unused_import():
    unused = []
    for path, tree in _modules():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused


def private_imports(path, tree):
    """Private names the module takes from sibling modules, as
    "user <- owner._name": from `from .owner import _name`, and from
    `owner._name` on a module bound by `from . import owner [as alias]`."""
    user = path.stem
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{user} <- {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add(f"{user} <- {modules[node.value.id]}.{node.attr}")
    return found


def test_private_names_crossing_modules_are_listed():
    found = set().union(*(private_imports(p, t) for p, t in _modules()))
    assert found == PRIVATE_IMPORTS


def test_a_new_private_import_is_caught(tmp_path):
    path = tmp_path / "user.py"
    tree = ast.parse("from . import qc as q\nfrom .estimator import _ends\n"
                     "q._girth_by_walks(None)\n")
    assert private_imports(path, tree) == {"user <- estimator._ends",
                                           "user <- qc._girth_by_walks"}


# calls that make a mutable container, by plain or dotted name
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "WeakKeyDictionary"}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)


def mutable_globals(path, tree):
    """"module.name" for each name a top-level statement binds to a mutable
    container: a dict, list or set display or comprehension, or a call in
    MUTABLE_CALLS.  Such a name is state shared by every caller in the
    process; it belongs to an object the caller makes."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            mutable = name in MUTABLE_CALLS
        else:
            mutable = isinstance(value, MUTABLE_DISPLAYS)
        if mutable:
            found |= {f"{path.stem}.{n.id}" for target in targets
                      for n in ast.walk(target) if isinstance(n, ast.Name)}
    return found


def test_no_module_binds_a_mutable_container_at_module_level():
    assert set().union(*(mutable_globals(p, t) for p, t in _modules())) == set()


def test_a_new_mutable_global_is_caught(tmp_path):
    tree = ast.parse("import weakref\nfrom collections import defaultdict\n"
                     "_SEEN = {}\n_ORDER: list = [1]\n"
                     "_KEYS = {k for k in 'ab'}\n"
                     "_TABLE = weakref.WeakKeyDictionary()\n"
                     "_COUNTS = defaultdict(int)\n_WORK = dict(n=1)\n"
                     "_FIXED = frozenset({'a'})\n_PAIR = (1, 2)\n_N = 3\n"
                     "def f():\n    cache = {}\n    return cache\n")
    assert mutable_globals(tmp_path / "user.py", tree) == {
        "user._SEEN", "user._ORDER", "user._KEYS", "user._TABLE",
        "user._COUNTS", "user._WORK"}


def uncalled_exports(exported, trees):
    """The names in exported that no tree references, as a variable or as
    an attribute."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return set(exported) - used - {"__version__"}


def test_exported_names_no_module_uses_are_listed():
    trees = [tree for _, tree in _modules()]
    assert uncalled_exports(nishigraph.__all__, trees) == set(UNCALLED_EXPORTS)


def test_a_new_uncalled_export_is_caught():
    tree = ast.parse("from . import qc\nfrom .sparse import girth\n"
                     "def lift(g):\n    return girth(g) + qc.ace(g)\n")
    assert uncalled_exports(["ace", "girth", "lift", "poles", "__version__"],
                            [tree]) == {"lift", "poles"}


def uncalled_methods(exported, trees):
    """"Class.name" for each public method or property of a class in
    exported that no tree references as an attribute.  Its blind spot: a
    name shared with any other attribute (a method zeros beside np.zeros)
    counts as used."""
    used = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return {f"{node.name}.{item.name}"
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name in exported
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_") and item.name not in used}


def test_public_methods_no_module_uses_are_listed():
    trees = [tree for _, tree in _modules()]
    assert uncalled_methods(nishigraph.__all__, trees) == set(UNCALLED_METHODS)


def test_a_new_uncalled_method_is_caught():
    tree = ast.parse("import numpy as np\n"
                     "class Graph:\n"
                     "    def __init__(self):\n        self.n = 0\n"
                     "    @property\n    def size(self):\n        return 1\n"
                     "    def zeros(self):\n        return np.zeros(2)\n"
                     "    def degrees(self):\n        return self.size\n"
                     "    def pairs(self):\n        return []\n"
                     "class _Hidden:\n    def loose(self):\n        pass\n")
    # degrees and pairs are caught; zeros is not, as np.zeros shares its name
    assert uncalled_methods(["Graph"], [tree]) == {"Graph.degrees",
                                                   "Graph.pairs"}
