"""Source hygiene: every name a package module imports is used there, every
private name one package module takes from another is listed, and so are
every exported name and every public method of an exported class that no
package module uses."""

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
