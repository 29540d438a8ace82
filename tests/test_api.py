"""The package's public API is what a run calls.

Every public top-level function or class in ``src/podflow`` and every public
method of a class there must be referenced somewhere in ``src/podflow``
outside its own definition. Names in ``__all__`` are strings and imports
are not references, so neither counts. A method counts as referenced only
through an attribute read, ``x.name`` (for every method called ``name``,
whatever ``x`` is); a top-level function or class only through a bare name
read, ``name``, or an attribute read of a package module, ``module.name``.
So a variable or a foreign attribute named like a public name does not
hide it. A function that only the tests call belongs in the tests
(``tests/oracles.py`` holds such reference implementations), not in the
package.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "podflow"

# Public names a run does not call, each kept for a stated reason.
KEPT_WITHOUT_CALLER = {
    "load_mesh": "reads back the mesh.txt artifact of a run",
    "load_snapshots": "reads back the snapshots_*.bin artifacts of a run",
    "load_basis": "reads back the basis_*.bin artifacts of a run",
    "load_operators": "reads back the operators.bin artifact of a run",
    "supremizer_stability": "the recovery's inf-sup constant, which the run "
                            "record is to report",
}


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _package_modules(tree, modules):
    """Names bound to a package module in ``tree``: ``from . import m``,
    ``import podflow.m as m`` and the like."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "podflow"):
            names.update(a.asname or a.name for a in node.names
                         if f"{a.name}.py" in modules)
        elif isinstance(node, ast.Import):
            names.update(a.asname for a in node.names
                         if a.asname and a.name.startswith("podflow."))
    return names


def _references(node, module_names):
    """(bare names read, attribute names read) inside ``node``; an
    attribute of a name in ``module_names`` counts as a bare name."""
    bare, attributes = collections.Counter(), collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            bare[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attributes[n.attr] += 1
            if isinstance(n.value, ast.Name) and n.value.id in module_names:
                bare[n.attr] += 1
    return bare, attributes


def _public_definitions(tree):
    """(qualified name, simple name, node, is a method) of each public
    top-level function or class, and each public method of any top-level
    class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def unreferenced_public_names(modules):
    module_names = {name: _package_modules(tree, modules) for name, tree in modules.items()}
    total = [collections.Counter(), collections.Counter()]
    for name, tree in modules.items():
        for kind, counts in enumerate(_references(tree, module_names[name])):
            total[kind] += counts
    missing = []
    for module, tree in modules.items():
        for qualified, name, node, is_method in _public_definitions(tree):
            own = _references(node, module_names[module])[is_method]
            if total[is_method][name] - own[name] <= 0:
                missing.append(f"{module}: {qualified}")
    return missing


def test_every_public_name_has_a_caller_in_the_package():
    missing = [m for m in unreferenced_public_names(_modules())
               if m.split(": ")[1] not in KEPT_WITHOUT_CALLER]
    assert not missing, "public but called only from outside src/: " + ", ".join(missing)


def test_every_kept_name_still_exists_without_a_caller():
    # an exemption outlives neither its name nor the absence of a caller
    unreferenced = {m.split(": ")[1] for m in unreferenced_public_names(_modules())}
    assert set(KEPT_WITHOUT_CALLER) <= unreferenced


def test_a_reference_inside_its_own_definition_does_not_count():
    modules = {"m.py": ast.parse(
        "def f(n):\n    return f(n - 1) if n else 0\n\n"
        "def g():\n    return h()\n\n"
        "def h():\n    return 1\n\n"
        "class C:\n    def used(self):\n        return self.unused\n\n"
        "    def unused(self):\n        return self.used()\n\n"
        "__all__ = ['f']\n")}
    assert unreferenced_public_names(modules) == ["m.py: f", "m.py: g", "m.py: C"]


def test_only_a_reference_of_the_right_kind_counts():
    # a variable named like a method, or an attribute of a foreign object
    # named like a function, is not a reference to it
    modules = {
        "m.py": ast.parse(
            "import numpy as np\n\n"
            "class Mesh:\n    def h(self):\n        return 1.0\n\n"
            "    def area(self):\n        return 2.0\n\n"
            "def copy(x):\n    return x\n\n"
            "def used_through_module():\n    return 0\n\n"
            "def run(mesh, x):\n    h = mesh.area()\n    return h, np.copy(x)\n"),
        "n.py": ast.parse(
            "from . import m\n\n"
            "def main():\n    return m.run(m.Mesh(), m.used_through_module())\n\n"
            "main()\n"),
    }
    assert unreferenced_public_names(modules) == ["m.py: Mesh.h", "m.py: copy"]
