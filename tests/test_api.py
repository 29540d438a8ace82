"""The package's public API is what a run calls.

Every public top-level function or class in ``src/podflow`` and every public
method of a class there must be referenced somewhere in ``src/podflow``
outside its own definition. Names in ``__all__`` are strings and imports
are not references, so neither counts. A reference is matched by name
alone: ``x.name`` counts for every method called ``name``. A function that
only the tests call belongs in the tests (``tests/oracles.py`` holds such
reference implementations), not in the package.
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


def _references(node):
    """Names used inside ``node``: bare names and attribute names."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    """(qualified name, simple name, node) of each public top-level function
    or class, and each public method of any top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def unreferenced_public_names(modules):
    total = collections.Counter()
    for tree in modules.values():
        total += _references(tree)
    missing = []
    for module, tree in modules.items():
        for qualified, name, node in _public_definitions(tree):
            if total[name] - _references(node)[name] <= 0:
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
