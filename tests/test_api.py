"""The package's public API is what a run calls.

Every public top-level function or class in ``src/podflow`` and every public
method of a class there must be referenced somewhere in ``src/podflow``
outside its own definition. Names in ``__all__`` are strings and imports
are not references, so neither counts. A method counts as referenced only
through an attribute read, ``x.name``. When ``x`` is statically known, as
``self`` inside a class or a package class by name, the read counts for
that class's method alone; an attribute of a foreign module such as
``np.copy`` counts for none; any other ``x`` counts for every method called
``name``. A top-level function or class counts only through a bare name
read, ``name``, or an attribute read of a package module, ``module.name``.
So a variable, a foreign attribute or another class's method named like a
public name does not hide it. A function that only the tests call belongs
in the tests (``tests/oracles.py`` holds such reference implementations),
not in the package. The methods read only through receivers the rule cannot
resolve are pinned by name, so each new one is seen.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "podflow"

# Public names a run does not call, each kept for a stated reason.
KEPT_WITHOUT_CALLER = {
    "load_operators": "reads back the operators.bin artifact of a run",
    "supremizer_stability": "the recovery's inf-sup constant, which the run "
                            "record is to report",
    "assemble_load": "the reference the load tests compare a problem's loads "
                     "against, and the benchmark tracer's load-assembly target, "
                     "whose per-layer metrics are absent without it",
}

# Public methods whose every reference is a read through a receiver the rule
# cannot resolve (``problem.correct``, ``tab.stiffness``), so that any other
# method of the same name would count as their caller. Each new one shows
# up here, in review.
READ_THROUGH_UNRESOLVED_RECEIVERS_ONLY = {
    "assembly.py: StabilizationConfig.tau_velocity",
    "assembly.py: StabilizationConfig.tau_pressure",
    "assembly.py: _ElementTables.stiffness",
    "assembly.py: _ElementTables.convection",
    "assembly.py: _ElementTables.points",
    "assembly.py: _Scatter.matrix",
    "assembly.py: _ConvectionAction.matrix",
    "fe_space.py: FESpace.cell_dofs",
    "fe_space.py: FESpace.boundary_scalar_dofs",
    "fe_space.py: FESpace.signature",
    "fom.py: SeparableForcing.combine",
    "fom.py: FOMConfig.n_steps",
    "fom.py: FOMProblem.boundary_values",
    "fom.py: FOMProblem.load_shapes",
    "fom.py: FOMProblem.load_vector",
    "fom.py: FOMProblem.solve_coupled",
    "fom.py: FOMProblem.correct",
    "fom.py: _SaddleLayout.lifting",
    "fom.py: _SaddleLayout.solve",
    "fom.py: SnapshotSet.n_snapshots",
    "fom.py: SnapshotSet.raw_fields",
    "harness.py: GeometryConfig.build",
    "harness.py: ExperimentConfig.effective_rom_mu",
    "harness.py: ExperimentConfig.effective_rom_t_final",
    "mesh.py: Mesh.jacobians",
    "mesh.py: Mesh.area",
    "metrics.py: DragLiftProbe.coefficients",
    "pod.py: PODBasis.rank",
    "rom.py: ROMOperators.scheme",
    "rom.py: ROMOperators.r_pressure",
    "rom.py: ROMOperators.lift",
    "rom.py: ReducedStepper.forms",
    "rom.py: ReducedStepper.solve",
    "rom.py: PressureRecovery.fields",
    "rom.py: PressureRecovery.recover",
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


def _foreign_modules(tree, package):
    """Names bound to a module outside the package by ``import m`` or
    ``import m as n``."""
    return {a.asname or a.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for a in node.names} - package


def _receivers(tree):
    """{id of a Name node: its class} for each read of a method's first
    parameter (``self``, ``cls``) inside a top-level class of ``tree``."""
    out = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if (isinstance(item, ast.FunctionDef) and item.args.args
                    and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                for d in item.decorator_list)):
                first = item.args.args[0].arg
                out.update((id(n), cls.name) for n in ast.walk(item)
                           if isinstance(n, ast.Name) and n.id == first)
    return out


def _references(node, scope):
    """(bare names read, attribute reads) inside ``node``. ``scope`` holds
    the module's package and foreign module names, its ``self`` receivers
    and the package's class names. An attribute read is keyed by (class,
    name) when its receiver is statically known, ``self`` in a method or a
    package class by name, and by (None, name) when it is not. An attribute
    of a package module counts as a bare name; one of a foreign module as
    neither."""
    package, foreign, receivers, classes = scope
    bare, attributes = collections.Counter(), collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            bare[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            owner = None
            if isinstance(n.value, ast.Name):
                if n.value.id in package:
                    bare[n.attr] += 1
                    continue
                if n.value.id in foreign:
                    continue
                owner = receivers.get(id(n.value),
                                      n.value.id if n.value.id in classes else None)
            attributes[owner, n.attr] += 1
    return bare, attributes


def _public_definitions(tree):
    """(qualified name, simple name, node, class or None) of each public
    top-level function or class, and each public method of any top-level
    class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, node.name


def _reference_counts(modules):
    """("module: qualified name", counts) of each public definition: for a
    top-level name, its bare reads; for a method, its reads through (a
    receiver known to be its class, an unresolved receiver), its own
    definition's reads left out."""
    classes = {node.name for tree in modules.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    scopes = {}
    for name, tree in modules.items():
        package = _package_modules(tree, modules)
        scopes[name] = (package, _foreign_modules(tree, package), _receivers(tree), classes)
    total = [collections.Counter(), collections.Counter()]
    for name, tree in modules.items():
        for kind, counts in enumerate(_references(tree, scopes[name])):
            total[kind] += counts
    for module, tree in modules.items():
        for qualified, name, node, cls in _public_definitions(tree):
            own = _references(node, scopes[module])
            if cls is None:
                counts = (total[0][name] - own[0][name],)
            else:
                counts = tuple(total[1][key] - own[1][key] for key in ((cls, name), (None, name)))
            yield f"{module}: {qualified}", counts


def unreferenced_public_names(modules):
    return [name for name, counts in _reference_counts(modules) if sum(counts) <= 0]


def read_only_through_unresolved_receivers(modules):
    """The public methods whose every reference is a read through a receiver
    the rule cannot resolve, which counts for every method of that name."""
    return [name for name, counts in _reference_counts(modules)
            if len(counts) == 2 and counts[0] <= 0 < counts[1]]


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


def test_a_known_receiver_counts_for_its_own_class_alone():
    # a dead method named like another class's live one, or like a function
    # of a foreign module: each such read counted for it by name alone
    modules = {"m.py": ast.parse(
        "import numpy as np\n\n"
        "class Field:\n    def copy(self):\n        return 1\n\n"
        "    def scaled(self):\n        return 2\n\n"
        "class Mesh:\n    def copy(self):\n        return 2\n\n"
        "    def refine(self):\n        return self.copy(), Field.scaled(self)\n\n"
        "def run(mesh, x):\n    return mesh.refine(), np.copy(x), Field()\n\n"
        "run(Mesh(), 0)\n")}
    assert unreferenced_public_names(modules) == ["m.py: Field.copy"]


def test_the_methods_read_only_through_unresolved_receivers_are_pinned():
    got = read_only_through_unresolved_receivers(_modules())
    assert len(got) == len(set(got))
    assert set(got) == READ_THROUGH_UNRESOLVED_RECEIVERS_ONLY


def test_a_method_read_through_its_own_class_is_not_read_only_through_unresolved_ones():
    modules = {"m.py": ast.parse(
        "class Mesh:\n    def area(self):\n        return 1.0\n\n"
        "    def h(self):\n        return self.area()\n\n"
        "    def refine(self):\n        return 2\n\n"
        "def run(mesh):\n    return mesh.h(), mesh.refine(), Mesh.area(mesh)\n\n"
        "run(Mesh())\n")}
    assert read_only_through_unresolved_receivers(modules) == ["m.py: Mesh.h", "m.py: Mesh.refine"]
