"""The package's public API is what a run calls.

Every public top-level function or class in ``src/podflow`` and every public
method of a class there must be referenced somewhere in ``src/podflow``
outside its own definition. Names in ``__all__`` are strings and imports
are not references, so neither counts. A method counts as referenced only
through an attribute read, ``x.name``. When ``x`` is statically known, the
read counts for that class's method alone: ``self`` inside a class, a
package class by name, a constructor call ``C(...)``, a name that such a
call binds in the same function (every binding of it there being one), or
an attribute of ``self`` that such a call binds in the same class. An
attribute of a foreign module such as ``np.copy`` counts for none; any
other ``x`` counts for every method called ``name``. A top-level function or class counts only through a bare name
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
# cannot resolve (a parameter such as ``problem.correct``, the result of a
# function such as ``tab.stiffness``), so that any other method of the same
# name would count as their caller. Each new one shows up here, in review.
READ_THROUGH_UNRESOLVED_RECEIVERS_ONLY = {
    "assembly.py: StabilizationConfig.tau_velocity",
    "assembly.py: StabilizationConfig.tau_pressure",
    "assembly.py: _ElementTables.stiffness",
    "assembly.py: _ElementTables.convection",
    "assembly.py: _ElementTables.points",
    "assembly.py: _Scatter.matrix",
    "fe_space.py: FESpace.cell_dofs",
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


def _constructed(node, classes):
    """The package class that ``node`` constructs, ``C(...)``, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in classes:
        return node.func.id
    return None


def _bound_by_constructors(scopes, key, classes, blocked=()):
    """{target: class} of the targets whose every binding in ``scopes`` is a
    lone assignment of a constructor call of that one class. ``key`` gives
    the target a stored node binds, None for any other node; the targets in
    ``blocked`` are bound elsewhere, by a parameter or a class body."""
    found = collections.defaultdict(set)
    for target in blocked:
        found[target].add(None)
    for scope in scopes:
        assigned = {id(node.targets[0]): _constructed(node.value, classes)
                    for node in ast.walk(scope)
                    if isinstance(node, ast.Assign) and len(node.targets) == 1}
        for node in ast.walk(scope):
            if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)) and key(node):
                found[key(node)].add(assigned.get(id(node)))
    return {target: kinds.pop() for target, kinds in found.items()
            if len(kinds) == 1 and None not in kinds}


def _receivers(tree, classes):
    """{id of a receiver node: its class} in ``tree``: a read of a method's
    first parameter (``self``, ``cls``) inside a top-level class; a
    constructor call of a package class, ``C(...)``; a name that such a
    call binds in the same top-level function or method; and an attribute of
    ``self`` that such a call binds in the same class."""
    out = {id(n): _constructed(n, classes) for n in ast.walk(tree)
           if _constructed(n, classes)}
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [item for item in cls.body if isinstance(item, ast.FunctionDef)]
        functions += methods
        selves = set()
        for item in methods:
            if item.args.args and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                          for d in item.decorator_list):
                first = item.args.args[0].arg
                selves.update(id(n) for n in ast.walk(item)
                              if isinstance(n, ast.Name) and n.id == first)
        out.update(dict.fromkeys(selves, cls.name))
        own = lambda n: n.attr if isinstance(n, ast.Attribute) and id(n.value) in selves else None
        fields = [t.id for item in cls.body if isinstance(item, (ast.Assign, ast.AnnAssign))
                  for t in (item.targets if isinstance(item, ast.Assign) else [item.target])
                  if isinstance(t, ast.Name)]
        bound = _bound_by_constructors(methods, own, classes, fields)
        out.update((id(n), bound[own(n)]) for item in methods for n in ast.walk(item)
                   if isinstance(getattr(n, "ctx", None), ast.Load) and own(n) in bound)
    for function in functions:
        name = lambda n: n.id if isinstance(n, ast.Name) else None
        parameters = [a.arg for n in ast.walk(function) if isinstance(n, ast.arguments)
                      for a in n.posonlyargs + n.args + n.kwonlyargs + [n.vararg, n.kwarg] if a]
        bound = _bound_by_constructors([function], name, classes, parameters)
        out.update((id(n), bound[n.id]) for n in ast.walk(function)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in bound)
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
            name = n.value.id if isinstance(n.value, ast.Name) else None
            if name in package:
                bare[n.attr] += 1
            elif name not in foreign:
                attributes[receivers.get(id(n.value), name if name in classes else None),
                           n.attr] += 1
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
        scopes[name] = (package, _foreign_modules(tree, package), _receivers(tree, classes),
                        classes)
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


def test_a_receiver_a_constructor_call_binds_counts_for_its_class_alone():
    # a name, or an attribute of self, bound only by one class's constructor
    # in its function or class; a name bound otherwise stays unresolved
    modules = {"m.py": ast.parse(
        "class Space:\n    def dofs(self):\n        return 1\n\n"
        "    def size(self):\n        return 2\n\n"
        "    def shape(self):\n        return 3\n\n"
        "class Grid:\n    def dofs(self):\n        return 4\n\n"
        "    def size(self):\n        return 5\n\n"
        "    def shape(self):\n        return 6\n\n"
        "class Problem:\n    def __init__(self):\n        self.space = Space()\n\n"
        "    def count(self):\n        return self.space.dofs()\n\n"
        "def run(grid):\n    space = Space()\n    other = Space()\n    other = grid\n"
        "    return space.size(), other.shape(), Grid().size()\n\n"
        "run(Problem().count())\n")}
    assert unreferenced_public_names(modules) == ["m.py: Grid.dofs"]
    assert read_only_through_unresolved_receivers(modules) == [
        "m.py: Space.shape", "m.py: Grid.shape"]
