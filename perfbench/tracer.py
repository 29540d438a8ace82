"""Spans around the public functions of each podflow layer.

The benchmark does not rely on instrumentation inside the program. While a
:class:`Tracer` is installed it replaces every binding of the wrapped
functions in the loaded ``podflow`` modules (and ``splu`` in
``scipy.sparse.linalg``) with a wrapper that records one span per call:
its name, start, end and the span that was open when it was called. Spans
stay in memory; :func:`layer_metrics` turns them into the per-layer
metrics after the run.

A target that no longer exists under its name is recorded as missing, and
the metrics that need it are left out instead of failing the run.
"""

import contextlib
import functools
import statistics
import sys
import time

# Span name -> how to find the callable. ``"name"`` is a function of that
# name in any podflow module, ``"Class.method"`` a method of a podflow
# class, ``"module:name"`` a function in a named module.
TARGETS = {
    "run_fom": "run_fom",
    "solve_coupled": "FOMProblem.solve_coupled",
    "splu": "scipy.sparse.linalg:splu",
    "convection_matrix": "convection_matrix",
    "assemble_load": "assemble_load",
    "build_basis": "build_basis",
    "project_L2": "project_L2",
    "build_rom_operators": "build_rom_operators",
    "recovery_init": "PressureRecovery.__init__",
    "run_rom": "run_rom",
    "step_rom": "step_rom",
    "step_rom_implicit": "step_rom_implicit",
    "reduce_forcing": "reduce_forcing",
    "recovery_forcing": "PressureRecovery.reduce_forcing",
    "recover": "PressureRecovery.recover",
    "probe": "DragLiftProbe.coefficients",
    "error_table": "reduced_error_table",
}

# Reported with each span: how much work the call did, read from its result.
_UNITS = {
    "run_fom": lambda result: len(result.times),
    "run_rom": lambda result: len(result.times) - 1,
}


def _podflow_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "podflow" or n.startswith("podflow."))]


def _find(locator):
    """Return (owner, attribute, callable) for a locator, or None."""
    if ":" in locator:
        module_name, attr = locator.split(":")
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        return (module, attr, fn) if callable(fn) else None
    if "." in locator:
        cls_name, attr = locator.split(".")
        for module in _podflow_modules():
            cls = vars(module).get(cls_name)
            if isinstance(cls, type) and callable(vars(cls).get(attr)):
                return cls, attr, vars(cls)[attr]
        return None
    for module in _podflow_modules():
        fn = vars(module).get(locator)
        if callable(fn) and getattr(fn, "__name__", None) == locator:
            # the defining module, not a package that re-exports the name
            home = sys.modules.get(getattr(fn, "__module__", ""), module)
            return home, locator, fn
    return None


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, units]
        self.missing = set()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        units = _UNITS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if units is not None:
                with contextlib.suppress(AttributeError, TypeError):
                    span[4] = units(result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every target, plus the ``save_*`` and ``write_csv`` calls of
        the module that defines ``run_pipeline`` as span ``io``."""
        for name, locator in TARGETS.items():
            found = _find(locator)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            modules = _podflow_modules()
            for module in ([] if owner in modules else [owner]) + modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        home = _find("run_pipeline")
        if home is None:
            self.missing.add("io")
            return self
        module = home[0]
        for key, value in list(vars(module).items()):
            if callable(value) and (key.startswith("save_") or key == "write_csv"):
                self._patch(module, key, self._wrap("io", value))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- queries over the recorded spans --------------------------------------

    def _ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def select(self, names, under=None):
        """Spans of any of ``names``; only those called inside a span named
        ``under`` when given. Spans nested in a span of the same names are
        dropped, so recursion is not counted twice."""
        names = {names} if isinstance(names, str) else set(names)
        present = names - self.missing
        if not present:
            raise MissingTarget(sorted(names))
        if under is not None and under in self.missing:
            raise MissingTarget([under])
        out = []
        for i, span in enumerate(self.spans):
            if span[0] not in present:
                continue
            ancestors = set(self._ancestors(i))
            if under is not None and under not in ancestors:
                continue
            if ancestors & present:
                continue
            out.append(span)
        return out


class MissingTarget(LookupError):
    """A metric needs a span whose target could not be found."""


def _total(spans):
    return sum(s[2] - s[1] for s in spans)


def _mean_ms(spans):
    return 1e3 * _total(spans) / len(spans) if spans else 0.0


def layer_metrics(tracer, wall_s, bytes_written):
    """Per-layer metrics of one traced pipeline run.

    Times named ``*_ms`` are per call (per step for ``fom.step_ms`` and
    ``rom.online_step_ms``), ``*_s`` are totals over the run, ``*_share``
    are fractions of the enclosing stage. A metric whose spans are missing
    is absent from the result.
    """
    t = tracer
    rules = {
        "harness.fom_s": lambda: _total(t.select("run_fom")),
        "harness.pod_s": lambda: _total(t.select("build_basis")),
        "harness.errors_s": lambda: _total(t.select("error_table")),
        "harness.io_s": lambda: _total(t.select("io")),
        "harness.bytes_written": lambda: bytes_written,
        "harness.unattributed_s": lambda: wall_s - _total(t.select(
            ("run_fom", "build_basis", "error_table", "io"))),
        "fom.steps": lambda: sum(s[4] for s in t.select("run_fom")),
        "fom.step_ms": lambda: 1e3 * (
            _total(t.select("run_fom"))
            - _optional_total(t, "probe", under="run_fom")) / metrics["fom.steps"],
        "fom.solves": lambda: len(t.select("solve_coupled", under="run_fom")),
        "fom.solves_per_step": lambda: metrics["fom.solves"] / metrics["fom.steps"],
        "fom.solve_ms": lambda: _mean_ms(t.select("solve_coupled", under="run_fom")),
        "fom.factorizations": lambda: len(t.select("splu", under="run_fom")),
        "fom.factor_ms": lambda: _mean_ms(t.select("splu", under="run_fom")),
        "fom.factor_share": lambda: _total(t.select("splu", under="run_fom"))
            / _total(t.select("run_fom")),
        "assembly.convection_calls": lambda: len(t.select("convection_matrix")),
        "assembly.convection_ms": lambda: _mean_ms(t.select("convection_matrix")),
        "assembly.load_calls": lambda: len(t.select("assemble_load")),
        "assembly.load_ms": lambda: _mean_ms(t.select("assemble_load")),
        "pod.basis_ms": lambda: _mean_ms(t.select("build_basis")),
        "pod.project_calls": lambda: len(t.select("project_L2")),
        "rom.builds": lambda: len(t.select("build_rom_operators")),
        "rom.build_ms": lambda: _mean_ms(t.select("build_rom_operators")),
        "rom.recovery_builds": lambda: len(t.select("recovery_init")),
        "rom.recovery_build_ms": lambda: _mean_ms(t.select("recovery_init")),
        "rom.steps": lambda: sum(s[4] for s in t.select("run_rom")),
        "rom.online_step_ms": lambda: 1e3 * _total(t.select("run_rom"))
            / metrics["rom.steps"],
        "rom.solve_ms": lambda: _mean_ms(t.select(("step_rom", "step_rom_implicit"))),
        "rom.forcing_ms": lambda: _mean_ms(t.select(("reduce_forcing", "recovery_forcing"))),
        "rom.forcing_share": lambda: _total(t.select("reduce_forcing", under="run_rom"))
            / _total(t.select("run_rom")),
        "rom.recover_ms": lambda: _mean_ms(t.select("recover")),
        "rom.speedup": lambda: metrics["fom.step_ms"] / metrics["rom.online_step_ms"],
        "metrics.probe_calls": lambda: len(t.select("probe")),
        "metrics.probe_ms": lambda: _mean_ms(t.select("probe")),
    }
    metrics = {}
    for name, rule in rules.items():
        try:
            metrics[name] = float(rule())
        except (MissingTarget, KeyError, TypeError, ZeroDivisionError):
            continue
    return metrics


def _optional_total(tracer, name, under):
    try:
        return _total(tracer.select(name, under=under))
    except MissingTarget:
        return 0.0


def median_metrics(samples):
    """Median of each metric over several traced runs (present in all)."""
    names = set.intersection(*(set(s) for s in samples)) if samples else set()
    return {n: statistics.median(s[n] for s in samples) for n in names}
