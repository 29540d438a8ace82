"""Compare the artifacts of two pipeline runs, file by file.

    python tools/compare_runs.py DIR_A DIR_B [--rtol RTOL]

Every file under either directory is reported as one of, after the
``source_sha256`` key is taken out of a JSON object that has it (the
digest of the source that wrote ``run_meta.json``, which differs between
any two trees whose outputs are compared):

- ``identical``: the bytes are equal;
- ``csv``: a table with the same header and row count, with the largest
  relative differences of each column;
- ``container``: a podflow binary container with the same metadata and
  arrays, with each array bitwise equal or its largest relative differences;
  a metadata value that is a float on both sides is reported like an array;
- ``differs``: a JSON object (such as ``run_meta.json``) whose bytes
  differ. The keys only one side has are listed, and the value of each
  shared key is reported as equal, by its relative differences when it is
  a number on both sides, or as differing (inf). A shared value that is an
  object on both sides and differs is reported the same way key by key,
  under dotted names such as ``config.fom.nu``, at any depth. The file
  always counts as differing, but its gate figure comes from the shared
  values alone;
- ``differs``: anything else that is not byte-identical (another kind of
  file, a changed header, or a file only one side has). For a container
  whose header changed, the metadata keys that differ, the arrays only one
  side has and the shared arrays whose shape differs are listed, and each
  shared array is reported as above, one whose shape differs as inf; such a
  container always counts as differing, but its gate figure comes from its
  shared arrays alone, as a JSON object's comes from its shared values. Any
  other such file reads inf.

Each differing column or array gets two relative differences, with ``a``
from DIR_A (the reference run); two nan entries agree. ``max rel diff``,
the gate, is the largest ``|a - b| / max(1, |a|)``: for an entry below 1
that is the absolute difference, so an error of 6.4e-6 that moved by
9e-13 relative reads 5.8e-18. ``column rel diff`` is the largest
``|a - b|`` over the largest ``|a|`` of the column or array, one figure
for the whole of it: it shows how far small values moved against their
column's size, and a near-zero entry of a velocity mode cannot inflate
it. A change to a column of zeros reads inf. The exit status is 0 when
no file differs and no gate difference exceeds ``--rtol`` (default 0:
bitwise equal values), and 1 otherwise.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from podflow.container import ContainerError, read_container  # noqa: E402

SKIPPED_KEY = "source_sha256"


def comparable_bytes(path):
    """The bytes of ``path``; for a JSON object with ``SKIPPED_KEY``, those
    of the same object written without it as the pipeline writes
    ``run_meta.json`` (indented by 2, keys sorted, a closing newline)."""
    data = Path(path).read_bytes()
    if Path(path).suffix == ".json" and SKIPPED_KEY.encode() in data:
        try:
            obj = json.loads(data)
        except ValueError:
            return data
        if isinstance(obj, dict) and obj.pop(SKIPPED_KEY, None) is not None:
            return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    return data


def relative_differences(a, b):
    """The largest ``|a - b| / max(1, |a|)`` over two equal-shape arrays,
    and the largest ``|a - b|`` over the largest ``|a|`` (inf for a change
    to all zeros); an entry nan on one side only differs by inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differ.any():
        return 0.0, 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(a[differ] - b[differ])
        gate = (gap / np.maximum(1.0, np.abs(a[differ]))).max()
        column = gap.max() / np.abs(a[~np.isnan(a)]).max(initial=0.0)
    return tuple(math.inf if math.isnan(v) else float(v) for v in (gate, column))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh)) or [[]]
    return rows[0], rows[1:]


def _compare_csv(path_a, path_b):
    """{column: largest relative differences}, or None when the tables do
    not line up."""
    (head_a, rows_a), (head_b, rows_b) = _read_csv(path_a), _read_csv(path_b)
    if head_a != head_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    out = {}
    for k, name in enumerate(head_a):
        col_a, col_b = [r[k] for r in rows_a], [r[k] for r in rows_b]
        try:
            out[name] = relative_differences([float(v) for v in col_a],
                                             [float(v) for v in col_b])
        except ValueError:
            out[name] = (0.0, 0.0) if col_a == col_b else (math.inf, math.inf)
    return out


def _compare_container(path_a, path_b):
    """(notes on how the headers differ, {shared array or float metadata
    value: largest relative differences, zeros when bitwise equal}). The
    notes list the metadata keys that differ, the arrays only one side has
    and the shared arrays whose shape differs, which read inf; a metadata
    key whose values are both floats is compared as a value, not listed."""
    (meta_a, arrays_a), (meta_b, arrays_b) = read_container(path_a), read_container(path_b)
    changed = sorted(k for k in meta_a.keys() | meta_b.keys() if meta_a.get(k) != meta_b.get(k))
    values = {k: relative_differences(meta_a[k], meta_b[k]) for k in changed
              if isinstance(meta_a.get(k), float) and isinstance(meta_b.get(k), float)}
    shared = [name for name in arrays_a if name in arrays_b]
    reshaped = [name for name in shared if arrays_a[name].shape != arrays_b[name].shape]
    notes = [f"{label}: {', '.join(names)}" for label, names in (
        ("metadata differs", [k for k in changed if k not in values]),
        ("arrays only in DIR_A", [n for n in arrays_a if n not in arrays_b]),
        ("arrays only in DIR_B", [n for n in arrays_b if n not in arrays_a]),
        ("array shapes differ", reshaped)) if names]
    parts = {name: (math.inf, math.inf) if name in reshaped
             else (0.0, 0.0) if arrays_a[name].tobytes() == arrays_b[name].tobytes()
             else relative_differences(arrays_a[name], arrays_b[name]) for name in shared}
    return notes, {**parts, **{f"{k} (metadata)": v for k, v in values.items()}}


def _compare_json(path_a, path_b):
    """(keys only in DIR_A, keys only in DIR_B, {shared key: largest relative
    differences}) of two JSON objects, in key order. A shared value that is
    an object on both sides and differs is compared key by key under dotted
    names, at any depth; any other shared value that is not a number on both
    sides and differs reads inf. None when either file is not a JSON object."""
    try:
        obj_a, obj_b = (json.loads(comparable_bytes(p)) for p in (path_a, path_b))
    except ValueError:
        return None
    if not (isinstance(obj_a, dict) and isinstance(obj_b, dict)):
        return None
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    only_a, only_b, shared = [], [], {}

    def walk(a, b, prefix):
        for key in sorted(a.keys() | b.keys()):
            name = prefix + key
            if key not in b:
                only_a.append(name)
            elif key not in a:
                only_b.append(name)
            elif isinstance(a[key], dict) and isinstance(b[key], dict) and a[key] != b[key]:
                walk(a[key], b[key], name + ".")
            elif number(a[key]) and number(b[key]):
                shared[name] = relative_differences(a[key], b[key])
            else:
                shared[name] = (0.0, 0.0) if a[key] == b[key] else (math.inf, math.inf)

    walk(obj_a, obj_b, "")
    return only_a, only_b, shared


class Comparison(NamedTuple):
    """What :func:`compare_dirs` found: the largest gate and column relative
    differences, the ``file:part`` whose column figure is the largest (the
    file alone when the whole file set it; None when nothing differs), and
    the files reported as ``differs``."""

    gate: float
    column: float
    column_at: str
    differs: list


def compare_dirs(dir_a, dir_b):
    """Print one report line per file (and per column, array or key);
    return a :class:`Comparison`. A file that differs counts with inf
    relative differences, except a JSON object, which counts with those of
    its shared values, and a container whose arrays line up, which counts
    with those of its arrays."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file()})
    worst = column = 0.0
    column_at, differs = None, []

    def record(value, part_column, at):
        nonlocal worst, column, column_at
        worst = max(worst, value)
        if part_column > column:
            column, column_at = part_column, at

    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.is_file() and path_b.is_file()):
            side = "DIR_A" if path_a.is_file() else "DIR_B"
            print(f"differs    {name} (only in {side})")
            differs.append(name)
            record(math.inf, math.inf, name)
            continue
        if comparable_bytes(path_a) == comparable_bytes(path_b):
            print(f"identical  {name}")
            continue
        kind, parts, notes = None, None, []
        if name.endswith(".csv"):
            kind, parts = "csv", _compare_csv(path_a, path_b)
        elif name.endswith(".bin"):
            kind = "container"
            try:
                notes, parts = _compare_container(path_a, path_b)
            except ContainerError:
                pass
        elif name.endswith(".json") and (found := _compare_json(path_a, path_b)):
            kind, (*only, parts) = "json", found
            notes = [f"keys only in {side}: {', '.join(keys)}"
                     for side, keys in zip(("DIR_A", "DIR_B"), only) if keys]
        # a JSON object or a changed container header always differs, with
        # the gate of its shared values or arrays
        if parts is None or notes or kind == "json":
            print(f"differs    {name}")
            differs.append(name)
            if parts is None:
                record(math.inf, math.inf, name)
        else:
            print(f"{kind:<10} {name}")
        for note in notes:
            print(f"    {note}")
        for part, (value, part_column) in (parts or {}).items():
            equal = "bitwise equal" if kind == "container" else "equal"
            text = equal if value == 0.0 else (
                f"column rel diff {part_column:.3e}, max rel diff {value:.3e}")
            print(f"    {part}: {text}")
            record(value, part_column, f"{name}:{part}")
    return Comparison(worst, column, column_at, differs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare the artifacts of two pipeline runs.")
    parser.add_argument("dir_a", help="reference run directory")
    parser.add_argument("dir_b", help="run directory compared with it")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest accepted relative difference (default 0)")
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not Path(d).is_dir():
            parser.error(f"{d} is not a directory")
    found = compare_dirs(args.dir_a, args.dir_b)
    within = found.gate <= args.rtol
    print(f"worst relative difference {found.gate:.3e} (column {found.column:.3e}): "
          f"{'within' if within else 'ABOVE'} rtol {args.rtol:.1e}"
          + (f"; files that differ: {', '.join(found.differs)}" if found.differs else ""))
    return 0 if within and not found.differs else 1


if __name__ == "__main__":
    sys.exit(main())
