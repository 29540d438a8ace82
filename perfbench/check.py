"""Output check for one pipeline run.

A run passes when every artifact it lists exists and is non-empty, every
CSV value that must be finite is finite, and, on seed 0 at full size, the
``E_kin`` columns of ``qoi.csv`` and ``rom.csv`` and every entry of
``errors.csv`` match the stored references to 1e-8 * max(1, |ref|). Other
seeds and sizes have no reference; there the velocity error at the
largest r must not exceed the one at the smallest r.
"""

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
RTOL = 1e-8

REQUIRED = ("qoi.csv", "rom.csv", "errors.csv", "run_meta.json")


class CheckFailed(Exception):
    """The outputs of a run are wrong; the message says which."""


def read_csv(path):
    """Header and rows (floats) of a CSV artifact."""
    lines = [line for line in Path(path).read_text().splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not rows or any(len(row) != len(header) for row in rows):
        raise CheckFailed(f"{Path(path).name}: empty or ragged")
    return header, rows


def column(table, name):
    header, rows = table
    if name not in header:
        raise CheckFailed(f"column {name!r} missing")
    j = header.index(name)
    return [row[j] for row in rows]


def reference_values(out_dir):
    """The values the seed-0 check compares, read from a run's outputs."""
    out = Path(out_dir)
    return {
        "qoi_E_kin": column(read_csv(out / "qoi.csv"), "E_kin"),
        "rom_E_kin": column(read_csv(out / "rom.csv"), "E_kin"),
        "errors": read_csv(out / "errors.csv")[1],
    }


def _require_finite(values, what):
    bad = sum(1 for v in values if not math.isfinite(v))
    if bad:
        raise CheckFailed(f"{what}: {bad} non-finite values")


def check_outputs(out_dir, has_probe, reference=None):
    """Raise :class:`CheckFailed` unless the run in ``out_dir`` is correct.

    ``has_probe`` says whether drag and lift were computed (the case has an
    obstacle); without it those columns hold NaN by design.
    """
    out = Path(out_dir)
    listed = json.loads((out / "run_meta.json").read_text())["artifacts"]
    for name in set(REQUIRED) | set(listed.values()):
        path = out / name
        if not path.is_file() or path.stat().st_size == 0:
            raise CheckFailed(f"artifact {name} missing or empty")

    qoi = read_csv(out / "qoi.csv")
    rom = read_csv(out / "rom.csv")
    errors = read_csv(out / "errors.csv")
    probe_cols = ("c_D", "c_L")
    for label, table in (("qoi.csv", qoi), ("rom.csv", rom)):
        for name in table[0]:
            values = column(table, name)
            if name == "E_diff":
                values = values[1:]  # no reference energy at the start
            if name in probe_cols and not has_probe:
                continue
            _require_finite(values, f"{label}:{name}")
    for row in errors[1]:
        _require_finite(row, "errors.csv")

    if reference is None:
        vel = column(errors, "vel_error")
        if vel[-1] > vel[0]:
            raise CheckFailed(
                f"vel_error grows with r: {vel[0]:.3e} at the smallest r, "
                f"{vel[-1]:.3e} at the largest")
        return
    actual = reference_values(out)
    for key, ref in reference.items():
        got = actual[key]
        flat_ref = _flatten(ref)
        flat_got = _flatten(got)
        if len(flat_ref) != len(flat_got):
            raise CheckFailed(f"{key}: {len(flat_got)} values, reference has {len(flat_ref)}")
        for i, (g, r) in enumerate(zip(flat_got, flat_ref)):
            if not abs(g - r) <= RTOL * max(1.0, abs(r)):
                raise CheckFailed(f"{key}[{i}] = {g!r}, reference {r!r}")


def _flatten(values):
    out = []
    for v in values:
        out.extend(v if isinstance(v, list) else [v])
    return out


def load_reference(workload):
    """Stored seed-0 references of a workload, or None."""
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload)
