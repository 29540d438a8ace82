"""Command-line front end for the experiment pipeline.

``podflow`` exposes one subcommand per pipeline stage (``fom``, ``pod``,
``rom``), the refinement study under ``study``, and ``report`` for turning
run artifacts into summaries and plot scripts. Every run and study is driven
by a JSON configuration file plus optional ``--override section.key=value``
assignments, and writes into ``--out-dir`` (``out`` by default). Only the
full-order run resumes: ``pod`` and ``rom`` read its snapshots back from that
directory while the package source and the config sections they depend on
are unchanged (see ``podflow.harness``), and always build the bases; a new
``--out-dir`` recomputes everything. Exit codes: 0 on success, 1 on a
configuration or usage error, 2 on a runtime failure inside a stage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ConfigError,
    ExperimentConfig,
    StageError,
    convergence_study,
    read_csv,
    run_pipeline,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _load_config(args):
    return ExperimentConfig.from_json(args.config, overrides=args.override)


def cmd_fom(args):
    config = _load_config(args)
    result = run_pipeline(config, args.out_dir, stop_after="fom")
    qoi = result.fom_run.qoi
    print(f"full-order run: {qoi.shape[0]} recorded steps, "
          f"{result.vel_snapshots.n_snapshots} snapshots, "
          f"final E_kin={qoi[-1, 1]:.6g}")
    return EXIT_OK


def cmd_pod(args):
    config = _load_config(args)
    result = run_pipeline(config, args.out_dir, stop_after="pod")
    print(f"resumed stages: {', '.join(result.resumed) or 'none'}")
    basis = result.vel_basis
    eigs = basis.eigenvalues
    print(f"velocity basis: rank {basis.rank}, leading eigenvalue {eigs[0]:.6g}, "
          f"trailing eigenvalue {eigs[-1]:.6g}")
    return EXIT_OK


def cmd_rom(args):
    config = _load_config(args)
    result = run_pipeline(config, args.out_dir)
    print(f"resumed stages: {', '.join(result.resumed) or 'none'}")
    run = result.rom_run
    print(f"reduced run: r={result.operators.r}, {run.times.size - 1} steps, "
          f"final E_kin={run.energy_traj[-1]:.6g}, "
          f"final mu={run.mu_traj[-1]:.6g}")
    for row in result.error_table:
        print(f"  r={int(row[0])}: vel_error={row[1]:.6g} "
              f"pres_error={row[2]:.6g}")
    return EXIT_OK


def cmd_study_convergence(args):
    rows = convergence_study(_load_config(args), levels=args.levels, out_dir=args.out_dir)
    for nx, dt, error, order, _, _ in rows:
        print(f"nx={nx:4d} dt={dt:.3e} error={error:.6e} order={order:.3f}")
    print(f"interpolation orders: {[f'{row[5]:.3f}' for row in rows[1:]]}")
    if any(finer[2] >= coarser[2] for coarser, finer in zip(rows, rows[1:])):
        print("warning: the error sequence is not monotone")
    print(f"wrote {Path(args.out_dir) / 'convergence.csv'}")
    return EXIT_OK


_PLOT_SCRIPT = '''"""Plot {title} from {csv_name} (written next to this script)."""
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "{csv_name}") as fh:
    rows = list(csv.reader(fh))
header, data = rows[0], [[float(v) for v in row] for row in rows[1:]]
cols = {{name: [row[k] for row in data] for k, name in enumerate(header)}}

fig, ax = plt.subplots()
for name in {series!r}:
    ax.plot(cols["{x}"], cols[name], label=name)
ax.set_xlabel("{x}")
ax.set_title({title!r})
ax.legend()
fig.savefig(here / "{png_name}", dpi=150)
print("wrote", here / "{png_name}")
'''


def _write_plot_script(out, csv_name, x, series, title):
    stem = Path(csv_name).stem
    script = out / f"plot_{stem}.py"
    with open(script, "w") as fh:
        fh.write(_PLOT_SCRIPT.format(csv_name=csv_name, x=x, series=series,
                                     title=title, png_name=f"{stem}.png"))
    return script


def cmd_report(args):
    out = Path(args.out_dir)
    if not out.is_dir():
        raise ConfigError("report_missing", f"no run directory at {out}")
    summary = {}
    written = []

    qoi_path = out / "qoi.csv"
    if qoi_path.exists():
        header, data = read_csv(qoi_path)
        summary["fom_steps"] = int(data.shape[0])
        summary["fom_final_E_kin"] = float(data[-1, header.index("E_kin")])
        summary["fom_max_weak_div"] = float(
            np.nanmax(data[:, header.index("weak_div")]))
        written.append(_write_plot_script(
            out, "qoi.csv", "t", ["E_kin"], "full-order kinetic energy"))

    rom_path = out / "rom.csv"
    if rom_path.exists():
        header, data = read_csv(rom_path)
        summary["rom_steps"] = int(data.shape[0]) - 1
        summary["rom_final_E_kin"] = float(data[-1, header.index("E_kin")])
        e_diff = data[:, header.index("E_diff")]
        if np.any(np.isfinite(e_diff)):
            summary["rom_max_E_diff"] = float(np.nanmax(np.abs(e_diff)))
        a_norm = data[:, header.index("a_norm")]
        summary["rom_max_a_norm_ratio"] = float(a_norm.max() / max(a_norm[0], 1e-9))
        mu = data[:, header.index("mu")]
        summary["mu_changes"] = int(np.sum(np.diff(mu) != 0.0))
        summary["mu_final"] = float(mu[-1])
        written.append(_write_plot_script(
            out, "rom.csv", "t", ["E_kin", "mu"], "reduced run"))

    err_path = out / "errors.csv"
    if err_path.exists():
        header, data = read_csv(err_path)
        summary["error_table_sizes"] = [int(v) for v in data[:, 0]]
        summary["min_vel_error"] = float(np.nanmin(data[:, 1]))
        written.append(_write_plot_script(
            out, "errors.csv", "r", ["vel_error", "vel_indicator"],
            "reduced error against its indicator"))

    conv_path = out / "convergence.csv"
    if conv_path.exists():
        header, data = read_csv(conv_path)
        orders = data[1:, header.index("order")]
        summary["observed_orders"] = [float(v) for v in orders]
        written.append(_write_plot_script(
            out, "convergence.csv", "nx", ["error", "interp_error"],
            "refinement errors"))

    if not summary:
        raise ConfigError("report_empty", f"no known artifacts under {out}")
    with open(out / "report.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    for script in written:
        print(f"wrote {script}")
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def _add_config_arguments(parser):
    parser.add_argument("--config", required=True,
                        help="JSON experiment configuration")
    parser.add_argument("--out-dir", default="out",
                        help="artifact directory (default: out)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="config override such as rom.mu=0.4 (repeatable)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="podflow",
        description="Stabilized reduced-order models of incompressible flow")
    sub = parser.add_subparsers(dest="command", required=True)

    resumes = (" Only the full-order run resumes: its snapshots are read from the output "
               "directory while the source and the config they depend on (geometry, case "
               "and fom) are unchanged, and the bases are always built; a new --out-dir "
               "recomputes")
    for name, func, text, description in (
            ("fom", cmd_fom, "run the full-order solver", "It always runs afresh"),
            ("pod", cmd_pod, "extract the reduced bases",
             "Each basis keeps every mode above the rank cutoff." + resumes),
            ("rom", cmd_rom, "run the reduced model",
             "The rom section sets the sizes: rom.r and rom.r_values default to the "
             "velocity basis rank, the pressure size to min(r, pressure rank)." + resumes)):
        stage = sub.add_parser(name, help=text, description=f"{text}. {description}.")
        _add_config_arguments(stage)
        stage.set_defaults(func=func)

    p_study = sub.add_parser(
        "study", help="the refinement study",
        description="The refinement study. A longer reduced horizon or another adaptation "
                    "is another rom run (rom.t_final, rom.adaptive.enabled) into the same "
                    "--out-dir, which resumes the full-order run.")
    study_sub = p_study.add_subparsers(dest="study_command", required=True)

    text = "refinement study on the decaying vortex"
    p_conv = study_sub.add_parser(
        "convergence", help=text,
        description=f"{text}. The config is level 0 and must pose the taylor_green case; "
                    "level k multiplies geometry.nx and geometry.ny by 2^k and divides "
                    "fom.dt by 4^k; fom.snapshot_window may be left out. Writes "
                    "convergence.csv.")
    _add_config_arguments(p_conv)
    p_conv.add_argument("--levels", type=int, default=3,
                        help="number of refinement levels, at least 2 (default 3)")
    p_conv.set_defaults(func=cmd_study_convergence)

    p_report = sub.add_parser("report",
                              help="summarize artifacts and write plot scripts")
    p_report.add_argument("--out-dir", default="out",
                          help="run directory holding the CSV artifacts")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; report those as
        # configuration problems and keep 0 for --help.
        if exc.code not in (0, None):
            return EXIT_CONFIG
        return EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
