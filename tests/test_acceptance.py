"""Acceptance checks for the assembled laboratory.

Each test guards one advertised property of the snapshot-to-reduced-model
pipeline at a pinned tolerance and prints a single PASS or FAIL line. The
desk-scale cavity fixtures come from conftest; the remaining configurations
are local to the test that needs them.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kendalltau

from oracles import (
    apply_convection,
    pressure_recovery,
    solve_stokes,
    steady_forcing,
    strong_swirl,
    verify_spectral_identities,
)

from podflow.assembly import StabilizationConfig
from podflow.fom import (
    FlowCase,
    FOMConfig,
    FOMProblem,
    SnapshotSet,
    run_fom,
)
from podflow.harness import (
    ExperimentConfig,
    build_case,
    convergence_study,
    run_pipeline,
)
from podflow.mesh import build_rect_mesh
from podflow.metrics import discrete_l2_error, weak_divergence
from podflow.pod import build_basis, project_L2
from podflow.rom import (
    AdaptiveMuConfig,
    adapt_mu,
    build_rom_operators,
    compute_supremizers,
    run_rom,
    supremizer_stability,
)


# -- local configurations -----------------------------------------------------------


def periodic_raw():
    """Gently forced cavity whose window holds one full forcing period.

    Resolution and viscosity are chosen so the truncated reduced run drifts
    measurably from the reference energy over a long horizon, giving the
    adaptive penalty controller something to correct.
    """
    return {
        "geometry": {"nx": 6, "ny": 6},
        "case": {"name": "cavity",
                 "parameters": {"amplitude": 80.0, "period": 0.2}},
        "fom": {
            "scheme": "graddiv",
            "nu": 0.02,
            "dt": 2.5e-3,
            "t_final": 1.0,
            "stabilization": {"grad_div": 0.3},
            "snapshot_window": [0.8, 1.0],
            "snapshot_stride": 4,
        },
        "pod": {},
        "rom": {
            "r": 6,
            "adaptive": {
                "enabled": True,
                "mu_min": 0.05,
                "frequency": 5,
                "delta": 0.1,
                "tolerance": 0.03,
            },
        },
    }


def tiny_raw():
    """Smallest complete pipeline configuration."""
    return {
        "geometry": {"nx": 4, "ny": 4},
        "case": {"name": "cavity", "parameters": {"amplitude": 100.0}},
        "fom": {
            "scheme": "graddiv",
            "nu": 5e-3,
            "dt": 1e-2,
            "t_final": 0.06,
            "stabilization": {"grad_div": 0.3},
            "snapshot_window": [0.02, 0.06],
        },
        "pod": {},
        "rom": {"r": 2, "r_values": [1, 2]},
    }


# -- basis identities ---------------------------------------------------------------


def test_snapshot_tail_identities_hold_to_rounding(desk, report):
    worst_l2 = worst_h1 = 0.0
    m_min = np.inf
    elapsed = 0.0
    for scheme in ("lps", "graddiv"):
        result = desk[scheme]
        m_min = min(m_min, result.vel_snapshots.n_snapshots)
        start = time.perf_counter()
        for r in (1, 4, 8, 12, None):
            rep = verify_spectral_identities(
                result.vel_basis, result.vel_snapshots, result.problem.mass,
                result.problem.stiffness, r=r)
            worst_l2 = max(worst_l2, rep["l2_tail_residual"])
            worst_h1 = max(worst_h1, rep["h1_tail_residual"])
        elapsed += time.perf_counter() - start
    ok = m_min >= 20 and worst_l2 <= 1e-9 and worst_h1 <= 1e-9 and elapsed < 10.0
    report(
        "projection tails equal eigenvalue sums",
        ok,
        f"M={int(m_min)} snapshots, worst mass-norm residual {worst_l2:.1e}, "
        f"worst gradient-norm residual {worst_h1:.1e}, checked in {elapsed:.2f}s",
    )


def test_mode_span_satisfies_the_inverse_inequality(desk, report):
    violations = 0
    worst = -np.inf
    for scheme in ("lps", "graddiv"):
        result = desk[scheme]
        rep = verify_spectral_identities(
            result.vel_basis, result.vel_snapshots, result.problem.mass,
            result.problem.stiffness, n_samples=100, seed=0)
        violations += rep["inverse_violations"]
        worst = max(worst, rep["inverse_worst_margin"])
    ok = violations == 0
    report(
        "gradient norms below the spectral bound",
        ok,
        f"0 of 200 samples expected to violate, found {violations}; "
        f"worst margin {worst:.1e}",
    )


def test_convection_form_and_reduced_tensor_are_skew_symmetric(desk, report):
    result = desk["graddiv"]
    problem = result.problem
    space = problem.vel_space
    h1_form = problem.mass + problem.stiffness
    rng = np.random.default_rng(3)
    worst_form = 0.0
    for _ in range(100):
        cu = rng.standard_normal(space.n_dofs)
        cu[problem.constrained_velocity] = 0.0
        cv = rng.standard_normal(space.n_dofs)
        value = apply_convection(space, cu, cv, cv)
        norm_u = np.sqrt(cu @ (h1_form @ cu))
        norm_v = np.sqrt(cv @ (h1_form @ cv))
        worst_form = max(worst_form, abs(value) / (norm_u * norm_v**2))

    tensor = result.operators.convection_tensor
    scale = max(np.abs(tensor).max(), 1.0)
    worst_tensor = np.abs(tensor + np.swapaxes(tensor, 1, 2)).max() / scale
    ok = worst_form <= 1e-12 and worst_tensor <= 1e-12
    report(
        "convection is energy-neutral",
        ok,
        f"trilinear form residual {worst_form:.1e} over 100 triples, "
        f"reduced tensor asymmetry {worst_tensor:.1e}, both within 1e-12",
    )


# -- scheme contrast ----------------------------------------------------------------


def test_divergence_freedom_separates_the_two_schemes(desk, report):
    graddiv = desk["graddiv"]
    div_op = graddiv.problem.divergence
    pres_mass = graddiv.problem.pressure_mass
    snaps = graddiv.vel_snapshots.fields
    worst_snap = max(weak_divergence(snaps[:, j], div_op, pres_mass)
                     for j in range(snaps.shape[1]))
    iterates = graddiv.operators.vel_modes @ graddiv.rom_run.a_traj
    worst_iter = max(weak_divergence(iterates[:, j], div_op, pres_mass)
                     for j in range(iterates.shape[1]))

    lps = desk["lps"]
    lps_snaps = lps.vel_snapshots.fields
    least_lps = min(weak_divergence(lps_snaps[:, j], lps.problem.divergence,
                                    lps.problem.pressure_mass)
                    for j in range(lps_snaps.shape[1]))
    ok = worst_snap <= 1e-9 and worst_iter <= 1e-9 and least_lps > 1e-6
    report(
        "grad-div fields are weakly divergence-free, equal-order fields are not",
        ok,
        f"grad-div snapshots {worst_snap:.1e} and reduced iterates "
        f"{worst_iter:.1e} (both <= 1e-9); equal-order snapshots "
        f">= {least_lps:.1e} (> 1e-6)",
    )


# -- manufactured convergence -------------------------------------------------------


def _vortex_config(scheme):
    """Level 0 of the refinement: the decaying vortex on a 4 x 4 mesh."""
    return ExperimentConfig.from_dict({
        "geometry": {"nx": 4, "ny": 4},
        "case": {"name": "taylor_green"},
        "fom": {"scheme": scheme, "nu": 1e-2, "dt": 2e-2, "t_final": 0.08,
                "stabilization": {"grad_div": 0.3}, "snapshot_window": [0.0, 0.08]},
    })


def test_manufactured_convergence_orders_meet_targets(report):
    start = time.perf_counter()
    lps = convergence_study(_vortex_config("lps"), levels=3)
    graddiv = convergence_study(_vortex_config("graddiv"), levels=3)
    elapsed = time.perf_counter() - start
    lps_order = min(row[3] for row in lps[1:])
    graddiv_order = min(row[3] for row in graddiv[1:])
    # the orders are positive exactly when the errors fall level by level
    ok = lps_order >= 2.0 and graddiv_order >= 1.6 and elapsed < 600.0
    report(
        "decaying-vortex velocity errors converge at the advertised orders",
        ok,
        f"equal-order {lps_order:.2f} (>= 2.0), divergence-stable "
        f"{graddiv_order:.2f} (>= 1.6), interpolation control "
        f"{min(row[5] for row in lps[1:]):.2f}, {elapsed:.1f}s of 600s",
    )


# -- reduced-model exactness --------------------------------------------------------


def _zero_pair(x, y, t):
    return (np.zeros_like(x), np.zeros_like(x))


def _replay_errors(scheme):
    """Relative replay errors of a full-rank reduced run on a short cavity."""
    dt = 1e-2
    mesh = build_rect_mesh(1.0, 1.0, 6, 6)
    case = FlowCase(
        "enclosed",
        dirichlet={"inlet": _zero_pair, "outlet": _zero_pair, "wall": _zero_pair},
        forcing=strong_swirl,
        zero_mean_pressure=True,
    )
    config = FOMConfig(
        scheme=scheme, nu=5e-3, dt=dt, t_final=0.09,
        stabilization=StabilizationConfig(grad_div=0.3),
        snapshot_window=(0.045, 0.09),
    )
    problem = FOMProblem(mesh, config, case)
    run = run_fom(problem)
    vel_snaps, pres_snaps = run.snapshots
    vel_basis = build_basis(vel_snaps, problem.mass)
    pres_basis = build_basis(pres_snaps, problem.pressure_mass)
    times = vel_snaps.times
    ops = build_rom_operators(
        problem, vel_basis, pres_basis if scheme == "lps" else None)
    coeffs = np.column_stack([
        project_L2(vel_basis, problem.mass, vel_snaps.fields[:, j],
                   r=vel_basis.rank)
        for j in range(times.size)
    ])
    rom = run_rom(ops, times.size - 2, coeffs[:, 1], a_prev=coeffs[:, 0],
                  t_start=times[1], mu=problem.mu if scheme == "graddiv" else 0.0)

    recon = ops.vel_modes @ rom.a_traj
    fom_fields = vel_snaps.fields[:, 1:]
    err = discrete_l2_error(recon, fom_fields, problem.mass, dt)
    ref = discrete_l2_error(fom_fields, np.zeros_like(fom_fields),
                            problem.mass, dt)
    vel_rel = err / ref
    pres_rel = None
    if scheme == "lps":
        pres_fields = pres_snaps.fields[:, 2:]
        rom_pres = ops.pres_modes @ rom.b_traj[:, 1:]
        p_err = discrete_l2_error(rom_pres, pres_fields,
                                  problem.pressure_mass, dt)
        p_ref = discrete_l2_error(pres_fields, np.zeros_like(pres_fields),
                                  problem.pressure_mass, dt)
        pres_rel = p_err / max(p_ref, 1e-300)
    return vel_rel, pres_rel


def test_full_rank_reduced_runs_replay_their_snapshots(report):
    lps_vel, lps_pres = _replay_errors("lps")
    graddiv_vel, _ = _replay_errors("graddiv")
    ok = lps_vel <= 1e-6 and lps_pres <= 1e-6 and graddiv_vel <= 1e-6
    report(
        "full-rank reduced runs replay the projected trajectory",
        ok,
        f"relative errors: equal-order velocity {lps_vel:.1e}, pressure "
        f"{lps_pres:.1e}, divergence-stable velocity {graddiv_vel:.1e}, "
        f"all <= 1e-6",
    )


# -- indicator tracking -------------------------------------------------------------


def test_spectral_indicators_track_measured_errors(desk, report):
    taus = {}
    for scheme in ("lps", "graddiv"):
        rows = desk[scheme].error_table
        errors = [row[1] for row in rows]
        indicators = [row[3] for row in rows]
        taus[scheme] = float(kendalltau(errors, indicators).statistic)
    ok = all(tau >= 0.5 for tau in taus.values())
    report(
        "tail indicators rank reduced errors across basis sizes",
        ok,
        f"Kendall tau over r in (2,4,6,8,10,12): equal-order "
        f"{taus['lps']:.3f}, divergence-stable {taus['graddiv']:.3f}, "
        f"both >= 0.5",
    )


# -- pressure recovery and reduced stability ----------------------------------------


def _steady_stokes_recovery_error():
    """Worst relative recovered-pressure error over steady polynomial loads."""
    raw = {
        "geometry": {"nx": 8, "ny": 8},
        "case": {"name": "stokes_poly", "parameters": {}},
        "fom": {
            "scheme": "graddiv",
            "nu": 5e-2,
            "dt": 1e-2,
            "t_final": 0.05,
            "stabilization": {"grad_div": 0.4},
            "snapshot_window": [0.0, 0.05],
        },
        "pod": {},
        "rom": {},
    }
    config = ExperimentConfig.from_dict(raw)
    mesh = config.geometry.build()
    bundle = build_case(config)
    problem = FOMProblem(mesh, config.fom, bundle.flow_case)
    forcings = [
        bundle.flow_case.forcing,
        steady_forcing(lambda x, y: (np.sin(np.pi * y), np.sin(np.pi * x))),
        steady_forcing(lambda x, y: (np.cos(np.pi * x) * y, np.zeros_like(x))),
    ]
    velocities, pressures, loads = [], [], []
    for forcing in forcings:
        steady_case = FlowCase(
            problem.case.name, dirichlet=problem.case.dirichlet,
            forcing=forcing, zero_mean_pressure=True)
        steady = FOMProblem(problem.mesh, problem.config, steady_case)
        u, p = solve_stokes(steady)
        velocities.append(u)
        pressures.append(p)
        loads.append(steady.load_vector(0.0))
    vels = np.column_stack(velocities)
    pres = np.column_stack(pressures)
    times = np.zeros(len(forcings))  # steady solutions, each at t = 0
    vel_basis = build_basis(SnapshotSet("", times, vels), problem.mass)
    pres_basis = build_basis(SnapshotSet("", times, pres), problem.pressure_mass)
    supremizers = compute_supremizers(problem, pres_basis.modes)
    recovery = pressure_recovery(problem, vel_basis, pres_basis, supremizers)
    # steady Stokes: no convection (the basis is uncentred) and no time slope
    recovery.operators = replace(recovery.operators, convection_tensor=np.zeros_like(
        recovery.operators.convection_tensor))
    worst = 0.0
    for j, load in enumerate(loads):
        a = project_L2(vel_basis, problem.mass, vels[:, j], r=vel_basis.rank)
        b = recovery.recover(a, np.zeros_like(a), problem.mu, supremizers.T @ load)
        recovered = pres_basis.modes[:, :pres_basis.rank] @ b
        diff = recovered - pres[:, j]
        err = np.sqrt(diff @ (problem.pressure_mass @ diff))
        ref = np.sqrt(pres[:, j] @ (problem.pressure_mass @ pres[:, j]))
        worst = max(worst, err / ref)
    return worst


def test_supremizers_recover_pressure_and_stay_inf_sup_stable_on_desk(
        desk, report):
    recovery_err = _steady_stokes_recovery_error()

    result = desk["graddiv"]
    problem, pres_basis = result.problem, result.pres_basis
    supremizers = compute_supremizers(problem, pres_basis.modes)
    betas = np.array([
        supremizer_stability(
            supremizers[:, :r], pres_basis.modes[:, :r],
            problem.divergence, problem.mass, problem.stiffness)
        for r in range(1, 9)
    ])
    ok = recovery_err <= 1e-8 and np.all(betas > 0.0)
    report(
        "supremizer pressure recovery is exact and inf-sup stable on the "
        "desk cavity's pressure modes",
        ok,
        f"steady recovery error {recovery_err:.1e} (<= 1e-8); beta over "
        f"r in 1..8 spans [{betas.min():.4f}, {betas.max():.4f}] (> 0)",
    )


# -- adaptive penalty control -------------------------------------------------------


def test_adaptive_penalty_beats_a_constant_one_over_long_horizons(
        report, tmp_path):
    cfg = AdaptiveMuConfig(frequency=5, delta=0.1, tolerance=1e-3, mu_min=0.1)
    table = [1.0]
    mu_up, redo_up = adapt_mu(2.4, 1.0 + 5e-3, table, cfg, step_index=5)
    mu_hold, redo_hold = adapt_mu(2.4, 1.0 + 5e-4, table, cfg, step_index=5)
    mu_floor, redo_floor = adapt_mu(0.15, 1.0 - 5e-3, table, cfg, step_index=5)
    examples_ok = (
        mu_up == pytest.approx(2.5) and redo_up
        and mu_hold == 2.4 and not redo_hold
        and mu_floor == pytest.approx(0.1) and redo_floor
    )

    # Two pipeline calls into one directory over 10x the snapshot window
    # [0.8, 1.0]: the second, adaptive, resumes the first's full-order run.
    raw = periodic_raw()
    raw["rom"]["t_final"] = 2.8
    results = []
    for enabled in (False, True):
        raw["rom"]["adaptive"]["enabled"] = enabled
        results.append(run_pipeline(ExperimentConfig.from_dict(raw), tmp_path))
    constant, adaptive = (result.rom_run for result in results)
    e_constant, e_adaptive = (float(np.nanmax(np.abs(run.e_diff_traj)))
                              for run in (constant, adaptive))

    def blew_up(run):
        norms = np.linalg.norm(run.a_traj, axis=0)
        return norms.max() > 1e3 * max(norms[0], 1e-9)

    events = np.flatnonzero(np.diff(adaptive.mu_traj) != 0.0) + 1
    schedule_ok = events.size > 0 and np.all(events % 5 == 0)
    ok = (examples_ok and schedule_ok and results[1].resumed == ("fom",)
          and e_adaptive <= e_constant
          and not blew_up(constant) and not blew_up(adaptive))
    report(
        "adaptive penalty bounds the long-horizon energy drift",
        ok,
        f"update rule examples exact; over a 10x horizon max |E_diff| "
        f"adaptive {e_adaptive:.4f} <= constant "
        f"{e_constant:.4f}, {events.size} adaptation events, "
        f"no blow-ups, full-order run resumed",
    )


# -- determinism --------------------------------------------------------------------


def test_pipeline_reruns_are_byte_identical(report, tmp_path):
    for label in ("first", "second"):
        config = ExperimentConfig.from_dict(tiny_raw())
        run_pipeline(config, out_dir=tmp_path / label)
    names = sorted(p.name for p in (tmp_path / "first").glob("*.csv"))
    mismatched = [
        name for name in names
        if (tmp_path / "first" / name).read_bytes()
        != (tmp_path / "second" / name).read_bytes()
    ]
    ok = len(names) >= 3 and not mismatched
    report(
        "identical configs produce identical artifacts",
        ok,
        f"{len(names)} CSVs compared byte-for-byte, "
        f"mismatches: {mismatched or 'none'}",
    )
