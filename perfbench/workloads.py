"""Workload configs for the pipeline benchmark.

Each workload is one ``run_pipeline`` config. Seed 0 is the config exactly
as written here; any other seed scales the case's forcing amplitude,
forcing period and inflow speed by independent factors in [0.998, 1.002],
so the benchmark is not tuned to one input. The range is narrow because
the error at the largest r is sensitive to the period: a 1 % change moves
the desk velocity error by 9 %, and the error metrics must stay steady
across seeds. ``size="tiny"`` shrinks every
workload to a pipeline of well under a second that still runs every stage;
it is the warm-up run and the smoke test's size.
"""

import copy
import random

WORKLOADS = {
    # The desk forced cavity that Tier-1 runs: small mesh, many BDF2 steps,
    # a wide r sweep with supremizer pressure recovery, so the reduced
    # online phase and the error table carry a large share of the time.
    "desk_graddiv": {
        "geometry": {"nx": 8, "ny": 8},
        "case": {"name": "cavity",
                 "parameters": {"amplitude": 120.0, "period": 0.2}},
        "fom": {
            "scheme": "graddiv",
            "nu": 5e-3,
            "dt": 2.5e-3,
            "t_final": 0.4,
            "stabilization": {"grad_div": 0.3},
            "snapshot_window": [0.2, 0.4],
            "snapshot_stride": 4,
        },
        "pod": {},
        "rom": {"r_values": [2, 4, 6, 8, 10, 12]},
    },
    # The same cavity on the coupled LPS scheme at nx = 32: few steps, each
    # dominated by the sparse LU of the saddle-point system.
    "cavity_lps_nx32": {
        "geometry": {"nx": 32, "ny": 32},
        "case": {"name": "cavity",
                 "parameters": {"amplitude": 120.0, "period": 0.2}},
        "fom": {
            "scheme": "lps",
            "nu": 5e-3,
            "dt": 2.5e-3,
            "t_final": 0.03,
            "snapshot_window": [0.0, 0.03],
            "snapshot_stride": 1,
        },
        "pod": {},
        "rom": {"r_values": [2, 4, 8]},
    },
    # The holed channel with implicit Euler in both models: several Picard
    # solves per step, the drag/lift probe, and centred POD.
    "channel_picard": {
        "geometry": {"width": 2.0, "height": 1.0, "nx": 16, "ny": 8,
                     "hole": [0.5, 0.375, 0.625, 0.625]},
        "case": {"name": "channel",
                 "parameters": {"u_max": 0.3, "pulse_amplitude": 5.0,
                                "pulse_period": 0.1}},
        "fom": {
            "scheme": "graddiv",
            "nu": 2e-3,
            "dt": 5e-3,
            "t_final": 0.24,
            "time_integrator": "implicit_euler",
            "snapshot_window": [0.08, 0.24],
            "snapshot_stride": 1,
        },
        "pod": {"center": True},
        "rom": {"integrator": "implicit_euler", "r_values": [1, 2, 3, 4]},
    },
}

# Case parameters a seed may scale.
_SCALED = ("amplitude", "period", "u_max", "pulse_amplitude", "pulse_period")

# Per-workload overrides for the tiny size: the tiny cavity of the test
# suite (nx = 4, a few steps), and the channel on its coarsest mesh that
# still aligns with the hole, for three steps.
_TINY = {
    "desk_graddiv": {"geometry": {"nx": 4, "ny": 4},
                     "fom": {"t_final": 0.06, "dt": 1e-2,
                             "snapshot_window": [0.02, 0.06],
                             "snapshot_stride": 1},
                     "rom": {"r_values": [1, 2]}},
    "cavity_lps_nx32": {"geometry": {"nx": 4, "ny": 4},
                        "fom": {"t_final": 0.03, "dt": 1e-2,
                                "snapshot_window": [0.0, 0.03]},
                        "rom": {"r_values": [1, 2]}},
    "channel_picard": {"fom": {"t_final": 0.03, "dt": 1e-2,
                               "snapshot_window": [0.0, 0.03]},
                       "rom": {"r_values": [1, 2]}},
}


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def workload_config(name, seed=0, size="full"):
    """Raw config dict of one workload for a seed and size."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    raw = _merge(copy.deepcopy(WORKLOADS[name]),
                 _TINY[name] if size == "tiny" else {})
    if seed != 0:
        rng = random.Random(f"{name}:{seed}")
        params = raw["case"]["parameters"]
        for key in _SCALED:
            if key in params:
                params[key] = params[key] * rng.uniform(0.998, 1.002)
    return raw
