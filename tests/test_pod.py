import numpy as np
import pytest

from oracles import verify_spectral_identities

from podflow.assembly import assemble_mass, assemble_stiffness
from podflow.container import read_container
from podflow.fe_space import FESpace, interpolate
from podflow.fom import SnapshotSet
from podflow.mesh import build_rect_mesh
from podflow.pod import (
    PODBasis,
    build_basis,
    project_L2,
    reduced_stiffness,
    save_basis,
)


def snapshot_set(space, fields):
    """``fields`` as the snapshot set of ``space``, one per unit time."""
    return SnapshotSet(space.signature(), np.arange(fields.shape[-1], dtype=float), fields)


def cavity_setup(seed=0, n_source=6, m=12):
    """Snapshots as random combinations of smooth fields of known rank."""
    rng = np.random.default_rng(seed)
    mesh = build_rect_mesh(1.0, 1.0, 4, 4)
    space = FESpace(mesh, degree=2, components=2)
    mass = assemble_mass(space)
    stiffness = assemble_stiffness(space)
    sources = []
    for k in range(1, n_source + 1):
        field = interpolate(
            space,
            lambda x, y, t, k=k: (
                np.sin(k * x + 0.3 * k) * np.cos((k + 1) * y),
                np.cos(k * y - 0.2) * np.sin((k + 2) * x),
            ),
            0.0,
        )
        sources.append(field)
    fields = np.column_stack(sources) @ rng.normal(size=(n_source, m))
    snaps = snapshot_set(space, fields)
    return space, mass, stiffness, snaps


def reconstruct(basis, coefficients):
    """Full-order coefficients of a reduced state, the mean added back."""
    out = basis.modes[:, : coefficients.size] @ coefficients
    return out if basis.mean is None else out + basis.mean


# -- correlation matrix -------------------------------------------------------


def test_correlation_of_single_snapshot_is_its_squared_norm():
    space, mass, _, snaps = cavity_setup(m=1)
    u = snaps.fields[:, 0]
    basis = build_basis(snaps, mass)
    assert basis.eigenvalues.shape == (1,)
    assert abs(basis.eigenvalues[0] - u @ (mass @ u)) <= 1e-12 * basis.eigenvalues[0]


def test_correlation_trace_is_mean_snapshot_energy():
    # the spectrum reassembles the correlation matrix (u_i, u_j) / M, whose
    # trace is the mean snapshot energy
    _, mass, _, snaps = cavity_setup(m=9)
    basis = build_basis(snaps, mass)
    vecs = basis.eigenvectors
    corr = (vecs * basis.eigenvalues) @ vecs.T
    direct = snaps.fields.T @ (mass @ snaps.fields) / 9
    assert np.abs(corr - direct).max() <= 1e-12 * np.abs(direct).max()
    energies = [u @ (mass @ u) for u in snaps.fields.T]
    expected = np.mean(energies)
    assert abs(np.trace(corr) - expected) <= 1e-12 * expected


def test_correlation_rejects_bad_shapes():
    space, mass, _, snaps = cavity_setup(m=2)
    with pytest.raises(ValueError):
        build_basis(snapshot_set(space, snaps.fields[:, 0]), mass)
    with pytest.raises(ValueError):
        build_basis(snapshot_set(space, snaps.fields[:, :0]), mass)


# -- basis structure ----------------------------------------------------------


def test_identical_snapshots_give_one_normalized_mode():
    space, mass, _, snaps = cavity_setup(m=1)
    u = snaps.fields[:, 0]
    repeated = snapshot_set(space, np.column_stack([u] * 5))
    basis = build_basis(repeated, mass)
    assert basis.rank == 1
    energy = u @ (mass @ u)
    assert abs(basis.eigenvalues[0] - energy) <= 1e-10 * energy
    norm_u = u / np.sqrt(energy)
    sign = np.sign(norm_u[np.argmax(np.abs(norm_u))])
    assert np.abs(basis.modes[:, 0] - sign * norm_u).max() <= 1e-10


def test_modes_are_mass_orthonormal():
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    gram = basis.modes.T @ (mass @ basis.modes)
    assert np.abs(gram - np.eye(basis.rank)).max() <= 1e-10


def test_eigenvalue_sum_matches_mean_energy():
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    energies = [u @ (mass @ u) for u in snaps.fields.T]
    expected = np.mean(energies)
    assert abs(basis.eigenvalues.sum() - expected) <= 1e-12 * expected


def test_eigenvalues_sorted_strictly_decreasing_for_generic_data():
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    assert np.all(np.diff(basis.eigenvalues) < 0.0)


def test_rank_cutoff_drops_null_directions():
    _, mass, _, snaps = cavity_setup(n_source=4, m=10)
    basis = build_basis(snaps, mass)
    assert basis.rank == 4


def test_zero_snapshots_are_rejected():
    space, mass, _, snaps = cavity_setup(m=3)
    zero = snapshot_set(space, np.zeros_like(snaps.fields))
    with pytest.raises(ValueError):
        build_basis(zero, mass)


def test_mode_signs_are_deterministic_and_positive_at_pivot():
    _, mass, _, snaps = cavity_setup()
    basis_a = build_basis(snaps, mass)
    basis_b = build_basis(snaps, mass)
    assert np.array_equal(basis_a.modes, basis_b.modes)
    for k in range(basis_a.rank):
        mode = basis_a.modes[:, k]
        assert mode[np.argmax(np.abs(mode))] > 0.0


# -- reconstruction and projection --------------------------------------------


def test_full_rank_reconstruction_reproduces_snapshots():
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    scale = np.abs(snaps.fields).max()
    for u in snaps.fields.T:
        coeffs = project_L2(basis, mass, u, r=basis.rank)
        assert np.abs(reconstruct(basis, coeffs) - u).max() <= 1e-10 * scale


def test_projection_is_idempotent():
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    u = snaps.fields[:, 0]
    coeffs = project_L2(basis, mass, u, r=3)
    again = project_L2(basis, mass, reconstruct(basis, coeffs), r=3)
    assert coeffs.shape == (3,)
    assert np.abs(again - coeffs).max() <= 1e-12 * max(np.abs(coeffs).max(), 1.0)


def test_centered_basis_round_trip():
    _, mass, _, snaps = cavity_setup()
    mean = snaps.fields.mean(axis=1)
    basis = build_basis(snaps, mass, center=True)
    assert np.array_equal(basis.mean, mean)
    # the mean itself projects to zero fluctuation coefficients
    assert np.abs(project_L2(basis, mass, mean)).max() <= 1e-12
    u = snaps.fields[:, 2]
    coeffs = project_L2(basis, mass, u)
    assert coeffs.shape == (basis.rank,)
    assert np.abs(reconstruct(basis, coeffs) - u).max() <= 1e-10


def test_degenerate_pair_reproduces_the_span():
    # two orthogonal snapshots of equal norm: the eigenvalue is repeated, so
    # individual modes are not unique, but the projector onto the span is
    space, mass, _, snaps = cavity_setup(m=2)
    u, v = snaps.fields[:, 0].copy(), snaps.fields[:, 1].copy()
    v -= (u @ (mass @ v)) / (u @ (mass @ u)) * u
    u *= 2.0 / np.sqrt(u @ (mass @ u))
    v *= 2.0 / np.sqrt(v @ (mass @ v))
    pair = snapshot_set(space, np.column_stack([u, v]))
    basis = build_basis(pair, mass)
    assert basis.rank == 2
    assert abs(basis.eigenvalues[0] - basis.eigenvalues[1]) <= 1e-10 * basis.eigenvalues[0]
    for w in (u, v):
        proj = reconstruct(basis, project_L2(basis, mass, w, r=2))
        assert np.abs(proj - w).max() <= 1e-10 * np.abs(w).max()


# -- spectral tail identities --------------------------------------------------


@pytest.mark.parametrize("r", [0, 3, None])
def test_tail_identities_hold(r):
    _, mass, stiffness, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    effective_r = basis.rank if r is None else r
    report = verify_spectral_identities(basis, snaps, mass, stiffness, r=effective_r)
    assert report["r"] == effective_r
    assert report["l2_tail_residual"] <= 1e-10
    assert report["h1_tail_residual"] <= 1e-10
    assert report["inverse_violations"] == 0


def test_tail_at_rank_zero_is_total_energy():
    _, mass, stiffness, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    energies = [s @ (mass @ s) for s in snaps.fields.T]
    assert abs(basis.eigenvalues.sum() - np.mean(energies)) <= 1e-12 * np.mean(energies)
    report = verify_spectral_identities(basis, snaps, mass, stiffness, r=0)
    assert report["l2_tail_residual"] <= 1e-12


# -- spectral diagnostics -------------------------------------------------------


def test_single_mode_diagnostics_reduce_to_gradient_norm():
    space, mass, stiffness, snaps = cavity_setup(m=1)
    u = snaps.fields[:, 0]
    repeated = snapshot_set(space, np.column_stack([u, u, u]))
    basis = build_basis(repeated, mass)
    s_full, spectral_norm = reduced_stiffness(basis, stiffness)
    phi = basis.modes[:, 0]
    grad_sq = phi @ (stiffness @ phi)
    assert abs(spectral_norm - grad_sq) <= 1e-8 * grad_sq
    # the squared gradient norm of the summed first mode
    assert abs(np.sqrt(s_full[:1, :1].sum()) - np.sqrt(grad_sq)) <= 1e-10 * np.sqrt(grad_sq)
    assert basis.eigenvalues[1:].sum() == 0.0


def test_spectral_norm_is_independent_of_r():
    _, mass, stiffness, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    s_full, norm = reduced_stiffness(basis, stiffness)
    # every mode counts: the norm bounds each leading block's and is the full one's
    leading = [np.linalg.eigvalsh(s_full[:r, :r]).max() for r in (1, 3, basis.rank)]
    assert all(v <= norm * (1 + 1e-12) for v in leading)
    assert leading[-1] == norm


def test_tail_decreases_with_r():
    _, mass, stiffness, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    tails = [float(np.sum(basis.eigenvalues[r:])) for r in range(basis.rank + 1)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0


# -- container -------------------------------------------------------------------


def test_basis_container_validation():
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    with pytest.raises(ValueError):
        PODBasis(
            space_signature=basis.space_signature,
            modes=basis.modes,
            eigenvalues=basis.eigenvalues,
            eigenvectors=basis.eigenvectors[:, :-1],
        )


# -- serialization ---------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    space, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass, center=True)
    path = tmp_path / "basis.bin"
    save_basis(basis, path)
    meta, arrays = read_container(path, "basis", space.signature())
    # the header selects no size: every mode is the basis
    assert meta == {"signature": basis.space_signature}
    assert np.array_equal(arrays["modes"], basis.modes)
    assert np.array_equal(arrays["eigenvalues"], basis.eigenvalues)
    assert np.array_equal(arrays["eigenvectors"], basis.eigenvectors)
    assert np.array_equal(arrays["mean"], basis.mean)


def test_load_rejects_wrong_signature_and_magic(tmp_path):
    _, mass, _, snaps = cavity_setup()
    basis = build_basis(snaps, mass)
    path = tmp_path / "basis.bin"
    save_basis(basis, path)
    with pytest.raises(ValueError):
        read_container(path, "basis", "0" * 16)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_container(bad, "basis")
