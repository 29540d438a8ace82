"""Basis extraction from snapshot data by the method of snapshots.

The correlation matrix of the snapshot set is diagonalized with a dense
symmetric eigensolver, modes are linear combinations of snapshots, and the
eigenvalue tails obey exact reconstruction-error identities that this module
can verify against direct summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container

_RANK_CUTOFF_ABS = 1e-10
_RANK_CUTOFF_REL = 1e-12


@dataclass
class PODBasis:
    """Orthonormal modes with the full retained spectrum of the data set.

    ``modes`` holds every mode above the rank cutoff (columns, ordered by
    nonincreasing eigenvalue); ``r`` marks how many of them the reduced
    model uses. ``mean`` is the centering offset subtracted from the
    snapshots before the basis was built, or ``None``.
    """

    space_signature: str
    modes: np.ndarray  # (n_dofs, d)
    eigenvalues: np.ndarray  # (d,)
    eigenvectors: np.ndarray  # (M, d)
    n_snapshots: int
    r: int
    mean: np.ndarray = None

    def __post_init__(self):
        d = self.eigenvalues.size
        if self.modes.shape[1] != d or self.eigenvectors.shape[1] != d:
            raise ValueError("mode, eigenvalue and eigenvector counts disagree")
        if not 1 <= self.r <= d:
            raise ValueError(f"selected size r={self.r} outside 1..{d}")

    @property
    def rank(self):
        return int(self.eigenvalues.size)

    @property
    def reduced_modes(self):
        return self.modes[:, : self.r]


def _snapshot_fields(snapshots):
    """Accept a SnapshotSet-like object or a bare (n, M) array."""
    fields = getattr(snapshots, "fields", snapshots)
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 2 or fields.shape[1] < 1:
        raise ValueError("snapshots must form a nonempty (n_dofs, M) array")
    return fields


def build_correlation(snapshots, mass):
    """Snapshot correlation matrix K[i, j] = (u_i, u_j) / M."""
    fields = _snapshot_fields(snapshots)
    m = fields.shape[1]
    corr = fields.T @ (mass @ fields) / m
    return 0.5 * (corr + corr.T)


def compute_basis(correlation, snapshots, r=None, energy_threshold=None):
    """Diagonalize the correlation matrix and assemble the modes.

    Exactly one of ``r`` and ``energy_threshold`` may be given; with
    neither, all modes above the rank cutoff are selected. Mode signs are
    fixed by making each mode's largest-magnitude coefficient positive.
    """
    fields = _snapshot_fields(snapshots)
    corr = np.asarray(correlation, dtype=float)
    m = fields.shape[1]
    if corr.shape != (m, m):
        raise ValueError("correlation matrix does not match the snapshot count")
    if r is not None and energy_threshold is not None:
        raise ValueError("give either r or energy_threshold, not both")

    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    cutoff = max(_RANK_CUTOFF_ABS, _RANK_CUTOFF_REL * max(eigvals[0], 0.0))
    d = int(np.sum(eigvals > cutoff))
    if d == 0:
        raise ValueError("no eigenvalue above the rank cutoff; snapshot set has no energy")
    eigvals = eigvals[:d]
    eigvecs = eigvecs[:, :d]

    modes = fields @ (eigvecs / np.sqrt(m * eigvals))
    for k in range(d):
        pivot = np.argmax(np.abs(modes[:, k]))
        if modes[pivot, k] < 0.0:
            modes[:, k] = -modes[:, k]
            eigvecs[:, k] = -eigvecs[:, k]

    if energy_threshold is not None:
        if not 0.0 < energy_threshold <= 1.0:
            raise ValueError("energy threshold must lie in (0, 1]")
        fractions = np.cumsum(eigvals) / np.sum(eigvals)
        r = int(np.searchsorted(fractions, energy_threshold - 1e-15) + 1)
        r = min(r, d)
    elif r is None:
        r = d
    elif not 1 <= r <= d:
        raise ValueError(f"requested r={r} exceeds the retained rank {d}")

    mean = getattr(snapshots, "mean", None)
    return PODBasis(
        space_signature=getattr(snapshots, "space_signature", ""),
        modes=modes,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        n_snapshots=m,
        r=int(r),
        mean=None if mean is None else np.asarray(mean, dtype=float),
    )


def build_basis(snapshots, mass, r=None, energy_threshold=None):
    """Correlation build and eigendecomposition in one call."""
    corr = build_correlation(snapshots, mass)
    return compute_basis(corr, snapshots, r=r, energy_threshold=energy_threshold)


def project_L2(basis, mass, f, r=None):
    """Coefficients of the mass-orthogonal projection onto the first modes.

    The stored centering mean, if any, is subtracted before projecting, so
    the coefficients describe the fluctuating part of ``f``.
    """
    coeffs = getattr(f, "coefficients", f)
    coeffs = np.asarray(coeffs, dtype=float)
    if basis.mean is not None:
        coeffs = coeffs - basis.mean
    r = basis.r if r is None else int(r)
    return basis.modes[:, :r].T @ (mass @ coeffs)


def reconstruct(basis, coefficients):
    """Full-order coefficients of a reduced state (mean added back)."""
    coefficients = np.asarray(coefficients, dtype=float)
    out = basis.modes[:, : coefficients.size] @ coefficients
    if basis.mean is not None:
        out = out + basis.mean
    return out


def verify_spectral_identities(basis, snapshots, mass, stiffness, r=None,
                               n_samples=100, seed=0):
    """Check the exact tail identities and the inverse inequality.

    Returns a report with the relative residuals of the mean squared
    reconstruction error identities (mass norm and gradient seminorm
    versions) and the violation count of ||grad v|| <= sqrt(s2) ||v|| over
    random members of the mode span, where s2 is the spectral norm of the
    full-rank reduced stiffness matrix.
    """
    fields = _snapshot_fields(snapshots)
    m = fields.shape[1]
    r = basis.r if r is None else int(r)
    modes = basis.modes
    coeffs = modes.T @ (mass @ fields)  # (d, M)
    residual = fields - modes[:, :r] @ coeffs[:r]

    total_l2 = float(np.sum(fields * (mass @ fields))) / m
    lhs_l2 = float(np.sum(residual * (mass @ residual))) / m
    rhs_l2 = float(np.sum(basis.eigenvalues[r:]))
    l2_residual = abs(lhs_l2 - rhs_l2) / max(total_l2, 1e-300)

    diagnostics = spectral_diagnostics(basis, stiffness, r=r)
    grad_norms_sq = diagnostics.grad_norms
    lhs_h1 = float(np.sum(residual * (stiffness @ residual))) / m
    rhs_h1 = float(np.sum(basis.eigenvalues[r:] * grad_norms_sq[r:]))
    total_h1 = float(np.sum(basis.eigenvalues * grad_norms_sq))
    h1_residual = abs(lhs_h1 - rhs_h1) / max(total_h1, 1e-300)

    s2 = diagnostics.spectral_norm
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = -np.inf
    for _ in range(n_samples):
        c = rng.standard_normal(basis.rank)
        v = modes @ c
        grad = np.sqrt(max(float(v @ (stiffness @ v)), 0.0))
        bound = np.sqrt(s2) * np.sqrt(max(float(v @ (mass @ v)), 0.0))
        margin = grad - bound
        worst_margin = max(worst_margin, margin)
        if margin > 1e-12 * max(bound, 1.0):
            violations += 1

    return {
        "r": r,
        "l2_tail_residual": l2_residual,
        "h1_tail_residual": h1_residual,
        "inverse_violations": violations,
        "inverse_worst_margin": worst_margin,
        "stiffness_norm": s2,
    }


@dataclass
class SpectralDiagnostics:
    """Spectral quantities of one basis used by the error indicators."""

    spectral_norm: float  # two-norm of the full-rank reduced stiffness
    tail: float  # eigenvalue sum beyond the first r
    c_r_h1: float  # norm of the gradient of the summed first r modes
    grad_norms: np.ndarray  # squared gradient norm per mode
    r: int


def spectral_diagnostics(basis, stiffness, r=None):
    """Compute the indicator building blocks for a basis at size r."""
    r = basis.r if r is None else int(r)
    modes = basis.modes
    s_full = modes.T @ (stiffness @ modes)
    s_full = 0.5 * (s_full + s_full.T)
    spectral_norm = float(np.linalg.eigvalsh(s_full).max())
    tail = float(np.sum(basis.eigenvalues[r:]))
    block = s_full[:r, :r]
    c_r_h1 = float(np.sqrt(max(block.sum(), 0.0)))
    return SpectralDiagnostics(
        spectral_norm=spectral_norm,
        tail=tail,
        c_r_h1=c_r_h1,
        grad_norms=np.diag(s_full).copy(),
        r=r,
    )


def save_basis(basis, path):
    """Write a basis as a self-describing binary container."""
    arrays = {"eigenvalues": basis.eigenvalues, "eigenvectors": basis.eigenvectors,
              "modes": basis.modes}
    if basis.mean is not None:
        arrays["mean"] = basis.mean
    meta = {"signature": basis.space_signature, "n_snapshots": int(basis.n_snapshots),
            "r": int(basis.r)}
    write_container(path, "basis", meta, arrays)


def load_basis(path, expected_signature=None):
    """Read a basis container written by :func:`save_basis`."""
    meta, arrays = read_container(path, "basis", expected_signature)
    return PODBasis(
        space_signature=meta["signature"],
        modes=arrays["modes"],
        eigenvalues=arrays["eigenvalues"],
        eigenvectors=arrays["eigenvectors"],
        n_snapshots=meta["n_snapshots"],
        r=meta["r"],
        mean=arrays.get("mean"),
    )
