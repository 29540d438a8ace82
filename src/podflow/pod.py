"""Basis extraction from snapshot data by the method of snapshots.

The correlation matrix of the snapshot set is diagonalized with a dense
symmetric eigensolver, and the modes are linear combinations of the
snapshots. The snapshots are the states the full-order model computed;
centring them on their mean is a choice made here alone, and a centred
basis keeps the mean. A basis is the spectrum and every mode above the
rank cutoff; it selects no size, since the reduced sizes come from the
experiment's rom section. The eigenvalue tails give the reconstruction
errors and the spectral diagnostics of the error indicators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import write_container

_RANK_CUTOFF_ABS = 1e-10
_RANK_CUTOFF_REL = 1e-12


@dataclass
class PODBasis:
    """Orthonormal modes with the full retained spectrum of the data set.

    ``modes`` holds every mode above the rank cutoff (columns, ordered by
    nonincreasing eigenvalue). ``mean`` is the snapshot mean that
    :func:`build_basis` subtracted with ``center``, or ``None``.
    """

    space_signature: str
    modes: np.ndarray  # (n_dofs, d)
    eigenvalues: np.ndarray  # (d,)
    eigenvectors: np.ndarray  # (M, d)
    mean: np.ndarray = None

    def __post_init__(self):
        d = self.eigenvalues.size
        if self.modes.shape[1] != d or self.eigenvectors.shape[1] != d:
            raise ValueError("mode, eigenvalue and eigenvector counts disagree")

    @property
    def rank(self):
        return int(self.eigenvalues.size)


def build_basis(snapshots, mass, center=False):
    """Diagonalize the snapshot correlation matrix K[i, j] = (u_i, u_j) / M
    and assemble every mode above the rank cutoff.

    ``snapshots`` is a :class:`~podflow.fom.SnapshotSet`. With ``center``
    the snapshots' mean is subtracted first and kept as the basis's
    ``mean``. Mode signs are fixed by making each mode's largest-magnitude
    coefficient positive.
    """
    fields, m = snapshots.fields, snapshots.n_snapshots
    if m < 1:
        raise ValueError("the snapshot set is empty")
    mean = None
    if center:
        mean = fields.mean(axis=1)
        fields = fields - mean[:, None]
    corr = fields.T @ (mass @ fields) / m
    eigvals, eigvecs = np.linalg.eigh(0.5 * (corr + corr.T))
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

    return PODBasis(
        space_signature=snapshots.space_signature,
        modes=modes,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        mean=mean,
    )


def project_L2(basis, mass, f, r=None):
    """Coefficients of the mass-orthogonal projection onto the first ``r``
    modes, or onto every mode when ``r`` is None.

    The stored centering mean, if any, is subtracted before projecting, so
    the coefficients describe the fluctuating part of ``f``.
    """
    coeffs = np.asarray(f, dtype=float)
    if basis.mean is not None:
        coeffs = coeffs - basis.mean
    return basis.modes[:, :r].T @ (mass @ coeffs)


def reduced_stiffness(basis, stiffness):
    """The stiffness projected onto every mode of ``basis``, symmetrized,
    and its two-norm (largest eigenvalue), the spectral norm of the error
    indicators. Its leading r x r block sums to the squared gradient norm
    of the summed first r modes."""
    modes = basis.modes
    s_full = modes.T @ (stiffness @ modes)
    s_full = 0.5 * (s_full + s_full.T)
    return s_full, float(np.linalg.eigvalsh(s_full).max())


def save_basis(basis, path):
    """Write a basis as a self-describing binary container."""
    arrays = {"eigenvalues": basis.eigenvalues, "eigenvectors": basis.eigenvectors,
              "modes": basis.modes}
    if basis.mean is not None:
        arrays["mean"] = basis.mean
    meta = {"signature": basis.space_signature}
    write_container(path, "basis", meta, arrays)

