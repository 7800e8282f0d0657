"""Bohr-frequency eigenoperator decomposition of a coupling operator.

A Hermitian coupling X splits against a system Hamiltonian H_S as
X = sum_m X_m with [H_S, X_m] = omega_m X_m, i.e. X_m raises the system
energy by the Bohr frequency omega_m (omega_m > 0 for absorption).
Near-degenerate Bohr frequencies are merged by single-linkage clustering
so downstream code never divides by an accidental near-zero gap.

The M modes are stored stacked: `frequencies` is an (M,) float array and
`operators` an (M, d, d) complex array with operators[m] = X_m, so every
consumer contracts over the mode index m. `modes` is a read-only view of
the same data as (omega_m, X_m) pairs.
"""

from dataclasses import dataclass

import numpy as np

from .opcore import commutator, dag, require_hermitian

RECONSTRUCTION_TOL = 1e-12


@dataclass(frozen=True)
class BohrDecomposition:
    """Modes sorted by omega_m ascending; omega = 0 appears once."""

    frequencies: np.ndarray  # (M,) float
    operators: np.ndarray    # (M, d, d) complex
    degeneracy_tol: float

    @property
    def modes(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple(zip(self.frequencies, self.operators))


def decompose(H_S: np.ndarray, X: np.ndarray,
              degeneracy_tol: float | None = None) -> BohrDecomposition:
    """Split X into eigenoperators X_m of H_S with [H_S, X_m] = omega_m X_m.

    X_m collects P_a X P_b over eigenprojector pairs whose energy gap
    E_a - E_b falls in the cluster labelled omega_m. Zero-norm modes are
    dropped. Default tol is 1e-9 * ||H_S||.
    """
    H_S = require_hermitian(H_S)
    X = require_hermitian(X)
    if H_S.shape != X.shape:
        raise ValueError(f"dimension mismatch: {H_S.shape} vs {X.shape}")
    norm = np.linalg.norm(H_S, 2)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(norm, 1.0)
    if degeneracy_tol <= 0:
        raise ValueError("degeneracy_tol must be positive")

    energies, v = np.linalg.eigh(H_S)
    x_eig = dag(v) @ X @ v  # X in the H_S eigenbasis

    d = len(energies)
    gaps = (energies[:, None] - energies[None, :]).ravel()  # gap[a d + b] = E_a - E_b
    # single-linkage clusters of the sorted gaps: a new cluster starts at
    # every step > tol, so labels ascend with frequency and the modes come
    # out sorted
    order = np.argsort(gaps)
    steps = np.diff(gaps[order]) > degeneracy_tol
    sorted_labels = np.concatenate(([0], np.cumsum(steps)))
    blocks = np.zeros((sorted_labels[-1] + 1, d * d), dtype=complex)
    blocks[sorted_labels, order] = x_eig.ravel()[order]
    omega = np.bincount(sorted_labels, weights=gaps[order]) / np.bincount(sorted_labels)
    omega[np.abs(omega) < degeneracy_tol] = 0.0
    keep = np.any(blocks != 0, axis=1)
    operators = v @ blocks[keep].reshape(-1, d, d) @ dag(v)
    frequencies = omega[keep]
    frequencies.flags.writeable = operators.flags.writeable = False
    dec = BohrDecomposition(frequencies=frequencies, operators=operators,
                            degeneracy_tol=float(degeneracy_tol))

    defect = np.abs(operators.sum(axis=0) - X).max()
    if defect > RECONSTRUCTION_TOL * max(np.abs(X).max(), 1.0):
        raise RuntimeError(f"eigenoperator reconstruction defect {defect:.3e}")
    residual = commutator(H_S, operators) - frequencies[:, None, None] * operators
    res = np.linalg.norm(residual, axis=(1, 2))
    bad = res > 10 * degeneracy_tol * max(norm, 1.0) * np.linalg.norm(operators, axis=(1, 2))
    if bad.any():
        m = int(np.argmax(bad))
        raise RuntimeError(
            f"mode at omega={frequencies[m]} violates the commutator relation ({res[m]:.3e})"
        )
    return dec
