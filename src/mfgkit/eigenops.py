"""Bohr-frequency eigenoperator decomposition of a coupling operator.

A Hermitian coupling X splits against a system Hamiltonian H_S as
X = sum_m X_m with [H_S, X_m] = omega_m X_m, i.e. X_m raises the system
energy by the Bohr frequency omega_m (omega_m > 0 for absorption).
Near-degenerate Bohr frequencies are merged by single-linkage clustering
so downstream code never divides by an accidental near-zero gap.

The M modes are stored stacked: `frequencies` is an (M,) float array and
`operators` an (M, d, d) complex array with operators[m] = X_m, so every
consumer contracts over the mode index m. `modes` is a read-only view of
the same data as (omega_m, X_m) pairs. The decomposition also keeps the
eigenbasis it was made in: the energies E_a and eigenvectors V of H_S, and
labels[a, b], the mode whose cluster holds E_a - E_b (-1 for a dropped
mode), so that X_m = V P_m V^dag with P_m the entries x[a, b] of
x = V^dag X V at labels[a, b] = m. Results are memoized per process on
(H_S, X, degeneracy_tol), and every array is read-only.
"""

import functools
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
    energies: np.ndarray     # (d,) float, ascending: the eigenvalues of H_S
    vectors: np.ndarray      # (d, d) complex: V, column a the eigenvector of E_a
    labels: np.ndarray       # (d, d) int: the mode of the pair (a, b), -1 if dropped
    degenerate: np.ndarray   # (d, d) bool: E_a - E_b lies in the omega = 0 cluster

    @property
    def modes(self) -> tuple[tuple[float, np.ndarray], ...]:
        return tuple(zip(self.frequencies, self.operators))


def decompose(H_S: np.ndarray, X: np.ndarray,
              degeneracy_tol: float | None = None) -> BohrDecomposition:
    """Split X into eigenoperators X_m of H_S with [H_S, X_m] = omega_m X_m.

    X_m collects P_a X P_b over eigenprojector pairs whose energy gap
    E_a - E_b falls in the cluster labelled omega_m. Zero-norm modes are
    dropped. Default tol is 1e-9 * ||H_S||. Memoized on the bytes of (H_S, X)
    and the tolerance.
    """
    H_S = require_hermitian(H_S)
    X = require_hermitian(X)
    if H_S.shape != X.shape:
        raise ValueError(f"dimension mismatch: {H_S.shape} vs {X.shape}")
    return _decompose(H_S.tobytes(), X.tobytes(), len(H_S), degeneracy_tol)


@functools.lru_cache(maxsize=64)
def _decompose(h_bytes: bytes, x_bytes: bytes, d: int, degeneracy_tol) -> BohrDecomposition:
    H_S = np.frombuffer(h_bytes, dtype=complex).reshape(d, d)
    X = np.frombuffer(x_bytes, dtype=complex).reshape(d, d)
    norm = np.linalg.norm(H_S, 2)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * max(norm, 1.0)
    if degeneracy_tol <= 0:
        raise ValueError("degeneracy_tol must be positive")

    energies, v = np.linalg.eigh(H_S)
    x_eig = dag(v) @ X @ v  # X in the H_S eigenbasis

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
    cluster = np.empty(d * d, dtype=int)
    cluster[order] = sorted_labels
    mode = np.where(keep, np.cumsum(keep) - 1, -1)  # cluster -> kept mode index
    labels = mode[cluster].reshape(d, d)
    degenerate = (cluster == cluster[0]).reshape(d, d)  # pair (0, 0) has gap 0
    for a in (frequencies, operators, energies, v, labels, degenerate):
        a.flags.writeable = False
    dec = BohrDecomposition(frequencies=frequencies, operators=operators,
                            degeneracy_tol=float(degeneracy_tol), energies=energies,
                            vectors=v, labels=labels, degenerate=degenerate)

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
