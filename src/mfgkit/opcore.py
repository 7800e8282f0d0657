"""Dense complex linear algebra and quantum-state primitives.

Operators and states are plain complex numpy arrays. Validation is explicit:
inputs that fail the Hermiticity / trace / positivity checks are rejected
rather than silently repaired, so caller bugs surface early.
"""

from math import prod

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_FLOOR = 1e-10


def dag(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hermiticity_defect(a: np.ndarray) -> float:
    """Max deviation from A = A^dag, relative to the largest entry."""
    a = np.asarray(a)
    scale = max(np.abs(a).max(), 1.0)
    return float(np.abs(a - dag(a)).max() / scale)


def require_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return a


def require_density_matrix(rho: np.ndarray, trace_tol: float = TRACE_TOL) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity up to the PSD floor."""
    rho = require_hermitian(rho)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    lo = float(np.linalg.eigvalsh((rho + dag(rho)) / 2).min())
    if lo < -PSD_FLOOR:
        raise ValueError(f"smallest eigenvalue {lo:.3e} below the -{PSD_FLOOR:.0e} floor")
    return rho


def boltzmann(w: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights e^(-beta E_i)/Z of the spectrum w, shifted by its minimum."""
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    p = np.exp(-beta * (w - w.min()))
    return p / p.sum()


def gibbs(H: np.ndarray, beta: float) -> np.ndarray:
    """Canonical state e^(-beta H)/Z. H is shifted by its ground energy first."""
    H = require_hermitian(H)
    w, v = np.linalg.eigh(H)
    return (v * boltzmann(w, beta)) @ dag(v)


def partial_trace(rho: np.ndarray, dims: tuple, keep: int) -> np.ndarray:
    """Reduce rho on the tensor product of factors of size dims to factor keep."""
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"factor dims must be positive, got {dims}")
    if not 0 <= keep < len(dims):
        raise IndexError(f"keep index {keep} out of range for {len(dims)} factors")
    if rho.shape != (prod(dims),) * 2:
        raise ValueError(f"state dim {rho.shape} does not match space dim {prod(dims)}")
    t = rho.reshape(dims + dims)
    # contract every factor except `keep` between the ket and bra sides
    for ax in reversed([i for i in range(len(dims)) if i != keep]):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    return t


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(0.5 * np.linalg.svd(a - b, compute_uv=False).sum())
