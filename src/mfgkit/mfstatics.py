"""Closed-form mean force Gibbs (MFG) states across coupling regimes.

Implements the second-order weak-coupling correction, its validity bound,
the ultrastrong (pointer-basis) limit, and the high-temperature resummation
for projector-coupled multi-state systems, plus the mean-force Hamiltonian
extraction H_MF = -(1/beta) log tau_MF.

The weak-coupling state is tau + lambda^2 tau^(2) (Cresser & Anders,
PRL 127, 250601 (2021)), written as contractions over the stacked Bohr
modes (omega_m, X_m) of `eigenops.decompose`. With D_m = D_beta(omega_m),
D'_m its omega-derivative and A = beta sum_m D_m X_m X_m^dag,

    tau^(2) = tau (A - tr(tau A)) + sum_m D'_m (X_m^dag tau X_m - tau X_m X_m^dag)
              + (P tau - Q) + (P tau - Q)^dag,
    P = sum_mn c_mn X_n X_m^dag,   Q = sum_mn c_mn X_m^dag tau X_n,
    c_mn = D_m/(omega_n - omega_m), zero inside a cluster (|omega_n - omega_m|
           <= degeneracy_tol),

and the validity bound is lambda_max = 1/sqrt(|tr(tau A)|). The D' sum skips
omega = 0 (X_0 commutes with tau), where D' diverges for Ohmic-class J.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bath as bathmod
from .eigenops import BohrDecomposition, decompose
from .opcore import dag, gibbs, require_hermitian

class ValidityError(ValueError):
    """Coupling exceeds the weak-coupling validity bound beyond repair."""


@dataclass(frozen=True)
class MfgResult:
    state: np.ndarray
    diagnostics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PointerSplit:
    """H_S in the eigenbasis of X, split into diagonal and hopping parts."""

    pointer_basis: np.ndarray  # columns are eigenvectors of X
    H_eps: np.ndarray          # diagonal in the pointer basis
    H_J: np.ndarray            # zero diagonal: the hopping entries


def pointer_split(H_S: np.ndarray, X: np.ndarray) -> PointerSplit:
    """Rotate H_S into the (nondegenerate) eigenbasis of X and split it."""
    H_S = require_hermitian(H_S)
    X = require_hermitian(X)
    if H_S.shape != X.shape:
        raise ValueError(f"dimension mismatch: {H_S.shape} vs {X.shape}")
    x_vals, u = np.linalg.eigh(X)
    gap = np.diff(x_vals).min() if len(x_vals) > 1 else np.inf
    if gap <= 1e-9 * max(np.linalg.norm(X, 2), 1.0):
        raise ValueError("X has (near-)degenerate spectrum; pointer basis undefined")
    h_rot = dag(u) @ H_S @ u
    h_eps = np.diag(np.diag(h_rot))
    h_j = h_rot - h_eps
    return PointerSplit(pointer_basis=u, H_eps=h_eps, H_J=h_j)


def _weak_ingredients(H_S, X, bath: bathmod.BathParams):
    """Bohr modes, tau, D_beta(omega_m) and A = beta sum_m D_m X_m X_m^dag."""
    dec = decompose(H_S, X)
    tau = gibbs(H_S, bath.beta)
    d_vals = bathmod.d_beta(bath.J, bath.beta, tuple(dec.frequencies.tolist()))
    x = dec.operators
    a = bath.beta * np.einsum("m,mij,mkj->ik", d_vals, x, x.conj())
    return dec, tau, d_vals, a


def _lambda_max(tau, a) -> float:
    denom = abs(np.trace(tau @ a).real)
    if denom < 1e-300:
        return float(np.inf)
    return float(1.0 / np.sqrt(denom))


def weak_validity_bound(H_S, X, bath: bathmod.BathParams) -> float:
    """lambda_max = 1/sqrt(|tr(tau A)|), A = beta sum_m D_beta(omega_m) X_m X_m^dag.

    Returns +inf when the denominator vanishes (e.g. [H_S, X] = 0).
    """
    _, tau, _, a = _weak_ingredients(H_S, X, bath)
    return _lambda_max(tau, a)


def mfg_weak(H_S, X, bath: bathmod.BathParams) -> MfgResult:
    """tau + lambda^2 tau^(2), the second-order mean force Gibbs state.

    Warns when lambda exceeds the validity bound, errors beyond 10x.
    Eigenvalues pushed slightly negative by the truncation are clamped and
    the state renormalized; the clamp magnitude lands in diagnostics.
    """
    dec, tau, d_vals, a = _weak_ingredients(H_S, X, bath)
    lam = bath.lam
    lam_max = _lambda_max(tau, a)
    if lam > 10 * lam_max:
        raise ValidityError(
            f"lambda = {lam} exceeds the weak-coupling bound {lam_max:.4g} by more "
            "than 10x; the second-order series is meaningless here"
        )
    if lam > lam_max:
        warnings.warn(
            f"lambda = {lam} exceeds the weak-coupling validity bound {lam_max:.4g}; "
            "the result is extrapolation, not perturbation",
            stacklevel=2,
        )

    correction = _tau2(dec, tau, d_vals, a, bath)
    raw = (lambda m: (m + dag(m)) / 2)(tau + lam**2 * correction)
    w, v = np.linalg.eigh(raw)
    lo = float(w.min())
    if lo < 0:
        # truncation can push eigenvalues negative (mildly inside validity,
        # grossly when extrapolating); clip and record rather than reject
        w = np.clip(w, 0.0, None)
    state = (v * w) @ dag(v)
    state /= np.trace(state).real
    return MfgResult(
        state=state,
        diagnostics={
            "validity_lambda_max": lam_max,
            "clamped_negativity": max(0.0, -lo),
            "correction_norm": float(np.linalg.norm(correction)),
        },
    )


def _tau2(dec: BohrDecomposition, tau, d_vals, a, bath: bathmod.BathParams):
    """The second-order MFG correction (lambda excluded) as stack contractions."""
    w, x = dec.frequencies, dec.operators
    xd = x.conj().transpose(0, 2, 1)  # X_m^dag
    nz = w != 0.0  # the omega = 0 term vanishes identically
    d_prime = bathmod.d_beta_deriv(bath.J, bath.beta, tuple(w[nz].tolist()))
    out = tau @ (a - np.trace(tau @ a).real * np.eye(len(tau)))
    out += np.einsum("m,mij->ij", d_prime, xd[nz] @ tau @ x[nz] - tau @ x[nz] @ xd[nz])

    # m != n sum; merged (clustered) frequencies never reach the denominator
    gap = w[None, :] - w[:, None]  # gap[m, n] = omega_n - omega_m
    c = np.divide(d_vals[:, None], gap, out=np.zeros_like(gap),
                  where=np.abs(gap) > dec.degeneracy_tol)
    y = (c @ x.reshape(len(w), tau.size)).reshape(x.shape)  # Y_m = sum_n c_mn X_n, one BLAS product
    pair = (y @ xd).sum(axis=0) @ tau - (xd @ tau @ y).sum(axis=0)  # P tau - Q
    return out + pair + dag(pair)


def mfg_ultrastrong(H_S, X, beta: float) -> MfgResult:
    """tau_MF proportional to exp(-beta sum_n P_n H_S P_n) at lambda -> inf.

    P_n are the rank-one eigenprojectors of X; X must be nondegenerate.
    The output is diagonal in the pointer basis.
    """
    split = pointer_split(H_S, X)  # rejects degenerate X
    u = split.pointer_basis
    projected = u @ split.H_eps @ dag(u)  # sum_n P_n H_S P_n back in the input basis
    return MfgResult(state=gibbs(projected, beta))


def mfg_high_t(H_S, projectors, baths, beta: float) -> MfgResult:
    """High-temperature MFG for projector couplings X_n = |n><n|.

    tau_MF ~ exp[-beta (H_eps + e^(-beta Lam/6) H_J e^(-beta Lam/6))] with
    Lam = sum_n ell_n X_n built from the per-bath reorganization energies
    ell_n = lambda_n^2 int J_n/omega. `baths` is a list of (J_n, lambda_n).
    """
    H_S = require_hermitian(H_S)
    if beta <= 0 or not np.isfinite(beta):
        raise ValueError("beta must be finite and positive")
    if len(projectors) != len(baths):
        raise ValueError("need one bath per projector")
    d = H_S.shape[0]
    basis = np.zeros((d, len(projectors)), dtype=complex)
    for k, p in enumerate(projectors):
        p = require_hermitian(p)
        if not np.allclose(p @ p, p, atol=1e-12) or abs(np.trace(p) - 1) > 1e-12:
            raise ValueError(f"coupling operator {k} is not a rank-one projector")
        w, v = np.linalg.eigh(p)
        basis[:, k] = v[:, -1]
    # all projectors must come from one orthonormal family
    overlap = dag(basis) @ basis
    if not np.allclose(overlap, np.eye(len(projectors)), atol=1e-10):
        raise ValueError("projectors are not mutually orthogonal")

    ells = np.array([
        bathmod.reorganization_energy(J_n, lam_n) for J_n, lam_n in baths
    ])
    # split H_S against the projector basis (diagonal vs hopping)
    h_rot = dag(basis) @ H_S @ basis if basis.shape[1] == d else None
    if h_rot is None:
        raise ValueError("projectors must resolve the full space")
    h_eps = basis @ np.diag(np.diag(h_rot)) @ dag(basis)
    h_j = H_S - h_eps

    # Lam = basis diag(ell) basis^dag, so its exponential is one in that basis
    dress = (basis * np.exp(-beta / 6.0 * ells)) @ dag(basis)
    h_eff = h_eps + dress @ h_j @ dress
    state = gibbs(require_hermitian(h_eff, tol=1e-10), beta)
    ell_beta = float(np.max(np.abs(ells)) * beta)
    if ell_beta > 2.0:
        warnings.warn(
            f"ell*beta = {ell_beta:.3g} > 2: outside the quoted accuracy window "
            "of the high-temperature resummation",
            stacklevel=2,
        )
    return MfgResult(state=state,
                     diagnostics={"ell_beta": ell_beta,
                                  "ell_max": float(np.max(np.abs(ells)))})


def mean_force_hamiltonian(tau_mf: np.ndarray, beta: float) -> np.ndarray:
    """H_MF = -(1/beta) log tau_MF, the Z_MF = 1 member of the constant family."""
    tau_mf = require_hermitian(tau_mf)
    if beta <= 0 or not np.isfinite(beta):
        raise ValueError("beta must be finite and positive")
    w, v = np.linalg.eigh(tau_mf)
    if w.min() <= 0:
        raise ValueError(
            f"tau_mf is singular (smallest eigenvalue {w.min():.3e}); "
            "H_MF needs a full-rank state"
        )
    return (v * (-np.log(w) / beta)) @ dag(v)
