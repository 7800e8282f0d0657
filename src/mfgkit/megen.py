"""Master-equation generators, evolution, and steady-state extraction.

All generators are Schroedinger-picture superoperators in physical time on
column-vectorized density matrices (vec(A rho B) = (B^T kron A) vec(rho),
Fortran/column stacking).

The Bloch-Redfield family is one masked Redfield build (Breuer & Petruccione,
ch. 3). With Bohr modes (omega_m, X_m) of the coupling and bath coefficients
Gamma_m,

    L rho = -i[H_S + lam^2 H_LS, rho]
            + lam^2 sum_mn K_mn g_mn (X_m rho X_n^dag - {X_n^dag X_m, rho}/2),
    g_mn = Gamma_m + Gamma_n^*,
    H_LS = sum_mn K_mn (Gamma_m - Gamma_n^*)/(2i) X_n^dag X_m,

and the mode-pair mask K_mn = [m = n or |omega_m - omega_n| <= cutoff] is
where the variants differ:

- Davies (GKSL) and fully secular: cutoff -1, only m = n survives;
- Bloch-Redfield, asymptotic or frozen at a time t: cutoff infinity;
- partial secular (Cattaneo et al., NJP 21, 113045 (2019)): the user's cutoff;
- real-only: cutoff infinity with Im Gamma_m set to 0.

The ultrastrong-coupling Pauli generator is built in the pointer basis of X.

Evolution is exact: rho(t) = e^(L t) rho(0), one matrix exponential per time
point.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp  # noqa: F401  (perfbench tracer target megen.solve_ivp)

from . import bath as bathmod
from .eigenops import decompose
from .mfstatics import PointerSplit
from .opcore import dag, require_density_matrix, require_hermitian

TRACE_DRIFT_ABORT = 1e-7


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Liouvillian:
    matrix: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho))


@dataclass(frozen=True)
class SteadyStateReport:
    states: list
    residual: float
    spectral_gap: float
    unique: bool
    # largest negative weight removed from a null vector normalized to unit
    # trace (inf if its trace is not positive)
    clipped_negativity: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: list
    trace_deviation: np.ndarray
    hermiticity_deviation: np.ndarray
    min_eigenvalue: np.ndarray


def _redfield_generator(H_S, X, bath: bathmod.BathParams, *,
                        time=bathmod.ASYMPTOTIC, cutoff=np.inf,
                        real_only=False) -> Liouvillian:
    """Redfield generator with mode pairs masked at |omega_m - omega_n| <= cutoff.

    One build over the stacked eigenoperators X (M, d, d): the sandwich term
    sum_mn g_mn kron(X_n^*, X_m) is one product of the flattened (M, d^2)
    stack, and the Lamb shift and anticommutator are one contraction each.
    """
    H_S = require_hermitian(H_S)
    dec = decompose(H_S, X)
    d, lam, w, X = H_S.shape[0], bath.lam, dec.frequencies, dec.operators
    g = bathmod.gamma_m(bath.J, bath.beta, tuple(w.tolist()), time)
    if real_only:
        g = g.real.astype(complex)
    mask = np.eye(w.size, dtype=bool) | (np.abs(w[:, None] - w[None, :]) <= cutoff)
    rate = (g[:, None] + g.conj()[None, :]) * mask
    shift = (g[:, None] - g.conj()[None, :]) / 2j * mask

    def pair_sum(c):
        """sum_mn c_mn X_n^dag X_m"""
        return np.einsum("mn,nji,mjk->ik", c, X.conj(), X, optimize=True)

    xf = X.reshape(-1, d * d)  # xf[m, i d + k] = X_m[i, k]
    # (xf^dag rate^T xf)[(j, l), (i, k)] = sum_mn rate_mn conj(X_n[j, l]) X_m[i, k],
    # the (j d + i, l d + k) entry of sum_mn rate_mn kron(conj(X_n), X_m)
    sandwich = (xf.conj().T @ rate.T @ xf).reshape(d, d, d, d)
    sandwich = sandwich.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    anti = pair_sum(rate)
    h_eff = H_S + lam**2 * pair_sum(shift)
    left = -1j * h_eff - 0.5 * lam**2 * anti   # rho -> left rho
    right = 1j * h_eff - 0.5 * lam**2 * anti   # rho -> rho right
    eye = np.eye(d)
    mat = np.kron(eye, left) + np.kron(right.T, eye) + lam**2 * sandwich
    return Liouvillian(mat)


def davies_generator(H_S, X, bath: bathmod.BathParams) -> Liouvillian:
    """Secular (GKSL) generator with asymptotic rates gamma_m = 2 Re Gamma_m.

    -i[H_S + lam^2 dH_par, .] + lam^2 sum_m gamma_m D[X_m]; steady state is
    the system Gibbs state by detailed balance.
    """
    return _redfield_generator(H_S, X, bath, cutoff=-1.0)


def brme_generator(H_S, X, bath: bathmod.BathParams,
                   time=bathmod.ASYMPTOTIC) -> Liouvillian:
    """Bloch-Redfield generator with Gamma_m(t) (or the asymptotic values)."""
    return _redfield_generator(H_S, X, bath, time=time)


def secular_filter(H_S, X, bath: bathmod.BathParams, cutoff) -> Liouvillian:
    """Partial-secular BRME: drop cross terms with |omega_m - omega_n| > cutoff.

    cutoff = 0 (or "full") removes every m != n pair and the non-commuting
    shift, recovering the Davies/fully-secular generator.
    """
    full = cutoff == "full" or cutoff == 0
    return _redfield_generator(H_S, X, bath, cutoff=-1.0 if full else float(cutoff))


def brme_real_only(H_S, X, bath: bathmod.BathParams) -> Liouvillian:
    """BRME with Im Gamma_m forced to zero; steady state is the Gibbs state."""
    return _redfield_generator(H_S, X, bath, real_only=True)


def default_rate_model(beta: float, nu0: float = 1.0):
    """Bounded KMS-symmetric rate profile f(E) = nu0 e^(beta E/2)/(2 cosh(beta E/2))."""

    def f(E):
        return nu0 / (1.0 + np.exp(-beta * np.asarray(E, dtype=float)))

    return f


def pauli_ultrastrong(split: PointerSplit, bath: bathmod.BathParams,
                      rate_model=None) -> Liouvillian:
    """Ultrastrong-coupling generator in the pointer basis of X.

    Populations follow the Pauli equation with hopping rates
    k_mn = |H_J[m, n]|^2 f(eps_n - eps_m) (rate into m, detailed-balanced for
    KMS-symmetric f); pointer coherences decay at least as fast as the
    fastest population rate. Operates in the pointer basis directly.
    """
    beta = bath.beta
    if rate_model is None:
        rate_model = default_rate_model(beta)
    eps = np.diag(split.H_eps).real
    d = len(eps)
    # the rate profile must satisfy f(-E) = e^(-beta E) f(E), f >= 0
    probe = np.linspace(-3.0, 3.0, 13) * max(np.abs(eps).max(), 1.0)
    fvals, fneg = np.asarray(rate_model(probe)), np.asarray(rate_model(-probe))
    if np.any(fvals < 0) or not np.allclose(
            fneg, np.exp(-beta * probe) * fvals,
            rtol=1e-9, atol=1e-12 * max(1.0, np.abs(fvals).max())):
        raise ValueError("rate model violates the KMS symmetry f(-E) = e^(-bE) f(E)")

    k = np.abs(split.H_J) ** 2 * np.asarray(
        rate_model(eps[None, :] - eps[:, None]), dtype=float)
    np.fill_diagonal(k, 0.0)
    pop_rates = k.sum(axis=0)  # total escape rate from each pointer state
    deco = max(pop_rates.max(), np.abs(k).max(), 1e-12)
    # strong-decoherence limit: coherences die no slower than the fastest
    # population transfer; the population block (indices i + d i of |i><i|)
    # is the Pauli rate matrix
    mat = np.diag(vec(-(deco + 0.5 * (pop_rates[:, None] + pop_rates[None, :]))))
    pops = np.arange(d) * (d + 1)
    mat[np.ix_(pops, pops)] = k - np.diag(pop_rates)
    return Liouvillian(mat)


def evolve(L: Liouvillian, rho0: np.ndarray, t_grid) -> Trajectory:
    """rho(t_k) = e^(L (t_k - t_0)) rho0, with rho0 the state at t_grid[0].

    Exact propagation: one scaling-and-squaring matrix exponential per grid
    point (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)).
    A trace drift above TRACE_DRIFT_ABORT means L is not trace preserving.
    """
    rho0 = require_density_matrix(rho0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be ascending and start at t >= 0")
    v0 = vec(rho0)
    states = np.array([unvec(scipy.linalg.expm(L.matrix * (t - t_grid[0])) @ v0)
                       for t in t_grid])
    drift = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    if drift.max() > TRACE_DRIFT_ABORT:
        raise RuntimeError(f"trace drift {drift.max():.3e} exceeds the abort threshold")
    adj = states.conj().transpose(0, 2, 1)
    return Trajectory(
        times=t_grid, states=list(states),
        trace_deviation=drift,
        hermiticity_deviation=np.abs(states - adj).max(axis=(1, 2)),
        min_eigenvalue=np.linalg.eigvalsh((states + adj) / 2)[:, 0],
    )


def _hermitian_null_basis(vectors: np.ndarray) -> list:
    """Orthonormal (Hilbert-Schmidt) basis of the Hermitian matrices spanned by
    the columns of vectors. A single vector keeps its own Hermitian part."""
    mats = [unvec(v) for v in vectors.T]
    if len(mats) == 1:
        return [(mats[0] + dag(mats[0])) / 2]
    d2 = vectors.shape[0]
    parts = [p for m in mats for p in ((m + dag(m)) / 2, (m - dag(m)) / 2j)]
    flat = np.array([np.concatenate([vec(p).real, vec(p).imag]) for p in parts])
    _, sv, vt = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return [unvec(row[:d2] + 1j * row[d2:]) for row in vt[:rank]]


def _clip_to_state(m, orient=False):
    """(rho, negativity) from Hermitian m: its positive part at unit trace, and
    the negative weight removed relative to tr m (inf if tr m <= 0). With
    orient, m's sign is chosen by its larger-magnitude eigenvalue first.
    None if m has no positive part."""
    w, v = np.linalg.eigh(m)
    if orient and abs(w.min()) > abs(w.max()):
        w = -w
    trace, negativity = w.sum(), abs(w[w < 0].sum())
    w = np.clip(w, 0.0, None)
    if w.sum() <= 0:
        return None
    rho = (v * w) @ dag(v)
    return rho / np.trace(rho).real, (negativity / trace if trace > 0 else np.inf)


def _degenerate_candidates(basis: list) -> list:
    """Steady-state candidates from a Hermitian null space of dimension > 1.

    rho0 is the identity projected onto the null space, at unit trace. Every
    other basis direction is made traceless, and the two states where
    rho0 +- s T stops being positive are added: the ends of the segment of
    states through rho0 along T. For a null space of dimension 2 these are
    the two extremal steady states (the block states of a two-block model).
    For dimension > 2 they are boundary points of the steady-state set that
    depend on the basis the SVD picks, not its extremal states.
    """
    traces = np.array([np.trace(b).real for b in basis])
    if traces @ traces <= 1e-24:
        return []
    rho0 = sum(c * b for c, b in zip(traces, basis)) / (traces @ traces)
    p, u = np.linalg.eigh(rho0)
    keep = p > 1e-12 * p.max()
    whiten = u[:, keep] / np.sqrt(p[keep])
    candidates = [rho0]
    for coeffs in np.linalg.svd(traces[None, :])[2][1:]:  # traceless directions
        T = sum(c * b for c, b in zip(coeffs, basis))
        mu = np.linalg.eigvalsh(dag(whiten) @ T @ whiten)
        # rho0 + s T >= 0 on the support of rho0 for -1/max(mu) <= s <= -1/min(mu)
        candidates += [rho0 - T / m for m in (mu.min(), mu.max()) if m]
    return candidates


def steady_state(L: Liouvillian) -> SteadyStateReport:
    """Null space of the generator via full eigendecomposition.

    The tolerance ladder 1e-10 -> 1e-8 (relative to ||L||) guards against an
    empty numerical null space; the spectral gap is taken over the
    eigenvalues outside the accepted null space. The steady state is unique
    when the Hermitian matrices in the null space span one dimension; that
    null vector is Hermitized, positivity-projected and trace-normalized.
    A degenerate null space gives the candidates of _degenerate_candidates.
    The negative weight the projection removes is reported as
    clipped_negativity.
    """
    mat = L.matrix
    norm = max(np.linalg.norm(mat, 2), 1e-300)
    evals, evecs = np.linalg.eig(mat)

    null_idx = []
    for tol in (1e-10, 1e-9, 1e-8):
        null_idx = np.flatnonzero(np.abs(evals) < tol * norm)
        if null_idx.size:
            break
    if not null_idx.size:
        raise RuntimeError(
            f"no numerical null space (min |eigenvalue| = {np.abs(evals).min():.3e})"
        )
    basis = _hermitian_null_basis(evecs[:, null_idx])
    unique = len(basis) == 1
    if unique:
        found = [_clip_to_state(basis[0], orient=True)]
    else:
        found = [_clip_to_state(m) for m in _degenerate_candidates(basis)]
    found = [f for f in found if f is not None]
    if not found:
        raise RuntimeError("null space contained no positive-trace direction")
    states = [rho for rho, _ in found]

    residual = max(
        float(np.linalg.norm(mat @ vec(rho))) for rho in states
    )
    live = np.delete(evals, null_idx)
    gap = float(-live.real.max()) if live.size else 0.0
    return SteadyStateReport(
        states=states, residual=residual, spectral_gap=gap, unique=unique,
        clipped_negativity=float(max(neg for _, neg in found)),
    )
