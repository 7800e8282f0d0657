"""Numerically exact finite-bath oracle.

Discretizes a continuous spectral density into N bosonic modes with truncated
Fock spaces. The global Hamiltonian has two factors, the system and the bath:
    H_tot = H_S' (x) 1_B + 1_S (x) H_B + x (x) B,  x = lam (X + X^dag)/2,
with H_B = sum_k w_k n_k (diagonal), B = sum_k (g_k a_k^dag + g_k^* a_k) and,
with the counter term, H_S' = H_S + lam^2 (sum_k |g_k|^2/w_k) X^2. The bath
basis is the Fock states with each n_k <= n_max and energy sum_k n_k w_k <=
E_cut: the whole cube of (n_max+1)^N states at E_cut = inf, fewer below it (an
energy truncation, as in vibrational configuration interaction). H_tot is
built on them directly, as x (x) B with B's n_k -> n_k +- 1 hops, plus H_S' on
the diagonal of each (i, j) bath block plus the bath energies on the main
diagonal, in float64 when H_S, X and every g_k are real and in complex128
otherwise. On a cut it is bit for bit the cube's H_tot restricted to the kept
states, and DIM_CAP bounds the dimension built.

Most of the cube lies far above anything a thermal or a virtual process
reaches, so ladder_mfg raises E_cut rung by rung from the thermal bound until
two successive reduced states agree (the last difference is the truncation
error's estimate), and takes the cube at once at high temperature. On the
benchmark's oracle (cube 1024, beta = 1) the rungs hold 174, 284 and 410
states.

The reduced state needs only the thermal window of the spectrum of H_tot:
the k eigenpairs with E_i <= upper = min diag(H_tot) + (ln D + 37)/beta. Each
diagonal entry is a Rayleigh quotient, so E_0 <= min diag(H_tot), and the
pairs left out carry at most D e^(-beta(upper - E_0)) <= e^-37 < eps/2 of Z.
While k is below about a fifth of D, LAPACK's ?syevr (?heevr) finds those k
pairs alone, by value; a wider window takes the full decomposition, which is
faster there. Each solve works on its own copy of H_tot, about 2 H_tot at its
peak, and nothing writes to H_tot after assemble. Only a cold bath narrows
the window, and the ladder then copies rungs of at most CUBE_SHARE of the
cube, so its peak stays below that of a warm bath's full solves. With the
columns v_i of V (D x k) reshaped to d_s x D_B and p_i = e^(-beta E_i)/Z,
rho_S = tr_B sum_i p_i |v_i><v_i| is one GEMM (V p) V^dag over V reshaped to
d_s x (D_B k), so the global Gibbs state is never formed.
Everything here is deterministic: fixed spec in, bit-identical numbers out.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .opcore import boltzmann, dag, require_hermitian, trace_distance

LINEAR = "linear"
GAUSS = "gauss"
DIM_CAP = 16384
# Boltzmann weights below e^-WEIGHT_EXPONENT < eps/2 of the ground state's are
# rounding (see the module docstring)
WEIGHT_EXPONENT = 37.0
# The value-range solve is faster while the window holds less than 1/7 (D =
# 138), 1/5 (D = 236 to 640) or 1/4 to 1/3 (D = 744 to 1144) of the spectrum
# (1 BLAS thread); eig's proxy, the diagonal share <= upper, was within 0.03
WINDOW_FRACTION = 0.2
# ladder_mfg stops at two rungs this close in trace distance, or takes the
# cube when a rung would hold more than this share of it
LADDER_TOL = 1e-14
CUBE_SHARE = 0.5


def discretize(J, N: int, omega_max: float, scheme: str = LINEAR):
    """N-mode discretization of J on (0, omega_max]: returns [(omega_k, g_k)].

    LINEAR puts modes at midpoints of equal panels with |g_k|^2 = J(w_k) dw;
    GAUSS uses Gauss-Legendre nodes and weights.
    """
    if N < 1:
        raise ValueError("need at least one mode")
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    if scheme == LINEAR:
        dw = omega_max / N
        omegas = (np.arange(N) + 0.5) * dw
        weights = np.full(N, dw)
    elif scheme == GAUSS:
        x, w = np.polynomial.legendre.leggauss(N)
        omegas = 0.5 * omega_max * (x + 1.0)
        weights = 0.5 * omega_max * w
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    g = np.sqrt(np.asarray(J.j(omegas), dtype=float) * weights)
    return [(float(wk), complex(gk)) for wk, gk in zip(omegas, g)]


@dataclass(frozen=True)
class FiniteBathSpec:
    modes: tuple
    fock_cutoff: int
    counter_term: bool = True

    def __post_init__(self):
        modes = tuple((float(w), complex(g)) for w, g in self.modes)
        if any(w <= 0 for w, _ in modes):
            raise ValueError("all mode frequencies must be positive")
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1")
        # modes ascending in omega so the tensor ordering is reproducible
        object.__setattr__(self, "modes", tuple(sorted(modes)))


@dataclass
class GlobalModel:
    system_dim: int
    H_tot: np.ndarray
    _eig: tuple | None = field(default=None, repr=False)

    def eig(self, upper: float | None = None):
        """Eigenvalues (ascending) and eigenvectors of H_tot: the expensive step.

        eig() is the full decomposition, cached. eig(upper) returns at least
        every eigenpair with eigenvalue <= upper. While fewer than
        WINDOW_FRACTION of the diagonal entries of H_tot lie at or below upper
        (the proxy for the number of eigenvalues there) and nothing is cached,
        it returns exactly the pairs <= upper from one value-range solve on a
        copy of H_tot, and caches nothing; otherwise the cached full decomposition. A
        caller that reduces one model at several temperatures can call eig()
        first, so that every later request is served from the cache.
        """
        h = self.H_tot
        if (upper is not None and self._eig is None
                and np.count_nonzero(h.diagonal().real <= upper) < WINDOW_FRACTION * len(h)):
            return scipy.linalg.eigh(h, subset_by_value=(-np.inf, upper), driver="evr",
                                     check_finite=False)
        if self._eig is None:
            self._eig = tuple(np.linalg.eigh(h))
        return self._eig


def _bath_states(spec: FiniteBathSpec, e_cut: float, d_s: int):
    """The bath's Fock states with energy sum_k n_k w_k <= e_cut, in cube
    order (the last mode's n_k runs fastest): their energies and cube indices.

    The energies are the cube's, summed one mode at a time as
    np.add.outer(., diag((w_k a^dag) a)). Partial sums only grow, so a state
    is dropped as soon as its first modes exceed e_cut, and no stage holds
    more states than the last: DIM_CAP is checked at every stage, before
    anything of that size is built.
    """
    n_levels = spec.fock_cutoff + 1
    if n_levels ** len(spec.modes) > np.iinfo(np.intp).max:
        raise ValueError(f"{n_levels}^{len(spec.modes)} Fock states overflow the cube index")
    a = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1)
    energies, index = np.zeros(1), np.zeros(1, dtype=np.intp)
    for w_k, _ in spec.modes:  # each mode appends one factor on the right
        # the diagonal of (w_k a^dag) a, not w_k n, which rounds differently
        energies = np.add.outer(energies, np.diag((w_k * a.T) @ a)).ravel()
        index = np.add.outer(index * n_levels, np.arange(n_levels)).ravel()
        kept = energies <= e_cut
        energies, index = energies[kept], index[kept]
        if d_s * len(index) > DIM_CAP:
            raise ValueError(f"global dimension {d_s * len(index)} or more exceeds "
                             f"the cap {DIM_CAP}")
    return energies, index


def assemble(H_S, X, lam: float, spec: FiniteBathSpec, e_cut: float = np.inf) -> GlobalModel:
    """H_tot = H_S + sum_k w_k a_k^dag a_k + lam X sum_k (g_k a_k^dag + h.c.)
    plus, when enabled, the counter term lam^2 (sum_k |g_k|^2/w_k) X^2, on the
    bath states with sum_k n_k w_k <= e_cut (by default the whole cube).

    B joins the kept states that differ by one quantum of one mode: the hop
    n_k -> n_k + 1 has amplitude g_k sqrt(n_k + 1), found through the sorted
    cube indices. Each entry is the product x_ab B_ij that np.kron(x, B)
    forms, so H_tot on a cut is bit for bit the principal submatrix of the
    cube's H_tot on the kept states."""
    H_S = require_hermitian(H_S)
    X = require_hermitian(X)
    d_s = H_S.shape[0]
    energies, index = _bath_states(spec, e_cut, d_s)
    bath_dim = len(index)

    real = not (H_S.imag.any() or X.imag.any() or any(g.imag for _, g in spec.modes))
    coupling_sq = sum(abs(g) ** 2 / w for w, g in spec.modes) if spec.counter_term else 0.0
    h_sys = H_S + lam**2 * coupling_sq * (X @ X)
    # Hermitian factors make the sum exactly Hermitian
    h_sys, x = (h_sys + dag(h_sys)) / 2, lam * (X + dag(X)) / 2
    h_sys, x = (h_sys.real, x.real) if real else (h_sys, x)
    h = np.zeros((d_s, bath_dim, d_s, bath_dim), dtype=h_sys.dtype)
    stride = 1
    for w_k, g_k in reversed(spec.modes):  # the last mode has stride 1
        g_k = g_k.real if real else g_k
        n_k = index // stride % (spec.fock_cutoff + 1)
        lower = np.flatnonzero(n_k < spec.fock_cutoff)
        target = index[lower] + stride
        raised = np.minimum(np.searchsorted(index, target), bath_dim - 1)
        hop = index[raised] == target
        lower, raised = lower[hop], raised[hop]
        root = np.sqrt(n_k[lower] + 1.0)
        h[:, raised, :, lower] = x * (g_k * root)[:, None, None]
        h[:, lower, :, raised] = x * (np.conj(g_k) * root)[:, None, None]
        stride *= spec.fock_cutoff + 1
    b = np.arange(bath_dim)
    h[:, b, :, b] += h_sys
    h = h.reshape(d_s * bath_dim, d_s * bath_dim)
    h.flat[::len(h) + 1] += np.tile(energies, d_s)
    return GlobalModel(system_dim=d_s, H_tot=h)


def _require_beta(beta: float):
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be finite and positive, got {beta}")


def thermal_window(model: GlobalModel, beta: float):
    """The eigenpairs of H_tot that carry Boltzmann weight at beta: at least
    every E_i <= min diag(H_tot) + (ln D + WEIGHT_EXPONENT)/beta, so the pairs
    left out hold less than eps/2 of Z."""
    _require_beta(beta)
    diagonal = model.H_tot.diagonal().real
    return model.eig(diagonal.min() + (np.log(len(diagonal)) + WEIGHT_EXPONENT) / beta)


def exact_mfg(model: GlobalModel, beta: float) -> np.ndarray:
    """Reduced MFG state tr_B e^(-beta H_tot)/Z from the thermal window: the
    eigenpairs left out carry less than eps/2 of Z, and a wide window takes
    the full decomposition."""
    w, v = thermal_window(model, beta)
    rows = v.reshape(model.system_dim, -1)  # (system, bath x eigenvector)
    rho = (v * boltzmann(w, beta)).reshape(rows.shape) @ dag(rows)
    rho = (rho + dag(rho)) / 2
    return rho / np.trace(rho).real


def ladder_mfg(H_S, X, lam: float, spec: FiniteBathSpec, beta: float) -> np.ndarray:
    """exact_mfg of the cube's H_tot, from energy-cut rungs of it.

    The first rung keeps the bath states up to the thermal bound (ln D +
    WEIGHT_EXPONENT)/beta above the bath ground state, D the cube's global
    dimension. Each next rung is the highest mode frequency higher, so it
    holds every state one quantum above the last rung: each step adds the
    whole next shell that B reaches (half that step stopped 1e-3 off the
    cube where it added only states of a weakly coupled mode). The ladder
    stops when two successive reduced states lie within LADDER_TOL in trace
    distance, or takes the cube at once when a rung would hold more than
    CUBE_SHARE of it. The first rung only counts against a second, so it
    takes the cube when the second would. A rung that adds no state (by
    rounding at the cut) is passed over, and one that holds the whole cube
    is the last.
    """
    _require_beta(beta)
    d_s = len(H_S)
    states = (spec.fock_cutoff + 1) ** len(spec.modes)
    e_cut = (np.log(d_s * states) + WEIGHT_EXPONENT) / beta
    step = max(w for w, _ in spec.modes)
    rho, last = None, 0
    while True:
        count = len(_bath_states(spec, e_cut, d_s)[1])
        ahead = count if rho is not None else len(_bath_states(spec, e_cut + step, d_s)[1])
        if ahead > CUBE_SHARE * states:
            return exact_mfg(assemble(H_S, X, lam, spec), beta)
        if count > last:
            rung = exact_mfg(assemble(H_S, X, lam, spec, e_cut), beta)
            if count == states or (rho is not None and trace_distance(rung, rho) <= LADDER_TOL):
                return rung
            rho, last = rung, count
        e_cut += step


def effective_dimension(rho_sb_0: np.ndarray, model: GlobalModel) -> float:
    """d_eff = 1/tr[rho_bar^2] with rho_bar the eigenbasis-dephased state."""
    w, v = model.eig()
    gaps = np.diff(w)  # eigh returns w ascending
    if len(gaps) and gaps.min() < 1e-10 * max(1.0, np.abs(w).max()):
        warnings.warn("near-degenerate global spectrum: d_eff dephasing is "
                      "basis-sensitive", stacklevel=2)
    populations = np.einsum("ki,ki->i", v.conj(), np.asarray(rho_sb_0) @ v).real
    return float(1.0 / np.sum(populations**2))


@dataclass(frozen=True)
class TruncationStudy:
    cutoffs: tuple
    values: tuple
    converged: bool
    certified_value: float
    certified_cutoff: int


def truncation_study(model_builder, observable, n_max_start: int = 2,
                     n_max_stop: int = 12, step: int = 2,
                     tol: float = 1e-8) -> TruncationStudy:
    """Raise the Fock cutoff until the observable moves less than tol.

    model_builder(n_max) -> GlobalModel; observable(model) -> float.
    """
    cutoffs, values = [], []
    for n_max in range(n_max_start, n_max_stop + 1, step):
        cutoffs.append(n_max)
        values.append(float(observable(model_builder(n_max))))
        if len(values) >= 2 and abs(values[-1] - values[-2]) < tol:
            return TruncationStudy(tuple(cutoffs), tuple(values), True,
                                   values[-1], n_max)
    raise RuntimeError(
        f"observable did not converge to {tol} by n_max = {n_max_stop}: "
        f"values {values}"
    )
