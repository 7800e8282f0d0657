"""Numerically exact finite-bath oracle.

Discretizes a continuous spectral density into N bosonic modes with truncated
Fock spaces. The global Hamiltonian has two factors, the system and the bath
of dimension D_B = (n_max+1)^N:
    H_tot = H_S' (x) 1_B + 1_S (x) H_B + lam X (x) B,
with H_B = sum_k w_k n_k, B = sum_k (g_k a_k^dag + g_k^* a_k) and, with the
counter term, H_S' = H_S + lam^2 (sum_k |g_k|^2/w_k) X^2. Reduced MFG states
come from the dense spectrum H_tot = sum_i E_i |v_i><v_i| without forming the
global Gibbs state: with each v_i reshaped to a d_s x D_B matrix and
p_i = e^(-beta E_i)/Z, rho_S = tr_B sum_i p_i |v_i><v_i| = sum_i p_i v_i v_i^dag.
Everything here is deterministic: fixed spec in, bit-identical numbers out.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .opcore import boltzmann, dag, require_hermitian

LINEAR = "linear"
GAUSS = "gauss"
DIM_CAP = 16384


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


def _ladder(n_levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1).astype(complex)


@dataclass
class GlobalModel:
    system_dim: int
    H_tot: np.ndarray
    _eig: tuple | None = field(default=None, repr=False)

    def eig(self):
        """Cached eigendecomposition of H_tot (the expensive step)."""
        if self._eig is None:
            h = self.H_tot
            if np.abs(h.imag).max() == 0.0:
                w, v = np.linalg.eigh(h.real)
                v = v.astype(complex)
            else:
                w, v = np.linalg.eigh(h)
            self._eig = (w, v)
        return self._eig


def assemble(H_S, X, lam: float, spec: FiniteBathSpec) -> GlobalModel:
    """H_tot = H_S + sum_k w_k a_k^dag a_k + lam X sum_k (g_k a_k^dag + h.c.)
    plus, when enabled, the counter term lam^2 (sum_k |g_k|^2/w_k) X^2."""
    H_S = require_hermitian(H_S)
    X = require_hermitian(X)
    d_s = H_S.shape[0]
    n_levels = spec.fock_cutoff + 1
    bath_dim = n_levels ** len(spec.modes)
    if d_s * bath_dim > DIM_CAP:
        raise ValueError(f"global dimension {d_s * bath_dim} exceeds the cap {DIM_CAP}")

    a = _ladder(n_levels)
    H_B = B = np.zeros((1, 1))
    for w_k, g_k in spec.modes:  # each mode appends one factor on the right
        one_b, one_k = np.eye(len(B)), np.eye(n_levels)
        H_B = np.kron(H_B, one_k) + np.kron(one_b, w_k * dag(a) @ a)
        B = np.kron(B, one_k) + np.kron(one_b, g_k * dag(a) + np.conj(g_k) * a)
    coupling_sq = sum(abs(g) ** 2 / w for w, g in spec.modes) if spec.counter_term else 0.0
    h_sys = H_S + lam**2 * coupling_sq * (X @ X)
    # Hermitian factors make the Kronecker sum exactly Hermitian
    h = np.kron((h_sys + dag(h_sys)) / 2, np.eye(bath_dim))
    h += np.kron(np.eye(d_s), H_B)
    h += np.kron(lam * (X + dag(X)) / 2, B)
    return GlobalModel(system_dim=d_s, H_tot=h)


def exact_mfg(model: GlobalModel, beta: float) -> np.ndarray:
    """Reduced MFG state tr_B e^(-beta H_tot)/Z from the cached spectrum."""
    w, v = model.eig()
    v = v.reshape(model.system_dim, -1, len(w))  # (system, bath, eigenvector)
    rho = np.einsum("aki,bki,i->ab", v, v.conj(), boltzmann(w, beta), optimize=True)
    rho = (rho + dag(rho)) / 2
    return rho / np.trace(rho).real


def effective_dimension(rho_sb_0: np.ndarray, model: GlobalModel) -> float:
    """d_eff = 1/tr[rho_bar^2] with rho_bar the eigenbasis-dephased state."""
    w, v = model.eig()
    gaps = np.diff(np.sort(w))
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
