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

The family is built in the eigenbasis V of H_S, where H_S = diag(E) exactly
and each X_m is the entries of V^dag X V with one Bohr label, so every mode
sum is a gather (_redfield_generator). A Liouvillian keeps that matrix and
V, and rotates the original-basis matrix out of them when it is read (evolve
and apply read it). At weak coupling
the populations and the coherences between degenerate levels relax at rates
of order lambda^2 against ||H_S||, and the energy basis keeps them apart from
the rest exactly (for Davies the two blocks do not couple at all), which
steady_state uses. Rotating a finished L into the energy basis would not:
the rotation puts eps ||L|| into the population rows.

The ultrastrong-coupling Pauli generator is built in the pointer basis of X.

Evolution is exact: rho(t) = e^(L t) rho(0), stepped from one grid point to
the next by one matrix exponential per distinct step of the time grid.

Steady states are found in the real Hermitian frame of the stored basis.
Every generator here maps Hermitian matrices to Hermitian matrices, so in an
orthonormal basis of Hermitian matrices it is a real matrix: the
coherence-vector form (Alicki & Lendi, Quantum Dynamical Semigroups and
Applications, LNP 286 (1987)). The fixed unitary U of _hermitian_frame takes
vec(rho) to the diagonal entries, then sqrt(2) Re and sqrt(2) Im of each
upper entry of rho; R = U L U^dag is real, and its LU, eigenvalues, 2-norm
and SVD run in real LAPACK. steady_state eliminates the fast
coordinates with one LU and finds the null space on the slow Schur
complement, at its own scale lambda^2 rather than ||L||. It raises
ValueError for a generator whose Im(U L U^dag) exceeds the rounding of L
(HERMITICITY_PRESERVATION_TOL max|L|), rather than drop it.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import bath as bathmod
from .eigenops import decompose
from .mfstatics import PointerSplit
from .opcore import dag, require_density_matrix, require_hermitian

TRACE_DRIFT_ABORT = 1e-7
HERMITICITY_PRESERVATION_TOL = 1e-12  # relative to max|L|, rounding of U L U^dag


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when called. Nothing in mfgkit calls
    it (evolve is exact); perfbench's tracer wraps it as megen.solve_ivp."""
    from scipy.integrate import solve_ivp as ivp

    return ivp(*args, **kwargs)


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Liouvillian:
    """A generator, held once: `stored` acts on vec(rho_V) for rho =
    V rho_V V^dag in the basis V = `basis` of the system, and `slow` marks the
    pairs (i, j) whose coordinates rho_V[i, j] relax on the slow scale, which
    steady_state keeps apart from the fast ones. `matrix`, the generator on
    vec(rho) (W stored W^dag, W = conj(V) kron V), is rotated out of the basis
    on each read. Liouvillian(mat) is mat itself: V the identity, every pair
    slow.
    """

    stored: np.ndarray
    basis: np.ndarray | None = None
    slow: np.ndarray | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self.stored if self.basis is None else _out_of_basis(self.stored, self.basis)

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
    """Redfield generator with mode pairs masked at |omega_m - omega_n| <= cutoff,
    built in the eigenbasis V of H_S, where H_S = diag(E).

    With x = V^dag X V and lab = the decomposition's mode labels, X_m has the
    entries x[a, b] at lab[a, b] = m, so every mode sum is a gather of the
    (M, M) coefficients at lab: the sandwich entry ((a, c), (b, e)) is
    rate[lab[a, b], lab[c, e]] x[a, b] conj(x[c, e]), and the pair sums
    sum_mn c_mn X_n^dag X_m are O(d^3) gathers. A dropped mode (lab = -1)
    gathers the zero row and column appended to the coefficients.
    """
    H_S = require_hermitian(H_S)
    dec = decompose(H_S, X)
    d, lam, w, lab, v = H_S.shape[0], bath.lam, dec.frequencies, dec.labels, dec.vectors
    x = dag(v) @ np.asarray(X, dtype=complex) @ v
    g = bathmod.gamma_m(bath.J, bath.beta, tuple(w.tolist()), time)
    if real_only:
        g = g.real.astype(complex)
    mask = np.eye(w.size, dtype=bool) | (np.abs(w[:, None] - w[None, :]) <= cutoff)
    rate, shift = np.zeros((2, w.size + 1, w.size + 1), dtype=complex)
    rate[:-1, :-1] = (g[:, None] + g.conj()[None, :]) * mask
    shift[:-1, :-1] = (g[:, None] - g.conj()[None, :]) / 2j * mask

    products = x.conj()[:, :, None] * x[:, None, :]  # [j, i, k] = conj(x[j, i]) x[j, k]
    modes = lab[:, None, :], lab[:, :, None]  # [j, i, k] -> (lab[j, k], lab[j, i])

    def pair_sum(c):
        """sum_mn c_mn X_n^dag X_m: [i, k] = sum_j c[lab[j, k], lab[j, i]] conj(x[j, i]) x[j, k]"""
        return (c[modes] * products).sum(axis=0)

    xf, lf = x.ravel(), lab.ravel()  # pair (a, b) at a d + b
    sandwich = rate[lf[:, None], lf[None, :]] * np.outer(xf, xf.conj())  # [(a, b), (c, e)]
    # the entry of vec(rho)[b + d e] in vec(L rho)[a + d c], as [c, a, e, b]
    mat = lam**2 * sandwich.reshape(d, d, d, d).transpose(2, 0, 3, 1)
    h_eff = np.diag(dec.energies.astype(complex)) + lam**2 * pair_sum(shift)
    anti = pair_sum(rate)
    idx = np.arange(d)
    mat[idx, :, idx, :] += -1j * h_eff - 0.5 * lam**2 * anti  # rho -> left rho
    mat[:, idx, :, idx] += (1j * h_eff - 0.5 * lam**2 * anti).T  # rho -> rho right
    return Liouvillian(mat.reshape(d * d, d * d), basis=v, slow=dec.degenerate)


def _out_of_basis(stored, v):
    """W stored W^dag, W = conj(V) kron V, as one d x d product per index of
    stored[(c, a), (e, b)] (vec positions a + d c and b + d e): O(d^5), not
    the O(d^6) of two dense products."""
    d = len(v)
    t = (stored.reshape(-1, d) @ dag(v)).reshape(d * d, d, d)  # b
    t = (v @ t).reshape(d, -1)  # e
    t = (v.conj() @ t).reshape(d, d, d * d)  # c
    return (v @ t).reshape(d * d, d * d)  # a


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
    fastest population rate. Operates in the pointer basis directly, with
    the populations marked slow, so that steady_state finds the null space
    on the d x d Pauli block.
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
    return Liouvillian(mat, slow=np.eye(d, dtype=bool))


def evolve(L: Liouvillian, rho0: np.ndarray, t_grid) -> Trajectory:
    """rho(t_k) = e^(L (t_k - t_0)) rho0, with rho0 the state at t_grid[0].

    Exact propagation, stepped: one scaling-and-squaring exponential
    P = e^(L dt) per distinct step dt of np.diff(t_grid) (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009); Moler & Van Loan, SIAM Rev. 45,
    3 (2003)), and vec(rho(t_(k+1))) = P vec(rho(t_k)). The steps are taken
    exactly: a linspace grid has a few that differ in the last bit, and a grid
    that is not uniform takes one exponential per distinct step. L is not
    diagonalized, since a Redfield generator need not be normal. A trace drift
    above TRACE_DRIFT_ABORT raises: L is not trace preserving, or the rounding
    of e^(L t), about ||L|| t eps, outgrew it at a long t.
    """
    rho0 = require_density_matrix(rho0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be ascending and start at t >= 0")
    steps, step_of = np.unique(np.diff(t_grid), return_inverse=True)
    mat = L.matrix
    propagators = [scipy.linalg.expm(mat * dt) for dt in steps]
    d = rho0.shape[0]
    v = np.empty((t_grid.size, d * d), dtype=complex)
    v[0] = vec(rho0)
    for k, j in enumerate(step_of):
        v[k + 1] = propagators[j] @ v[k]
    states = np.ascontiguousarray(v.reshape(-1, d, d).transpose(0, 2, 1))  # unvec of each row
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


@functools.lru_cache(maxsize=None)
def _hermitian_frame(d: int):
    """(c, p, q, U^dag) of the real Hermitian frame of d x d matrices.

    Row r of the unitary U is c_r e_(p_r) + conj(c_r) e_(q_r), with p_r the
    vec position of rho[i, j] (i <= j) and q_r that of rho[j, i]: first the d
    diagonal entries (c = 1/2, p = q), then sqrt(2) Re (c = 1/sqrt(2)) and
    sqrt(2) Im (c = -i/sqrt(2)) of each upper entry. (U vec(rho))_r =
    2 Re(c_r rho[i, j]) is real for every Hermitian rho. Built once per d,
    read-only.
    """
    iu, ju = np.triu_indices(d, 1)
    i, j = (np.concatenate([np.arange(d), k, k]) for k in (iu, ju))
    c = np.concatenate([np.full(d, 0.5), np.full(iu.size, np.sqrt(0.5)),
                        np.full(iu.size, -1j * np.sqrt(0.5))])
    p, q = i + d * j, j + d * i
    rows = np.arange(d * d)
    u = np.zeros((d * d, d * d), dtype=complex)
    u[rows, p] = c
    u[rows, q] += c.conj()  # a diagonal row: 1/2 + 1/2 at p = q
    u_dag = u.conj().T.copy()
    for a in (c, p, q, u_dag):
        a.flags.writeable = False
    return c, p, q, u_dag


def _in_frame(mat: np.ndarray, c, p, q) -> np.ndarray:
    """U mat U^dag from the two entries (c, p, q) of each row of U: O(d^4)
    gathers, not the O(d^6) of two dense products."""
    rows = c[:, None] * mat[p] + c.conj()[:, None] * mat[q]  # U mat
    return rows[:, p] * c.conj() + rows[:, q] * c


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


def _null_index(evals, norm):
    """Indices of the eigenvalues in the numerical null space. The tolerance
    ladder 1e-10 -> 1e-8 (relative to the given norm: ||S||_2 of the slow
    block in steady_state) guards against an empty one."""
    for tol in (1e-10, 1e-9, 1e-8):
        null_idx = np.flatnonzero(np.abs(evals) < tol * norm)
        if null_idx.size:
            return null_idx
    raise RuntimeError(
        f"no numerical null space (min |eigenvalue| = {np.abs(evals).min():.3e})")


def steady_state(L: Liouvillian) -> SteadyStateReport:
    """Null space of the generator by a slow/fast split, in the real
    Hermitian frame of its stored basis.

    R = U L_V U^dag is the real matrix of the stored L_V in the frame of
    _hermitian_frame (see the module docstring); U and W are unitary, so R
    has the eigenvalues of L. A generator whose Im(U L_V U^dag) exceeds
    HERMITICITY_PRESERVATION_TOL max|L_V| does not preserve Hermiticity and
    raises ValueError.

    The coordinates split into slow ones (the pairs L.slow marks: in the
    energy basis, the populations and the coherences between degenerate
    levels) and fast ones. One LU of the fast block R_ff gives the Schur
    complement S = R_ss - R_sf R_ff^-1 R_fs, whose null space is that of R
    restricted to the slow coordinates. At weak coupling R is of order
    ||H_S|| and S of order lambda^2, so the null space is found relative to
    the scale of S (_null_index over eigvals(S), relative to ||S||_2), not
    to ||L||. A null space of any dimension k is spanned by the k right
    singular vectors of S of least singular value, those within the 1e-8
    rung (Golub & Van Loan, Matrix Computations, sec. 2.4; eigenvectors of a
    repeated null eigenvalue can come out nearly parallel). For k = 1 it
    gives the unique steady state, and for k > 1 the candidates of
    _degenerate_candidates. The fast coordinates of a null vector v are
    -R_ff^-1 R_fs v, and it maps back to the exactly Hermitian
    unvec(U^dag v) in the stored basis. A unique null vector, of either
    sign and unit 2-norm, is oriented, positivity-projected and
    trace-normalized there (_clip_to_state), and the states are rotated back
    by V; the negative weight the projection removes is reported as
    clipped_negativity, and the residual is ||L_V vec(rho_V)||. The spectral
    gap is taken over eigvals(R) without its null-space-many eigenvalues of
    least modulus. Liouvillian(mat) has no fast block, so S = R.
    """
    mat = L.stored
    d = int(round(np.sqrt(len(mat))))
    c, p, q, u_dag = _hermitian_frame(d)
    framed = _in_frame(mat, c, p, q)
    leak = np.abs(framed.imag).max()
    if leak > HERMITICITY_PRESERVATION_TOL * max(np.abs(mat).max(), np.finfo(float).tiny):
        raise ValueError(f"generator does not preserve Hermiticity "
                         f"(max |Im U L U^dag| = {leak:.3e})")
    R = np.ascontiguousarray(framed.real)
    # frame row r holds the pair (i, j) at vec position p_r = i + d j; the d
    # diagonal rows come first and are slow
    slow = np.ones(len(R), dtype=bool) if L.slow is None else L.slow.ravel(order="F")[p]
    fast = ~slow
    S, elim = R, np.zeros((0, len(R)))
    if fast.any():  # one LU of the fast block: elim = R_ff^-1 R_fs
        elim = np.linalg.solve(R[np.ix_(fast, fast)], R[np.ix_(fast, slow)])
        S = R[np.ix_(slow, slow)] - R[np.ix_(slow, fast)] @ elim
    norm = max(np.linalg.norm(S, 2), 1e-300)
    s_evals = np.linalg.eigvals(S)
    evals = np.linalg.eigvals(R) if fast.any() else s_evals
    k = _null_index(s_evals, norm).size
    _, sv, vt = np.linalg.svd(S)  # the kernel: right singular vectors of least singular value
    null = vt[-k:][sv[-k:] <= 1e-8 * norm].T
    coords = np.empty((len(R), null.shape[1]))
    coords[slow] = null
    coords[fast] = -elim @ null
    basis = [unvec(v) for v in (u_dag @ coords).T]  # Hermitian matrices in the stored basis
    unique = len(basis) == 1
    if unique:
        found = [_clip_to_state(basis[0], orient=True)]
    else:
        found = [_clip_to_state(m) for m in _degenerate_candidates(basis)]
    found = [f for f in found if f is not None]
    if not found:
        raise RuntimeError("null space contained no positive-trace direction")

    residual = max(float(np.linalg.norm(mat @ vec(rho))) for rho, _ in found)
    v = np.eye(d) if L.basis is None else L.basis
    states = [v @ rho @ dag(v) for rho, _ in found]
    live = np.delete(evals, np.argsort(np.abs(evals))[:k])
    gap = float(-live.real.max()) if live.size else 0.0
    return SteadyStateReport(
        states=states, residual=residual, spectral_gap=gap, unique=unique,
        clipped_negativity=float(max(neg for _, neg in found)),
    )
