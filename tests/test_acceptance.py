"""End-to-end acceptance suite: the checks a release must pass.

Each test pins one headline capability (equilibrium anchors, generator
steady states, perturbative scaling against the numerically exact
finite-bath oracle, cross-route identities) at the stated tolerance.
"""

import warnings

import numpy as np
import pytest

from mfgkit import bath, cli, finitebath, megen, mfstatics
from mfgkit.opcore import dag, gibbs, trace_distance

from conftest import random_hermitian

K_B = 1.380649e-23
HBAR = 1.054571817e-34

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
H_SB = 0.5 * SZ + 0.25 * SX  # eps = 1, Delta = 0.5

DRUDE = bath.DrudeLorentz(gamma=0.1, omega_d=5.0)


def test_01_qubit_gibbs_population_anchor():
    # gap 2e-21 J at 317 K: excited population 0.388
    gap_joule, temp = 2.0e-21, 317.0
    beta = gap_joule / (K_B * temp)  # natural units with E_ref = gap
    tau = gibbs(np.diag([0.0, 1.0]).astype(complex), beta)
    assert abs(tau[1, 1].real - 0.388) < 1e-3


def test_02_davies_steady_state_is_gibbs():
    rng = np.random.default_rng(2024)
    bp = bath.BathParams(J=DRUDE, beta=0.7, lam=0.2)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(rng, dim)
        x = random_hermitian(rng, dim)
        ss = megen.steady_state(megen.davies_generator(h, x, bp)).states[0]
        assert trace_distance(ss, gibbs(h, 0.7)) < 1e-9


def test_03_detailed_balance_of_asymptotic_rates():
    # emission/absorption rate ratio: 2 Re Gamma(-w) / 2 Re Gamma(w) = e^(beta w)
    for w in (0.3, 0.8, 1.25, 2.0, 3.5):
        for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
            down = 2 * bath.gamma_m(DRUDE, beta, -w, bath.ASYMPTOTIC).real
            up = 2 * bath.gamma_m(DRUDE, beta, w, bath.ASYMPTOTIC).real
            assert abs(down / up - np.exp(beta * w)) < 1e-8 * np.exp(beta * w)


def test_04_brme_coherences_match_weak_mfg_at_second_order():
    w, v = np.linalg.eigh(H_SB)
    diffs, ratio_err = [], None
    for lam in (0.08, 0.04, 0.02):
        bp = bath.BathParams(J=DRUDE, beta=1.0, lam=lam)
        ss = megen.steady_state(megen.brme_generator(H_SB, SZ, bp)).states[0]
        mw = mfstatics.mfg_weak(H_SB, SZ, bp).state
        d = dag(v) @ (ss - mw) @ v  # energy eigenbasis
        off = d - np.diag(np.diag(d))
        diffs.append(np.linalg.norm(off))
        if lam == 0.02:
            coh_ss = (dag(v) @ ss @ v)[0, 1]
            coh_mw = (dag(v) @ mw @ v)[0, 1]
            ratio_err = abs(coh_ss / coh_mw - 1.0)
    assert np.log2(diffs[0] / diffs[1]) >= 3.0
    assert np.log2(diffs[1] / diffs[2]) >= 3.0
    assert ratio_err < 0.02


def test_05_brme_diagonals_differ_from_weak_mfg_at_second_order():
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 3)
    x = random_hermitian(rng, 3)
    w, v = np.linalg.eigh(h)
    scaled = []
    for lam in (0.04, 0.02, 0.01):
        bp = bath.BathParams(J=DRUDE, beta=1.0, lam=lam)
        ss = megen.steady_state(megen.brme_generator(h, x, bp)).states[0]
        mw = mfstatics.mfg_weak(h, x, bp).state
        dd = np.diag(dag(v) @ (ss - mw) @ v).real
        scaled.append(np.linalg.norm(dd) / lam**2)
    # lam^2-scaled diagonal discrepancy settles on a nonzero constant
    assert scaled[-1] > 0.01
    assert abs(scaled[0] / scaled[-1] - 1.0) < 0.05
    assert abs(scaled[1] / scaled[-1] - 1.0) < 0.02


def test_06_pauli_ultrastrong_steady_state_is_static_mfg():
    rng = np.random.default_rng(99)
    beta = 1.3
    rate_models = [
        megen.default_rate_model(beta),
        megen.default_rate_model(beta, nu0=2.5),
        lambda E: np.exp(beta * np.asarray(E, dtype=float) / 2),
    ]
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        h = random_hermitian(rng, dim)
        x = random_hermitian(rng, dim)
        split = mfstatics.pointer_split(h, x)
        expected = mfstatics.mfg_ultrastrong(h, x, beta).state
        for f in rate_models:
            L = megen.pauli_ultrastrong(
                split, bath.BathParams(J=DRUDE, beta=beta, lam=1.0), rate_model=f
            )
            rho = megen.steady_state(L).states[0]
            u = split.pointer_basis
            assert trace_distance(u @ rho @ dag(u), expected) < 1e-12


@pytest.mark.slow
def test_07_oracle_confirms_fourth_order_weak_coupling_error():
    J = bath.DrudeLorentz(gamma=0.3, omega_d=5.0)
    modes = finitebath.discretize(J, 4, 15.0, finitebath.LINEAR)
    spec = finitebath.FiniteBathSpec(modes=tuple(modes), fock_cutoff=5)
    J_disc = bath.DiscreteModes(modes=tuple((w, abs(g) ** 2) for w, g in modes))
    dists = []
    for lam in (0.4, 0.2, 0.1):
        model = finitebath.assemble(H_SB, SZ, lam, spec)
        exact = finitebath.exact_mfg(model, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            weak = mfstatics.mfg_weak(
                H_SB, SZ, bath.BathParams(J=J_disc, beta=1.0, lam=lam)
            ).state
        dists.append(trace_distance(exact, weak))
    # exact-vs-second-order distance is O(lam^4): each halving shrinks it
    # by ~16; >= 12 leaves room for Fock truncation noise
    assert dists[0] / dists[1] >= 12.0
    assert dists[1] / dists[2] >= 12.0


@pytest.mark.slow
def test_08_high_temperature_formula_tracks_oracle():
    # projector-coupled dimer with one bath per site, ell beta = 0.5 at the
    # coldest point; equivalent single-bath oracle couples X = sigma_z/2
    # with doubled mode weights (the symmetric bath combination factorizes)
    J_p = bath.DrudeLorentz(gamma=0.1, omega_d=5.0)
    raw = finitebath.discretize(J_p, 4, 15.0, finitebath.LINEAR)
    ell_raw = sum(abs(g) ** 2 / w for w, g in raw)
    boost = np.sqrt(0.5 / ell_raw)  # pin the discrete ell_p at exactly 0.5
    modes = tuple((w, complex(boost * abs(g))) for w, g in raw)
    J_disc = bath.DiscreteModes(modes=tuple((w, abs(g) ** 2) for w, g in modes))
    oracle_modes = tuple((w, complex(np.sqrt(2.0) * abs(g))) for w, g in modes)
    spec = finitebath.FiniteBathSpec(modes=oracle_modes, fock_cutoff=5)
    projectors = [np.diag([1.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0]).astype(complex)]

    model = finitebath.assemble(H_SB, SZ / 2, 1.0, spec)
    model.eig()  # one full decomposition serves all three temperatures
    dists = []
    for beta in (1.0, 0.5, 0.25):  # ell beta = 0.5, 0.25, 0.125
        exact = finitebath.exact_mfg(model, beta)
        high_t = mfstatics.mfg_high_t(
            H_SB, projectors, [(J_disc, 1.0)] * 2, beta
        ).state
        dists.append(trace_distance(exact, high_t))
    assert dists[0] <= 0.05
    assert dists[0] > dists[1] > dists[2]


def test_09_caldeira_leggett_cross_route_identity():
    from mfgkit import clexact

    for gamma in (0.1, 0.5, 1.0):
        for omega_d in (2.0, 5.0, 10.0):
            p = clexact.CLParams(omega_0=1.0, gamma=gamma, omega_D=omega_d,
                                 beta=2.0)
            m = clexact.moments(p)
            J = bath.DrudeLorentz(gamma=gamma, omega_d=omega_d)
            x2 = clexact.position_correlation(J, 2.0, 1.0)
            assert abs(p.omega_0 * x2 - m.xx) / m.xx < 1e-4
    # vanishing damping reproduces the free oscillator
    m = clexact.moments(clexact.CLParams(1.0, 1e-8, 5.0, 2.0))
    free = 0.5 / np.tanh(1.0)
    assert abs(m.xx - free) / free < 1e-5


def test_10_strong_coupling_formulas_agree_at_high_temperature():
    sc = cli.Scenario(cli.PRESETS["fig1_strong"])
    projectors, baths = cli._high_t_inputs(sc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        high_t = mfstatics.mfg_high_t(sc.H_S, projectors, baths, sc.beta).state
    ultra = mfstatics.mfg_ultrastrong(sc.H_S, sc.X, sc.beta).state
    assert trace_distance(high_t, ultra) <= 0.1


def test_11_dynamics_hygiene():
    bp = bath.BathParams(J=DRUDE, beta=1.0, lam=0.3)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t_grid = np.linspace(0.0, 40.0, 120)

    davies = megen.evolve(megen.davies_generator(H_SB, SZ, bp), rho0, t_grid)
    brme = megen.evolve(megen.brme_generator(H_SB, SZ, bp), rho0, t_grid)
    for traj in (davies, brme):
        assert traj.trace_deviation.max() < 1e-9
        assert traj.hermiticity_deviation.max() < 1e-9
    assert davies.min_eigenvalue.min() > -1e-9
    # BRME negativity, when present, is reported faithfully: the monitor
    # matches the actual spectrum of the emitted (unclamped) states
    for k in (1, len(t_grid) // 2, -1):
        recomputed = float(np.linalg.eigvalsh(
            (brme.states[k] + dag(brme.states[k])) / 2
        ).min())
        assert brme.min_eigenvalue[k] == pytest.approx(recomputed, abs=1e-14)


def test_12_effective_dimension_anchors_and_trend():
    J = bath.DrudeLorentz(gamma=0.3, omega_d=5.0)
    n_max = 3
    modes4 = finitebath.discretize(J, 4, 15.0, finitebath.LINEAR)
    spec4 = finitebath.FiniteBathSpec(modes=tuple(modes4), fock_cutoff=n_max)
    model4 = finitebath.assemble(H_SB, SZ, 0.3, spec4)
    dim4 = model4.H_tot.shape[0]

    w, v = model4.eig()
    eigstate = np.outer(v[:, 7], v[:, 7].conj())
    assert finitebath.effective_dimension(eigstate, model4) == pytest.approx(
        1.0, abs=1e-10
    )
    mixed = np.eye(dim4, dtype=complex) / dim4
    assert finitebath.effective_dimension(mixed, model4) == pytest.approx(
        dim4, rel=1e-8
    )

    rng = np.random.default_rng(7)

    def rand_pure(d):
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())

    models = []
    for N in range(1, 5):
        modes = finitebath.discretize(J, N, 15.0, finitebath.LINEAR)
        spec = finitebath.FiniteBathSpec(modes=tuple(modes), fock_cutoff=n_max)
        models.append(finitebath.assemble(H_SB, SZ, 0.3, spec))

    monotone = 0
    for _ in range(20):
        sys_state = rand_pure(2)
        mode_states = [rand_pure(n_max + 1) for _ in range(4)]
        deffs = []
        for N, model in zip(range(1, 5), models):
            rho = sys_state
            for k in range(N):
                rho = np.kron(rho, mode_states[k])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                deffs.append(finitebath.effective_dimension(rho, model))
        monotone += all(b >= a - 1e-9 for a, b in zip(deffs, deffs[1:]))
    assert monotone >= 18
