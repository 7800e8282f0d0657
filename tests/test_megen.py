from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mfgkit import bath, megen, mfstatics
from mfgkit.eigenops import decompose
from mfgkit.opcore import dag, gibbs, require_density_matrix, trace_distance

from conftest import hamiltonian_with_spectrum, random_density_matrix, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
H_SB = 0.5 * SZ + 0.25 * SX

DRUDE = bath.DrudeLorentz(gamma=0.1, omega_d=5.0)


def _bp(lam, beta=1.0):
    return bath.BathParams(J=DRUDE, beta=beta, lam=lam)


def _pairwise_reference(H_S, dec, gammas, lam, secular_cutoff=np.inf,
                        keep_perp=True, real_only=False):
    """The mode-pair loop the vectorized Redfield build replaced, kept as its oracle."""
    d = H_S.shape[0]
    eye = np.eye(d)

    def left(a):
        return np.kron(eye, a)

    def right(a):
        return np.kron(a.T, eye)

    def dissipator(a, b):
        bd_a = dag(b) @ a
        return np.kron(dag(b).T, a) - 0.5 * (left(bd_a) + right(bd_a))

    gammas = [complex(g.real, 0.0) if real_only else g for g in gammas]
    h_par = np.zeros((d, d), dtype=complex)
    h_perp = np.zeros((d, d), dtype=complex)
    diss = np.zeros((d * d, d * d), dtype=complex)
    for (w_m, x_m), g_m in zip(dec.modes, gammas):
        h_par += g_m.imag * dag(x_m) @ x_m
        for (w_n, x_n), g_n in zip(dec.modes, gammas):
            if w_m != w_n and abs(w_m - w_n) > secular_cutoff:
                continue
            if w_m != w_n:
                h_perp += (g_m - np.conj(g_n)) / 2j * dag(x_n) @ x_m
            diss += (g_m + np.conj(g_n)) * dissipator(x_m, x_n)
    if not keep_perp:
        h_perp[:] = 0.0
    h_eff = H_S + lam**2 * (h_par + h_perp)
    return -1j * (left(h_eff) - right(h_eff)) + lam**2 * diss


def _pauli_loop_reference(split, rate_model):
    """The double loops pauli_ultrastrong had before its array build, kept as its oracle."""
    eps = np.diag(split.H_eps).real
    d = len(eps)
    k = np.zeros((d, d))
    for m in range(d):
        for n in range(d):
            if m != n:
                k[m, n] = abs(split.H_J[m, n]) ** 2 * float(rate_model(eps[n] - eps[m]))
    mat = np.zeros((d * d, d * d), dtype=complex)
    pop_rates = k.sum(axis=0)

    def idx(i, j):
        return i + d * j

    for m in range(d):
        for n in range(d):
            if m != n:
                mat[idx(m, m), idx(n, n)] += k[m, n]
                mat[idx(n, n), idx(n, n)] -= k[m, n]
    deco = max(pop_rates.max(), np.abs(k).max(), 1e-12)
    for i in range(d):
        for j in range(d):
            if i != j:
                mat[idx(i, j), idx(i, j)] = -(deco + 0.5 * (pop_rates[i] + pop_rates[j]))
    return mat


def _admissible_rate_models(beta):
    """Three KMS-symmetric rate profiles f(-E) = e^(-beta E) f(E)."""
    return [
        megen.default_rate_model(beta),
        megen.default_rate_model(beta, nu0=3.7),
        lambda E: np.exp(beta * np.asarray(E, dtype=float) / 2),
    ]


def _rk45_reference(L, rho0, t_grid):
    """The adaptive RK 5(4) integration evolve replaced, at tight tolerances."""
    sol = solve_ivp(lambda t, y: L.matrix @ y, (t_grid[0], t_grid[-1]),
                    megen.vec(rho0), t_eval=t_grid, method="RK45",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return [megen.unvec(col) for col in sol.y.T]


def _random_generator(kind, rng, dim):
    h = random_hermitian(rng, dim)
    x = random_hermitian(rng, dim)
    bp = _bp(rng.uniform(0.05, 0.5), beta=rng.uniform(0.3, 3.0))
    if kind == "pauli":
        return megen.pauli_ultrastrong(mfstatics.pointer_split(h, x), bp)
    build = megen.davies_generator if kind == "davies" else megen.brme_generator
    return build(h, x, bp)


def _random_grid(kind, rng):
    """Uniform from 0, non-uniform from 0, or non-uniform from t_0 > 0."""
    if kind == "uniform":
        return np.linspace(0.0, 10.0, 21)
    steps = np.cumsum(rng.exponential(0.5, size=20))
    return steps - steps[0] if kind == "nonuniform" else rng.uniform(0.5, 3.0) + steps


class TestVectorization:
    def test_roundtrip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(megen.unvec(megen.vec(m)), m)

    def test_apply_matches_direct_redfield_formula(self, rng):
        h = random_hermitian(rng, 3)
        x = random_hermitian(rng, 3)
        rho = random_density_matrix(rng, 3)
        bp = _bp(0.4)
        dec = decompose(h, x)
        g = [bath.gamma_m(DRUDE, 1.0, w, bath.ASYMPTOTIC) for w in dec.frequencies]
        direct = np.zeros((3, 3), dtype=complex)
        h_ls = np.zeros((3, 3), dtype=complex)
        for (_, x_m), g_m in zip(dec.modes, g):
            for (_, x_n), g_n in zip(dec.modes, g):
                xnx = dag(x_n) @ x_m
                h_ls += (g_m - np.conj(g_n)) / 2j * xnx
                direct += (g_m + np.conj(g_n)) * (
                    x_m @ rho @ dag(x_n) - 0.5 * (xnx @ rho + rho @ xnx))
        h_eff = h + bp.lam**2 * h_ls
        direct = -1j * (h_eff @ rho - rho @ h_eff) + bp.lam**2 * direct
        out = megen.brme_generator(h, x, bp).apply(rho)
        assert np.allclose(out, direct, atol=1e-13)


class TestDavies:
    def test_steady_state_is_gibbs(self):
        L = megen.davies_generator(H_SB, SZ, _bp(0.2))
        report = megen.steady_state(L)
        assert report.unique
        assert trace_distance(report.states[0], gibbs(H_SB, 1.0)) < 1e-10
        assert report.spectral_gap > 0
        assert report.clipped_negativity < 1e-12

    def test_equals_full_secular_filter(self):
        L1 = megen.davies_generator(H_SB, SZ, _bp(0.2))
        L2 = megen.secular_filter(H_SB, SZ, _bp(0.2), "full")
        L3 = megen.secular_filter(H_SB, SZ, _bp(0.2), 0)
        assert np.allclose(L1.matrix, L2.matrix, atol=1e-14)
        assert np.allclose(L1.matrix, L3.matrix, atol=1e-14)

    def test_kossakowski_rates_nonnegative(self, rng):
        # the Davies dissipator is diagonal in the eigenoperator basis with
        # entries 2 Re Gamma_m >= 0 (complete positivity)
        from mfgkit.eigenops import decompose

        h = random_hermitian(rng, 3)
        x = random_hermitian(rng, 3)
        for w in decompose(h, x).frequencies:
            assert bath.gamma_m(DRUDE, 1.0, w, bath.ASYMPTOTIC).real >= -1e-13


class TestBrmeVariants:
    def test_real_only_steady_state_is_gibbs(self):
        L = megen.brme_real_only(H_SB, SZ, _bp(0.3))
        rho = megen.steady_state(L).states[0]
        assert trace_distance(rho, gibbs(H_SB, 1.0)) < 1e-12

    def test_brme_steady_close_to_gibbs_at_weak_coupling(self):
        L = megen.brme_generator(H_SB, SZ, _bp(0.05))
        rho = megen.steady_state(L).states[0]
        assert trace_distance(rho, gibbs(H_SB, 1.0)) < 1e-3

    def test_partial_secular_interpolates(self):
        # a huge cutoff keeps everything (= BRME); the filter only sheds terms
        full = megen.brme_generator(H_SB, SZ, _bp(0.2))
        partial = megen.secular_filter(H_SB, SZ, _bp(0.2), 1e6)
        assert np.allclose(full.matrix, partial.matrix, atol=1e-14)

    def test_finite_time_generator_approaches_asymptotic(self):
        asym = megen.brme_generator(H_SB, SZ, _bp(0.2))
        late = megen.brme_generator(H_SB, SZ, _bp(0.2), time=8.0)
        early = megen.brme_generator(H_SB, SZ, _bp(0.2), time=0.5)
        d_late = np.linalg.norm(late.matrix - asym.matrix)
        d_early = np.linalg.norm(early.matrix - asym.matrix)
        assert d_late < d_early


class TestGeneratorTypeInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_trace_and_hermiticity_preservation(self, dim, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        x = random_hermitian(rng, dim)
        rho = random_density_matrix(rng, dim)
        for build in (megen.davies_generator, megen.brme_generator,
                      megen.brme_real_only):
            L = build(h, x, _bp(0.1))
            out = L.apply(rho)
            assert abs(np.trace(out)) < 1e-10
            assert np.linalg.norm(out - dag(out)) < 1e-10


class TestPairwiseEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=6),
        kind=st.sampled_from(["random", "degenerate", "ladder"]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_every_variant_matches_pairwise_loop(self, dim, kind, seed):
        rng = np.random.default_rng(seed)
        h = hamiltonian_with_spectrum(kind, rng, dim)
        x = random_hermitian(rng, dim)
        bp = _bp(rng.uniform(0.05, 1.0))
        dec = decompose(h, x)
        gammas = rng.exponential(size=len(dec.modes)) + 1j * rng.normal(
            size=len(dec.modes))
        table = dict(zip(dec.frequencies, gammas))

        secular = dict(secular_cutoff=-1.0, keep_perp=False)
        with mock.patch.object(bath, "gamma_m",
                               lambda J, beta, ws, t: np.array([table[w] for w in ws])):
            cases = [
                (megen.davies_generator(h, x, bp), secular),
                (megen.brme_generator(h, x, bp), {}),
                (megen.brme_generator(h, x, bp, time=2.0), {}),
                (megen.brme_real_only(h, x, bp), dict(real_only=True)),
                (megen.secular_filter(h, x, bp, "full"), secular),
                *[(megen.secular_filter(h, x, bp, c), dict(secular_cutoff=c))
                  for c in (0.05, 0.5, 1.3, 2.9)],
            ]
        for L, ref_opts in cases:
            ref = _pairwise_reference(h, dec, gammas, bp.lam, **ref_opts)
            assert np.abs(L.matrix - ref).max() <= 1e-12 * np.linalg.norm(ref, 2)


class TestPauliUltrastrong:
    def _split(self):
        return mfstatics.pointer_split(H_SB, SZ)

    def test_steady_matches_ultrastrong_mfg(self):
        split = self._split()
        L = megen.pauli_ultrastrong(split, _bp(1.0, beta=1.5))
        rho_pointer = megen.steady_state(L).states[0]
        u = split.pointer_basis
        expected = mfstatics.mfg_ultrastrong(H_SB, SZ, 1.5).state
        assert trace_distance(u @ rho_pointer @ dag(u), expected) < 1e-12

    def test_coherences_decay_monotonically(self, rng):
        L = megen.pauli_ultrastrong(self._split(), _bp(1.0))
        rho0 = random_density_matrix(rng, 2)
        traj = megen.evolve(L, rho0, np.linspace(0, 200, 80))
        coh = np.array([abs(s[0, 1]) for s in traj.states])
        assert np.all(np.diff(coh) <= 1e-12)
        assert coh[-1] < 1e-3 * max(coh[0], 1e-12)

    def test_rate_model_kms_check(self):
        split = self._split()
        with pytest.raises(ValueError):
            megen.pauli_ultrastrong(split, _bp(1.0), rate_model=lambda E: 1.0
                                    + 0.0 * np.asarray(E))

    def test_three_admissible_rate_models_same_steady_state(self):
        split = self._split()
        beta = 1.5
        models = _admissible_rate_models(beta)
        states = [
            megen.steady_state(
                megen.pauli_ultrastrong(split, _bp(1.0, beta=beta), rate_model=f)
            ).states[0]
            for f in models
        ]
        for s in states[1:]:
            assert trace_distance(states[0], s) < 1e-12


    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_loop_reference(self, dim, seed):
        rng = np.random.default_rng(seed)
        split = mfstatics.pointer_split(random_hermitian(rng, dim),
                                        random_hermitian(rng, dim))
        beta = rng.uniform(0.2, 3.0)
        for f in _admissible_rate_models(beta):
            L = megen.pauli_ultrastrong(split, _bp(1.0, beta=beta), rate_model=f)
            ref = _pauli_loop_reference(split, f)
            assert np.abs(L.matrix - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


class TestEvolve:
    def test_relaxation_to_gibbs(self):
        L = megen.davies_generator(H_SB, SZ, _bp(0.3))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        gap = megen.steady_state(L).spectral_gap
        traj = megen.evolve(L, rho0, np.linspace(0, 30 / gap, 60))
        assert trace_distance(traj.states[-1], gibbs(H_SB, 1.0)) < 1e-6

    def test_trajectory_hygiene(self):
        L = megen.davies_generator(H_SB, SZ, _bp(0.3))
        rho0 = np.diag([0.2, 0.8]).astype(complex)
        traj = megen.evolve(L, rho0, np.linspace(0, 40, 80))
        assert traj.trace_deviation.max() < 1e-9
        assert traj.hermiticity_deviation.max() < 1e-9
        assert traj.min_eigenvalue.min() > -1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(["davies", "brme", "pauli"]),
        grid=st.sampled_from(["uniform", "nonuniform", "late_start"]),
        dim=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_tight_rk45(self, kind, grid, dim, seed):
        rng = np.random.default_rng(seed)
        L = _random_generator(kind, rng, dim)
        rho0 = random_density_matrix(rng, dim)
        t_grid = _random_grid(grid, rng)
        traj = megen.evolve(L, rho0, t_grid)
        assert np.array_equal(traj.times, t_grid)
        assert np.array_equal(traj.states[0], rho0)
        for rho, ref in zip(traj.states, _rk45_reference(L, rho0, t_grid), strict=True):
            assert np.abs(rho - ref).max() < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(["davies", "brme", "pauli"]),
        grid=st.sampled_from(["uniform", "nonuniform", "late_start"]),
        dim=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_eigendecomposition(self, kind, grid, dim, seed):
        # rho(t) = V e^(Lambda (t - t_0)) V^-1 rho0 where V is well conditioned
        rng = np.random.default_rng(seed)
        L = _random_generator(kind, rng, dim)
        evals, v = np.linalg.eig(L.matrix)
        assume(np.linalg.cond(v) < 1e3)
        rho0 = random_density_matrix(rng, dim)
        t_grid = _random_grid(grid, rng)
        traj = megen.evolve(L, rho0, t_grid)
        c = np.linalg.solve(v, megen.vec(rho0))
        for t, rho in zip(t_grid, traj.states, strict=True):
            ref = megen.unvec(v @ (np.exp(evals * (t - t_grid[0])) * c))
            assert np.abs(rho - ref).max() < 1e-10

    def test_non_trace_preserving_generator_aborts(self):
        L = megen.Liouvillian(-0.1 * np.eye(4, dtype=complex))
        with pytest.raises(RuntimeError, match="trace drift"):
            megen.evolve(L, np.eye(2, dtype=complex) / 2, np.linspace(0.0, 1.0, 5))

    def test_bad_time_grid_rejected(self):
        L = megen.davies_generator(H_SB, SZ, _bp(0.3))
        rho0 = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            megen.evolve(L, rho0, [0.0, 2.0, 1.0])


class TestSteadyState:
    def test_zero_generator_full_null_space(self):
        L = megen.Liouvillian(np.zeros((4, 4), dtype=complex))
        report = megen.steady_state(L)
        assert not report.unique
        assert len(report.states) >= 2
        # distinct density matrices, none clipped out of a traceless direction
        assert np.isfinite(report.clipped_negativity)
        for rho in report.states:
            require_density_matrix(rho)
        for i, a in enumerate(report.states):
            for b in report.states[:i]:
                assert np.abs(a - b).max() > 1e-12

    def test_reducible_model_has_two_steady_states(self):
        h = np.zeros((4, 4), dtype=complex)
        h[:2, :2] = 0.6 * SZ
        h[2:, 2:] = np.diag([0.3, -0.9])
        x = np.zeros((4, 4), dtype=complex)
        x[:2, :2] = SX
        x[2:, 2:] = SX
        L = megen.davies_generator(h, x, _bp(0.2))
        report = megen.steady_state(L)
        assert not report.unique
        assert len(report.states) >= 2
        for block in (slice(0, 2), slice(2, 4)):
            tau = np.zeros((4, 4), dtype=complex)
            tau[block, block] = gibbs(h[block, block], 1.0)
            assert min(trace_distance(rho, tau) for rho in report.states) < 1e-10
        assert report.clipped_negativity < 1e-12

    @staticmethod
    def _block_model(blocks):
        """Davies generator of uncoupled qubit blocks [(h_k, x_k), ...]."""
        d = 2 * len(blocks)
        h = np.zeros((d, d), dtype=complex)
        x = np.zeros((d, d), dtype=complex)
        for k, (hk, xk) in enumerate(blocks):
            h[2 * k:2 * k + 2, 2 * k:2 * k + 2] = hk
            x[2 * k:2 * k + 2, 2 * k:2 * k + 2] = xk
        return h, megen.davies_generator(h, x, _bp(0.2))

    def test_reducible_model_with_complex_block_states(self):
        # block Gibbs states with complex coherences: a basis assembled in
        # the wrong orientation returns conj(rho), which L does not annihilate
        h, L = self._block_model([(0.6 * SY, SX), (0.5 * SX + 0.4 * SY, SZ)])
        assert np.abs(gibbs(h[:2, :2], 1.0).imag).max() > 0.1
        report = megen.steady_state(L)
        assert not report.unique
        for rho in report.states:
            assert np.linalg.norm(L.matrix @ megen.vec(rho)) < 1e-10
        for block in (slice(0, 2), slice(2, 4)):
            tau = np.zeros((4, 4), dtype=complex)
            tau[block, block] = gibbs(h[block, block], 1.0)
            assert min(trace_distance(rho, tau) for rho in report.states) < 1e-10

    def test_three_block_model_states_are_steady(self):
        # with a null space of dimension 3 the candidates depend on the
        # basis; callers may rely only on distinct steady density matrices,
        # the first being the mixture rho0 of full rank
        _, L = self._block_model([(0.6 * SZ, SX), (0.4 * SY, SX),
                                  (0.3 * SX - 0.2 * SY, SZ)])
        report = megen.steady_state(L)
        assert not report.unique
        assert len(report.states) >= 3
        assert report.residual < 1e-10
        assert report.clipped_negativity < 1e-12
        for rho in report.states:
            require_density_matrix(rho)
            assert np.linalg.norm(L.matrix @ megen.vec(rho)) < 1e-10
        for i, a in enumerate(report.states):
            for b in report.states[:i]:
                assert np.abs(a - b).max() > 1e-12
        assert np.linalg.eigvalsh(report.states[0]).min() > 1e-3

    def test_gap_skips_null_eigenvalues_found_at_a_looser_rung(self):
        # a null eigenvalue at 5e-10 ||L|| is accepted at the 1e-9 rung and
        # must not be reported as the spectral gap
        L = megen.davies_generator(H_SB, SZ, _bp(0.2))
        tau = megen.steady_state(L).states[0]
        eps = 5e-10 * np.linalg.norm(L.matrix, 2)
        shifted = L.matrix - eps * np.outer(megen.vec(tau),
                                            megen.vec(np.eye(2)).conj())
        report = megen.steady_state(replace(L, matrix=shifted))
        assert report.unique
        assert report.spectral_gap == pytest.approx(
            megen.steady_state(L).spectral_gap, rel=1e-6)
        assert report.spectral_gap > 1e-3

    def test_clipped_negativity_is_reported(self):
        # L rho = v tr(rho) - rho has the non-positive null vector v
        v = np.diag([1.2, -0.2]).astype(complex)
        mat = np.outer(megen.vec(v), megen.vec(np.eye(2)).conj()) - np.eye(4)
        report = megen.steady_state(megen.Liouvillian(mat))
        assert report.clipped_negativity == pytest.approx(0.2, abs=1e-12)
        assert np.allclose(report.states[0], np.diag([1.0, 0.0]), atol=1e-12)
