import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
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


def _dense_redfield_reference(H_S, X, bp, cutoff=np.inf, real_only=False):
    """The original-basis build the energy-basis gathers replaced, kept as
    their reference: the sandwich as one product of the flattened (M, d^2)
    mode stack, pair sums by einsum, and Kronecker products with 1."""
    dec = decompose(H_S, X)
    d, lam, w, x = H_S.shape[0], bp.lam, dec.frequencies, dec.operators
    g = bath.gamma_m(bp.J, bp.beta, tuple(w.tolist()), bath.ASYMPTOTIC)
    if real_only:
        g = g.real.astype(complex)
    mask = np.eye(w.size, dtype=bool) | (np.abs(w[:, None] - w[None, :]) <= cutoff)
    rate = (g[:, None] + g.conj()[None, :]) * mask
    shift = (g[:, None] - g.conj()[None, :]) / 2j * mask

    def pair_sum(c):
        return np.einsum("mn,nji,mjk->ik", c, x.conj(), x, optimize=True)

    xf = x.reshape(-1, d * d)
    sandwich = (xf.conj().T @ rate.T @ xf).reshape(d, d, d, d)
    sandwich = sandwich.transpose(0, 2, 1, 3).reshape(d * d, d * d)
    anti = pair_sum(rate)
    h_eff = H_S + lam**2 * pair_sum(shift)
    eye = np.eye(d)
    return (np.kron(eye, -1j * h_eff - 0.5 * lam**2 * anti)
            + np.kron((1j * h_eff - 0.5 * lam**2 * anti).T, eye) + lam**2 * sandwich)


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


class TestEnergyBasisBuild:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=5),
        kind=st.sampled_from(["random", "degenerate", "ladder", "scalar"]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_matches_dense_original_basis_build(self, dim, kind, seed):
        # the energy-basis L, rotated back, against the dense build it
        # replaced, and the steady state of each. Both builds round at eps
        # times their largest term, ||H_S|| even where the commutator
        # cancels, and the dense L's null vector carries that over the gap.
        # H_S = c 1 makes every coordinate slow and the null space degenerate
        # (dephasing in the eigenbasis of X), where states[0], the identity
        # projected onto the null space, does not depend on the basis of it
        rng = np.random.default_rng(seed)
        h = (rng.normal() * np.eye(dim, dtype=complex) if kind == "scalar"
             else hamiltonian_with_spectrum(kind, rng, dim))
        x = random_hermitian(rng, dim)
        bp = _bp(rng.uniform(0.05, 0.5), beta=rng.uniform(0.3, 3.0))
        for opts in (dict(cutoff=-1.0), {}, dict(real_only=True), dict(cutoff=0.5)):
            L = megen._redfield_generator(h, x, bp, **opts)
            ref = _dense_redfield_reference(h, x, bp, **opts)
            scale = max(np.linalg.norm(ref, 2), np.linalg.norm(h, 2))
            assert np.abs(L.matrix - ref).max() <= 1e-13 * scale
            got, want = megen.steady_state(L), megen.steady_state(megen.Liouvillian(ref))
            assert got.unique == want.unique
            assert len(got.states) == len(want.states)
            if want.spectral_gap:
                tol = 1e-13 * max(1.0, scale / abs(want.spectral_gap))
                assert trace_distance(got.states[0], want.states[0]) <= tol
            assert abs(got.spectral_gap - want.spectral_gap) <= 1e-13 * scale

    @pytest.mark.parametrize("build", [megen.davies_generator, megen.brme_generator,
                                       megen.brme_real_only],
                             ids=["davies", "brme", "real_only"])
    def test_one_matrix_rotated_on_read(self, monkeypatch, rng, build):
        # a generator holds stored only: neither the build nor steady_state
        # rotates it, and matrix is that rotation, bit for bit, on each read
        assert [f.name for f in dataclasses.fields(megen.Liouvillian)] == ["stored", "basis", "slow"]
        calls = []
        rotate = megen._out_of_basis

        def counting(stored, v):
            calls.append(1)
            return rotate(stored, v)

        monkeypatch.setattr(megen, "_out_of_basis", counting)
        h, x = random_hermitian(rng, 4), random_hermitian(rng, 4)
        L = build(h, x, _bp(0.3))
        assert megen.steady_state(L).unique
        assert not calls
        assert np.array_equal(L.matrix, rotate(L.stored, L.basis))
        assert len(calls) == 1


class TestSmallCoupling:
    """spin_boson (H_SB, sigma_z, Drude gamma = 0.1, omega_D = 5, beta = 1) as
    lambda falls: ||L|| stays near ||H_S|| while the gap falls as lambda^2."""

    LAMBDAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

    @pytest.mark.parametrize("build", [megen.davies_generator, megen.brme_real_only],
                             ids=["davies", "real_only"])
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_gibbs_steady_state_at_every_coupling(self, build, lam):
        report = megen.steady_state(build(H_SB, SZ, _bp(lam)))
        assert report.unique
        assert trace_distance(report.states[0], gibbs(H_SB, 1.0)) <= 1e-14
        assert report.spectral_gap > 0

    def test_brme_distance_and_gap_scale_as_lambda_squared(self):
        # the O(lambda^2) coefficients, taken at lambda = 1e-3, hold to 1% down
        # to 1e-6, where the distance is 4.7e-14 and the gap 1.7e-13
        tau = gibbs(H_SB, 1.0)
        reports = {lam: megen.steady_state(megen.brme_generator(H_SB, SZ, _bp(lam)))
                   for lam in self.LAMBDAS}
        dist = {lam: trace_distance(r.states[0], tau) / lam**2 for lam, r in reports.items()}
        gap = {lam: r.spectral_gap / lam**2 for lam, r in reports.items()}
        for lam in self.LAMBDAS[2:]:
            assert reports[lam].unique
            assert dist[lam] == pytest.approx(dist[1e-3], rel=1e-2)
            assert gap[lam] == pytest.approx(gap[1e-3], rel=1e-2)
        assert dist[1e-3] == pytest.approx(0.0469, rel=1e-2)


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

    @settings(max_examples=20, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_population_block_solve_matches_the_whole_frame(self, dim, seed):
        rng = np.random.default_rng(seed)
        split = mfstatics.pointer_split(random_hermitian(rng, dim),
                                        random_hermitian(rng, dim))
        L = megen.pauli_ultrastrong(split, _bp(1.0, beta=rng.uniform(0.2, 3.0)))
        assert np.array_equal(L.slow, np.eye(dim, dtype=bool))
        block, whole = megen.steady_state(L), megen.steady_state(megen.Liouvillian(L.matrix))
        assert block.unique and whole.unique
        assert trace_distance(block.states[0], whole.states[0]) < 1e-12
        assert block.spectral_gap == pytest.approx(whole.spectral_gap, rel=1e-10)


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

    @pytest.mark.parametrize("grid, expected", [
        (np.linspace(0.0, 50.0, 100), len(np.unique(np.diff(np.linspace(0.0, 50.0, 100))))),
        (np.geomspace(0.01, 50.0, 40), 39),
    ], ids=["linspace", "geometric"])
    def test_one_expm_per_distinct_step(self, monkeypatch, grid, expected):
        calls = []
        expm = megen.scipy.linalg.expm

        def counting(a):
            calls.append(1)
            return expm(a)

        monkeypatch.setattr(megen.scipy.linalg, "expm", counting)
        traj = megen.evolve(megen.davies_generator(H_SB, SZ, _bp(0.3)),
                            np.diag([1.0, 0.0]).astype(complex), grid)
        assert len(traj.states) == len(grid)
        assert len(calls) == expected

    @pytest.mark.parametrize("lam", [0.1, 0.01])
    @pytest.mark.parametrize("build", [megen.davies_generator, megen.brme_generator],
                             ids=["davies", "brme"])
    def test_long_horizon_matches_eigendecomposition(self, rng, build, lam):
        # t_max = 20/gap puts ||L|| t at 1.3e4 (lambda = 0.1) and 1.3e6 (0.01)
        L = build(H_SB, SZ, _bp(lam))
        t_grid = np.linspace(0.0, 20.0 / megen.steady_state(L).spectral_gap, 200)
        rho0 = random_density_matrix(rng, 2)
        traj = megen.evolve(L, rho0, t_grid)
        evals, v = np.linalg.eig(L.matrix)
        c = np.linalg.solve(v, megen.vec(rho0))
        for t, rho in zip(t_grid, traj.states, strict=True):
            assert np.abs(rho - megen.unvec(v @ (np.exp(evals * t) * c))).max() < 1e-10

    def test_non_trace_preserving_generator_aborts(self):
        L = megen.Liouvillian(-0.1 * np.eye(4, dtype=complex))
        with pytest.raises(RuntimeError, match="trace drift"):
            megen.evolve(L, np.eye(2, dtype=complex) / 2, np.linspace(0.0, 1.0, 5))

    def test_bad_time_grid_rejected(self):
        L = megen.davies_generator(H_SB, SZ, _bp(0.3))
        rho0 = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            megen.evolve(L, rho0, [0.0, 2.0, 1.0])


def _hermitian_null_basis(vectors):
    """Orthonormal (Hilbert-Schmidt) basis of the Hermitian matrices spanned by
    the columns of vectors, from their Hermitian and anti-Hermitian parts: the
    complex-path helper the real Hermitian frame of steady_state replaced,
    kept as the reference's."""
    mats = [megen.unvec(v) for v in vectors.T]
    if len(mats) == 1:
        return [(mats[0] + dag(mats[0])) / 2]
    d2 = vectors.shape[0]
    parts = [p for m in mats for p in ((m + dag(m)) / 2, (m - dag(m)) / 2j)]
    flat = np.array([np.concatenate([megen.vec(p).real, megen.vec(p).imag]) for p in parts])
    _, sv, vt = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return [megen.unvec(row[:d2] + 1j * row[d2:]) for row in vt[:rank]]


def _eig_steady_state(L):
    """Reference: steady_state's complex full-eigendecomposition path, which
    the real Hermitian frame replaced."""
    mat = L.matrix
    norm = max(np.linalg.norm(mat, 2), 1e-300)
    evals, evecs = np.linalg.eig(mat)
    null_idx = megen._null_index(evals, norm)
    basis = _hermitian_null_basis(evecs[:, null_idx])
    if len(basis) == 1:
        found = [megen._clip_to_state(basis[0], orient=True)]
    else:
        found = [megen._clip_to_state(m) for m in megen._degenerate_candidates(basis)]
    states = [rho for rho, _ in found if rho is not None]
    live = np.delete(evals, null_idx)
    return megen.SteadyStateReport(
        states=states, residual=max(float(np.linalg.norm(mat @ megen.vec(r))) for r in states),
        spectral_gap=float(-live.real.max()) if live.size else 0.0, unique=len(basis) == 1,
        clipped_negativity=float(max(neg for _, neg in found)))


def _real_frame_steady_state(L):
    """Reference: steady_state as it was before the slow/fast split, on the
    original-basis L.matrix: the null space from eigvals of the whole real
    frame R, relative to ||R||_2, and the unscaled bordered solve."""
    mat = np.asarray(L.matrix)
    d = int(round(np.sqrt(len(mat))))
    c, p, q, u_dag = megen._hermitian_frame(d)
    R = np.ascontiguousarray(megen._in_frame(mat, c, p, q).real)
    norm = max(np.linalg.norm(R, 2), 1e-300)
    evals = np.linalg.eigvals(R)
    null_idx = megen._null_index(evals, norm)
    if null_idx.size == 1:
        trace_row = np.zeros(len(R))
        trace_row[:d] = 1.0
        rhs = np.zeros(len(R) + 1)
        rhs[-1] = 1.0
        null = scipy.linalg.lstsq(np.vstack([R, trace_row]), rhs,
                                  lapack_driver="gelsy")[0][:, None]
    else:
        evals, evecs = np.linalg.eig(R)
        null_idx = megen._null_index(evals, norm)
        vectors = evecs[:, null_idx]
        w, sv, _ = np.linalg.svd(np.hstack([vectors.real, vectors.imag]), full_matrices=False)
        null = w[:, sv > 1e-8 * sv[0]]
    basis = [megen.unvec(v) for v in (u_dag @ null).T]
    if len(basis) == 1:
        found = [megen._clip_to_state(basis[0], orient=True)]
    else:
        found = [megen._clip_to_state(m) for m in megen._degenerate_candidates(basis)]
    found = [f for f in found if f is not None]
    states = [rho for rho, _ in found]
    live = np.delete(evals, null_idx)
    return megen.SteadyStateReport(
        states=states, residual=max(float(np.linalg.norm(mat @ megen.vec(r))) for r in states),
        spectral_gap=float(-live.real.max()) if live.size else 0.0, unique=len(basis) == 1,
        clipped_negativity=float(max(neg for _, neg in found)))


def _bordered_steady_state(L):
    """Reference: steady_state as it was before the SVD kernel served a
    one-dimensional null space, which it took from the bordered system
    [S; s tr] v = [0; s], s = max|S|, one real least-squares solve (gelsy)
    on the slow Schur complement S of the stored L."""
    mat = L.stored
    d = int(round(np.sqrt(len(mat))))
    c, p, q, u_dag = megen._hermitian_frame(d)
    R = np.ascontiguousarray(megen._in_frame(mat, c, p, q).real)
    slow = np.ones(len(R), dtype=bool) if L.slow is None else L.slow.ravel(order="F")[p]
    fast = ~slow
    S, elim = R, np.zeros((0, len(R)))
    if fast.any():
        elim = np.linalg.solve(R[np.ix_(fast, fast)], R[np.ix_(fast, slow)])
        S = R[np.ix_(slow, slow)] - R[np.ix_(slow, fast)] @ elim
    norm = max(np.linalg.norm(S, 2), 1e-300)
    s_evals = np.linalg.eigvals(S)
    evals = np.linalg.eigvals(R) if fast.any() else s_evals
    null_idx = megen._null_index(s_evals, norm)
    assert null_idx.size == 1, "the bordered solve served a unique null vector only"
    scale = np.abs(S).max() or 1.0
    trace_row = np.zeros(len(S))
    trace_row[:d] = scale
    rhs = np.zeros(len(S) + 1)
    rhs[-1] = scale
    null = scipy.linalg.lstsq(np.vstack([S, trace_row]), rhs, lapack_driver="gelsy",
                              check_finite=False)[0]
    coords = np.empty(len(R))
    coords[slow] = null
    coords[fast] = -elim @ null
    rho, negativity = megen._clip_to_state(megen.unvec(u_dag @ coords), orient=True)
    v = np.eye(d) if L.basis is None else L.basis
    live = np.delete(evals, np.argsort(np.abs(evals))[:1])
    return megen.SteadyStateReport(
        states=[v @ rho @ dag(v)], residual=float(np.linalg.norm(mat @ megen.vec(rho))),
        spectral_gap=float(-live.real.max()) if live.size else 0.0, unique=True,
        clipped_negativity=float(negativity))


def _redfield_d10_system(seed):
    """H_S with the fixed spectrum linspace(-2, 2, 10) plus jitter in a random
    real eigenbasis, and a random real symmetric X of unit 2-norm."""
    spectrum = np.linspace(-2.0, 2.0, 10) + np.random.default_rng(2119).uniform(-0.1, 0.1, 10)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    h = (q * spectrum) @ q.T
    x = rng.normal(size=(10, 10))
    return (h + h.T) / 2, (x + x.T) / np.linalg.norm(x + x.T, 2)


class TestHermitianFrame:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_unitary_and_real_on_hermitian_matrices(self, rng, d):
        _, _, _, u_dag = megen._hermitian_frame(d)
        u = u_dag.conj().T
        assert np.abs(u @ u_dag - np.eye(d * d)).max() < 1e-15
        rho = random_hermitian(rng, d)
        coords = u @ megen.vec(rho)
        assert np.abs(coords.imag).max() < 1e-15
        assert np.abs(coords[:d] - np.diag(rho)).max() < 1e-15  # the trace row's coordinates

    @pytest.mark.parametrize("d", [2, 4])
    def test_in_frame_matches_dense_product(self, rng, d):
        c, p, q, u_dag = megen._hermitian_frame(d)
        mat = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        dense = u_dag.conj().T @ mat @ u_dag
        assert np.abs(megen._in_frame(mat, c, p, q) - dense).max() < 1e-14 * np.abs(mat).max() * d * d

    def test_built_once_and_read_only(self):
        frame = megen._hermitian_frame(3)
        assert megen._hermitian_frame(3) is frame
        for a in frame:
            assert not a.flags.writeable


class TestSteadyState:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["davies", "brme", "real_only", "pauli"]),
        dim=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
        lam=st.floats(min_value=0.3, max_value=1.0),
        beta=st.floats(min_value=0.3, max_value=3.0),
    )
    # small-gap Davies generators where the former dense solve was 1e-12 off
    @example(kind="davies", dim=2, seed=13586, lam=0.375, beta=1.0)
    @example(kind="davies", dim=6, seed=156, lam=0.3, beta=2.8157)
    @example(kind="davies", dim=3, seed=615, lam=0.5, beta=2.0)
    def test_energy_basis_solve_matches_real_frame_path(self, kind, dim, seed, lam, beta):
        # Davies and real-only: the steady state is the Gibbs state, a theorem
        # the energy-basis solve meets to rounding whatever the gap. BRME and
        # Pauli: today's solve against the real-frame solve it replaced.
        # lambda up to 1 takes in BRME generators with a negative gap and a
        # clipped state: the two paths must agree there too
        rng = np.random.default_rng(seed)
        h, x = random_hermitian(rng, dim), random_hermitian(rng, dim)
        bp = _bp(lam, beta=beta)
        if kind == "pauli":
            L = megen.pauli_ultrastrong(mfstatics.pointer_split(h, x), bp)
        else:
            L = {"davies": megen.davies_generator, "brme": megen.brme_generator,
                 "real_only": megen.brme_real_only}[kind](h, x, bp)
        got = megen.steady_state(L)
        if kind in ("davies", "real_only"):
            assert got.unique
            assert trace_distance(got.states[0], gibbs(h, beta)) <= 1e-12
            assert got.clipped_negativity <= 1e-12
            assert got.residual <= 1e-12
            assert got.spectral_gap == pytest.approx(
                _real_frame_steady_state(L).spectral_gap, rel=1e-10)
            return
        ref = _real_frame_steady_state(L)
        assert got.unique == ref.unique
        assert len(got.states) == len(ref.states)
        for a, b in zip(got.states, ref.states):
            assert trace_distance(a, b) <= 1e-12
        assert got.spectral_gap == pytest.approx(ref.spectral_gap, rel=1e-10)
        assert got.residual == pytest.approx(ref.residual, rel=1e-9, abs=1e-12)
        assert got.clipped_negativity == pytest.approx(ref.clipped_negativity, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["davies", "brme", "real_only", "pauli"]),
        dim=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
        log_lam=st.floats(min_value=-6.0, max_value=0.0),
        beta=st.floats(min_value=0.3, max_value=3.0),
    )
    def test_svd_kernel_matches_bordered_solve(self, kind, dim, seed, log_lam, beta):
        # the SVD kernel against the bordered least-squares solve it replaced
        # for a one-dimensional null space. Over 2400 draws, Davies and
        # real-only came within 6.7e-15 of the Gibbs state (the bordered solve
        # 9.5e-14), the states within 1.2e-13 of the bordered solve's and
        # their clipped negativities within 1.5e-13, and unclipped residuals
        # stayed below 3.5e-15
        rng = np.random.default_rng(seed)
        h, x = random_hermitian(rng, dim), random_hermitian(rng, dim)
        bp = _bp(10.0**log_lam, beta=beta)
        if kind == "pauli":
            L = megen.pauli_ultrastrong(mfstatics.pointer_split(h, x), bp)
        else:
            L = {"davies": megen.davies_generator, "brme": megen.brme_generator,
                 "real_only": megen.brme_real_only}[kind](h, x, bp)
        got, ref = megen.steady_state(L), _bordered_steady_state(L)
        assert got.unique
        assert trace_distance(got.states[0], ref.states[0]) <= 5e-13
        assert got.spectral_gap == ref.spectral_gap
        assert abs(got.clipped_negativity - ref.clipped_negativity) <= 5e-13
        if got.clipped_negativity <= 1e-12:
            assert got.residual <= 2e-14
        else:
            assert got.residual == pytest.approx(ref.residual, rel=1e-9, abs=1e-12)
        if kind in ("davies", "real_only"):
            assert trace_distance(got.states[0], gibbs(h, beta)) <= 5e-14

    @pytest.mark.parametrize("seed", [1, 2])
    def test_redfield_d10_matches_complex_path(self, seed):
        # the real Hermitian frame against the complex eigendecomposition on
        # 100 x 100 generators shaped like the redfield_d10 benchmark inputs
        h, x = _redfield_d10_system(seed)
        bp = _bp(0.1)
        tau = gibbs(h, bp.beta)
        generators = {
            "davies": megen.davies_generator(h, x, bp),
            "brme": megen.brme_generator(h, x, bp),
            "real_only": megen.brme_real_only(h, x, bp),
            "pauli": megen.pauli_ultrastrong(mfstatics.pointer_split(h, x), bp),
        }
        for kind, L in generators.items():
            got, ref = megen.steady_state(L), _eig_steady_state(L)
            assert got.unique and ref.unique, kind
            assert trace_distance(got.states[0], ref.states[0]) <= 1e-11, kind
            assert got.spectral_gap == pytest.approx(ref.spectral_gap, rel=1e-10), kind
            if kind in ("davies", "real_only"):
                assert trace_distance(got.states[0], tau) <= 1e-10, kind

    def test_non_hermiticity_preserving_generator_raises(self):
        # rho -> i rho maps Hermitian matrices to anti-Hermitian ones
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            megen.steady_state(megen.Liouvillian(1j * np.eye(4)))

    def test_lapack_calls_are_real(self, monkeypatch):
        # the LU solve of the fast block, eigenvalues, the 2-norm scale and
        # the kernel run on the real frame (dgesv, dgeev, dgesdd), never on
        # the complex L; the residual is a vector norm on the complex L and
        # is not a LAPACK call
        unique = megen.brme_generator(H_SB, SZ, _bp(0.3))
        degenerate = TestSteadyState._block_model([(0.6 * SZ, SX), (0.4 * SY, SX)])[1]
        seen = {"eigvals": [], "svd": [], "norm": [], "solve": []}

        def spy(module, name):
            real = getattr(module, name)

            def record(a, *args, **kwargs):
                if np.ndim(a) == 2:
                    seen[name].append(np.asarray(a).dtype)
                return real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, record)

        for name in ("eigvals", "svd", "norm", "solve"):
            spy(np.linalg, name)
        assert megen.steady_state(unique).unique
        assert not megen.steady_state(degenerate).unique  # kernel path
        assert all(seen.values()), seen
        assert all(dt == np.float64 for dts in seen.values() for dt in dts), seen

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
        report = megen.steady_state(megen.Liouvillian(shifted))
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
