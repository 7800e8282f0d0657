import copy
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mfgkit import bath, cli, finitebath
from mfgkit.opcore import boltzmann, dag, gibbs, partial_trace, trace_distance

from conftest import random_density_matrix, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
H_SB = 0.5 * SZ + 0.25 * SX

DRUDE = bath.DrudeLorentz(gamma=0.3, omega_d=5.0)


def _global_gibbs(model, beta):
    """Reference: the D x D global Gibbs state e^(-beta H_tot)/Z."""
    w, v = model.eig()
    p = np.exp(-beta * (w - w.min()))
    return (v * (p / p.sum())) @ dag(v)


def _spec(n_modes=3, n_max=3, omega_max=15.0, scheme=finitebath.LINEAR,
          counter_term=True):
    modes = finitebath.discretize(DRUDE, n_modes, omega_max, scheme)
    return finitebath.FiniteBathSpec(modes=tuple(modes), fock_cutoff=n_max,
                                     counter_term=counter_term)


def _embed_reference(H_S, X, lam, spec):
    """H_tot with every local operator embedded in all 1+N tensor factors."""
    d_s = H_S.shape[0]
    n_levels = spec.fock_cutoff + 1
    dims = (d_s,) + (n_levels,) * len(spec.modes)
    eyes = [np.eye(d, dtype=complex) for d in dims]

    def embed(op, slot):
        factors = list(eyes)
        factors[slot] = op
        return reduce(np.kron, factors)

    a = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1).astype(complex)
    h = embed(H_S, 0)
    coupling_sq = 0.0
    for k, (w_k, g_k) in enumerate(spec.modes, start=1):
        h += w_k * embed(dag(a) @ a, k)
        h += lam * embed(X, 0) @ embed(g_k * dag(a) + np.conj(g_k) * a, k)
        coupling_sq += abs(g_k) ** 2 / w_k
    if spec.counter_term:
        h += lam**2 * coupling_sq * embed(X @ X, 0)
    return (h + dag(h)) / 2


def _kron_reference(H_S, X, lam, spec):
    """H_tot as three full complex Kronecker products (the former assembly)."""
    H_S, X = np.asarray(H_S, dtype=complex), np.asarray(X, dtype=complex)
    d_s = H_S.shape[0]
    n_levels = spec.fock_cutoff + 1
    a = np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1).astype(complex)
    H_B = B = np.zeros((1, 1))
    for w_k, g_k in spec.modes:
        one_b, one_k = np.eye(len(B)), np.eye(n_levels)
        H_B = np.kron(H_B, one_k) + np.kron(one_b, w_k * dag(a) @ a)
        B = np.kron(B, one_k) + np.kron(one_b, g_k * dag(a) + np.conj(g_k) * a)
    coupling_sq = sum(abs(g) ** 2 / w for w, g in spec.modes) if spec.counter_term else 0.0
    h_sys = H_S + lam**2 * coupling_sq * (X @ X)
    h = np.kron((h_sys + dag(h_sys)) / 2, np.eye(len(B)))
    h += np.kron(np.eye(d_s), H_B)
    h += np.kron(lam * (X + dag(X)) / 2, B)
    return h


def _einsum_reference(model, beta):
    """Reduced MFG state by the three-operand einsum (the former reduction),
    over the eigenpairs exact_mfg reduces."""
    w, v = finitebath.thermal_window(model, beta)
    v = v.reshape(model.system_dim, -1, len(w))
    rho = np.einsum("aki,bki,i->ab", v, v.conj(), boltzmann(w, beta), optimize=True)
    rho = (rho + dag(rho)) / 2
    return rho / np.trace(rho).real


def _random_model(seed, d_s, n_modes, n_max, counter_term, real):
    """A random model; real=True draws real H_S, X and g_k."""
    rng = np.random.default_rng(seed)
    modes = tuple((rng.uniform(0.2, 4.0), complex(*rng.normal(scale=0.5, size=2)))
                  for _ in range(n_modes))
    H_S = random_hermitian(rng, d_s)
    X = random_hermitian(rng, d_s)
    if real:
        modes = tuple((w, g.real) for w, g in modes)
        H_S, X = H_S.real, X.real
    spec = finitebath.FiniteBathSpec(modes=modes, fock_cutoff=n_max,
                                     counter_term=counter_term)
    lam = rng.uniform(0.0, 1.0)
    return rng, (H_S, X, lam, spec)


MODELS = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    d_s=st.sampled_from([2, 3]),
    n_modes=st.integers(min_value=1, max_value=3),
    n_max=st.integers(min_value=1, max_value=3),
    counter_term=st.booleans(),
    real=st.booleans(),
)


class TestSystemBathSplitEquivalence:
    """The two-factor assembly and reduction against the per-slot paths."""

    @settings(max_examples=40, deadline=None)
    @given(**MODELS)
    def test_assemble_matches_per_slot_embedding(self, seed, d_s, n_modes, n_max,
                                                 counter_term, real):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        h = finitebath.assemble(*args).H_tot
        ref = _embed_reference(*args)
        assert np.abs(h - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref, 2))

    @settings(max_examples=40, deadline=None)
    @given(**MODELS)
    def test_structured_assembly_is_the_kronecker_sum_bit_for_bit(
            self, seed, d_s, n_modes, n_max, counter_term, real):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        h = finitebath.assemble(*args).H_tot
        ref = _kron_reference(*args)
        assert h.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(h, ref.real if real else ref)
        if real:
            assert not ref.imag.any()

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(min_value=0.1, max_value=5.0), **MODELS)
    def test_gemm_reduction_matches_einsum(self, seed, d_s, n_modes, n_max,
                                           counter_term, real, beta):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        model = finitebath.assemble(*args)
        rho = finitebath.exact_mfg(model, beta)
        # the same products summed in another order: a few eps apart (10 eps
        # was the worst of 3000 random models), so allow 64 eps
        assert np.abs(rho - _einsum_reference(model, beta)).max() <= 64 * np.finfo(float).eps

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(min_value=0.1, max_value=50.0), force_window=st.booleans(),
           **MODELS)
    def test_exact_mfg_matches_partial_trace_of_global_gibbs(
            self, seed, d_s, n_modes, n_max, counter_term, real, beta, force_window):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        model = finitebath.assemble(*args)
        before = model.H_tot.copy()
        # before the reference caches the full spectrum, so a narrow window
        # (with force_window, any window short of the whole spectrum) takes
        # the subset solve
        with pytest.MonkeyPatch.context() as mp:
            if force_window:
                mp.setattr(finitebath, "WINDOW_FRACTION", 1.0)
            rho = finitebath.exact_mfg(model, beta)
        assert np.array_equal(model.H_tot, before)
        dim = model.H_tot.shape[0]
        ref = partial_trace(_global_gibbs(model, beta), (d_s, dim // d_s), keep=0)
        assert trace_distance(rho, ref) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**MODELS)
    def test_effective_dimension_matches_three_operand_einsum(
            self, seed, d_s, n_modes, n_max, counter_term, real):
        rng, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        model = finitebath.assemble(*args)
        _, v = model.eig()
        rho = random_density_matrix(rng, model.H_tot.shape[0])
        ref = 1.0 / np.sum(np.einsum("ki,kl,li->i", v.conj(), rho, v).real ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d_eff = finitebath.effective_dimension(rho, model)
        assert d_eff == pytest.approx(ref, rel=1e-10)


class TestWindowSolve:
    """The value-range window solve against np.linalg.eigh."""

    @settings(max_examples=40, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True), **MODELS)
    def test_window_matches_eigh_and_leaves_h_tot_unchanged(self, seed, d_s, n_modes,
                                                            n_max, counter_term, real,
                                                            cut):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        h = finitebath.assemble(*args).H_tot
        before = h.copy()
        E, V = np.linalg.eigh(before)
        k = int(cut * (len(E) - 1))  # upper halfway between E_k and E_(k+1)
        assume(E[k + 1] - E[k] > 1e-9 * np.abs(E).max())
        upper = (E[k] + E[k + 1]) / 2
        # the narrow side: some diagonal entry lies above upper
        assume(np.count_nonzero(h.diagonal().real <= upper) < len(h))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finitebath, "WINDOW_FRACTION", 1.0)
            w, v = finitebath.GlobalModel(d_s, h).eig(upper)
        assert np.array_equal(h, before)
        assert v.dtype == h.dtype and v.shape == (len(h), k + 1)
        assert np.abs(w - E[:k + 1]).max() <= 1e-12 * np.abs(E).max()
        # the same eigenvectors, up to a phase each
        overlaps = np.abs(np.einsum("ki,ki->i", V[:, :k + 1].conj(), v))
        assert np.abs(overlaps - 1).max() < 1e-8

    @staticmethod
    def _assert_exact_window(h, upper):
        """eig(upper) on the value-range side returns exactly the eigenvalues
        of h <= upper, against eigvalsh: an eigenvalue within rounding of
        upper may fall on either side."""
        E = np.linalg.eigvalsh(h)
        tol = 1e-12 * np.abs(E).max()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finitebath, "WINDOW_FRACTION", np.inf)  # every upper
            w, v = finitebath.GlobalModel(1, h).eig(upper)
        assert np.count_nonzero(E <= upper - tol) <= len(w) <= np.count_nonzero(E <= upper + tol)
        assert v.shape == (len(h), len(w))
        assert np.abs(w - E[:len(w)]).max(initial=0.0) <= tol
        return w

    def test_window_sees_an_eigenvalue_below_every_diagonal_entry(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.count_nonzero(h.diagonal() <= -0.5) == 0
        # the pair at +1 is left out
        assert self._assert_exact_window(h, -0.5) == pytest.approx([-1.0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           dim=st.integers(min_value=1, max_value=150),
           cut=st.floats(min_value=-0.5, max_value=1.5), real=st.booleans())
    def test_window_holds_exactly_the_eigenvalues_below_upper(self, seed, dim, cut, real):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        h = h.real if real else h
        h = h + np.diag(rng.uniform(0.0, 3.0 * dim, size=dim))
        E = np.linalg.eigvalsh(h)
        self._assert_exact_window(h, E[0] + cut * (E[-1] - E[0]))
        # just below an eigenvalue it is left out, just above it is kept
        j = int(np.clip(cut, 0.0, 1.0) * (dim - 1))
        for shift in (-1e-9, 1e-9):
            self._assert_exact_window(h, E[j] + shift * np.abs(E).max())


def _bath_energies(spec):
    """sum_k n_k w_k over the cube, in cube order (the last mode fastest)."""
    levels = [w * np.arange(spec.fock_cutoff + 1) for w, _ in spec.modes]
    return np.sum(np.meshgrid(*levels, indexing="ij"), axis=0).ravel()


def _recorded_dims(monkeypatch):
    """Patch finitebath.assemble to record the dimension of every H_tot built."""
    dims, assemble = [], finitebath.assemble

    def record(*args, **kwargs):
        model = assemble(*args, **kwargs)
        dims.append(len(model.H_tot))
        return model

    monkeypatch.setattr(finitebath, "assemble", record)
    return dims


class TestEnergyCut:
    """assemble on the bath states with sum_k n_k w_k <= e_cut, and
    ladder_mfg against exact_mfg of the whole cube (the reference)."""

    @settings(max_examples=40, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True), **MODELS)
    def test_cut_is_the_principal_submatrix_of_the_cube_bit_for_bit(
            self, seed, d_s, n_modes, n_max, counter_term, real, cut):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        energies = _bath_energies(args[3])
        levels = np.unique(energies)
        k = int(cut * (len(levels) - 1))  # e_cut halfway between two levels,
        assume(levels[k + 1] - levels[k] > 1e-9 * levels[-1])  # clear of rounding
        e_cut = (levels[k] + levels[k + 1]) / 2
        kept = np.flatnonzero(energies <= e_cut)
        rows = (np.arange(d_s)[:, None] * len(energies) + kept).ravel()
        cube = finitebath.assemble(*args).H_tot
        h = finitebath.assemble(*args, e_cut=e_cut).H_tot
        assert h.dtype == cube.dtype and h.flags.c_contiguous
        assert np.array_equal(h, cube[np.ix_(rows, rows)])

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(min_value=0.1, max_value=50.0),
           lam=st.floats(min_value=0.0, max_value=0.5), every_rung=st.booleans(),
           **dict(MODELS, n_max=st.integers(min_value=2, max_value=5)))
    # a weak mode (w = 0.385, g = 0.03) below the thermal bound of 1.14 and
    # two strong ones (w = 3.29, 3.69) above it: a step of half the highest
    # frequency added only states of the weak mode and stopped 1.3e-3 off
    @example(seed=311259, d_s=2, n_modes=3, n_max=3, counter_term=False, real=True,
             beta=36.688696911443515, lam=0.029474154913343042, every_rung=False)
    def test_ladder_matches_the_cube(self, seed, d_s, n_modes, n_max, counter_term,
                                     real, beta, lam, every_rung):
        # every_rung climbs to the cube rather than taking it at half. Over
        # 3000 random models so, the ladder was within 5.0e-15 of the cube,
        # and within 4.1e-16 over 2000 as shipped
        _, (H_S, X, _, spec) = _random_model(seed, d_s, n_modes, n_max, counter_term, real)
        with pytest.MonkeyPatch.context() as mp:
            if every_rung:
                mp.setattr(finitebath, "CUBE_SHARE", 1.0)
            rho = finitebath.ladder_mfg(H_S, X, lam, spec, beta)
        ref = finitebath.exact_mfg(finitebath.assemble(H_S, X, lam, spec), beta)
        assert trace_distance(rho, ref) <= 1e-14

    def test_oracle_task_stays_on_small_rungs(self, monkeypatch, tmp_path):
        # the benchmark's oracle: 3 modes, n_max 7 (cube 1024), beta = 1.
        # The rungs were 174, 284 and 410 at lam = 0.16, 174 and 284 below
        dims = _recorded_dims(monkeypatch)
        cfg = copy.deepcopy(cli.PRESETS["oracle_spin_boson"])
        cfg["oracle"].update(n_modes=3, fock_cutoff=7)
        assert cli.run_scenario(cfg, tmp_path) == 0
        assert len(dims) <= 7 and max(dims) <= 410

    def test_high_temperature_takes_the_cube_at_once(self, monkeypatch):
        dims = _recorded_dims(monkeypatch)
        spec = _benchmark_spec()
        finitebath.ladder_mfg(0.5 * SZ + 0.25 * SX, SZ, 0.16, spec, 0.3)
        assert dims == [1024]

    def test_dimension_cap_applies_to_the_rungs(self, monkeypatch, tmp_path):
        # cube 1024 > 600: beta = 1 converges on rungs under the cap; at
        # beta = 0.3 the ladder takes the cube, which the cap refuses (exit 3
        # in the CLI)
        monkeypatch.setattr(finitebath, "DIM_CAP", 600)
        cfg = copy.deepcopy(cli.PRESETS["oracle_spin_boson"])
        cfg["oracle"].update(n_modes=3, fock_cutoff=7, lambdas=[0.16])
        cfg["bath"]["beta"] = 0.3
        assert cli.run_scenario(cfg, tmp_path) == 3
        spec, h_s = _benchmark_spec(), 0.5 * SZ + 0.25 * SX
        rho = finitebath.ladder_mfg(h_s, SZ, 0.16, spec, 1.0)
        monkeypatch.setattr(finitebath, "DIM_CAP", 16384)
        cube = finitebath.exact_mfg(finitebath.assemble(h_s, SZ, 0.16, spec), 1.0)
        assert trace_distance(rho, cube) <= 1e-14
        monkeypatch.setattr(finitebath, "DIM_CAP", 600)
        with pytest.raises(ValueError, match="cap 600"):
            finitebath.ladder_mfg(h_s, SZ, 0.16, spec, 0.3)
        with pytest.raises(ValueError, match="cap 600"):
            finitebath.assemble(h_s, SZ, 0.16, spec)


class TestDiscretize:
    def test_coupling_sum_rule(self):
        # sum |g_k|^2 = int_0^wmax J dw, exact for Gauss-Legendre weights
        target, _ = quad(lambda w: float(DRUDE.j(w)), 0.0, 15.0, limit=200)
        modes = finitebath.discretize(DRUDE, 40, 15.0, finitebath.GAUSS)
        assert sum(abs(g) ** 2 for _, g in modes) == pytest.approx(
            target, rel=1e-10
        )
        modes = finitebath.discretize(DRUDE, 400, 15.0, finitebath.LINEAR)
        assert sum(abs(g) ** 2 for _, g in modes) == pytest.approx(
            target, rel=1e-4
        )

    def test_linear_midpoints(self):
        modes = finitebath.discretize(DRUDE, 4, 8.0, finitebath.LINEAR)
        assert [w for w, _ in modes] == pytest.approx([1.0, 3.0, 5.0, 7.0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            finitebath.discretize(DRUDE, 0, 10.0)
        with pytest.raises(ValueError):
            finitebath.discretize(DRUDE, 3, 10.0, "chebyshev")


class TestAssemble:
    def test_dimension_cap(self):
        modes = tuple((float(k), 0.1 + 0j) for k in range(1, 8))
        spec = finitebath.FiniteBathSpec(modes=modes, fock_cutoff=7)
        with pytest.raises(ValueError):
            finitebath.assemble(H_SB, SZ, 0.1, spec)

    def test_cube_index_overflow_raises(self):
        # 2^64 states: a low cut keeps few of them, but their cube indices
        # would wrap around in int64
        spec = finitebath.FiniteBathSpec(modes=tuple((1.0 + k, 0.1) for k in range(64)),
                                         fock_cutoff=1)
        with pytest.raises(ValueError, match="overflow"):
            finitebath.assemble(H_SB, SZ, 0.1, spec, e_cut=1.5)

    def test_counter_term_shifts_by_x_squared(self):
        spec_on = _spec(counter_term=True)
        spec_off = _spec(counter_term=False)
        lam = 0.3
        h_on = finitebath.assemble(H_SB, SZ, lam, spec_on).H_tot
        h_off = finitebath.assemble(H_SB, SZ, lam, spec_off).H_tot
        ell = sum(abs(g) ** 2 / w for w, g in spec_on.modes)
        bath_dim = h_on.shape[0] // 2
        expected = lam**2 * ell * np.kron(SZ @ SZ, np.eye(bath_dim, dtype=complex))
        assert np.allclose(h_on - h_off, expected, atol=1e-13)

    @pytest.mark.parametrize("x, g_phase", [(SY, 1.0), (SZ, np.exp(0.7j))])
    def test_complex_input_assembles_in_complex128(self, x, g_phase):
        spec = finitebath.FiniteBathSpec(
            modes=tuple((w, g_phase * g) for w, g in _spec().modes), fock_cutoff=3)
        h = finitebath.assemble(H_SB, x, 0.3, spec).H_tot
        assert h.dtype == np.complex128 and h.imag.any()
        ref = _embed_reference(H_SB, x, 0.3, spec)
        assert np.abs(h - ref).max() <= 1e-12 * np.linalg.norm(ref, 2)

    def test_real_input_assembles_in_float64(self):
        model = finitebath.assemble(H_SB, SZ, 0.3, _spec())
        assert model.H_tot.dtype == np.float64
        assert model.eig()[1].dtype == np.float64

    def test_deterministic(self):
        a = finitebath.assemble(H_SB, SZ, 0.2, _spec()).H_tot
        b = finitebath.assemble(H_SB, SZ, 0.2, _spec()).H_tot
        assert np.array_equal(a, b)


def _benchmark_spec():
    """The benchmark's oracle bath: D = 2 * 8^3 = 1024 on the cube."""
    J = bath.DrudeLorentz(gamma=0.3, omega_d=5.0)
    return finitebath.FiniteBathSpec(
        modes=tuple(finitebath.discretize(J, 3, 15.0)), fock_cutoff=7)


def _benchmark_model():
    """The benchmark's oracle model on the cube, real H_tot."""
    return finitebath.assemble(0.5 * SZ + 0.25 * SX, SZ, 0.16, _benchmark_spec())


class TestThermalWindow:
    """Which solve exact_mfg and ladder_mfg take, on the benchmark's oracle bath."""

    @staticmethod
    def _spy(monkeypatch):
        """Record every (solver, dimension, pairs, value range) finitebath asks for."""
        calls = []

        def spy(name, solve):
            def wrapper(h, **kwargs):
                result = solve(h, **kwargs)
                calls.append((name, len(h), len(result[0]), kwargs.get("subset_by_value")))
                return result
            return wrapper

        monkeypatch.setattr(scipy.linalg, "eigh", spy("window", scipy.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigh", spy("full", np.linalg.eigh))
        return calls

    def _solves(self, monkeypatch, beta):
        """Run exact_mfg on the benchmark model; return D and its solves."""
        model = _benchmark_model()
        calls = self._spy(monkeypatch)
        finitebath.exact_mfg(model, beta)
        return len(model.H_tot), calls

    def test_low_temperature_solves_for_the_window_only(self, monkeypatch):
        dim, calls = self._solves(monkeypatch, 1.0)
        assert len(calls) == 1
        name, _, pairs, bounds = calls[0]
        assert name == "window" and bounds[0] == -np.inf
        assert 0 < pairs < dim / 4

    def test_high_temperature_takes_the_full_solve(self, monkeypatch):
        dim, calls = self._solves(monkeypatch, 0.2)
        assert calls == [("full", dim, dim, None)]

    @pytest.mark.parametrize("lam", [0.16, 0.08, 0.04])
    def test_benchmark_ladder_takes_the_full_solve_on_every_rung(self, monkeypatch, lam):
        # the benchmark's oracle (beta = 1) has at least 0.4 of each rung's
        # diagonal below the window bound, so the value-range solve never runs
        calls = self._spy(monkeypatch)
        finitebath.ladder_mfg(0.5 * SZ + 0.25 * SX, SZ, lam, _benchmark_spec(), 1.0)
        assert len(calls) >= 2 and {name for name, *_ in calls} == {"full"}

    @pytest.mark.parametrize("lam", [0.16, 0.08, 0.04])
    def test_cold_ladder_solves_by_value_after_its_first_rung(self, monkeypatch, lam):
        calls = self._spy(monkeypatch)
        finitebath.ladder_mfg(0.5 * SZ + 0.25 * SX, SZ, lam, _benchmark_spec(), 10.0)
        assert len(calls) >= 2
        assert [name for name, *_ in calls] == ["full"] + ["window"] * (len(calls) - 1)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_invalid_beta(self, beta):
        model = finitebath.assemble(H_SB, SZ, 0.3, _spec(n_modes=1))
        with pytest.raises(ValueError, match="beta"):
            finitebath.exact_mfg(model, beta)
        with pytest.raises(ValueError, match="beta"):  # before a rung is cut at nan
            finitebath.ladder_mfg(H_SB, SZ, 0.3, _spec(n_modes=1), beta)


class TestExactMfg:
    def test_zero_coupling_reduces_to_gibbs(self):
        model = finitebath.assemble(H_SB, SZ, 0.0, _spec())
        assert trace_distance(
            finitebath.exact_mfg(model, 1.0), gibbs(H_SB, 1.0)
        ) < 1e-12


class TestEffectiveDimension:
    def test_eigenstate_gives_one(self):
        model = finitebath.assemble(H_SB, SZ, 0.3, _spec())
        w, v = model.eig()
        rho = np.outer(v[:, 5], v[:, 5].conj())
        assert finitebath.effective_dimension(rho, model) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_maximally_mixed_gives_global_dimension(self):
        model = finitebath.assemble(H_SB, SZ, 0.3, _spec())
        dim = model.H_tot.shape[0]
        rho = np.eye(dim, dtype=complex) / dim
        assert finitebath.effective_dimension(rho, model) == pytest.approx(
            dim, rel=1e-8
        )

    def test_invariant_under_commuting_unitary(self, rng):
        model = finitebath.assemble(H_SB, SZ, 0.3, _spec(n_modes=2))
        w, v = model.eig()
        dim = model.H_tot.shape[0]
        rho = np.kron(random_density_matrix(rng, 2),
                      np.eye(dim // 2, dtype=complex) / (dim // 2))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
        u = (v * phases) @ v.conj().T  # diagonal in the H_tot eigenbasis
        d1 = finitebath.effective_dimension(rho, model)
        d2 = finitebath.effective_dimension(u @ rho @ u.conj().T, model)
        assert d2 == pytest.approx(d1, rel=1e-9)


class TestTruncationStudy:
    def test_zero_coupling_converges_immediately(self):
        def build(n_max):
            return finitebath.assemble(H_SB, SZ, 0.0, _spec(n_max=n_max))

        def observable(model):
            return float(finitebath.exact_mfg(model, 1.0)[0, 0].real)

        study = finitebath.truncation_study(build, observable)
        assert study.converged
        assert study.certified_cutoff == study.cutoffs[1]

    def test_free_mode_occupation(self):
        # single decoupled mode at beta w = 1: <n> = 1/(e - 1)
        w0 = 1.0
        spec = finitebath.FiniteBathSpec(modes=((w0, 0.0 + 0j),), fock_cutoff=2)

        def build(n_max):
            return finitebath.FiniteBathSpec(modes=((w0, 0.0j),),
                                             fock_cutoff=n_max)

        def occupation(n_max):
            model = finitebath.assemble(H_SB, SZ, 0.0, build(n_max))
            tau = _global_gibbs(model, 1.0)
            n_levels = n_max + 1
            num = np.kron(np.eye(2, dtype=complex),
                          np.diag(np.arange(n_levels, dtype=float)).astype(complex))
            return float(np.trace(tau @ num).real)

        vals = [occupation(n) for n in (8, 16, 24)]
        assert vals[-1] == pytest.approx(1.0 / (np.e - 1.0), abs=1e-6)

    def test_nonconvergence_raises(self):
        def build(n_max):
            return finitebath.assemble(H_SB, SZ, 0.0, _spec(n_max=n_max))

        calls = iter(range(100))

        def jitter(_model):
            return float(next(calls))  # never settles

        with pytest.raises(RuntimeError):
            finitebath.truncation_study(build, jitter, n_max_stop=6)
