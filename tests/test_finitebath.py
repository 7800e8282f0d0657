import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mfgkit import bath, finitebath
from mfgkit.opcore import dag, gibbs, partial_trace, trace_distance

from conftest import random_density_matrix, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
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


def _random_model(seed, d_s, n_modes, n_max, counter_term):
    rng = np.random.default_rng(seed)
    modes = tuple((rng.uniform(0.2, 4.0), complex(*rng.normal(scale=0.5, size=2)))
                  for _ in range(n_modes))
    spec = finitebath.FiniteBathSpec(modes=modes, fock_cutoff=n_max,
                                     counter_term=counter_term)
    H_S = random_hermitian(rng, d_s)
    X = random_hermitian(rng, d_s)
    lam = rng.uniform(0.0, 1.0)
    return rng, (H_S, X, lam, spec)


MODELS = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    d_s=st.sampled_from([2, 3]),
    n_modes=st.integers(min_value=1, max_value=3),
    n_max=st.integers(min_value=1, max_value=3),
    counter_term=st.booleans(),
)


class TestSystemBathSplitEquivalence:
    """The two-factor assembly and reduction against the per-slot paths."""

    @settings(max_examples=40, deadline=None)
    @given(**MODELS)
    def test_assemble_matches_per_slot_embedding(self, seed, d_s, n_modes, n_max,
                                                 counter_term):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term)
        h = finitebath.assemble(*args).H_tot
        ref = _embed_reference(*args)
        assert np.abs(h - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref, 2))

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(min_value=0.1, max_value=5.0), **MODELS)
    def test_exact_mfg_matches_partial_trace_of_global_gibbs(
            self, seed, d_s, n_modes, n_max, counter_term, beta):
        _, args = _random_model(seed, d_s, n_modes, n_max, counter_term)
        model = finitebath.assemble(*args)
        dim = model.H_tot.shape[0]
        ref = partial_trace(_global_gibbs(model, beta), (d_s, dim // d_s), keep=0)
        assert trace_distance(finitebath.exact_mfg(model, beta), ref) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(**MODELS)
    def test_effective_dimension_matches_three_operand_einsum(
            self, seed, d_s, n_modes, n_max, counter_term):
        rng, args = _random_model(seed, d_s, n_modes, n_max, counter_term)
        model = finitebath.assemble(*args)
        _, v = model.eig()
        rho = random_density_matrix(rng, model.H_tot.shape[0])
        ref = 1.0 / np.sum(np.einsum("ki,kl,li->i", v.conj(), rho, v).real ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d_eff = finitebath.effective_dimension(rho, model)
        assert d_eff == pytest.approx(ref, rel=1e-10)


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

    def test_deterministic(self):
        a = finitebath.assemble(H_SB, SZ, 0.2, _spec()).H_tot
        b = finitebath.assemble(H_SB, SZ, 0.2, _spec()).H_tot
        assert np.array_equal(a, b)


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
