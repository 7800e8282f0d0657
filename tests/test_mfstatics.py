from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgkit import bath, mfstatics
from mfgkit.opcore import commutator, dag, gibbs, require_density_matrix, trace_distance

from conftest import hamiltonian_with_spectrum, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)

DRUDE = bath.DrudeLorentz(gamma=0.1, omega_d=5.0)
H_SB = 0.5 * SZ + 0.25 * SX  # eps = 1, Delta = 0.5


def _bp(lam, beta=1.0, J=DRUDE):
    return bath.BathParams(J=J, beta=beta, lam=lam)


def _tau2_pairwise(dec, tau, d_vals, bath_params):
    """Reference: the mode-by-mode and pair-by-pair loop the contraction replaced."""
    beta = bath_params.beta
    out = np.zeros_like(tau)
    eye = np.eye(tau.shape[0])

    for (w_m, x_m), d_m in zip(dec.modes, d_vals):
        xx = x_m @ dag(x_m)
        out += beta * d_m * (tau @ (xx - np.trace(tau @ xx).real * eye))
        d_prime = bath.d_beta_deriv(bath_params.J, beta, w_m)
        out += d_prime * (dag(x_m) @ tau @ x_m - tau @ x_m @ dag(x_m))

    for (w_m, x_m), d_m in zip(dec.modes, d_vals):
        for w_n, x_n in dec.modes:
            if abs(w_n - w_m) <= dec.degeneracy_tol:
                continue
            term = x_n @ (dag(x_m) @ tau) - (dag(x_m) @ tau) @ x_n
            out += (d_m / (w_n - w_m)) * (term + dag(term))
    return out


def _bound_pairwise(dec, tau, d_vals, beta):
    """Reference: the mode-by-mode sum behind the validity bound."""
    total = sum(np.trace(tau @ x_m @ dag(x_m)).real * d
                for (_, x_m), d in zip(dec.modes, d_vals))
    denom = abs(beta * total)
    return np.inf if denom < 1e-300 else 1.0 / np.sqrt(denom)


# smooth stand-ins for D_beta and its derivative; D > 0 keeps tr(tau A) away
# from cancellation so the bound can be compared relatively
def _fake_d(J, beta, w):  # w: the tuple stack that d_beta takes
    w = np.asarray(w)
    return 1.0 + 0.3 * np.tanh(w) + 0.1 * np.sin(2.0 * w)


def _fake_d_prime(J, beta, w):
    return 0.3 / np.cosh(w) ** 2 + 0.2 * np.cos(2.0 * w)


class TestPointerSplit:
    def test_qubit_example(self):
        split = mfstatics.pointer_split(H_SB, SZ)
        # pointer states ordered by ascending X eigenvalue: -1 first
        assert np.allclose(np.diag(split.H_eps), [-0.5, 0.5], atol=1e-13)
        assert abs(split.H_J[0, 1]) == pytest.approx(0.25, abs=1e-13)

    def test_commuting_coupling_has_no_hopping(self):
        split = mfstatics.pointer_split(0.7 * SZ, SZ)
        assert np.linalg.norm(split.H_J) < 1e-13

    def test_reassembly(self, rng):
        h = random_hermitian(rng, 3)
        x = random_hermitian(rng, 3)
        split = mfstatics.pointer_split(h, x)
        u = split.pointer_basis
        assert np.allclose(
            u @ (split.H_eps + split.H_J) @ dag(u), h, atol=1e-13
        )

    def test_degenerate_coupling_rejected(self):
        with pytest.raises(ValueError):
            mfstatics.pointer_split(H_SB, np.eye(2, dtype=complex))


class TestWeakCoupling:
    def test_zero_coupling_is_gibbs(self):
        res = mfstatics.mfg_weak(H_SB, SZ, _bp(0.0))
        assert trace_distance(res.state, gibbs(H_SB, 1.0)) < 1e-14

    def test_commuting_coupling_keeps_gibbs_populations(self):
        # [H_S, X] = 0: only the w = 0 mode survives and D_beta(0) = 0,
        # so the state stays diagonal with an infinite validity bound
        res = mfstatics.mfg_weak(0.7 * SZ, SZ, _bp(0.1))
        assert res.diagnostics["validity_lambda_max"] == np.inf
        assert np.allclose(res.state, gibbs(0.7 * SZ, 1.0), atol=1e-12)

    def test_ohmic_class_bath_with_zero_mode(self):
        # sigma_z coupling has an omega = 0 mode, where D' diverges for an
        # Ohmic-class J; its tau^(2) term vanishes and is never evaluated
        ohmic = bath.OhmicExp(gamma=0.1, omega_c=4.0)
        grid = np.linspace(0.0, 60.0, 400)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(ohmic.j(grid)))
        assert 0.0 in mfstatics.decompose(H_SB, SZ).frequencies
        states = [mfstatics.mfg_weak(H_SB, SZ, _bp(0.1, J=J)).state for J in (ohmic, tab)]
        for state in states:
            require_density_matrix(state)
            assert trace_distance(state, gibbs(H_SB, 1.0)) > 1e-4
        assert trace_distance(*states) < 1e-6

    def test_correction_is_traceless_and_hermitian(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            h = random_hermitian(r, 3)
            x = random_hermitian(r, 3)
            ing = mfstatics._weak_ingredients(h, x, _bp(0.0))
            tau2 = mfstatics._tau2(*ing, _bp(0.0))
            assert abs(np.trace(tau2)) < 1e-12
            assert np.linalg.norm(tau2 - dag(tau2)) < 1e-12

    def test_series_structure(self):
        # trace_distance(mfg_weak, tau)/lam^2 approaches a constant
        tau = gibbs(H_SB, 1.0)
        ratios = [
            trace_distance(mfstatics.mfg_weak(H_SB, SZ, _bp(lam)).state, tau)
            / lam**2
            for lam in (0.02, 0.01)
        ]
        assert abs(ratios[0] / ratios[1] - 1.0) < 0.01

    def test_validity_warning_and_error(self):
        lam_max = mfstatics.weak_validity_bound(H_SB, SZ, _bp(0.0))
        assert np.isfinite(lam_max) and lam_max > 0
        with pytest.warns(UserWarning):
            mfstatics.mfg_weak(H_SB, SZ, _bp(1.5 * lam_max))
        with pytest.raises(mfstatics.ValidityError):
            mfstatics.mfg_weak(H_SB, SZ, _bp(11.0 * lam_max))

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        kind=st.sampled_from(["random", "degenerate", "ladder", "zero_coupling"]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_contraction_matches_pairwise_loop(self, dim, kind, seed):
        rng = np.random.default_rng(seed)
        h = hamiltonian_with_spectrum(kind, rng, dim)
        x = (np.zeros((dim, dim), dtype=complex) if kind == "zero_coupling"
             else random_hermitian(rng, dim))
        bp = _bp(0.0, beta=rng.uniform(0.2, 5.0))
        with mock.patch.object(bath, "d_beta", _fake_d), \
                mock.patch.object(bath, "d_beta_deriv", _fake_d_prime):
            ing = mfstatics._weak_ingredients(h, x, bp)
            tau2 = mfstatics._tau2(*ing, bp)
            ref = _tau2_pairwise(ing[0], ing[1], ing[2], bp)
            bound = mfstatics.weak_validity_bound(h, x, bp)
        assert np.abs(tau2 - ref).max() <= 1e-12 * max(1.0, np.linalg.norm(ref))
        ref_bound = _bound_pairwise(ing[0], ing[1], ing[2], bp.beta)
        if kind == "zero_coupling":
            assert len(ing[0].modes) == 0 and bound == ref_bound == np.inf
            assert not tau2.any()
        else:
            assert bound == pytest.approx(ref_bound, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_output_is_density_matrix(self, seed):
        r = np.random.default_rng(seed)
        h = random_hermitian(r, 3)
        x = random_hermitian(r, 3)
        res = mfstatics.mfg_weak(h, x, _bp(0.05))
        require_density_matrix(res.state)


class TestUltrastrong:
    def test_commutes_with_coupling(self, rng):
        h = random_hermitian(rng, 4)
        x = random_hermitian(rng, 4)
        res = mfstatics.mfg_ultrastrong(h, x, 1.3)
        assert np.linalg.norm(commutator(res.state, x)) < 1e-12

    def test_pointer_populations_are_projected_gibbs(self):
        res = mfstatics.mfg_ultrastrong(H_SB, SZ, 2.0)
        # with X = sigma_z the projected Hamiltonian keeps only eps/2 sigma_z
        assert trace_distance(res.state, gibbs(0.5 * SZ, 2.0)) < 1e-13

    def test_degenerate_coupling_rejected(self):
        with pytest.raises(ValueError):
            mfstatics.mfg_ultrastrong(H_SB, np.eye(2, dtype=complex), 1.0)


class TestHighTemperature:
    def _dimer(self, ell, beta, eps=1.0, delta=0.5):
        h = (eps / 2) * SZ + (delta / 2) * SX
        projectors = [np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex)]
        # DrudeLorentz reorganization energy is lam^2 gamma omega_D
        J = bath.DrudeLorentz(gamma=ell / 5.0, omega_d=5.0)
        return mfstatics.mfg_high_t(h, projectors, [(J, 1.0), (J, 1.0)], beta)

    def test_zero_reorganization_is_gibbs(self):
        res = self._dimer(0.0, 1.0)
        assert trace_distance(res.state, gibbs(H_SB, 1.0)) < 1e-12

    def test_no_hopping_gives_diagonal_gibbs(self):
        projectors = [np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex)]
        J = bath.DrudeLorentz(gamma=0.2, omega_d=5.0)
        res = mfstatics.mfg_high_t(0.7 * SZ, projectors, [(J, 1.0)] * 2, 1.0)
        assert trace_distance(res.state, gibbs(0.7 * SZ, 1.0)) < 1e-13

    def test_ell_beta_diagnostic_and_warning(self):
        res = self._dimer(0.5, 1.0)
        assert res.diagnostics["ell_beta"] == pytest.approx(0.5, rel=1e-9)
        with pytest.warns(UserWarning):
            self._dimer(3.0, 1.0)

    def test_rejects_non_projectors(self):
        with pytest.raises(ValueError):
            mfstatics.mfg_high_t(H_SB, [SZ, SX], [(DRUDE, 1.0)] * 2, 1.0)

    def test_rejects_non_orthogonal_projectors(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        q = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            mfstatics.mfg_high_t(H_SB, [p, q], [(DRUDE, 1.0)] * 2, 1.0)


class TestMeanForceHamiltonian:
    def test_roundtrip_through_gibbs(self, rng):
        h = random_hermitian(rng, 4)
        beta = 0.8
        h_mf = mfstatics.mean_force_hamiltonian(gibbs(h, beta), beta)
        # H_MF differs from H by the additive constant fixing Z_MF = 1
        shift = (np.trace(h_mf - h) / 4).real
        assert np.allclose(h_mf - shift * np.eye(4), h, atol=1e-10)

    def test_singular_state_rejected(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            mfstatics.mean_force_hamiltonian(rho, 1.0)
