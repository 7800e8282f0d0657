import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mfgkit import bath, clexact
from mfgkit.opcore import dag

P_REF = dict(omega_0=1.0, gamma=0.5, omega_D=5.0, beta=2.0)
DERIV_AGREEMENT_TOL = 1e-5


def _richardson_derivative(f, x, h):
    """Reference: the finite-difference derivative moments() used before the
    digamma closed form (one Richardson step, checked against step h/2)."""
    if x - h > 0:
        def diff(step):
            return (f(x + step) - f(x - step)) / (2 * step)

        def richardson(step):
            return (4 * diff(step / 2) - diff(step)) / 3
    else:
        def diff(step):
            return (f(x + step) - f(x)) / step

        def richardson(step):
            return 2 * diff(step / 2) - diff(step)

    rich1, rich2 = richardson(h), richardson(h / 2)
    scale = max(abs(rich2), 1e-12)
    if abs(rich1 - rich2) / scale > DERIV_AGREEMENT_TOL:
        raise RuntimeError(f"derivative did not converge: {rich1:.8g} vs {rich2:.8g}")
    return rich2


def _reference_moments(p):
    """(xx, pp) from Richardson differences of log_partition."""
    dw0 = _richardson_derivative(
        lambda w0: clexact.log_partition(clexact.CLParams(w0, p.gamma, p.omega_D, p.beta)),
        p.omega_0, 1e-4 * p.omega_0)
    dgamma = _richardson_derivative(
        lambda g: clexact.log_partition(clexact.CLParams(p.omega_0, g, p.omega_D, p.beta)),
        p.gamma, 1e-4 * max(p.gamma, p.omega_0))
    xx = -dw0 / p.beta
    return xx, xx - (2 * p.gamma / (p.beta * p.omega_0)) * dgamma


def _discriminant(gamma, omega_0, omega_D):
    """Discriminant of the cubic; it changes sign where two roots meet."""
    b, c, d = -omega_D, omega_0**2 + gamma * omega_D, -omega_D * omega_0**2
    return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d


class TestCubicRoots:
    def test_roots_satisfy_cubic_and_order(self):
        p = clexact.CLParams(**P_REF)
        roots = clexact.cubic_roots(p)
        assert roots[0].imag == 0.0
        coeffs = [1.0, -p.omega_D, p.omega_0**2 + p.gamma * p.omega_D,
                  -p.omega_D * p.omega_0**2]
        for mu in roots:
            assert abs(np.polyval(coeffs, mu)) < 1e-9

    def test_conjugate_pair_when_underdamped(self):
        roots = clexact.cubic_roots(clexact.CLParams(**P_REF))
        assert roots[1] == pytest.approx(np.conj(roots[2]), abs=1e-10)

    def test_roots_continuity(self):
        base = clexact.cubic_roots(clexact.CLParams(**P_REF))
        bumped = clexact.cubic_roots(
            clexact.CLParams(1.0 + 1e-8, 0.5, 5.0, 2.0)
        )
        for a, b in zip(base, bumped):
            assert abs(a - b) < 1e-6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            clexact.CLParams(omega_0=-1.0, gamma=0.5, omega_D=5.0, beta=2.0)
        with pytest.raises(ValueError):
            clexact.CLParams(omega_0=1.0, gamma=0.5, omega_D=5.0, beta=np.inf)


class TestLogPartition:
    def test_frozen_value(self):
        p = clexact.CLParams(**P_REF)
        assert clexact.log_partition(p) == pytest.approx(-1.0505475651, abs=1e-8)

    def test_free_limit_matches_harmonic_oscillator(self):
        # gamma -> 0: Z -> 1/(2 sinh(beta w_0/2))
        p = clexact.CLParams(omega_0=1.0, gamma=1e-10, omega_D=5.0, beta=2.0)
        expected = -np.log(2 * np.sinh(1.0))
        assert clexact.log_partition(p) == pytest.approx(expected, abs=1e-8)


class TestMoments:
    def test_frozen_values(self):
        m = clexact.moments(clexact.CLParams(**P_REF))
        assert m.xx == pytest.approx(0.6478559339, abs=1e-7)
        assert m.pp == pytest.approx(0.8394413652, abs=1e-7)
        assert m.px == -0.5j

    def test_free_limit(self):
        # gamma -> 0: xx = pp = (1/2) coth(beta w_0 / 2)
        m = clexact.moments(
            clexact.CLParams(omega_0=1.0, gamma=1e-8, omega_D=5.0, beta=2.0)
        )
        expected = 0.5 / np.tanh(1.0)
        assert m.xx == pytest.approx(expected, rel=1e-5)
        assert m.pp == pytest.approx(expected, rel=1e-5)

    def test_moments_increase_with_temperature(self):
        betas = [4.0, 2.0, 1.0, 0.5]
        ms = [clexact.moments(clexact.CLParams(1.0, 0.5, 5.0, b)) for b in betas]
        assert all(a.xx < b.xx for a, b in zip(ms, ms[1:]))
        assert all(a.pp < b.pp for a, b in zip(ms, ms[1:]))

    def test_coupling_squeezes_position_below_momentum(self):
        m = clexact.moments(clexact.CLParams(**P_REF))
        assert m.xx < m.pp

    @pytest.mark.parametrize("omega_0, gamma, omega_D, beta", list(itertools.product(
        (0.3, 1.0, 3.0), (0.01, 0.2, 2.0), (1.0, 5.0, 20.0), (0.2, 2.0, 20.0))))
    def test_closed_form_matches_difference_of_log_partition(self, omega_0, gamma,
                                                             omega_D, beta):
        p = clexact.CLParams(omega_0, gamma, omega_D, beta)
        m = clexact.moments(p)
        xx, pp = _reference_moments(p)
        assert m.xx == pytest.approx(xx, rel=1e-8)
        assert m.pp == pytest.approx(pp, rel=1e-8)

    @pytest.mark.parametrize("bracket", [(1.5, 2.5), (4.5, 5.5)])
    @pytest.mark.parametrize("offset", [0.0, 1e-15, -1e-15, -1e-14, 1e-12, -1e-12,
                                        1e-10, -1e-8, 1e-6])
    def test_accurate_next_to_critical_damping(self, bracket, offset):
        # (w_0, w_D) = (1, 20) damps critically at two gammas; there two roots
        # meet, np.roots splits them by ~1e-8 (a real or a conjugate pair) and
        # a plain sum over the roots with P' as a product loses up to 2.5e-8
        gamma_c = brentq(_discriminant, *bracket, args=(1.0, 20.0), xtol=1e-15)
        p = clexact.CLParams(1.0, gamma_c * (1 + offset), 20.0, 2.0)
        m = clexact.moments(p)
        xx, pp = _reference_moments(p)
        assert m.xx == pytest.approx(xx, rel=1e-9)
        assert m.pp == pytest.approx(pp, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.2, 2.0, 20.0])
    @pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-9, 1e-6])
    def test_accurate_next_to_the_triple_root(self, beta, offset):
        # all three roots meet at w_D = 3 sqrt(3) w_0, gamma = 8 w_0 / (3 sqrt(3)),
        # where np.roots spreads them by ~1e-5 and differences lose 1e-4
        p = clexact.CLParams(1.0, 8 / (3 * np.sqrt(3)) * (1 + offset), 3 * np.sqrt(3), beta)
        m = clexact.moments(p)
        xx, pp = _reference_moments(p)
        assert m.xx == pytest.approx(xx, rel=1e-8)
        assert m.pp == pytest.approx(pp, rel=1e-8)

    def test_heisenberg_guard(self):
        with pytest.raises(ValueError):
            clexact.OscillatorMoments(xx=0.3, pp=0.3)


class TestCrossRoute:
    def test_reference_point_agreement(self):
        p = clexact.CLParams(**P_REF)
        m = clexact.moments(p)
        J = bath.DrudeLorentz(gamma=p.gamma, omega_d=p.omega_D)
        x2 = clexact.position_correlation(J, p.beta, p.omega_0)
        # unit-free <x~^2> = omega_0 <x^2> at m = 1
        assert p.omega_0 * x2 == pytest.approx(m.xx, rel=1e-6)

    def test_free_spectral_density_branch(self):
        J = bath.DrudeLorentz(gamma=0.0, omega_d=5.0)
        x2 = clexact.position_correlation(J, 2.0, 1.0)
        assert x2 == pytest.approx(0.5 / np.tanh(1.0), rel=1e-10)

    def test_correlator_decays_with_time_lag(self):
        J = bath.DrudeLorentz(gamma=0.5, omega_d=5.0)
        c0 = clexact.position_correlation(J, 2.0, 1.0, 0.0)
        c5 = clexact.position_correlation(J, 2.0, 1.0, 5.0)
        assert abs(c5) < c0

    def test_oscillating_tail_matches_period_panels(self, monkeypatch):
        # a plain quad of the tail [w_max, inf) at dt = 20 stops at its
        # subdivision limit with the wrong sign (-3.4e-10 for +7.4e-11)
        calls = []

        def spy(f, a, b, **opts):
            out = quad(f, a, b, **opts)
            calls.append((f, a, b, opts, out[0]))
            return out

        monkeypatch.setattr(bath, "quad", spy)
        dt = 20.0
        J = bath.DrudeLorentz(gamma=0.5, omega_d=5.0)
        clexact.position_correlation(J, 2.0, 1.0, dt)
        own = [c for c in calls if "position_correlation" in c[0].__qualname__]
        f, w_max, b, opts, tail = own[-1]  # the tail is the last quadrature
        assert (b, opts.get("weight"), opts.get("wvar")) == (np.inf, "cos", dt)
        # the envelope decays as w^-5: beyond 800 periods the rest is < 1e-13
        edges = w_max + (2 * np.pi / dt) * np.arange(801)
        panels = sum(quad(lambda w: np.cos(w * dt) * f(w), lo, hi,
                          epsabs=1e-16, epsrel=1e-12)[0]
                     for lo, hi in zip(edges[:-1], edges[1:]))
        assert tail == pytest.approx(panels, abs=1e-12)

    @pytest.mark.parametrize("dt, stalled", [(0.0, "main"), (0.0, "tail"), (5.0, "tail")])
    def test_unconverged_quadrature_raises(self, monkeypatch, dt, stalled):
        def stall(f, a, b, **opts):
            own = "position_correlation" in f.__qualname__
            if own and (b == np.inf) == (stalled == "tail"):
                return 1.0, 1.0  # error estimate far above any requested tolerance
            return quad(f, a, b, **opts)

        monkeypatch.setattr(bath, "quad", stall)
        J = bath.DrudeLorentz(gamma=0.5, omega_d=5.0)
        with pytest.raises(bath.BathIntegrationError):
            clexact.position_correlation(J, 2.0, 1.0, dt)


    @pytest.mark.parametrize("gamma, omega_d, beta, omega_0", [
        (0.5, 5.0, 2.0, 1.0), (0.1, 5.0, 1.0, 1.0), (2.0, 3.0, 0.5, 2.0), (0.5, 20.0, 5.0, 0.3)])
    def test_tail_follows_the_exact_self_energy(self, monkeypatch, gamma, omega_d, beta,
                                                omega_0):
        # beyond w_max the envelope takes Re Sigma from its value there to its
        # limit -int J/w as 1/w^2, and never extrapolates the spline: against
        # Drude's exact Re Sigma = -gamma w_D w^2/(w^2 + w_D^2) the tail [w_max,
        # inf) was within 1.6e-15 (the limit alone: 1.2e-12; the extrapolated
        # last cubic: 3.8e-13, and a spurious resonance near w = 3.2e6)
        calls = []

        def spy(f, a, b, **opts):
            out = quad(f, a, b, **opts)
            calls.append((f, a, b, out[0]))
            return out

        monkeypatch.setattr(bath, "quad", spy)
        J = bath.DrudeLorentz(gamma=gamma, omega_d=omega_d)
        clexact.position_correlation(J, beta, omega_0)
        f, w_max, b, tail = calls[-1]  # the tail is the last quadrature
        assert b == np.inf and "position_correlation" in f.__qualname__

        def exact(w):
            im_sigma = np.pi * J.j(w) / 2
            d = omega_0**2 - w * w + gamma * omega_d * w * w / (w * w + omega_d**2)
            return bath.coth(beta * w / 2) * im_sigma / (d * d + im_sigma * im_sigma)

        ref = quad(exact, w_max, np.inf, limit=200, epsabs=1e-16, epsrel=1e-13)[0]
        assert tail == pytest.approx(ref, abs=1e-14)
        for w in np.geomspace(w_max * (1 + 1e-12), 1e9, 600).tolist():
            assert f(w) == pytest.approx(exact(w), rel=1e-6)

class TestGaussianState:
    def test_vacuum(self):
        m = clexact.OscillatorMoments(xx=0.5, pp=0.5)
        cov, rho = clexact.gaussian_covariance_state(m, n_max=12)
        assert np.allclose(cov, 0.5 * np.eye(2))
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_thermal_populations(self):
        beta_w = 1.3
        val = 0.5 / np.tanh(beta_w / 2)
        _, rho = clexact.gaussian_covariance_state(
            clexact.OscillatorMoments(xx=val, pp=val), n_max=80
        )
        pops = np.diag(rho).real
        ratios = pops[1:6] / pops[0:5]
        assert np.allclose(ratios, np.exp(-beta_w), atol=1e-10)

    def test_purity_formula(self):
        m = clexact.moments(clexact.CLParams(**P_REF))
        _, rho = clexact.gaussian_covariance_state(m)
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(1 / (2 * np.sqrt(m.xx * m.pp)), abs=1e-6)

    def test_second_moments_reproduced(self):
        m = clexact.moments(clexact.CLParams(**P_REF))
        _, rho = clexact.gaussian_covariance_state(m)
        n = rho.shape[0]
        a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), k=1).astype(complex)
        x = (a + dag(a)) / np.sqrt(2)
        p_op = 1j * (dag(a) - a) / np.sqrt(2)
        assert np.trace(rho @ x @ x).real == pytest.approx(m.xx, rel=1e-6)
        assert np.trace(rho @ p_op @ p_op).real == pytest.approx(m.pp, rel=1e-6)
