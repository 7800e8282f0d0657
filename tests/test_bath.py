import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import expi

from mfgkit import bath, clexact


DRUDE = bath.DrudeLorentz(gamma=0.1, omega_d=5.0)
OHMIC = bath.OhmicExp(gamma=0.2, omega_c=3.0)
SUPER = bath.SuperOhmicCubic(gamma=0.7, omega_c=2.0)
DISCRETE = bath.DiscreteModes(modes=((4.5, 0.1), (7.0, 0.05), (10.0, 0.03)))
DRUDE_REF = bath.DrudeLorentz(gamma=0.1, omega_d=5.0)
SUPER_REF = bath.SuperOhmicCubic(gamma=0.2, omega_c=3.0)
_TAB_GRID = np.linspace(0.0, 60.0, 200)
TAB_OHMIC = bath.Tabulated(omegas=tuple(_TAB_GRID),
                           values=tuple(0.1 * _TAB_GRID * np.exp(-_TAB_GRID / 4)))


def _corr_fn_kms_shifted(J, beta, t):
    """G(-t - i beta): analytic continuation across the KMS strip.

    The KMS condition asserts equality with corr_fn(J, beta, t).
    """
    return bath.corr_fn_complex_time(J, beta, complex(-t, -beta))


# -- reference: the symmetric-window principal value that principal_value
# replaced, and the asymptotic Gamma_m built on it (two log-singular pieces)

def _ref_quad(f, a, b, **opts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, **{**bath._QUAD_OPTS, **opts})[0]


def _ref_semi_infinite(f, scale, points=(), **opts):
    splits = sorted({s for s in (*points, scale, 4 * scale, 16 * scale) if s > 0})
    edges = [0.0, *splits, np.inf]
    return sum(_ref_quad(f, lo, hi, **opts) for lo, hi in zip(edges, edges[1:]))


def _ref_window_pv(F, a, scale):
    """PV int_0^inf F(w)/(w - a) dw, a > 0, by a symmetric window around a."""
    delta = min(a, scale) / 10.0
    fa = F(a)
    dfa = (F(a + 1e-6 * delta) - F(a - 1e-6 * delta)) / (2e-6 * delta)

    def regular(w):
        if abs(w - a) < 1e-8 * delta:
            return dfa
        return (F(w) - fa) / (w - a)

    window = _ref_quad(regular, a - delta, a + delta)
    left = _ref_quad(lambda w: F(w) / (w - a), 0.0, a - delta) if a - delta > 0 else 0.0
    right = (_ref_quad(lambda w: F(w) / (w - a), a + delta, 4 * scale + 2 * a)
             + _ref_quad(lambda w: F(w) / (w - a), 4 * scale + 2 * a, np.inf))
    return left + window + right


def _ref_gamma_asymptotic(J, beta, omega_m):
    scale = J.scale()
    a = abs(omega_m)
    if omega_m == 0.0:
        re = (np.pi / beta) * float(J.j_over_omega(0.0))
        return complex(re, -_ref_semi_infinite(lambda w: float(J.j_over_omega(w)), scale))
    re = (np.pi / 2.0) * float(J.j(a)) * (bath.coth(beta * a / 2.0) - np.sign(omega_m))

    def j_times_n(w):
        return float(J.j_over_omega(w)) * w * 0.5 * (bath.coth(beta * w / 2.0) - 1.0)

    def j_times_n1(w):
        return float(J.j_over_omega(w)) * w * 0.5 * (bath.coth(beta * w / 2.0) + 1.0)

    if omega_m > 0:
        im = _ref_window_pv(j_times_n, a, scale)
        im -= _ref_semi_infinite(lambda w: j_times_n1(w) / (w + a), scale, points=(a,))
    else:
        im = _ref_semi_infinite(lambda w: j_times_n(w) / (w + a), scale, points=(a,))
        im -= _ref_window_pv(j_times_n1, a, scale)
    return complex(re, im)


def _ref_principal_value(h, a, scale):
    """Reference: the per-pole principal value the stacked one replaced,
    PV int_0^inf h(w)/(w^2 - a^2) dw for one pole a >= 0 and a scalar h, with
    a central difference of h inside a 1e-8 guard around the pole. It runs at
    epsabs 1e-14, epsrel 1e-13: at the library's 1e-10/1e-8 its own error
    reaches 1.2e-12 (super-Ohmic, omega = 0.0117, beta = 10^0.5)."""
    ha = h(a)
    guard = 1e-8 * min(a, scale)
    if guard > 0:
        dha = (h(a + guard) - h(a - guard)) / (2.0 * guard)

    def integrand(w):
        if abs(w - a) < guard:
            return dha / (w + a)
        return (h(w) - ha) / (w - a) / (w + a)

    return _ref_semi_infinite(integrand, scale, points=(a, 2 * a), epsabs=1e-14, epsrel=1e-13)


def _ref_d_beta(J, beta, w):
    if w == 0.0:
        return 0.0
    return _ref_principal_value(
        lambda x: float(J.j_over_omega(x)) * w * (float(bath._w_coth(x, beta)) + w),
        abs(w), J.scale())


def _ref_lamb_shift(J, beta, w):
    """Im Gamma_w(infinity), one pole at a time."""
    return _ref_principal_value(
        lambda x: float(J.j_over_omega(x)) * (w * float(bath._w_coth(x, beta)) - x * x),
        abs(w), J.scale())


def _knot_resolved_pv(tab, h, a, order=20):
    """Reference for a Tabulated J: PV int_0^inf h(w)/(w^2 - a^2) dw with h = 0
    beyond the grid. One Gauss-Legendre rule per spline cell (cells split at
    the pole, so it is an edge) resolves every knot; the tail beyond the last
    knot W is -h(a) int_W^inf dw/(w^2 - a^2) in closed form."""
    x, wt = np.polynomial.legendre.leggauss(order)
    edges = np.unique([0.0, *tab.omegas, a])
    lo, hi = edges[:-1, None], edges[1:, None]
    w = (lo + hi) / 2 + (hi - lo) / 2 * x
    ha = h(np.array([a]))[0]
    body = np.sum((hi - lo) / 2 * wt * ((h(w) - ha) / (w - a) / (w + a)))
    W = tab.omegas[-1]
    return body - ha * (np.log((W + a) / (W - a)) / (2 * a) if a > 0 else 1.0 / W)


def _tabulated_j_over_omega_array(tab, omega):
    """Reference: the masked array form Tabulated.j_over_omega had before its
    scalar body, J the clipped spline on the grid and 0 above it, and the first
    grid slope below the grid or below 1e-12 (the spline's slope at 0 on a grid
    starting at 0). Without that threshold J/w differs from it by up to
    2.3e-14 relative at w = 1e-13."""
    w0, w1 = tab.omegas[0], tab.omegas[-1]
    slope0 = tab.values[0] / w0 if w0 > 0 else max(tab._cubic(0.0, 1), 0.0)
    tiny = omega < max(w0, 1e-12)
    safe = np.where(tiny, 1.0, omega)
    j = np.where(safe > w1, 0.0, np.maximum(tab._cubic(safe), 0.0))
    return np.where(tiny, slope0, j / safe)


# -- reference: the coth/bose forms of the discrete-mode sums that the atoms
# of the thermal spectrum replaced

def _ref_discrete_d_beta(J, beta, omega):
    if omega == 0.0:
        return 0.0
    w, g2 = J.arrays()
    term = (omega * bath.coth(beta * w / 2) + w) / (w**2 - omega**2) - 1.0 / w
    return float(np.sum(g2 * term))


def _ref_discrete_d_beta_deriv(J, beta, omega):
    w, g2 = J.arrays()
    c, gap = bath.coth(beta * w / 2), w**2 - omega**2
    return float(np.sum(g2 * (c * gap + 2 * omega * (omega * c + w)) / gap**2))


class TestSpectralDensities:
    def test_drude_peak_and_exponent(self):
        # J(omega_D) = gamma omega_D / pi at the Drude peak frequency
        assert DRUDE.j(5.0) == pytest.approx(0.1 * 5.0 / np.pi)

    def test_j_over_omega_matches_j(self):
        # the closed-form J's the densities had before J became w * J/w
        w = np.linspace(0.1, 20.0, 50)
        closed_form = {
            DRUDE: (2 * 0.1 * 5.0 / np.pi) * w * 5.0 / (w**2 + 5.0**2),
            OHMIC: 0.2 * w * np.exp(-w / 3.0),
            SUPER: 0.5 * 0.7 * (w / 2.0)**3 * np.exp(-w / 2.0),
        }
        for J, j in closed_form.items():
            assert np.allclose(j / w, J.j_over_omega(w), atol=1e-13)
            assert np.allclose(j, J.j(w), atol=1e-13)

    def test_tabulated_roundtrip(self):
        grid = np.linspace(0.01, 40.0, 800)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(SUPER.j(grid)))
        probe = np.linspace(0.5, 10.0, 23)
        assert np.allclose(tab.j(probe), SUPER.j(probe), rtol=1e-8)

    def test_tabulated_spline_built_once(self):
        grid = tuple(np.linspace(0.01, 40.0, 50))
        tab = bath.Tabulated(omegas=grid, values=tuple(SUPER.j(np.array(grid))))
        assert tab._spline() is tab._spline()
        # the spline is not part of the value: equal grids are equal keys
        twin = bath.Tabulated(omegas=grid, values=tab.values)
        assert twin == tab and hash(twin) == hash(tab)

    @settings(max_examples=60, deadline=None)
    @given(
        w0=st.sampled_from([0.0, 0.05, 0.7]),
        n=st.integers(min_value=4, max_value=60),
        frac=st.floats(min_value=-0.2, max_value=1.2),
        on_grid=st.booleans(),
    )
    def test_tabulated_j_over_omega_matches_masked_array_form(self, w0, n, frac, on_grid):
        grid = np.linspace(w0, 40.0, n)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(0.1 * grid * np.exp(-grid / 4)))
        idx = int(abs(frac) * (n - 1)) % n
        w = float(grid[idx]) if on_grid else frac * 40.0
        scalar = tab.j_over_omega(w)
        assert type(scalar) is float
        assert scalar == pytest.approx(_tabulated_j_over_omega_array(tab, np.array([w]))[0],
                                       rel=1e-13, abs=0.0)
        assert tab.j_over_omega(np.float64(w)) == scalar

    @pytest.mark.parametrize("w0", [0.0, 0.05, 0.7])
    def test_tabulated_j_over_omega_array_matches_masked_array_form(self, w0):
        grid = np.linspace(w0, 40.0, 37)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(0.1 * grid * np.exp(-grid / 4)))
        # 0, below the grid, on and between knots, and above the grid
        w = np.concatenate([[0.0, 1e-13, w0 / 3, 2 * w0 / 3], grid[::5],
                            np.linspace(w0, 40.0, 23), [40.0 + 1e-9, 45.0, 1e3]])
        got = tab.j_over_omega(w)
        assert got.shape == w.shape
        assert np.allclose(got, _tabulated_j_over_omega_array(tab, w), rtol=1e-13, atol=0.0)
        assert np.array_equal(got, [tab.j_over_omega(float(x)) for x in w])

    def test_tabulated_j_over_omega_continuous_at_zero(self):
        # on a grid starting at 0, J/w(0) is the spline's slope, the limit
        # of spline(w)/w, not the first cell's secant. J(0) = 0 makes the
        # first cell's constant term 0, so spline(w)/w keeps its digits down
        # to the smallest normal float; subnormal w reads as 0 (spline(w)
        # underflows there: 0 at w = 2e-322)
        at_zero = TAB_OHMIC.j_over_omega(0.0)
        for w in (5e-324, 2e-322, 3e-308, 1e-300, 1e-200, 1e-12):
            assert abs(TAB_OHMIC.j_over_omega(w) - at_zero) <= 1e-13
            assert abs(TAB_OHMIC.j_over_omega(np.array([w]))[0] - at_zero) <= 1e-13
        # dephasing rate Re Gamma(inf) at omega = 0 is pi J/w(0)/beta = pi gamma/beta
        for beta in (0.5, 1.0, 2.0):
            rate = bath.gamma_m(TAB_OHMIC, beta, 0.0, bath.ASYMPTOTIC).real
            assert rate == pytest.approx(np.pi * 0.1 / beta, rel=1e-3)

    def test_tabulated_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            bath.Tabulated(omegas=(1.0, 0.5, 2.0, 3.0), values=(0.1,) * 4)
        with pytest.raises(ValueError):
            bath.Tabulated(omegas=(0.5, 1.0, 2.0, 3.0), values=(0.1, -0.5, 0.1, 0.1))
        # J/w diverges at 0 unless J(0) = 0; rounding-level J(0) is stored as 0
        with pytest.raises(ValueError, match="J\\(0\\)"):
            bath.Tabulated(omegas=(0.0, 1.0, 2.0, 3.0), values=(0.01, 0.2, 0.1, 0.0))
        tab = bath.Tabulated(omegas=(0.0, 1.0, 2.0, 3.0), values=(1e-14, 0.2, 0.1, 0.0))
        assert tab.values[0] == 0.0
        # a grid starting above 0 keeps its J(w0) > 0
        assert bath.Tabulated(omegas=(0.5, 1.0, 2.0, 3.0), values=(0.1, 0.2, 0.1, 0.0)
                              ).values[0] == 0.1


class TestSpecialFunctions:
    def test_coth_small_argument_series(self):
        x = 1e-8
        assert bath.coth(x) == pytest.approx(1 / x + x / 3, rel=1e-10)

    def test_bose_negative_argument_identity(self):
        # n(-x) = -(n(x) + 1)
        for x in (0.3, 1.7, 6.0):
            assert bath.bose(-x, 1.0) == pytest.approx(
                -(bath.bose(x, 1.0) + 1.0), rel=1e-12
            )


class TestPrincipalValue:
    def test_exponential_oracle(self):
        # PV int_0^inf e^(-w)(w + a)/(w^2 - a^2) dw = -e^(-a) Ei(a)
        for a in (0.5, 1.0, 2.0):
            got = bath.principal_value(lambda w: np.exp(-w) * (w + a), a, 1.0)
            assert got == pytest.approx(-np.exp(-a) * expi(a), abs=1e-8)
        with pytest.raises(ValueError):
            bath.principal_value(np.exp, -1.0, 1.0)
        # the same three poles as one stack, h elementwise in the stack
        a = np.array([0.5, 1.0, 2.0])
        got = bath.principal_value(lambda w: np.exp(-w) * (w + a), a, 1.0)
        assert got.shape == (3,)
        assert np.allclose(got, -np.exp(-a) * expi(a), rtol=0, atol=1e-8)
        with pytest.raises(ValueError):
            bath.principal_value(np.exp, np.array([1.0, -1.0]), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        J=st.sampled_from([DRUDE, OHMIC, SUPER]),
        log_beta=st.floats(min_value=-1.0, max_value=1.0),
        ws=st.lists(st.one_of(st.floats(min_value=0.01, max_value=8.0),
                              st.floats(min_value=-8.0, max_value=-0.01)),
                    min_size=1, max_size=5),
    )
    def test_stacked_matches_per_pole_reference(self, J, log_beta, ws):
        # one stack with 0 and +-w, against the per-pole principal value
        beta = 10.0**log_beta
        stack = (*ws, 0.0, -ws[0])
        d = bath.d_beta.__wrapped__(J, beta, stack)
        g = bath.gamma_m.__wrapped__(J, beta, stack, bath.ASYMPTOTIC)
        assert d.shape == g.shape == (len(stack),)
        for w, d_w, g_w in zip(stack, d, g):
            ref = _ref_d_beta(J, beta, w)
            assert abs(d_w - ref) <= 1e-12 * max(1.0, abs(ref))
            ref = _ref_lamb_shift(J, beta, w)
            assert abs(g_w.imag - ref) <= 1e-12 * max(1.0, abs(ref))
            assert g_w.real == np.pi * bath._thermal_spectrum(J, beta, -w)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_stacked_tabulated_matches_knot_resolved_reference(self, beta):
        # 800-point super-Ohmic grid; measured error of the stack <= 1.6e-9,
        # under the 1e-8 relative tolerance it asks quad_vec for
        grid = np.linspace(0.01, 40.0, 800)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(SUPER.j(grid)))
        stack = (0.4, -1.7, 0.0, 3.3, -0.01, 25.0)
        d = bath.d_beta.__wrapped__(tab, beta, stack)
        im = bath.gamma_m.__wrapped__(tab, beta, stack, bath.ASYMPTOTIC).imag
        for w, d_w, im_w in zip(stack, d, im):
            def c(x):
                return _tabulated_j_over_omega_array(tab, x)

            ref = 0.0 if w == 0.0 else _knot_resolved_pv(
                tab, lambda x: c(x) * w * (bath._w_coth(x, beta) + w), abs(w))
            assert abs(d_w - ref) <= 5e-9 * max(1.0, abs(ref))
            ref = _knot_resolved_pv(
                tab, lambda x: c(x) * (w * bath._w_coth(x, beta) - x * x), abs(w))
            assert abs(im_w - ref) <= 5e-9 * max(1.0, abs(ref))

    def test_empty_stack(self):
        assert bath.d_beta(DRUDE, 1.0, ()).shape == (0,)
        assert bath.gamma_m(DRUDE, 1.0, (), bath.ASYMPTOTIC).shape == (0,)
        assert bath.gamma_m(DRUDE, 1.0, (), 2.0).shape == (0,)

    def test_stacked_results_are_read_only(self):
        # memoized arrays: a caller writing into one would change later hits
        d = bath.d_beta(DRUDE, 1.0, (0.5, -0.5))
        with pytest.raises(ValueError):
            d[0] = 0.0
        assert bath.d_beta(DRUDE, 1.0, (0.5, -0.5)) is d

    @settings(max_examples=30, deadline=None)
    @given(
        J=st.sampled_from([DRUDE, OHMIC, SUPER]),
        beta=st.floats(min_value=0.1, max_value=10.0),
        a=st.floats(min_value=0.05, max_value=4.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_asymptotic_gamma_matches_window_scheme(self, J, beta, a, sign):
        got = bath.gamma_m.__wrapped__(J, beta, sign * a, bath.ASYMPTOTIC)
        ref = _ref_gamma_asymptotic(J, beta, sign * a)
        assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("J, beta", [(DRUDE, 1.0), (OHMIC, 1.5), (SUPER, 0.3)])
    @pytest.mark.parametrize("w", [0.05, 0.8, 1.25, 3.7])
    def test_d_beta_is_lamb_shift_integral(self, J, beta, w):
        # D_beta(w) + Im Gamma_{-w}(inf) + int J/w = 0: one integral, two names
        total = (bath.d_beta(J, beta, w) + bath.gamma_m(J, beta, -w, bath.ASYMPTOTIC).imag
                 + bath.reorganization_energy(J, 1.0))
        assert abs(total) < 1e-10

    def test_d_beta_is_lamb_shift_integral_tabulated(self):
        grid = np.linspace(0.01, 40.0, 800)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(SUPER.j(grid)))
        ell = bath.reorganization_energy(tab, 1.0)
        for w in (0.4, 1.7):
            d = bath.d_beta(tab, 1.0, w)
            im = bath.gamma_m(tab, 1.0, -w, bath.ASYMPTOTIC).imag
            assert abs(d + im + ell) < 1e-8 * max(abs(d), abs(im), ell)

    def test_self_energy_matches_window_scheme(self):
        # the oscillator_drude preset's grid in position_correlation, one stack
        J = bath.DrudeLorentz(gamma=0.5, omega_d=5.0)
        grid = np.linspace(0.0, 60.0, 481)
        sigma = clexact._self_energy_real(J, grid)
        assert sigma[0] == 0.0
        for w, got in zip(grid[1:], sigma[1:]):
            ref = w**2 * _ref_window_pv(
                lambda xi: float(J.j_over_omega(xi)) / (xi + w), w, J.scale())
            assert abs(got - ref) < 1e-10

    def test_self_energy_drude_closed_form(self):
        # Re Sigma = -gamma w_D w^2/(w^2 + w_D^2) on the oscillator_drude grid
        J = bath.DrudeLorentz(gamma=0.5, omega_d=5.0)
        grid = np.linspace(0.0, 60.0, 481)
        exact = -J.gamma * J.omega_d * grid**2 / (grid**2 + J.omega_d**2)
        assert np.abs(clexact._self_energy_real(J, grid) - exact).max() <= 1e-12

    def test_self_energy_ohmic_class_at_zero(self):
        # the integral alone diverges at w = 0 for Ohmic-class J; Re Sigma(0) = 0
        sigma = clexact._self_energy_real(TAB_OHMIC, np.array([0.0, 0.5]))
        assert sigma[0] == 0.0 and np.isfinite(sigma[1])


class TestQuadConvergence:
    def test_subdivision_limit_raises(self, monkeypatch):
        monkeypatch.setitem(bath._QUAD_OPTS, "limit", 2)
        with pytest.raises(bath.BathIntegrationError, match="did not converge"):
            bath.d_beta.__wrapped__(DRUDE, 1.0, 1.25)
        with pytest.raises(bath.BathIntegrationError, match="did not converge"):
            bath.d_beta.__wrapped__(DRUDE, 1.0, (1.25, -0.5, 0.0))

    def test_non_finite_stack_raises(self):
        with pytest.raises(bath.BathIntegrationError, match="returned"):
            bath.principal_value(lambda w: np.where(w > 2.0, np.nan, 1.0),
                                 np.array([0.5, 1.0]), 1.0)


class TestReorganizationEnergy:
    def test_zero_coupling(self):
        assert bath.reorganization_energy(DRUDE, 0.0) == 0.0

    def test_drude_closed_form(self):
        # ell = lam^2 gamma omega_D for the Drude-Lorentz form
        assert bath.reorganization_energy(DRUDE, 0.5) == pytest.approx(
            0.25 * 0.1 * 5.0, rel=1e-10
        )

    def test_superohmic_closed_form(self):
        # int J/w dw = gamma Gamma(3)/2 = gamma for the cubic form
        assert bath.reorganization_energy(SUPER, 0.5) == pytest.approx(
            0.25 * 0.7, rel=1e-10
        )

    def test_tabulated_matches_closed_form(self):
        grid = np.linspace(1e-3, 40.0, 4000)
        tab = bath.Tabulated(omegas=tuple(grid), values=tuple(SUPER.j(grid)))
        assert bath.reorganization_energy(tab, 0.5) == pytest.approx(
            0.175, rel=1e-6
        )


class TestCorrelationFunction:
    def test_frozen_value(self):
        got = bath.corr_fn(OHMIC, 1.5, 0.4)
        assert got == pytest.approx(0.06874886945471 - 0.72561139478635j, abs=1e-9)

    def test_t_zero_is_real_positive(self):
        g0 = bath.corr_fn(OHMIC, 1.5, 0.0)
        assert g0.imag == 0.0
        assert g0.real == pytest.approx(2.0196115421733, abs=1e-8)

    def test_conjugate_symmetry(self):
        for t in (0.05, 0.4, 1.3, 4.0):
            assert bath.corr_fn(OHMIC, 1.5, -t) == pytest.approx(
                np.conj(bath.corr_fn(OHMIC, 1.5, t)), abs=1e-12
            )

    def test_kms_identity(self):
        # G(t) = G(-t - i beta)
        for t in (0.1, 0.4, 1.0):
            lhs = bath.corr_fn(OHMIC, 1.5, t)
            rhs = _corr_fn_kms_shifted(OHMIC, 1.5, t)
            assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_oscillatory_error_estimate_is_checked(self, monkeypatch):
        def inflated(f, a, b, **opts):
            return quad(f, a, b, **opts)[0], 1.0

        monkeypatch.setattr(bath, "quad", inflated)
        with pytest.raises(bath.BathIntegrationError, match="did not converge"):
            bath.corr_fn(OHMIC, 1.5, 0.4)

    def test_discrete_modes_exact_sum(self):
        J = bath.DiscreteModes(modes=((1.0, 0.3), (2.5, 0.1)))
        t, beta = 0.7, 1.2
        expected = sum(
            g2 * ((bath.bose(w, beta) + 1) * np.exp(-1j * w * t)
                  + bath.bose(w, beta) * np.exp(1j * w * t))
            for w, g2 in ((1.0, 0.3), (2.5, 0.1))
        )
        assert bath.corr_fn(J, beta, t) == pytest.approx(expected, abs=1e-12)


class TestGammaM:
    def test_frozen_asymptotic_values(self):
        g = bath.gamma_m(DRUDE, 1.0, 1.25, bath.ASYMPTOTIC)
        assert g == pytest.approx(0.094482616116 - 0.456750488000j, abs=1e-8)
        g = bath.gamma_m(DRUDE, 1.0, -1.25, bath.ASYMPTOTIC)
        assert g == pytest.approx(0.329776733763 - 0.484425982587j, abs=1e-8)

    def test_zero_frequency_closed_form(self):
        # Re = (pi/beta) J(w)/w at w=0; Im = -int J/w dw = -gamma omega_D
        g = bath.gamma_m(DRUDE, 1.0, 0.0, bath.ASYMPTOTIC)
        assert g.real == pytest.approx(np.pi * float(DRUDE.j_over_omega(0.0)), rel=1e-9)
        assert g.imag == pytest.approx(-0.5, rel=1e-8)

    def test_real_part_closed_form(self):
        # 2 Re Gamma(w) = pi J(|w|) (coth(beta |w|/2) - sign(w))
        for w in (0.8, -0.8, 2.0):
            g = bath.gamma_m(DRUDE, 1.0, w, bath.ASYMPTOTIC)
            expected = (np.pi / 2) * float(DRUDE.j(abs(w))) * (
                bath.coth(abs(w) / 2) - np.sign(w)
            )
            assert g.real == pytest.approx(expected, rel=1e-10)

    def test_detailed_balance(self):
        # gamma(-w) = e^(beta w) gamma(w): emission beats absorption
        for w, beta in ((0.5, 0.8), (1.25, 1.0), (2.0, 2.0)):
            down = 2 * bath.gamma_m(DRUDE, beta, -w, bath.ASYMPTOTIC).real
            up = 2 * bath.gamma_m(DRUDE, beta, w, bath.ASYMPTOTIC).real
            assert down / up == pytest.approx(np.exp(beta * w), rel=1e-10)

    @pytest.mark.parametrize("beta_w", [31.0, 40.0])
    def test_detailed_balance_far_from_resonance(self, beta_w):
        # the absorption rate J n is tiny but must not cancel to 0
        for J in (DRUDE, OHMIC):
            down = bath.gamma_m(J, 1.0, -beta_w, bath.ASYMPTOTIC).real
            up = bath.gamma_m(J, 1.0, beta_w, bath.ASYMPTOTIC).real
            assert up > 0
            assert down / up == pytest.approx(np.exp(beta_w), rel=1e-12)

    @pytest.mark.parametrize("J", [DRUDE, OHMIC])
    @pytest.mark.parametrize("w", [1e-100, 1e-200, 1e-300, 2.2e-308])
    def test_tiny_frequency_lamb_shift_is_continuous(self, J, w):
        at_zero = bath.gamma_m(J, 1.0, 0.0, bath.ASYMPTOTIC).imag
        for sign in (1.0, -1.0):
            got = bath.gamma_m(J, 1.0, sign * w, bath.ASYMPTOTIC).imag
            assert abs(got - at_zero) < 1e-12

    def test_finite_time_converges_to_asymptotic(self):
        asym = bath.gamma_m(OHMIC, 1.5, 0.8, bath.ASYMPTOTIC)
        diffs = [abs(bath.gamma_m(OHMIC, 1.5, 0.8, t) - asym) for t in (2.0, 8.0)]
        assert diffs[1] < diffs[0]
        assert diffs[1] < 5e-3

    @settings(max_examples=20, deadline=None)
    @given(
        w=st.one_of(st.just(0.0),
                    st.floats(min_value=0.01, max_value=4.0),
                    st.floats(min_value=-4.0, max_value=-0.01)),
        log_beta=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_rate_positivity(self, w, log_beta):
        g = bath.gamma_m(DRUDE, 10.0**log_beta, w, bath.ASYMPTOTIC)
        assert g.real >= -1e-13


class TestGammaMFiniteTime:
    # recorded from the time-domain route int_0^t e^(-i w r) G(r) dr, with
    # G(r) from corr_fn and an adaptive quadrature over r
    @pytest.mark.parametrize("J, beta, w, t, expected", [
        (DRUDE, 1.0, 1.118, 2.0, 0.1034318210136 - 0.4630948714197j),
        (DRUDE, 1.0, -1.118, 2.0, 0.3163567664303 - 0.4893231325022j),
        (DRUDE, 1.0, 0.0, 2.0, 0.2000279786158 - 0.4999773000351j),
        (OHMIC, 1.5, 0.8, 2.0, 0.1858786154147 - 0.5712943928462j),
        (OHMIC, 1.5, 0.8, 8.0, 0.1659673374045 - 0.5702814061944j),
        (DRUDE, 1.0, 0.7, 0.5, 0.1758754393926 - 0.4573797703772j),
        (DRUDE, 1.0, 0.7, 8.0, 0.1354459993218 - 0.4809473815883j),
    ])
    def test_frozen_values(self, J, beta, w, t, expected):
        assert bath.gamma_m(J, beta, w, t) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        J=st.sampled_from([DRUDE, OHMIC, SUPER]),
        beta=st.floats(min_value=0.3, max_value=5.0),
        w=st.floats(min_value=-3.0, max_value=3.0),
        t=st.floats(min_value=0.2, max_value=20.0),
    )
    def test_derivative_is_correlation_function(self, J, beta, w, t):
        # d Gamma_m / dt = e^(-i w t) G(t), by a fourth-order central difference
        h = 1e-3
        g = [bath.gamma_m(J, beta, w, t + k * h) for k in (-2, -1, 1, 2)]
        slope = (g[0] - 8 * g[1] + 8 * g[2] - g[3]) / (12 * h)
        expected = np.exp(-1j * w * t) * bath.corr_fn(J, beta, t)
        assert abs(slope - expected) < 1e-5 * max(1.0, abs(expected))

    @pytest.mark.parametrize("t", [30.0, 100.0, 300.0])
    def test_large_time_reaches_asymptotic(self, t):
        # the sinc peak of the kernel narrows as 1/t; the limit must stay exact
        asym = bath.gamma_m(DRUDE, 1.0, 0.7, bath.ASYMPTOTIC)
        assert abs(bath.gamma_m(DRUDE, 1.0, 0.7, t) - asym) < 1e-10

    def test_discrete_modes_explicit_sum(self):
        modes = ((1.0, 0.3), (2.5, 0.1), (4.0, 0.05))
        J = bath.DiscreteModes(modes=modes)
        beta, w, t = 1.2, 0.7, 3.3
        expected = 0.0
        for wk, g2 in modes:
            n = bath.bose(wk, beta)
            expected += g2 * (
                (n + 1) * (np.exp(-1j * (wk + w) * t) - 1) / (-1j * (wk + w))
                + n * (np.exp(1j * (wk - w) * t) - 1) / (1j * (wk - w)))
        assert bath.gamma_m(J, beta, w, t) == pytest.approx(expected, abs=1e-13)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(bath, "_FOURIER_OPTS", dict(epsabs=1e-15, epsrel=1e-15, limit=2))
        with pytest.raises(bath.BathIntegrationError):
            bath.gamma_m.__wrapped__(DRUDE, 1.0, 0.7, 40.0)

    def test_memoized(self):
        first = bath.gamma_m(OHMIC, 1.5, 0.55, 3.0)
        hits = bath.gamma_m.cache_info().hits
        assert bath.gamma_m(OHMIC, 1.5, 0.55, 3.0) is first
        assert bath.gamma_m.cache_info().hits == hits + 1


class TestDBeta:
    def test_frozen_values(self):
        assert bath.d_beta(DRUDE, 1.0, 1.25) == pytest.approx(
            -0.0155740174, abs=1e-8
        )
        assert bath.d_beta(OHMIC, 1.5, 0.8) == pytest.approx(
            -0.1234121447, abs=1e-8
        )

    def test_zero_frequency_and_continuity(self):
        assert bath.d_beta(OHMIC, 1.5, 0.0) == 0.0
        for w in (1e-6, -1e-6):
            assert abs(bath.d_beta(OHMIC, 1.5, w)) < 1e-4

    def test_derivative_matches_secant(self):
        h = 1e-4
        secant = (
            bath.d_beta(DRUDE, 1.0, 1.25 + h) - bath.d_beta(DRUDE, 1.0, 1.25 - h)
        ) / (2 * h)
        assert bath.d_beta_deriv(DRUDE, 1.0, 1.25) == pytest.approx(
            secant, rel=1e-4
        )

    # reference: an 8th-order difference of a tight (epsrel 1e-14) quadrature
    # of the Hilbert form of D_beta; the Richardson difference the finite
    # part replaced was off by 1.3e-6 and 4.2e-8 on the tabulated cases
    @pytest.mark.parametrize("J, beta, w, expected, rel", [
        (DRUDE_REF, 1.0, 0.7, -1.5789165950e-02, 1e-10),
        (DRUDE_REF, 1.0, 2.0, -6.6072704522e-02, 1e-10),
        (DRUDE_REF, 1.0, -2.3, 5.1955580251e-02, 1e-10),
        (SUPER_REF, 1.0, 0.7, 5.0354775325e-02, 1e-10),
        (TAB_OHMIC, 0.1, 2.0, -2.3589067336e-01, 2e-8),
        (TAB_OHMIC, 1.0, 0.7, -7.7540472874e-02, 2e-8),
    ])
    def test_derivative_frozen_tight_reference(self, J, beta, w, expected, rel):
        assert bath.d_beta_deriv(J, beta, w) == pytest.approx(expected, rel=rel)

    @pytest.mark.parametrize("J", [DRUDE, OHMIC, SUPER, DISCRETE],
                             ids=["drude", "ohmic", "super", "discrete"])
    @pytest.mark.parametrize("w1, w2", [(0.4, 1.2), (2.5, 3.8), (-2.0, -0.8)])
    def test_derivative_integrates_to_d_beta(self, J, w1, w2):
        # no difference quotient: 12-point Gauss-Legendre of D' over an
        # interval away from omega = 0 (and the discrete modes) against D
        nodes, weights = np.polynomial.legendre.leggauss(12)
        half, mid = (w2 - w1) / 2, (w2 + w1) / 2
        integral = half * sum(wt * bath.d_beta_deriv(J, 1.0, mid + half * x)
                              for x, wt in zip(nodes, weights))
        change = bath.d_beta(J, 1.0, w2) - bath.d_beta(J, 1.0, w1)
        assert abs(integral - change) <= 1e-9 * max(1.0, abs(change))

    def test_derivative_at_zero_frequency(self):
        # J/w smooth in w^2: S is smooth through nu = 0 and D'(0) is finite
        assert np.isfinite(bath.d_beta_deriv(DRUDE, 1.0, 0.0))
        assert np.isfinite(bath.d_beta_deriv(SUPER, 1.0, 0.0))
        # Ohmic-class J: the kink of S at nu = 0 makes D' ~ log|omega|, so
        # the finite-part quadrature raises instead of returning a number
        for J in (bath.OhmicExp(0.1, 4.0), TAB_OHMIC):
            with pytest.raises(bath.BathIntegrationError):
                bath.d_beta_deriv(J, 1.0, 0.0)
            d = [bath.d_beta_deriv(J, 1.0, w) for w in (1e-1, 1e-2, 1e-3)]
            assert d[0] > d[1] > d[2]  # the log|omega| growth, here downwards

    def test_derivative_resolution_floor_for_ohmic_class(self):
        # the finite part must resolve the kink of S at x = |omega|, where
        # S(omega + x) + S(omega - x) - 2 S(omega) cancels to its rounding
        # error; down to 1e-6 it follows D' = c log|omega| + d, and below
        # the quadrature raises instead of returning a number
        ohmic = bath.OhmicExp(0.1, 4.0)
        d4, d5, d6 = (bath.d_beta_deriv(ohmic, 1.0, w) for w in (1e-4, 1e-5, 1e-6))
        assert d6 - d5 == pytest.approx(d5 - d4, rel=1e-3)
        for J, w in ((ohmic, 1e-7), (ohmic, 1e-9), (TAB_OHMIC, 1e-7), (TAB_OHMIC, 1e-12)):
            with pytest.raises(bath.BathIntegrationError):
                bath.d_beta_deriv(J, 1.0, w)

    def test_discrete_derivative_keeps_collision_check(self):
        with pytest.raises(bath.BathIntegrationError, match="collides"):
            bath.d_beta_deriv(DISCRETE, 1.0, -4.5)
        # one check, in DiscreteModes.atoms, for +-omega_k and within 1e-12
        for w in (7.0, -7.0, 7.0 + 5e-13, -7.0 - 5e-13):
            with pytest.raises(bath.BathIntegrationError, match="collides"):
                bath.d_beta.__wrapped__(DISCRETE, 1.0, (0.3, w))
            with pytest.raises(bath.BathIntegrationError, match="collides"):
                bath.d_beta_deriv.__wrapped__(DISCRETE, 1.0, w)

    @settings(max_examples=200, deadline=None)
    @given(
        modes=st.lists(st.tuples(st.floats(min_value=0.5, max_value=10.0),
                                 st.floats(min_value=0.0, max_value=0.2)),
                       min_size=1, max_size=6),
        log_beta=st.floats(min_value=-1.0, max_value=1.0),
        omega=st.one_of(st.just(0.0), st.floats(min_value=-12.0, max_value=12.0)),
    )
    def test_discrete_atoms_match_coth_form(self, modes, log_beta, omega):
        # D_beta = w sum s/(nu (nu - w)) and D_beta' = sum s/(nu - w)^2 over
        # the atoms of S, against the coth form of the mode sums. Measured
        # against a 40-digit sum, the coth form loses digits to w^2 - omega^2
        # next to a mode (9e-14 at 1.4e-2 from omega_k = 10), and the atoms
        # cancel their weights n + 1 and n when n is large (2.2e-14 at
        # beta omega_k = 0.014), so modes stay 10% away from |omega| and
        # beta omega_k >= 0.05; 60000 random draws there stayed within 3.5e-15
        J, beta = bath.DiscreteModes(modes=tuple(modes)), 10.0**log_beta
        assume(all(abs(abs(omega) - w) > 0.1 * w for w, _ in modes))
        ref = _ref_discrete_d_beta(J, beta, omega)
        got = bath.d_beta.__wrapped__(J, beta, omega)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
        ref = _ref_discrete_d_beta_deriv(J, beta, omega)
        got = bath.d_beta_deriv.__wrapped__(J, beta, omega)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
