import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad, quad_vec
from scipy.interpolate import CubicSpline
from scipy.special import digamma, expi

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
# with DRUDE, the densities of the 50-digit D_beta' references at small frequencies
OHMIC_SMALL = bath.OhmicExp(gamma=0.1, omega_c=4.0)
SUPER_SMALL = bath.SuperOhmicCubic(gamma=0.1, omega_c=4.0)


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


def _knot_cells(tab, a):
    """The edges of the spline cells of a Tabulated J up to its last knot W,
    split at a pole a < W, and int_W^inf dw/(w^2 - a^2), the tail of
    PV int_0^inf h(w)/(w^2 - a^2) dw with h = 0 beyond W per unit h(a). It is
    ln((W + a)/(W - a))/(2a), or 1/W at a = 0, and taken as 0 for a > W,
    where h(a) = 0 (the logarithm would be of a negative ratio)."""
    W = tab.knots[-1]
    edges = np.unique([0.0, *tab.knots, *([a] if a < W else [])])
    if a > W:
        return edges, 0.0
    return edges, np.log((W + a) / (W - a)) / (2 * a) if a > 0 else 1.0 / W


def _knot_resolved_pv(tab, h, a, order=20):
    """Reference for a Tabulated J: PV int_0^inf h(w)/(w^2 - a^2) dw with h = 0
    beyond the grid. One Gauss-Legendre rule per spline cell (cells split at
    the pole, so it is an edge) resolves every knot; the tail beyond the last
    knot is in closed form (_knot_cells). Only for fine grids: on a 16-point
    grid its first cell can be wider than the distance 2 pi/beta of the
    thermal poles from the axis."""
    x, wt = np.polynomial.legendre.leggauss(order)
    edges, tail = _knot_cells(tab, a)
    lo, hi = edges[:-1, None], edges[1:, None]
    w = (lo + hi) / 2 + (hi - lo) / 2 * x
    ha = h(np.array([a]))[0]
    body = np.sum((hi - lo) / 2 * wt * ((h(w) - ha) / (w - a) / (w + a)))
    return body - ha * tail


def _per_cell_pv(tab, h, a):
    """Reference for a Tabulated J: the principal value of _knot_resolved_pv
    by one quad per spline cell at epsabs 1e-15, epsrel 1e-14, h taking and
    returning a float. It replaced _adaptive_pv as the reference of the cell
    rule on random tables, where that was off by up to 1.2e-7 (omega = 0 on a
    40-knot grid); this and the cell rule agreed within 1.4e-15 over 190
    random draws."""
    edges, tail = _knot_cells(tab, a)
    ha = h(a)
    body = sum(_ref_quad(lambda w: (h(w) - ha) / (w - a) / (w + a), lo, hi,
                         epsabs=1e-15, epsrel=1e-14)
               for lo, hi in zip(edges[:-1], edges[1:]))
    return body - ha * tail


def _adaptive_pv(h, a, scale):
    """Reference: the adaptive stack that the cell rules replaced,
    principal_value's quad_vec rule (each pole in x = w - a, one call per half)
    for an (M,) stack of poles a >= 0, h(w) taking one point per pole. It runs
    at epsabs 1e-13, epsrel 1e-12:
    against a per-cell quad at 1e-15/1e-14, its own error reached 1.8e-8 at
    the library's 1e-10/1e-8 (a 46-point grid whose spline crosses 0, pole
    5.65, beta = 3) and 5.5e-9 at 1e-12/1e-10 (a 47-point grid, pole 91.3
    below W = 120, beta = 1); here both are below 3e-13.

    The upper half is split at a 4^k up to scale for each pole a in (1e-15
    scale, scale): unsplit, its first panel missed the structure of a tiny
    pole at x ~ a and read Im Gamma(infinity) 5.8e-12 off at a = 1e-10
    (OhmicExp(0.2, 3), beta = 31.6), where the graded rule matches a 40-digit
    quadrature within 3e-17. Below 1e-15 scale that structure weighs about
    the tolerance, and splits down at a read rounding of h(a + x) - h(a)."""
    ha = h(a)
    lower_span = np.where(a > 0, 2.0 * a, 1.0)

    def lower(s):
        x = a * s
        return (h(a + x) - ha) / s / (lower_span + x)

    def upper(x):
        if x == 0.0:  # a node of a panel subdivided down to 0, a width that weighs nothing
            return np.zeros(a.shape)
        return (h(a + x) - ha) / x / (2.0 * a + x)

    opts = dict(norm="max", quadrature="gk21", epsabs=1e-13, epsrel=1e-12, limit=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        ladder = [s * 4.0**k for s in a[(a > 1e-15 * scale) & (a < scale)]
                  for k in range(int(np.log(scale / s) / np.log(4.0)) + 1)]
        pv = quad_vec(upper, 0.0, np.inf, points=sorted({scale, 4 * scale, 16 * scale, *ladder}),
                      **opts)[0]
        if a.any():
            pv = pv + quad_vec(lower, -1.0, 0.0, **opts)[0]
    return pv


@functools.lru_cache
def _reference_spline(tab):
    """scipy's CubicSpline through a table's stored (clipped) points: the
    spline that Tabulated fits, from the library that it reproduces."""
    return CubicSpline(tab.omegas, tab.values)


def _tabulated_j_over_omega_array(tab, omega):
    """Reference: the masked array form Tabulated.j_over_omega had before its
    scalar body, J the clipped spline on the grid and 0 above it, and the first
    grid slope below the grid or below 1e-12 (the spline's slope at 0 on a grid
    starting at 0). Without that threshold J/w differs from it by up to
    2.3e-14 relative at w = 1e-13."""
    w0, w1 = tab.omegas[0], tab.omegas[-1]
    spline = _reference_spline(tab)
    slope0 = tab.values[0] / w0 if w0 > 0 else max(spline(0.0, 1), 0.0)
    tiny = omega < max(w0, 1e-12)
    safe = np.where(tiny, 1.0, omega)
    j = np.where(safe > w1, 0.0, np.maximum(spline(safe), 0.0))
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


# 100x tighter than _QUAD_OPTS, whose epsrel 1e-8 lies above the 1e-9 bound
# that the reference checks: at SUPER, beta = 0.1, omega = 0.0420671 it read
# 3.4e-8 off the 30-digit value
_FINITE_PART_OPTS = dict(epsabs=1e-11, epsrel=1e-10, limit=400)


def _quad_finite_part(J, beta, omega):
    """Reference: D_beta'(omega) by the per-pole QUADPACK rule that the cell
    rule replaced for |omega| >= 1e-2 scale, panels split at |omega|, at
    _FINITE_PART_OPTS; it raises BathIntegrationError where a panel does not
    converge."""
    s0 = bath._thermal_spectrum(J, beta, omega)

    def integrand(x):
        return (bath._thermal_spectrum(J, beta, omega + x)
                + bath._thermal_spectrum(J, beta, omega - x) - 2.0 * s0) / (x * x)

    scale = J.scale()
    edges = [0.0, *sorted({abs(omega), scale, 4 * scale, 16 * scale}), np.inf]
    return sum(bath.checked_quad(integrand, lo, hi, **_FINITE_PART_OPTS)
               for lo, hi in zip(edges, edges[1:]))


def _thermal_slope(tab, beta, nu):
    """S'(nu), the slope of the thermal spectrum of a Tabulated J, from the
    slope of its spline: S = J (1 + n) at nu > 0 and J n at u = -nu > 0, with
    the Bose factor n' = -beta n (1 + n). Below 1e-8/beta, where the two
    terms cancel, it takes the value there (S' is bounded through 0)."""
    u = max(abs(nu), 1e-8 / beta)
    if u <= tab.omegas[0]:  # J linear through the origin
        j, dj = tab._slope0 * u, tab._slope0
    elif u > tab.omegas[-1] or float(_reference_spline(tab)(u)) <= 0.0:  # J clipped to 0
        j = dj = 0.0
    else:
        j, dj = float(_reference_spline(tab)(u)), float(_reference_spline(tab)(u, 1))
    n = math.exp(-beta * u) / -math.expm1(-beta * u)
    if nu >= 0:
        return (1.0 + n) * (dj - j * beta * n)
    return -n * (dj - j * beta * (1.0 + n))


def _cauchy_finite_part(tab, beta, omega):
    """Reference for a Tabulated J: D_beta'(omega) integrated by parts over
    [-W, W] (S = 0 beyond the last knot W),

        D_beta'(omega) = PV int S'(nu)/(nu - omega) dnu
                         - S(W)/(W - omega) - S(-W)/(W + omega),

    by one quad per piece between 0 and the knots +-w_k at epsabs 1e-14,
    epsrel 1e-13, QAWC (the weight 1/(nu - omega)) on the piece around omega.
    It forms no second difference of S, so it has no rounding to amplify
    where omega lies next to a knot. It agreed with 40-digit values of the
    finite part (test_tabulated_frozen_forty_digit_values) within 2.2e-14."""
    knots, kinks = np.asarray(tab.knots), np.asarray(tab.kinks)
    edges = np.union1d(0.0, np.concatenate([knots, -knots]))
    gaps = np.abs(edges - omega)
    r = max(gaps[gaps > 0].min() / 2, 1e-6 * abs(omega))  # a knot within r is C2 there
    # ... but no kink of S (+-kinks): the QAWC piece stops halfway to the nearest
    kink_gaps = np.abs(np.concatenate([kinks, -kinks]) - omega)
    r = min(r, kink_gaps[kink_gaps > 0].min() / 2)
    edges = np.union1d(edges[gaps > r], [omega - r, omega + r])
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == omega - r:
            total += _ref_quad(lambda nu: _thermal_slope(tab, beta, nu), lo, hi,
                               weight="cauchy", wvar=omega, epsabs=1e-14, epsrel=1e-13)
        else:
            total += _ref_quad(lambda nu: _thermal_slope(tab, beta, nu) / (nu - omega), lo, hi,
                               epsabs=1e-14, epsrel=1e-13)
    W = tab.omegas[-1]
    return (total - bath._thermal_spectrum(tab, beta, W) / (W - omega)
            - bath._thermal_spectrum(tab, beta, -W) / (W + omega))


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

    @pytest.mark.parametrize("J", [DRUDE, OHMIC, SUPER, TAB_OHMIC],
                             ids=["drude", "ohmic", "super", "tabulated"])
    def test_j_over_omega_slope_is_the_derivative(self, J):
        # against a central difference, whose error is O(h^2) + O(eps/h)
        w, h = np.linspace(0.1, 20.0, 50), 1e-5
        diff = (J.j_over_omega(w + h) - J.j_over_omega(w - h)) / (2 * h)
        assert np.allclose(J.j_over_omega_slope(w), diff, rtol=0, atol=1e-9)

    def test_tabulated_slope_does_not_underflow(self):
        # on the first cell of a grid from 0 the slope is the spline's t^2
        # coefficient plus 2 t its t^3 one: it must not square w, whose square
        # is subnormal below 1.5e-154 and 0 below 1.5e-162. Measured equal to
        # the slope at 1e-100 to the bit
        tiny = np.array([1e-100, 1e-155, 1e-160, 1e-200, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = TAB_OHMIC.j_over_omega_slope(tiny)
        assert np.all(np.abs(slope - slope[0]) <= 4 * np.spacing(abs(slope[0])))

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


TAB_SUPER = bath.Tabulated(omegas=tuple(np.linspace(0.01, 40.0, 800)),
                           values=tuple(SUPER.j(np.linspace(0.01, 40.0, 800))))
CONTINUOUS = [DRUDE, OHMIC, SUPER, TAB_OHMIC, TAB_SUPER]
CONTINUOUS_IDS = ["drude", "ohmic", "super", "tab_ohmic", "tab_super"]


def _ref_thermal_spectrum(J, beta, nu):
    """Reference: S(nu) as computed before the float path, in numpy (J/w on
    the array path, np.expm1 and np.exp)."""
    a = abs(nu)
    x = beta * a
    ratio = 1.0 + x / 2.0 + x * x / 12.0 if abs(x) < 1e-6 else x / -np.expm1(-x)
    s = float(J.j_over_omega(np.array([a]))[0]) / beta * ratio
    return s if nu >= 0 else s * np.exp(-beta * a)


def _ulps(a, b):
    """Distance of a and b in units of the last place of the larger; nan = nan."""
    if a == b or (np.isnan(a) and np.isnan(b)):
        return 0.0
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


class TestFloatPath:
    """QUADPACK evaluates the bath at float nodes through math; arrays go
    through numpy. The two paths run one formula."""

    @settings(max_examples=400, deadline=None)
    @given(
        J=st.sampled_from(CONTINUOUS),
        w=st.one_of(
            # 0, subnormals, the smallest normal, 1e300 and both grids' ends
            st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300,
                             60.0, 0.01, 40.0, np.nextafter(40.0, 0.0)]),
            st.floats(min_value=0.0, max_value=80.0),
            st.floats(min_value=0.0, max_value=1e300),
        ),
    )
    def test_float_path_equals_array_path(self, J, w):
        # math and numpy round exp differently, by at most an ulp each; the
        # spline's float path sums each cell's cubic in the spline's own order.
        # Super-Ohmic J/w is nan on both paths at 1e300, where u^2 overflows
        with np.errstate(all="ignore"):
            array = J.j_over_omega(np.array([w]))[0]
        assert _ulps(J.j_over_omega(w), array) <= 2

    @settings(max_examples=400, deadline=None)
    @given(
        J=st.sampled_from(CONTINUOUS),
        log_beta=st.floats(min_value=-1.0, max_value=1.0),
        nu=st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                     st.floats(min_value=-1e-6, max_value=1e-6), st.just(0.0)),
    )
    def test_thermal_spectrum_matches_numpy_reference(self, J, log_beta, nu):
        # nu in [-1e-6, 1e-6] is divided by beta, so |beta nu| < 1e-6 (the
        # series branch of the Bose ratio) is drawn too. Up to three factors
        # round differently in math and numpy (J/w, expm1, exp): 8 ulp
        beta = 10.0**log_beta
        if abs(nu) <= 1e-6:
            nu /= beta
        ref = _ref_thermal_spectrum(J, beta, nu)
        assert abs(bath._thermal_spectrum(J, beta, nu) - ref) <= 8 * np.spacing(abs(ref))

    @settings(max_examples=100, deadline=None)
    @given(
        J=st.sampled_from(CONTINUOUS),
        log_beta=st.floats(min_value=-1.0, max_value=1.0),
        nu=st.lists(st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                              st.floats(min_value=-1e-6, max_value=1e-6), st.just(0.0)),
                    min_size=1, max_size=8),
    )
    def test_thermal_spectrum_array_path(self, J, log_beta, nu):
        # an array of nu takes the numpy path of the same formula, element by element
        beta = 10.0**log_beta
        got = bath._thermal_spectrum(J, beta, np.array(nu).reshape(-1, 1))
        assert got.shape == (len(nu), 1)
        for g, n in zip(got[:, 0], nu):
            ref = _ref_thermal_spectrum(J, beta, n)
            assert abs(g - ref) <= 8 * np.spacing(abs(ref))

    @pytest.mark.parametrize("J", CONTINUOUS, ids=CONTINUOUS_IDS)
    def test_float_in_float_out(self, J):
        for w in (0.0, 1e-8, 0.3, 7.5, 45.0, 1e3):
            assert type(J.j_over_omega(w)) is float
            assert type(bath._thermal_spectrum(J, 0.7, w)) is float
            assert type(bath._thermal_spectrum(J, 0.7, -w)) is float

    def test_coth_and_phase_integral_float_path(self):
        for x in (1e-6, 0.3, 2.0, 40.0):
            assert type(bath.coth(x)) is float
            assert bath.coth(x) == pytest.approx(bath.coth(np.array([x]))[0], rel=4e-16)
        for x, t in ((0.0, 2.0), (-0.0, 2.0), (1e-9, 2.0), (0.3, 2.0), (-7.0, 0.5), (40.0, 3.0)):
            got = bath._phase_integral(x, t)
            assert type(got) is complex
            # int_0^t e^{i x r} dr = (sin(x t) + 2i sin^2(x t/2))/x, no cancellation
            exact = t if x == 0 else complex(np.sin(x * t), 2 * np.sin(x * t / 2)**2) / x
            assert abs(got - exact) <= 1e-15 * t
            assert abs(got - bath._phase_integral(np.array([x]), t)[0]) <= 1e-15 * t


@st.composite
def _spline_data(draw):
    """A grid of 4 to 600 knots, from 0 or not, with spacings spread over up
    to 4 decades, and values that are smooth or noisy, with a run of zeros
    (which puts knots and roots on one another) in half of the draws."""
    n = draw(st.integers(min_value=4, max_value=600))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    spread = draw(st.floats(min_value=0.0, max_value=4.0))
    x = np.cumsum(10.0 ** (spread * rng.uniform(-1.0, 0.0, n)))
    x = x - x[0] if draw(st.booleans()) else x + draw(st.floats(min_value=-50.0, max_value=50.0))
    if draw(st.booleans()):
        y = np.sin(x * (rng.uniform(0.5, 20.0) / (x[-1] - x[0]))) + draw(
            st.floats(min_value=-1.0, max_value=1.0))
    else:
        y = rng.normal(size=n) * 10.0 ** draw(st.integers(min_value=-200, max_value=200))
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=n - 1))
        y[start:start + draw(st.integers(min_value=1, max_value=n))] = 0.0
    return x, y


class TestSpline:
    """bath.Spline reproduces scipy's not-a-knot CubicSpline bit for bit, and
    piecewise_roots its PPoly.roots(extrapolate=False)."""

    @settings(max_examples=150, deadline=None)
    @given(data=_spline_data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_is_scipy_cubic_spline_bit_for_bit(self, data, seed):
        x, y = data
        ref, spline = CubicSpline(x, y), bath.Spline(x, y)
        assert np.array_equal(spline.x, ref.x) and np.array_equal(spline.c, ref.c)
        # inside, on the knots, and extrapolated beyond both ends
        span = x[-1] - x[0]
        w = np.concatenate([np.random.default_rng(seed).uniform(x[0] - span, x[-1] + span, 300),
                            x, [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf)]])
        assert np.array_equal(spline(w), ref(w))
        assert np.array_equal(spline(w[:300].reshape(30, 10)), ref(w[:300]).reshape(30, 10))
        for v in (*w[:40].tolist(), *w[300:].tolist()[:60], *w[-2:].tolist()):
            got = spline(v)
            assert type(got) is float and got == float(ref(v))

    @settings(max_examples=150, deadline=None)
    @given(data=_spline_data())
    def test_roots_match_ppoly_roots(self, data):
        # each root lies within tol = 1e-12 (x_n - x_0) of one of scipy's, and
        # each of scipy's within tol of one here, but for two kinds of root
        # that rounding places:
        # - a near-double root, where p' ~ 0, moves by the reach
        #   (eps sum |c_k d^k| + the smallest subnormal) / |p'(d)| over which
        #   its cubic stays within rounding of 0, added to tol (scipy's own
        #   was 5e-11 from the exact root of a cubic in a run of zeros, p' =
        #   5.5e-8 there, and 2.7e-10 from it on a cubic whose coefficients
        #   are subnormal);
        # - a root of a cell's cubic within tol of a knot may fall just
        #   inside the cell or just outside (scipy put one at 1.4e-17 in a
        #   cell whose cubic, increasing, is 2.2e-16 at its start), so a root
        #   within tol of a knot where a cubic next to it vanishes to within
        #   tol needs no partner.
        x, y = data
        ref = CubicSpline(x, y)
        got = bath.piecewise_roots(x, ref.c)
        theirs = ref.roots(extrapolate=False)
        # scipy lists the start of a cell where the cubic vanishes, then nan
        vanish = ~ref.c.any(axis=0)
        theirs = theirs[np.isfinite(theirs) & ~np.isin(theirs, x[:-1][vanish])]
        assert np.all(np.diff(got) > 0) and np.all((x[0] <= got) & (got <= x[-1]))
        tol = 1e-12 * (x[-1] - x[0])
        info = np.finfo(float)

        def rounding(size):  # of Horner's rule on a cubic, underflow included
            return 16 * (info.eps * size + info.smallest_subnormal)

        def cubic(k, d):  # the cubic of cell k at d, its slope and the sum of |c_k d^k|
            c3, c2, c1, c0 = ref.c[:, k]
            return (c0 + c1 * d + c2 * d * d + c3 * d**3, c1 + 2 * c2 * d + 3 * c3 * d * d,
                    abs(c0) + abs(c1 * d) + abs(c2 * d * d) + abs(c3 * d**3))

        def cells(r):  # r's cell, and the one before if r is its knot
            i = int(np.clip(np.searchsorted(x, r, "right") - 1, 0, x.size - 2))
            return [k for k in {i, i - 1 if r == x[i] else i} if 0 <= k and ref.c[:, k].any()]

        def reach(r):
            out = 0.0
            for k in cells(r):
                _, slope, size = cubic(k, r - x[k])
                out = max(out, rounding(size) / abs(slope) if slope else np.inf)
            return out

        def at_knot(r):
            i = int(np.argmin(np.abs(x - r)))
            if abs(x[i] - r) > tol:
                return False
            for k in (i - 1, i):
                if 0 <= k < x.size - 1:
                    value, slope, size = cubic(k, x[i] - x[k])
                    if abs(value) <= tol * abs(slope) + rounding(size):
                        return True
            return False

        for mine, other in ((got, theirs), (theirs, got)):
            for r in mine:
                gap = np.abs(other - r).min() if other.size else np.inf
                near = other[np.abs(other - r) == gap]
                assert gap <= tol + max([reach(r), *map(reach, near)]) or at_knot(r)

    def test_vanishing_cells_give_no_root(self):
        x = np.linspace(0.0, 3.0, 7)
        spline = bath.Spline(x, np.zeros(7))
        assert not spline.c.any() and bath.piecewise_roots(x, spline.c).size == 0
        # scipy lists each such cell's start, then nan
        assert np.isnan(CubicSpline(x, np.zeros(7)).roots(extrapolate=False)).any()

    def test_rejects_what_scipy_rejects(self):
        x = np.linspace(0.0, 1.0, 5)
        for bad_x, bad_y in ((x, [0, 1, np.nan, 2, 3]), (x[::-1], x), (x[:3], x[:3]),
                             ([0, 1, np.inf, 4, 5], x)):
            with pytest.raises(ValueError):
                bath.Spline(bad_x, bad_y)


class TestPrincipalValue:
    def test_exponential_oracle(self):
        # PV int_0^inf e^(-w)(w + a)/(w^2 - a^2) dw = -e^(-a) Ei(a)
        for a in (0.5, 1.0, 2.0):
            got = bath.principal_value(lambda w, k: np.exp(-w) * (w + a), a, 1.0)
            assert got == pytest.approx(-np.exp(-a) * expi(a), abs=1e-8)
        with pytest.raises(ValueError):
            bath.principal_value(lambda w, k: np.exp(w), -1.0, 1.0)
        # the same three poles as one stack, h(w, k) taking pole k's a as a[k]
        a = np.array([0.5, 1.0, 2.0])
        got = bath.principal_value(lambda w, k: np.exp(-w) * (w + a[k]), a, 1.0)
        assert got.shape == (3,)
        assert np.allclose(got, -np.exp(-a) * expi(a), rtol=0, atol=1e-8)
        with pytest.raises(ValueError):
            bath.principal_value(lambda w, k: np.exp(w), np.array([1.0, -1.0]), 1.0)

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
        # Re Gamma(infinity) is pi S(-omega), S on the array path
        assert (g.real == np.pi * bath._thermal_spectrum(J, beta, -np.array(stack))).all()
        for w, d_w, g_w in zip(stack, d, g):
            ref = _ref_d_beta(J, beta, w)
            assert abs(d_w - ref) <= 1e-12 * max(1.0, abs(ref))
            ref = _ref_lamb_shift(J, beta, w)
            assert abs(g_w.imag - ref) <= 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_stacked_tabulated_matches_knot_resolved_reference(self, beta):
        # 800-point super-Ohmic grid; measured error of the cell rule <= 1.3e-15
        # (the adaptive stack it replaced: 1.6e-9)
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


def _table(s, omega_c, w0, n, stretch):
    """An Ohmic (s = 1) or super-Ohmic (s = 3) Tabulated J on an n-point grid
    from w0 to 40 omega_c where J has decayed, stretched toward w0."""
    grid = w0 + (40.0 * omega_c - w0) * np.linspace(0.0, 1.0, n) ** stretch
    return bath.Tabulated(omegas=tuple(grid),
                          values=tuple(0.2 * grid**s * np.exp(-grid / omega_c) / omega_c**(s - 1)))


@st.composite
def _tabulated(draw):
    """A random _table, on a grid that starts at 0 or above it."""
    omega_c = draw(st.floats(min_value=0.5, max_value=4.0))
    return _table(draw(st.sampled_from([1, 3])), omega_c,
                  draw(st.sampled_from([0.0, 0.01, 0.3])) * omega_c,
                  draw(st.integers(min_value=16, max_value=40)),
                  draw(st.floats(min_value=1.0, max_value=2.0)))


@st.composite
def _tabulated_and_stack(draw):
    """A random _tabulated J and a stack of poles with 0, a pole on a knot and
    a pole beyond the last knot W."""
    tab = draw(_tabulated())
    sign = st.sampled_from([1.0, -1.0])
    on_knot = draw(st.sampled_from(tab.omegas[1:-1]))
    beyond = tab.omegas[-1] * draw(st.floats(min_value=1.01, max_value=3.0))
    inside = draw(st.lists(st.floats(min_value=0.01, max_value=8.0), min_size=1, max_size=2))
    stack = [draw(sign) * w for w in (on_knot, beyond, *inside)] + [0.0]
    return tab, tuple(draw(st.permutations(stack)))


class TestCellRule:
    """principal_value of a Tabulated J: its knots are cell edges of each
    pole's graded cells (bath._graded_rule)."""

    @settings(max_examples=12, deadline=None)
    @given(case=_tabulated_and_stack(), beta=st.floats(min_value=0.1, max_value=10.0))
    def test_matches_per_cell_quad(self, case, beta):
        # measured within 1.4e-15 max(1, |ref|) over 190 random draws
        tab, stack = case
        d = bath.d_beta.__wrapped__(tab, beta, stack)
        im = bath.gamma_m.__wrapped__(tab, beta, stack, bath.ASYMPTOTIC).imag
        for w, d_w, im_w in zip(stack, d, im):
            def c(x):
                return float(tab.j_over_omega(x))

            ref_d = 0.0 if w == 0.0 else _per_cell_pv(
                tab, lambda x: c(x) * w * (float(bath._w_coth(x, beta)) + w), abs(w))
            ref_im = _per_cell_pv(
                tab, lambda x: c(x) * (w * float(bath._w_coth(x, beta)) - x * x), abs(w))
            assert abs(d_w - ref_d) <= 1e-12 * max(1.0, abs(ref_d))
            assert abs(im_w - ref_im) <= 1e-12 * max(1.0, abs(ref_im))

    def test_pole_at_last_knot_raises(self):
        # J/w jumps to 0 at W: the principal value diverges logarithmically
        W = TAB_OHMIC.omegas[-1]
        with pytest.raises(bath.BathIntegrationError, match="last knot"):
            bath.d_beta.__wrapped__(TAB_OHMIC, 1.0, (0.5, -W))
        with pytest.raises(bath.BathIntegrationError, match="last knot"):
            bath.gamma_m.__wrapped__(TAB_OHMIC, 1.0, W, bath.ASYMPTOTIC)

    def test_pole_next_to_a_knot(self):
        # within 1e-12 of a knot the pole is no cell edge: the nodes of the
        # cell between them would round onto it
        knot = TAB_OHMIC.omegas[33]
        ref = bath.d_beta.__wrapped__(TAB_OHMIC, 1.0, knot)
        for ulps in (1, 2, 10, -1, -10):
            w = knot + ulps * np.spacing(knot)
            assert abs(bath.d_beta.__wrapped__(TAB_OHMIC, 1.0, w) - ref) <= 1e-14

    def test_kink_inside_a_cell_raises(self):
        # |sin 50 w| has kinks inside every cell; orders 10 and 20 disagree
        with pytest.raises(bath.BathIntegrationError, match="did not converge"):
            bath.principal_value(lambda w, k: np.abs(np.sin(50.0 * w)), np.array([0.5, 1.5]),
                                 1.0, knots=(0.0, 1.0, 2.0, 3.0))

    def test_no_adaptive_quadrature(self, monkeypatch):
        # the cell rule is a fixed sum: no quad call for a Tabulated J
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature on a Tabulated J")

        monkeypatch.setattr(bath, "quad", refuse)
        stack = (-1.118, 0.0, 1.118, 3.0)
        assert np.isfinite(bath.d_beta.__wrapped__(TAB_OHMIC, 1.0, stack)).all()
        assert np.isfinite(
            bath.gamma_m.__wrapped__(TAB_OHMIC, 1.0, stack, bath.ASYMPTOTIC)).all()
        assert bath.reorganization_energy(TAB_OHMIC, 1.0) > 0.0

    def test_blocks_of_cells_sum_to_the_whole(self, monkeypatch):
        # a long stack is summed over blocks of cells; the blocks change only rounding
        grid = np.linspace(0.0, 50.0, 101)
        monkeypatch.setattr(bath, "_CELL_BLOCK", 1 << 30)
        whole = clexact._self_energy_real(TAB_OHMIC, grid)
        monkeypatch.setattr(bath, "_CELL_BLOCK", 5000)
        blocked = clexact._self_energy_real(TAB_OHMIC, grid)
        assert np.allclose(blocked, whole, rtol=1e-13, atol=1e-15)

    def test_reorganization_energy_matches_knot_resolved_reference(self):
        # int J/w = PV int (w J)/w^2: the cell rule at a pole at 0, to rounding
        ref = _knot_resolved_pv(
            TAB_OHMIC, lambda w: w * w * _tabulated_j_over_omega_array(TAB_OHMIC, w), 0.0)
        assert bath.reorganization_energy(TAB_OHMIC, 1.0) == pytest.approx(ref, rel=1e-14)


@st.composite
def _graded_stack(draw):
    """An analytic J, beta in [0.02, 50] and a stack of poles with 0, a tiny
    pole (1e-300 to 1e-3), 40 scale and up to three poles in [1e-2, 10] scale."""
    J = draw(st.sampled_from([DRUDE, OHMIC, SUPER]))
    beta = 10.0 ** draw(st.floats(min_value=np.log10(0.02), max_value=np.log10(50.0)))
    tiny = 10.0 ** draw(st.floats(min_value=-300.0, max_value=-3.0))
    inside = draw(st.lists(st.floats(min_value=0.01, max_value=10.0), max_size=3))
    sign = st.sampled_from([1.0, -1.0])
    stack = [draw(sign) * w * J.scale() for w in (40.0, *inside)] + [draw(sign) * tiny, 0.0]
    return J, beta, tuple(draw(st.permutations(stack)))


class TestGradedRule:
    """principal_value of an analytic J: graded cells per pole (bath._graded_rule)."""

    @settings(max_examples=20, deadline=None)
    @given(case=_graded_stack())
    def test_matches_adaptive_stack(self, case):
        # the D_beta, Im Gamma(infinity) and self-energy integrands, against the
        # quad_vec stack that the rule replaced
        J, beta, stack = case
        om = np.array(stack)
        nz, a = om[om != 0.0], np.abs(om)
        ref_d, ref_self = np.zeros(om.shape), np.zeros(om.shape)
        ref_d[om != 0.0] = _adaptive_pv(
            lambda w: J.j_over_omega(w) * nz * (bath._w_coth(w, beta) + nz), np.abs(nz),
            J.scale())
        ref_im = _adaptive_pv(
            lambda w: J.j_over_omega(w) * (om * bath._w_coth(w, beta) - w * w), a, J.scale())
        ref_self[a != 0.0] = _adaptive_pv(
            lambda w: nz**2 * J.j_over_omega(w), np.abs(nz), J.scale())
        for got, ref in ((bath.d_beta.__wrapped__(J, beta, stack), ref_d),
                         (bath.gamma_m.__wrapped__(J, beta, stack, bath.ASYMPTOTIC).imag, ref_im),
                         (clexact._self_energy_real(J, a), ref_self)):
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("J", [DRUDE, OHMIC, SUPER, TAB_OHMIC],
                             ids=["drude", "ohmic", "super", "tabulated"])
    def test_stack_entry_is_the_float_call(self, J):
        # each pole has its own cells, summed in their own order: bit for bit
        # (a subnormal pole is taken as 0: its own cells would underflow)
        stack = (-2.3, 0.7, 0.0, 3.0, 1e-200, 5e-324, -11.0, 40.0 * J.scale())
        d = bath.d_beta.__wrapped__(J, 20.0, stack)
        g = bath.gamma_m.__wrapped__(J, 20.0, stack, bath.ASYMPTOTIC)
        for w, d_w, g_w in zip(stack, d, g):
            assert d_w == bath.d_beta.__wrapped__(J, 20.0, w)
            assert g_w == bath.gamma_m.__wrapped__(J, 20.0, w, bath.ASYMPTOTIC)

    def test_blocks_of_cells_change_no_bit(self, monkeypatch):
        grid = np.linspace(0.0, 60.0, 481)
        whole = clexact._self_energy_real(DRUDE, grid)
        monkeypatch.setattr(bath, "_CELL_BLOCK", 7 * len(bath._CELL_NODES))
        assert np.array_equal(clexact._self_energy_real(DRUDE, grid), whole)

    def test_no_quadpack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK on an analytic J")

        monkeypatch.setattr(bath, "quad", refuse)
        stack = (-2.3, 0.0, 0.7, 1e-9)
        for J in (DRUDE, OHMIC, SUPER):
            assert np.isfinite(bath.d_beta.__wrapped__(J, 1.0, stack)).all()
            assert np.isfinite(
                bath.gamma_m.__wrapped__(J, 1.0, stack, bath.ASYMPTOTIC)).all()
            assert bath.reorganization_energy(J, 1.0) > 0.0
            assert np.isfinite(clexact._self_energy_real(J, np.linspace(0.0, 60.0, 481))).all()


class TestQuadConvergence:
    def test_kink_inside_a_graded_cell_raises(self):
        # without knots |sin 50 w| is taken as analytic; orders 10 and 20 disagree
        with pytest.raises(bath.BathIntegrationError, match="did not converge"):
            bath.principal_value(lambda w, k: np.abs(np.sin(50 * w)), [0.5, 1.5], 1.0)

    def test_non_finite_stack_raises(self):
        with pytest.raises(bath.BathIntegrationError, match="returned"):
            bath.principal_value(lambda w, k: np.where(w > 2.0, np.nan, 1.0),
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


def _drude_gamma_inf(gamma, omega_d, beta, omega):
    """Reference: Gamma_m(infinity) of DrudeLorentz(gamma, omega_d) from its
    Matsubara expansion G(t) = sum_k c_k e^(-mu_k t) (Ishizaki & Fleming,
    J. Chem. Phys. 130, 234111 (2009)), Gamma_m(infinity) = sum_k c_k/(mu_k +
    i omega). With J = a w/(w^2 + Omega^2), a = 2 gamma Omega^2/pi, mu_0 =
    Omega, c_0 = (pi a/2)(cot(beta Omega/2) - i) and, at nu_k = 2 pi k/beta,
    c_k = (2 pi a/beta) nu_k/(nu_k^2 - Omega^2), the partial fractions
    A_j/(nu - nu_j) of nu/((nu - Omega)(nu + Omega)(nu + i omega)) sum over
    k >= 1 to -(beta/2 pi) sum_j A_j psi(1 - beta nu_j/2 pi). The reflection
    psi(1 - x) = psi(x) + pi cot(pi x) at x = beta Omega/2 pi cancels the
    cot of c_0, so no term is singular, at beta Omega = 2 pi k included."""
    a = 2 * gamma * omega_d**2 / np.pi
    up, down = omega_d + 1j * omega, omega_d - 1j * omega
    x = beta * omega_d / (2 * np.pi)
    matsubara = digamma(1 + 1j * beta * omega / (2 * np.pi))
    return -a * (0.5j * np.pi / up + digamma(x) / (2 * up) - digamma(1 + x) / (2 * down)
                 + 1j * omega / (omega**2 + omega_d**2) * matsubara)


def _drude_matsubara(gamma, omega_d, beta, t):
    """(mu_k, c_k) of the Matsubara expansion G(t) = sum_k c_k e^(-mu_k t),
    t > 0, of _drude_gamma_inf, truncated where mu_k t > 745 (e^(-mu_k t)
    underflows)."""
    a = 2 * gamma * omega_d**2 / np.pi
    nu = 2 * np.pi / beta * np.arange(1, int(745 * beta / (2 * np.pi * t)) + 2)
    mu = np.concatenate([[omega_d], nu])
    c = np.concatenate([[np.pi * a / 2 * (1 / np.tan(beta * omega_d / 2) - 1j)],
                        2 * np.pi * a / beta * nu / (nu**2 - omega_d**2)])
    return mu, c


@st.composite
def _drude_finite_time_case(draw):
    """A Drude-Lorentz J, beta in [0.03, 30], t in [0.5, 20] and |omega| in
    [1e-3, 20] Omega, with beta Omega at least 2% of 2 pi from 2 pi k, k >= 1,
    where c_0 and c_k are singular and cancel."""
    gamma = draw(st.floats(min_value=0.01, max_value=1.0))
    omega_d = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.5))
    beta = 10.0 ** draw(st.floats(min_value=-1.5, max_value=1.5))
    x = beta * omega_d / (2 * np.pi)
    assume(x < 0.5 or abs(x - round(x)) >= 0.02)
    t = draw(st.floats(min_value=0.5, max_value=20.0))
    omega = draw(st.sampled_from([1.0, -1.0])) * omega_d * 10.0 ** draw(
        st.floats(min_value=-3.0, max_value=math.log10(20.0)))
    return bath.DrudeLorentz(gamma, omega_d), beta, t, omega


@st.composite
def _drude_case(draw):
    """A Drude-Lorentz J, beta in [0.03, 30] and omega = 0 or +-[1e-4, 20] Omega."""
    gamma = draw(st.floats(min_value=0.01, max_value=1.0))
    omega_d = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.5))
    beta = 10.0 ** draw(st.floats(min_value=-1.5, max_value=1.5))
    size = 10.0 ** draw(st.floats(min_value=-4.0, max_value=1.3)) * omega_d
    omega = draw(st.sampled_from([0.0, size, -size]))
    return bath.DrudeLorentz(gamma, omega_d), beta, omega


class TestDrudeMatsubara:
    """Exact Drude-Lorentz references for the principal-value engine. Over
    12000 random draws and the corners of _drude_case, bath was within
    1.1e-14 max(1, |ref|) of Re Gamma(infinity), 3.1e-12 of Im Gamma(infinity)
    and D_beta (where beta Omega < 0.005, and there the library is the one
    off, against 40 digits) and 6.5e-16 of the reorganization energy."""

    @settings(max_examples=60, deadline=None)
    @given(case=_drude_case())
    def test_asymptotic_gamma(self, case):
        J, beta, omega = case
        ref = _drude_gamma_inf(J.gamma, J.omega_d, beta, omega)
        got = bath.gamma_m.__wrapped__(J, beta, omega, bath.ASYMPTOTIC)
        assert abs(got.real - ref.real) <= 5e-14 * max(1.0, abs(ref.real))
        assert abs(got.imag - ref.imag) <= 1e-11 * max(1.0, abs(ref.imag))

    @settings(max_examples=60, deadline=None)
    @given(case=_drude_case())
    def test_d_beta_is_minus_the_lamb_shift_at_minus_omega(self, case):
        # D_beta(omega) = -Im Gamma_{-omega}(infinity) - int J/w, int J/w = gamma Omega
        J, beta, omega = case
        ref = -_drude_gamma_inf(J.gamma, J.omega_d, beta, -omega).imag - J.gamma * J.omega_d
        assert abs(bath.d_beta.__wrapped__(J, beta, omega) - ref) <= 1e-11 * max(1.0, abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(case=_drude_case(), lam=st.floats(min_value=0.0, max_value=2.0))
    def test_reorganization_energy(self, case, lam):
        J = case[0]
        ref = lam**2 * J.gamma * J.omega_d
        assert abs(bath.reorganization_energy(J, lam) - ref) <= 4e-15 * max(1.0, ref)


class TestDrudeFiniteTime:
    """Exact Drude-Lorentz references at finite t from the Matsubara expansion
    of _drude_matsubara: G(t) = sum_k c_k e^(-mu_k t), and Gamma_m(t) =
    int_0^t e^(-i omega r) G(r) dr = Gamma_m(infinity) - sum_k c_k
    e^(-(mu_k + i omega) t)/(mu_k + i omega). Over 6000 draws of
    _drude_finite_time_case, Gamma_m(t) was within 1.1e-11 max(1, |ref|),
    its largest errors at beta Omega < 0.02, and over 4000 G(t) was within
    9.1e-12 max(1, |ref|), both inside the library's error tolerances."""

    @settings(max_examples=40, deadline=None)
    @given(case=_drude_finite_time_case())
    # QAWF over [0, inf] alone failed its cycle extrapolation here
    @example(case=(bath.DrudeLorentz(0.8853336253121425, 28.11439370353238),
                   9.327081818252376, 11.688525320737932, 1.0))
    def test_correlation_function(self, case):
        J, beta, t, _ = case
        mu, c = _drude_matsubara(J.gamma, J.omega_d, beta, t)
        ref = np.sum(c * np.exp(-mu * t))
        assert abs(bath.corr_fn(J, beta, t) - ref) <= 2e-11 * max(1.0, abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(case=_drude_finite_time_case())
    def test_gamma(self, case):
        J, beta, t, omega = case
        mu, c = _drude_matsubara(J.gamma, J.omega_d, beta, t)
        z = mu + 1j * omega
        ref = _drude_gamma_inf(J.gamma, J.omega_d, beta, omega) - np.sum(c * np.exp(-z * t) / z)
        got = bath.gamma_m.__wrapped__(J, beta, omega, t)
        assert abs(got - ref) <= 3e-11 * max(1.0, abs(ref))


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

    # values before the float path (numpy at every node), frozen at 1e-12: the
    # float path moves them by at most 6.1e-14 here. Next to the kink of an
    # Ohmic S (omega = 0.05, beta = 0.1) the finite part's second difference
    # amplifies rounding, and the value moved by 2.9e-11 (relative 6e-12,
    # inside the quadrature's epsrel 1e-8), so no frozen value sits there
    FROZEN_D_BETA_DERIV = {
        "drude": (DRUDE, {0.1: (-0.1481464897834761, -0.3967568585471022, -0.20087600406510503),
                          1.0: (0.051955580251322506, -0.015789165949689536, -0.08299239212460496),
                          10.0: (0.03708241685461017, 0.03430961879508308, -0.1002010185239622)}),
        "ohmic": (OHMIC, {0.1: (0.05359856780558462, -1.3829926409116562, -0.05451821092696942),
                          1.0: (0.11151719557188207, -0.1993261680489829, -0.1484871148530272),
                          10.0: (0.05223642961753876, -0.10669700092088015, -0.1992942168241442)}),
        "super": (SUPER, {0.1: (-0.5644349096836773, 1.0676785598809249, -0.8737402406843962),
                          1.0: (0.03264975068606321, 0.2763924933275622, -0.13961988603333259),
                          10.0: (0.061457378498990335, 0.2797758846937383, -0.12880847456333708)}),
    }

    @pytest.mark.parametrize("name", FROZEN_D_BETA_DERIV)
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_derivative_frozen_before_float_path(self, name, beta):
        J, values = self.FROZEN_D_BETA_DERIV[name]
        for w, expected in zip((-2.3, 0.7, 3.0), values[beta]):
            assert bath.d_beta_deriv.__wrapped__(J, beta, w) == pytest.approx(expected, abs=1e-12)

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
        # Ohmic-class J: the jump of S' at nu = 0 makes D' ~ log|omega|, so
        # the principal value raises instead of returning a number
        for J in (bath.OhmicExp(0.1, 4.0), TAB_OHMIC):
            with pytest.raises(bath.BathIntegrationError):
                bath.d_beta_deriv(J, 1.0, 0.0)
            d = [bath.d_beta_deriv(J, 1.0, w) for w in (1e-1, 1e-2, 1e-3)]
            assert d[0] > d[1] > d[2]  # the log|omega| growth, here downwards

    @pytest.mark.parametrize("J", [bath.OhmicExp(0.1, 4.0), TAB_OHMIC],
                             ids=["ohmic", "tabulated"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_derivative_follows_the_log_law_for_ohmic_class(self, J, sign):
        # S' jumps at nu = 0 by 2 m'(0)/beta, m = J/w, so D' = c log|omega| + d
        # + O(omega) with c = -2 m'(0)/beta: per decade D' drops by c ln 10,
        # 0.1151293 for OhmicExp(0.1, 4) at beta = 1. Measured within 7.6e-8
        # of that limit from 1e-8 down to 1e-14. The finite-part rule this
        # replaced raised below about 1.2e-7 scale, where its rounding took over
        c = -2 * float(J.j_over_omega_slope(np.array([1e-12]))[0])
        d = [bath.d_beta_deriv.__wrapped__(J, 1.0, sign * 10.0**-k) for k in range(8, 15)]
        assert -np.diff(d) == pytest.approx(c * np.log(10), rel=2e-7)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tabulated_derivative_keeps_its_log_law_below_1e_154(self, sign):
        # the slope of J/w underflowed below about 1e-154, and D' raised; the
        # drop per decade from 1e-155 down to 1e-300 matches the one from
        # 1e-145 to 1e-155, measured within 8.4e-14 relative
        d = {k: bath.d_beta_deriv.__wrapped__(TAB_OHMIC, 1.0, sign * 10.0**-k)
             for k in (145, 155, 160, 200, 300)}
        per_decade = (d[145] - d[155]) / 10
        for lo, hi in ((155, 160), (160, 200), (200, 300)):
            assert np.isfinite(d[hi])
            assert (d[lo] - d[hi]) / (hi - lo) == pytest.approx(per_decade, rel=1e-12)

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


@st.composite
def _finite_part_stack(draw):
    """An analytic J, beta in [0.1, 10] and a stack of 1-12 poles with |omega|
    in [1e-2, 10] scale, where the per-pole QUADPACK reference converges."""
    J = draw(st.sampled_from([DRUDE, OHMIC, SUPER]))
    beta = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.0))
    size = st.floats(min_value=-2.0, max_value=1.0)
    poles = draw(st.lists(st.tuples(st.sampled_from([1.0, -1.0]), size), min_size=1, max_size=12))
    return J, beta, tuple(sign * 10.0**e * J.scale() for sign, e in poles)


@st.composite
def _tabulated_finite_part_stack(draw):
    """A random _tabulated J, beta in [0.1, 10] and a stack of up to 4 poles
    with |omega| in [1e-2, 10] scale, one of them on a knot. At a kink p of J
    (test_tabulated_kink_raises) D' diverges as log|omega - p|, and a rounding
    u of omega moves it by about u/|omega - p| (3e-7 at 1e-10 relative), so
    poles keep 1e-6 away from the kinks."""
    tab = draw(_tabulated())
    beta = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.0))
    scale = tab.scale()
    sign = st.sampled_from([1.0, -1.0])
    on_knot = draw(st.sampled_from([w for w in tab.omegas[1:-1] if w >= 1e-2 * scale]))
    size = st.floats(min_value=-2.0, max_value=1.0)
    inside = [10.0**e * scale for e in draw(st.lists(size, min_size=0, max_size=3))]
    assume(all(abs(w - k) > 1e-6 * w for w in inside for k in tab.kinks))
    return tab, beta, tuple(draw(sign) * w for w in (on_knot, *inside))


class TestFinitePartCells:
    """D_beta' of a continuous J at every frequency: PV int S'(nu)/(nu - omega)
    dnu, one principal_value call for the whole stack, a table's knots among
    its cell edges."""

    @settings(max_examples=30, deadline=None)
    @given(case=_finite_part_stack())
    @example(case=(SUPER, 0.1, (0.04206711498432432,)))
    def test_matches_per_pole_quad(self, case):
        # the reference is only as good as its tolerances (_FINITE_PART_OPTS):
        # over 3000 random poles it differed from the cell rule by at most
        # 3.3e-11 max(1, |D'|); at _QUAD_OPTS by up to 1.6e-9, and on the
        # largest differences the quad was the one off
        # (test_frozen_thirty_digit_values)
        J, beta, stack = case
        got = bath.d_beta_deriv.__wrapped__(J, beta, stack)
        for w, g in zip(stack, got):
            try:
                ref = _quad_finite_part(J, beta, w)
            except bath.BathIntegrationError:
                # the quad raised on 72 of those 3000 poles (4 at _QUAD_OPTS),
                # mostly Ohmic ones whose second differences round near x = 0;
                # the cell rule on none
                continue
            assert abs(g - ref) <= 1e-9 * max(1.0, abs(ref))

    # 30-digit values of the finite part (mpmath, S at 250 digits); the first
    # is where the per-pole quad at _QUAD_OPTS is off by 1.9e-10, the cell rule
    # by 1e-16; on the last it was 3.4e-8 off, and the cells 8e-16
    @pytest.mark.parametrize("J, beta, w, expected", [
        (SUPER, 4.5687, 0.0218206, 0.1847474087589572),
        (OHMIC, 0.10014, -0.0304228, -5.316560136458771),
        (OHMIC, 0.115936, 0.0661549, -3.7457329015576644),
        (OHMIC, 3.0, 0.5, -0.04083784260044504),
        (DRUDE, 0.109045, 0.0522882, -0.3602423506551804),
        (DRUDE, 10.0, -47.0, 0.0010845620466081688),
        (SUPER, 0.1, 15.0, 0.1266009326351908),
        (SUPER, 0.1, 0.04206711498432432, 1.7597406159938461584),
    ])
    def test_frozen_thirty_digit_values(self, J, beta, w, expected):
        # measured within 5e-16 max(1, |D'|); the finite-part rule this
        # replaced within 4.6e-12 (relative 1.2e-12)
        got = bath.d_beta_deriv.__wrapped__(J, beta, (w,))[0]
        assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))

    # 50-digit values (mpmath, S at 250 digits) next to the pole at -a of the
    # folded integrand, a true pole where S' jumps at 0. With cells graded
    # toward it by 2 (mid + a)/3 in place of (mid + a)/3, each of these raised
    # (error estimates 1.0e-10 to 3.8e-10). Measured within 2.8e-16
    @pytest.mark.parametrize("w, expected", [
        (-0.409, -0.012508529637231779),
        (-0.4121, -0.011295023407684688),
        (-0.4291, -0.004833367452282211),
        (-0.4502, 0.002756956585340685),
        (-0.4634, 0.007279132990246436),
    ])
    def test_poles_graded_toward_the_mirror_pole(self, w, expected):
        got = bath.d_beta_deriv.__wrapped__(OHMIC, 1.0, w)
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))

    @pytest.mark.parametrize("J", [DRUDE, OHMIC, SUPER, TAB_OHMIC],
                             ids=["drude", "ohmic", "super", "tabulated"])
    def test_stack_entry_is_the_float_call(self, J):
        # each pole is summed over its own cells in their own order
        stack = (-2.3, 0.7, 3.0, 0.05, -11.0, 20.0)
        got = bath.d_beta_deriv.__wrapped__(J, 1.0, stack)
        for w, g in zip(stack, got):
            one = bath.d_beta_deriv.__wrapped__(J, 1.0, w)
            assert type(one) is float
            assert abs(g - one) <= 1e-15 * abs(one)

    def test_stack_is_read_only_and_memoized(self):
        stack = (-2.3, 0.7)
        got = bath.d_beta_deriv(DRUDE, 1.0, stack)
        assert isinstance(got, np.ndarray) and not got.flags.writeable
        assert bath.d_beta_deriv(DRUDE, 1.0, stack) is got
        assert bath.d_beta_deriv.__wrapped__(DRUDE, 1.0, ()).shape == (0,)

    def test_no_quadpack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK on an eligible stack")

        monkeypatch.setattr(bath, "quad", refuse)
        small = [s * 10.0**e for e in range(-3, -15, -1) for s in (1.0, -1.0)]  # 1e-3 to 1e-14
        # S' is continuous at nu = 0 (Drude; super-Ohmic, whose J/w has no
        # slope at 0): D' is finite at every omega
        for J in (DRUDE, SUPER):
            stack = (-2.3, 0.7, 3.0, 0.0, *(w * J.scale() for w in small))
            assert np.isfinite(bath.d_beta_deriv.__wrapped__(J, 1.0, stack)).all()
        # an Ohmic-class J at every omega but 0, where S' jumps and D' diverges
        for J in (OHMIC, TAB_OHMIC):
            stack = (-2.3, 0.7, 3.0, *(w * J.scale() for w in small))
            assert np.isfinite(bath.d_beta_deriv.__wrapped__(J, 1.0, stack)).all()
            with pytest.raises(bath.BathIntegrationError, match="did not converge"):
                bath.d_beta_deriv.__wrapped__(J, 1.0, 0.0)

    # 50-digit values of D' (mpmath, S at 250 digits) at omega = sign r
    # scale. Every J was measured within 4.2e-16 max(1, |D'|) at every |omega|
    # from 0.3 to 1e-9 scale (1e-12 for the OhmicExp), beta in {0.1, 1, 10}.
    # The finite-part rule this replaced was within 8.7e-15 on Drude and
    # super-Ohmic J, and within 1.4e-10 on the OhmicExp down to 1e-6 scale;
    # below about 1.2e-7 scale it raised
    @pytest.mark.parametrize("J, beta, r, sign, expected", [
        (DRUDE, 0.1, 0.3, +1, -0.3509493704997573),
        (DRUDE, 0.1, 0.001, -1, -0.39191782782798873),
        (DRUDE, 0.1, 1e-06, +1, -0.3921192023280565),
        (DRUDE, 0.1, 1e-09, -1, -0.3921190021292314),
        (DRUDE, 1.0, 0.3, +1, -0.0497097820613292),
        (DRUDE, 1.0, 0.001, -1, 0.014891081873151503),
        (DRUDE, 1.0, 1e-06, +1, 0.014691071727002025),
        (DRUDE, 1.0, 1e-07, +1, 0.014691251727189584),
        (DRUDE, 1.0, 1e-09, -1, 0.014691271927191477),
        (DRUDE, 10.0, 0.3, +1, -0.04921217057354593),
        (DRUDE, 10.0, 0.001, -1, 0.16889223434515802),
        (DRUDE, 10.0, 1e-06, +1, 0.16870707757073208),
        (DRUDE, 10.0, 1e-09, -1, 0.16870727778577624),
        (SUPER_SMALL, 0.1, 0.3, +1, 0.04707619594124242),
        (SUPER_SMALL, 0.1, 0.001, -1, 0.06409209025528215),
        (SUPER_SMALL, 0.1, 1e-06, +1, 0.06411842438805701),
        (SUPER_SMALL, 0.1, 1e-09, -1, 0.06411839936566169),
        (SUPER_SMALL, 1.0, 0.3, +1, 0.018956536348945553),
        (SUPER_SMALL, 1.0, 0.001, -1, 0.014345716398259814),
        (SUPER_SMALL, 1.0, 1e-05, +1, 0.01437107678420615),
        (SUPER_SMALL, 1.0, 1e-06, +1, 0.01437085180367708),
        (SUPER_SMALL, 1.0, 1e-09, -1, 0.014370826778917361),
        (SUPER_SMALL, 10.0, 0.3, +1, 0.019557139810154046),
        (SUPER_SMALL, 10.0, 0.001, -1, 0.012499858103165595),
        (SUPER_SMALL, 10.0, 1e-06, +1, 0.012524818714103469),
        (SUPER_SMALL, 10.0, 1e-09, -1, 0.01252479368905238),
        (OHMIC_SMALL, 0.1, 0.001, +1, -3.160005438418915),
        (OHMIC_SMALL, 0.1, 1e-05, -1, -5.461199454244862),
        (OHMIC_SMALL, 0.1, 1e-06, +1, -6.612517619490324),
        (OHMIC_SMALL, 1.0, 0.001, -1, -0.26066042739604006),
        (OHMIC_SMALL, 1.0, 1e-05, +1, -0.4923062814475042),
        (OHMIC_SMALL, 1.0, 1e-06, +1, -0.607415412072619),
        (OHMIC_SMALL, 10.0, 0.001, +1, 0.17271662288978687),
        (OHMIC_SMALL, 10.0, 1e-05, -1, 0.15110445372169082),
        (OHMIC_SMALL, 10.0, 1e-06, +1, 0.13956591253244283),
        (OHMIC_SMALL, 0.1, 1e-08, +1, -8.91510000150836),
        (OHMIC_SMALL, 0.1, 1e-10, -1, -11.217685057356501),
        (OHMIC_SMALL, 0.1, 1e-12, +1, -13.520270150815032),
        (OHMIC_SMALL, 1.0, 1e-08, +1, -0.8376712103967858),
        (OHMIC_SMALL, 1.0, 1e-10, -1, -1.067929682550287),
        (OHMIC_SMALL, 1.0, 1e-12, +1, -1.2981881923141751),
        (OHMIC_SMALL, 10.0, 1e-08, +1, 0.11654277261308538),
        (OHMIC_SMALL, 10.0, 1e-10, -1, 0.09351695882905256),
        (OHMIC_SMALL, 10.0, 1e-12, +1, 0.07049110743462864),
    ])
    def test_frozen_fifty_digit_small_frequency_values(self, J, beta, r, sign, expected):
        got = bath.d_beta_deriv.__wrapped__(J, beta, sign * r * J.scale())
        assert abs(got - expected) <= 1e-13 * max(1.0, abs(expected))

    @settings(max_examples=15, deadline=None)
    @given(case=_tabulated_finite_part_stack())
    @example(case=(_table(1, 1.0, 0.0, 16, 2.0), 1.0, (0.17777777777777778, 0.7111274852380635)))
    def test_tabulated_matches_cauchy_reference(self, case):
        # the knots are cell edges, and no QUADPACK call is made. Measured
        # within 1e-11 max(1, |D'|) over 758 random poles, and within 6.9e-11
        # over 1529 poles 1e-7 to 1e-1 (relative) from a knot of 48 tables at
        # beta = 0.1 to 10, where the reference was the one off (6.5e-11
        # against 40 digits). The example sits 2.3e-5 above the knot
        # 0.7111: by second differences of S it was 1.4e-10 off
        tab, beta, stack = case

        def refuse(*args, **kwargs):
            raise AssertionError("QUADPACK on a tabulated stack")

        with mock.patch.object(bath, "quad", refuse):
            got = bath.d_beta_deriv.__wrapped__(tab, beta, stack)
        for w, g in zip(stack, got):
            ref = _cauchy_finite_part(tab, beta, w)
            assert abs(g - ref) <= 1e-10 * max(1.0, abs(ref))

    # 40-digit values of the finite part of a _table (mpmath, the spline's own
    # cubics); on the first a quad over each piece of x was off by 1.3e-10
    @pytest.mark.parametrize("table, beta, w, expected", [
        ((1, 1.0, 0.3, 33, 1.25), 0.2, 0.026, -1.8412570300843431408),
        ((1, 1.0, 0.3, 34, 1.4), 1.0, -0.012, -0.32753486787248817002),
        ((3, 1.0, 0.0, 20, 1.5), 3.0, 2.2, -0.36355944114279915696),
    ])
    def test_tabulated_frozen_forty_digit_values(self, table, beta, w, expected):
        # measured within 2e-13
        got = bath.d_beta_deriv.__wrapped__(_table(*table), beta, w)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("table, knot", [("fine", 33), ("fine", 5), ("coarse", 1)])
    @pytest.mark.parametrize("offset", [2.2e-16, -2.2e-16, 1e-9, 2e-6, -2e-6, 1e-4])
    def test_tabulated_next_to_a_knot(self, table, knot, offset):
        # a pole within 1e-12 a of a knot is no cell edge, and one further off
        # cuts a knot cell short. Measured within 3.4e-12 at beta = 0.3 and 3
        # (a finite part by second differences of S raised on 16 of these 18)
        tab = TAB_OHMIC if table == "fine" else _table(1, 1.0, 0.0, 16, 1.0)
        w = tab.omegas[knot] * (1 + offset)
        ref = _cauchy_finite_part(tab, 0.3, w)
        assert abs(bath.d_beta_deriv.__wrapped__(tab, 0.3, w) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_cauchy_reference_next_to_a_kink(self):
        # the QAWC piece around omega used to end on the kink at 0.3 and read
        # 0.047936169063 (2.5e-8 off); the 30-digit value of the spline's cubics
        tab = _table(3, 2.0, 0.3, 24, 1.5)
        assert 0.3 in tab.kinks
        ref = _cauchy_finite_part(tab, 1.0, 0.3 * (1 + 1e-6))
        assert abs(ref - 0.047936143996) <= 1e-11

    def test_tabulated_kink_raises(self):
        # the slope of J jumps at the first grid point above 0, so S has a
        # kink there and D' diverges as log|omega - w0|
        tab = _table(1, 1.0, 0.3, 16, 1.0)
        assert tab.kinks[0] == 0.3
        for w in (0.3, -0.3, 0.3 * (1 + 1e-12)):
            with pytest.raises(bath.BathIntegrationError, match="did not converge"):
                bath.d_beta_deriv.__wrapped__(tab, 1.0, w)
        near = [bath.d_beta_deriv.__wrapped__(tab, 1.0, 0.3 * (1 + d)) for d in (1e-4, 1e-6)]
        assert near[1] < near[0] < 0.0  # the log growth, here downwards

    def test_discrete_bath_sums_the_stack(self):
        stack = (0.3, -2.0, 5.5)
        got = bath.d_beta_deriv.__wrapped__(DISCRETE, 1.0, stack)
        for w, g in zip(stack, got):
            assert g == pytest.approx(_ref_discrete_d_beta_deriv(DISCRETE, 1.0, w), rel=1e-14)
