"""Spectral densities and bath-derived scalar functions.

Covers the correlation function G(t), its half-Fourier coefficients
Gamma_m(t), the principal-value integral D_beta, and reorganization
energies. Everything is in natural units (hbar = k_B = 1).

The bath enters only through J(w)/w and the thermal spectrum S of
_thermal_spectrum. A continuous density is its J/w (J = w J/w is derived); a
discrete bath is the atoms (nu, s) of S, and each integral over S is a sum:
D_beta(w) = w sum s/(nu (nu - w)), D_beta' = sum s/(nu - w)^2,
G(t) = sum s e^(-i nu t) and Gamma_m(t) = sum s Phi(-(nu + omega_m), t).

Convention: G(t) and Gamma_m exclude the dimensionless coupling lambda;
the master-equation generators multiply their dissipators by lambda^2
explicitly. Eigenoperators satisfy [H_S, X_m] = +omega_m X_m, and
Gamma_m(t) = int_0^t dr e^(-i omega_m r) G(r), so for omega_m > 0 the rate
2 Re Gamma_m is an absorption rate proportional to the Bose factor n(omega_m).

Finite-time Gamma_m(t) is one frequency-domain integral for every bath,

    Gamma_m(t) = int_0^inf J(w) [(n(w) + 1) Phi(-(w + omega_m), t)
                                 + n(w) Phi(w - omega_m, t)] dw,
    Phi(x, t) = int_0^t e^(i x r) dr = (e^(i x t) - 1)/(i x),

a sum over the atoms of S for a discrete bath and a quadrature for a
continuous J (see gamma_m); G(r) is not needed.

Every principal-value integral over a continuous J, the Lamb shift
Im Gamma_m(infinity), D_beta and D_beta', the oscillator self-energy in
clexact and the reorganization energy (a pole at 0), is
PV int_0^inf h(w)/(w^2 - a^2) dw, evaluated by principal_value over a stack
of poles a at once. It subtracts h(a), which leaves a regular integrand, and
sums it by fixed Gauss-Legendre rules of order 20 and 10, their difference
the error estimate (Davis & Rabinowitz, Methods of Numerical Integration),
over each pole's own cells (_graded_rule on the engine _cell_sum), bisected
until each is narrow beside its distance from the singularities of the
integrand. For an analytic J they are [0, a] and [a, a + 16 scale], plus the
tail w = X/t. A J with knots (Tabulated: J a cubic between its knots, 0
beyond the last one W) has its knots as cell edges up to W, and the tail
beyond W in closed form.

With the thermal spectrum S of _thermal_spectrum, Im Gamma(infinity) and
D_beta are one integral:

    D_beta(omega) = PV int S(nu)/(nu - omega) dnu - int_0^inf J(w)/w dw
                  = -Im Gamma_{-omega}(infinity) - int_0^inf J(w)/w dw,

and D_beta'(omega) = PV int S'(nu)/(nu - omega) dnu, S' taking a jump of S
(to 0 past +-W for a Tabulated J) as a delta function. Folded onto nu = +-w,
it is the principal value above at a = |omega| with
h(w) = S'(w) (w + omega) - S'(-w) (w - omega). Where S' jumps, at nu = 0 for
Ohmic-class J (J/w with a slope at 0) and at the kinks of a Tabulated J,
D_beta' diverges as log|omega - nu|.

QUADPACK is left for G(t) (corr_fn, _osc_quad) and finite-time Gamma_m(t)
(its Fourier rules), and for the oscillator's correlation in clexact. Every
QUADPACK call goes through quad, which imports scipy.integrate on first use.

gamma_m, d_beta and d_beta_deriv are memoized per process on their
arguments (the spectral densities are frozen dataclasses), and take a float
or a tuple of frequencies; a tuple gives a read-only array.

QUADPACK calls an integrand once per node with a Python float. The functions
evaluated at nodes (j_over_omega, _thermal_spectrum, coth, _phase_integral)
take a Python float and return one (a complex from _phase_integral), computed
with math; an array goes through numpy. A density writes its J/w once, for
either library (_backend), so the two paths agree to rounding. A Spline (the
not-a-knot cubic of a Tabulated J and of the oscillator's Re Sigma) gives a
float the bits it gives the same point in an array: it bisects into the
knots and sums the cell's cubic in plain floats, in the array path's order.
"""

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

ASYMPTOTIC = "asymptotic"
HBAR = 1.054571817e-34  # J s, for tables and scenarios in SI units

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-8, limit=400)
_FOURIER_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
_TINY = np.finfo(float).tiny  # the smallest normal float
_EPS = np.finfo(float).eps
# the cell rule: the order-20 Gauss-Legendre sum, the order-10 one its error estimate
(_X10, _W10), (_X20, _W20) = (np.polynomial.legendre.leggauss(n) for n in (10, 20))
_CELL_NODES = np.concatenate([_X10, _X20])
_CELL_BLOCK = 1 << 14  # points per h call of the cell rules, bounding their memory


class BathIntegrationError(RuntimeError):
    """A bath quadrature failed to produce a finite value."""


class BathDivergenceError(ValueError):
    """The requested bath integral diverges for this spectral density."""


def _backend(x):
    """(math, x) for a float, as QUADPACK passes its nodes; else (numpy, array)."""
    if isinstance(x, float):  # also np.float64
        return math, x
    return np, np.asarray(x, dtype=float)


def coth(x):
    """Stable coth for positive arguments (series below 1e-4)."""
    if isinstance(x, float):
        return 1.0 / x + x / 3.0 if abs(x) < 1e-4 else 1.0 / math.tanh(x)
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0,
                   1.0 / np.tanh(safe))
    return out if out.ndim else float(out)


def _w_coth(w, beta):
    """w coth(beta w/2), elementwise, smooth through w = 0."""
    x = beta * np.asarray(w, dtype=float) / 2.0
    small = np.abs(x) < 1e-4
    return (2.0 / beta) * np.where(small, 1.0 + x * x / 3.0,
                                   x / np.tanh(np.where(small, 1.0, x)))


def bose(omega, beta):
    """Bose occupation 1/(e^(beta*omega) - 1); omega > 0."""
    return 1.0 / np.expm1(beta * np.asarray(omega, dtype=float))


class Spline:
    """The not-a-knot cubic spline through (x, y), x ascending with n >= 4
    points: bit for bit scipy.interpolate.CubicSpline(x, y), whose banded
    system, solve and Hermite coefficients it repeats. c[:, i] is the cubic of
    cell i in d = w - x_i, highest power first; the end cells extrapolate.

    A Python float (a QUADPACK node) bisects into the knots and sums its
    cell's cubic in plain floats; an array gathers its cells. Both sum in
    scipy's order, c3 + c2 d + c1 d^2 + c0 (d^2 d), from which Horner's rule
    would differ by up to 3 ulp.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if x.ndim != 1 or y.shape != x.shape or n < 4:
            raise ValueError("a not-a-knot spline needs matching 1-d grids of at least 4 points")
        dx = np.diff(x)
        if not (np.isfinite(x).all() and np.isfinite(y).all() and (dx > 0).all()):
            raise ValueError("a spline needs finite values on a finite, ascending grid")
        slope = np.diff(y) / dx
        # the tridiagonal system for the slopes s_i, banded, and not-a-knot at both ends
        A = np.zeros((3, n))
        b = np.empty(n)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        A[1, 0] = dx[1]
        A[0, 1] = d = x[2] - x[0]
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        A[1, -1] = dx[-2]
        A[-1, -2] = d = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = scipy.linalg.solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
                                      check_finite=False)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        self._inner = x[1:-1]

    @functools.cached_property
    def _lists(self):
        """The knots and the cells' coefficients as Python floats, for the float path."""
        return self.x.tolist(), self.c.T.tolist()

    def cell(self, w):
        """The cell of each point of the float array w: how many inner knots are <= it."""
        return np.searchsorted(self._inner, w, "right")

    def __call__(self, w):
        if isinstance(w, float):  # also np.float64
            knots, cells = self._lists
            i = min(max(bisect.bisect_right(knots, w), 1), len(cells)) - 1
            c3, c2, c1, c0 = cells[i]
            d = w - knots[i]
            d2 = d * d
            return c0 + c1 * d + c2 * d2 + c3 * (d2 * d)
        w = np.asarray(w, dtype=float)
        i = self.cell(w)
        c3, c2, c1, c0 = self.c
        d = w - self.x.take(i)
        d2 = d * d
        return c0.take(i) + c1.take(i) * d + c2.take(i) * d2 + c3.take(i) * (d2 * d)


def piecewise_roots(x, c) -> np.ndarray:
    """The real roots, sorted and distinct, of the piecewise cubic c (as in
    Spline.c) on its cells [x_i, x_(i+1)], as PPoly(c, x).roots(extrapolate=
    False), except that a cell where the cubic vanishes identically gives none.

    Each cell is cut at the critical points of its cubic into pieces where the
    cubic is monotone. An end of a piece is a root where the cubic there lies
    within 8 eps sum |c_k d^k| (Horner's rule rounds by at most 6 eps times
    that sum: Higham, Accuracy and Stability of Numerical Algorithms, 5.1)
    plus its slope times the tolerance tol = 4 eps (|x_i| + h) on positions;
    a piece whose ends differ in sign holds one, found to within tol by
    Newton steps kept inside its bracket, bisection where they leave it. Each
    cell's coefficients are scaled by a power of 2 so that no square
    underflows."""
    x = np.asarray(x, dtype=float)
    keep = (c != 0).any(axis=0)
    lo_x, hi_x, h = x[:-1][keep], x[1:][keep], np.diff(x)[keep]
    a3, a2, a1, a0 = np.ldexp(c[:, keep], -np.frexp(np.abs(c[:, keep]).max(axis=0))[1])
    tol = 4 * _EPS * (np.abs(lo_x) + h)

    def cubic(d, k):
        return ((a3[k] * d + a2[k]) * d + a1[k]) * d + a0[k]

    def slope(d, k):
        return (3 * a3[k] * d + 2 * a2[k]) * d + a1[k]

    # the roots of the derivative 3 a3 d^2 + 2 a2 d + a1, as q/(3 a3) and a1/q
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(a2 + np.copysign(np.sqrt(a2 * a2 - 3 * a3 * a1), a2))
        crit = np.stack([q / (3 * a3), a1 / q])
    crit = np.where((crit > 0) & (crit < h), crit, h)  # NaN and the rest: the cell's end
    ends = np.sort(np.vstack([np.zeros_like(h), crit, h]), axis=0)  # (4, cells)
    cells = np.arange(h.size)
    value = cubic(ends, cells)
    rounding = 8 * _EPS * (((np.abs(a3) * ends + np.abs(a2)) * ends + np.abs(a1)) * ends
                           + np.abs(a0)) + np.abs(slope(ends, cells)) * tol
    sign = np.where(np.abs(value) <= rounding, 0.0, np.sign(value))
    at = np.where(ends == h, hi_x, np.minimum(lo_x + ends, hi_x))
    found = [at[sign == 0]]
    piece, k = np.nonzero(sign[:-1] * sign[1:] < 0)
    lo, hi, side = ends[piece, k], ends[piece + 1, k], sign[piece, k]
    d = (lo + hi) / 2
    for _ in range(100):
        f = cubic(d, k)
        below = np.sign(f) == side
        lo, hi = np.where(below, d, lo), np.where(below, hi, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = d - f / slope(d, k)
        new = np.where(f == 0, d, np.where((lo < step) & (step < hi), step, (lo + hi) / 2))
        settled = (np.abs(new - d) <= tol[k]) | (hi - lo <= tol[k])
        d = new
        if settled.all():
            break
    found.append(np.minimum(lo_x[k] + d, hi_x[k]))
    return np.unique(np.concatenate(found))


# ---------------------------------------------------------------------------
# spectral density variants
# ---------------------------------------------------------------------------


class SpectralDensity:
    """A continuous density is its J(omega)/omega: subclasses implement
    j_over_omega(), its slope j_over_omega_slope() (for D_beta') and scale(),
    and J is derived. A discrete bath (DiscreteModes) is the atoms of its
    thermal spectrum instead."""

    discrete = False
    knots = ()  # the cell edges of a piecewise J (Tabulated), for principal_value

    def j(self, omega):
        """J(omega) = omega * J(omega)/omega."""
        return omega * self.j_over_omega(omega)

    def j_over_omega(self, omega):
        """J(omega)/omega with its analytic omega -> 0 limit."""
        raise NotImplementedError

    def scale(self) -> float:
        """Characteristic cutoff frequency used to place quadrature nodes."""
        raise NotImplementedError


@dataclass(frozen=True)
class OhmicExp(SpectralDensity):
    """J(omega) = gamma * omega * exp(-omega/omega_c); gamma dimensionless."""

    gamma: float
    omega_c: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_c <= 0:
            raise ValueError("need gamma >= 0 and omega_c > 0")

    def j_over_omega(self, omega):
        xp, w = _backend(omega)
        return self.gamma * xp.exp(-w / self.omega_c)

    def j_over_omega_slope(self, omega):
        """d(J/w)/dw at an array of points w >= 0."""
        return -self.gamma / self.omega_c * np.exp(-np.asarray(omega, dtype=float) / self.omega_c)

    def scale(self):
        return self.omega_c


@dataclass(frozen=True)
class SuperOhmicCubic(SpectralDensity):
    """J(omega) = (gamma/2) * (omega^3/omega_c^3) * exp(-omega/omega_c)."""

    gamma: float
    omega_c: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_c <= 0:
            raise ValueError("need gamma >= 0 and omega_c > 0")

    def j_over_omega(self, omega):
        xp, w = _backend(omega)
        u = w / self.omega_c
        return 0.5 * self.gamma * u * u * xp.exp(-u) / self.omega_c

    def j_over_omega_slope(self, omega):
        """d(J/w)/dw at an array of points w >= 0."""
        u = np.asarray(omega, dtype=float) / self.omega_c
        return 0.5 * self.gamma * u * (2 - u) * np.exp(-u) / self.omega_c**2

    def scale(self):
        return self.omega_c


@dataclass(frozen=True)
class DrudeLorentz(SpectralDensity):
    """J(omega) = (2 gamma omega_D / pi) * omega omega_D / (omega^2 + omega_D^2)."""

    gamma: float
    omega_d: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_d <= 0:
            raise ValueError("need gamma >= 0 and omega_d > 0")

    def j_over_omega(self, omega):
        _, w = _backend(omega)  # w * w: a float's w**2 raises OverflowError
        return (2 * self.gamma * self.omega_d**2 / math.pi) / (w * w + self.omega_d**2)

    def j_over_omega_slope(self, omega):
        """d(J/w)/dw at an array of points w >= 0."""
        w = np.asarray(omega, dtype=float)
        return (-4 * self.gamma * self.omega_d**2 / math.pi) * w / (w * w + self.omega_d**2) ** 2

    def scale(self):
        return self.omega_d


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Cubic-spline interpolation of sampled (omega, J) pairs.

    Below the first grid point J is linear through the origin (Ohmic-class
    small-omega behaviour); above the last grid point J is zero. On a grid
    starting at 0, J(0) = 0: J(0) above 1e-12 max J is rejected (J/w would
    diverge) and below it is stored as 0, so spline(w)/w loses no digits as
    w -> 0. Grids whose tail has not decayed are rejected by
    reorganization_energy.

    J/w is smooth between its knots, the grid and the points inside it where
    the spline crosses 0 (J is clipped to 0 there), and 0 beyond the grid;
    the knots are the edges of principal_value's cells. Of them, J/w is not
    smooth at its kinks, the roots, the last grid point and the first (at 0,
    where J/w, a function of |w|, has the spline's slope), and there the S'
    of d_beta_deriv jumps and D_beta' diverges.
    """

    omegas: tuple
    values: tuple
    # built once from omegas/values; not part of eq, hash or repr
    _cubic: Spline = field(init=False, repr=False, compare=False)
    _slope0: float = field(init=False, repr=False, compare=False)  # J(w0)/w0, or J'(0) if w0 = 0
    knots: tuple = field(init=False, repr=False, compare=False)
    kinks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != v.shape or len(w) < 4:
            raise ValueError("need matching 1-d grids with at least 4 points")
        if (np.diff(w) <= 0).any() or w[0] < 0:
            raise ValueError("omega grid must be ascending and nonnegative")
        if (v < -1e-12 * max(1.0, v.max())).any():
            raise ValueError("J(omega) must be nonnegative")
        if w[0] == 0 and v[0] > 1e-12 * v.max():
            raise ValueError("J(0) must be 0 on a grid starting at 0 (J/omega diverges)")
        v = np.clip(v, 0.0, None) * (w > 0)  # J(0) = 0
        object.__setattr__(self, "omegas", tuple(w.tolist()))  # plain floats for the float path
        object.__setattr__(self, "values", tuple(v.tolist()))
        cubic = Spline(w, v)
        object.__setattr__(self, "_cubic", cubic)
        roots = piecewise_roots(w, cubic.c)
        object.__setattr__(self, "knots", tuple(np.union1d(w, roots).tolist()))
        # J jumps to 0 at the last grid point; its slope jumps at the roots and
        # the first (> 0), and at 0 the J'' of its odd continuation jumps
        kinks = np.union1d(roots, w[[0, -1]])
        object.__setattr__(self, "kinks", tuple(kinks.tolist()))
        object.__setattr__(self, "_slope0", float(
            v[0] / w[0] if w[0] > 0 else max(cubic.c[2, 0], 0.0)))  # the slope at 0

    def _spline(self):
        return self._cubic

    def j_over_omega(self, omega):
        """spline(w)/w on the grid, 0 above it, and at or below its first point
        (or a subnormal w, where spline(w) underflows) _slope0. A float takes
        the spline's float path; an array takes one spline call on its points."""
        lo, hi = self.omegas[0] or _TINY, self.omegas[-1]
        if isinstance(omega, float):  # also np.float64
            if omega <= lo:
                return self._slope0
            if omega > hi:
                return 0.0
            return max(self._cubic(omega), 0.0) / omega
        w = np.asarray(omega, dtype=float)
        inside = (w > lo) & (w <= hi)
        x = np.where(inside, w, hi)
        return np.where(inside, np.maximum(self._cubic(x), 0.0) / x,
                        np.where(w > hi, 0.0, self._slope0))

    def j_over_omega_slope(self, omega):
        """d(J/w)/dw at an array of points: (J' w - J)/w^2, its numerator
        summed as a cubic in t = w - w_i on the cell [w_i, w_(i+1)], so that
        J' w and J do not cancel to rounding, and each of its terms divided by
        w before it is summed, in powers of t/w, so that no w^2 or t^2
        underflows (on the first cell of a grid from 0, t/w = 1 and the slope
        is the spline's t^2 coefficient plus 2 t its t^3 one). 0 where J/w is
        constant: at or below the first point and above the grid. Where the
        spline is clipped to 0 the caller zeroes it."""
        cubic = self._cubic
        lo, hi = self.omegas[0] or _TINY, self.omegas[-1]
        w = np.asarray(omega, dtype=float)
        inside = (w > lo) & (w <= hi)
        x = np.where(inside, w, hi)
        i = cubic.cell(x)
        p, (c3, c2, c1, c0) = cubic.x[i], cubic.c[:, i]  # J = c0 + c1 t + c2 t^2 + c3 t^3
        t = x - p
        r = t / x
        slope = (c1 * p - c0) / x / x + r * (2 * c2 * p / x + r * ((c2 + 3 * c3 * p) + t * 2 * c3))
        return np.where(inside, slope, 0.0)

    def scale(self):
        w = np.asarray(self.omegas)
        v = np.asarray(self.values)
        return float(w[np.argmax(v)]) or float(w[-1] / 4)

    def check_tail(self):
        v = np.asarray(self.values)
        if v[-1] > 1e-3 * v.max():
            raise BathDivergenceError(
                "tabulated spectral density tail has not decayed; "
                "semi-infinite bath integrals are unreliable"
            )


@dataclass(frozen=True)
class DiscreteModes(SpectralDensity):
    """Delta-comb spectral density sum_k |g_k|^2 delta(omega - omega_k).

    It enters every bath integral as the atoms of its thermal spectrum
    (atoms); pointwise evaluation of J(omega) is undefined and rejected.
    """

    modes: tuple  # of (omega_k, |g_k|^2)

    discrete = True

    def __post_init__(self):
        modes = tuple((float(w), float(g2)) for w, g2 in self.modes)
        if not modes or any(w <= 0 or g2 < 0 for w, g2 in modes):
            raise ValueError("modes need omega_k > 0 and |g_k|^2 >= 0")
        object.__setattr__(self, "modes", modes)

    def arrays(self):
        m = np.asarray(self.modes, dtype=float)
        return m[:, 0], m[:, 1]

    def j_over_omega(self, omega):
        raise ValueError("pointwise J(omega) is undefined for a discrete mode set")

    def atoms(self, beta, poles=()):
        """The atoms (nu, s) of the thermal spectrum S(x) = sum s delta(x - nu):
        nu = omega_k with s = |g_k|^2 (n + 1), nu = -omega_k with s = |g_k|^2 n.
        Raises BathIntegrationError when a pole lies within 1e-12 of an atom."""
        w, g2 = self.arrays()
        n = bose(w, beta)
        nu, s = np.concatenate([w, -w]), np.concatenate([g2 * (n + 1), g2 * n])
        if (np.abs(nu - np.reshape(poles, (-1, 1))) < 1e-12).any():
            raise BathIntegrationError("omega_m collides with a discrete bath mode")
        return nu, s


@dataclass(frozen=True)
class BathParams:
    J: SpectralDensity
    beta: float
    lam: float

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta <= 0:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


def load_tabulated(path, si_reference_energy=None) -> Tabulated:
    """Load a two-column CSV of (omega, J(omega)).

    A header comment line `# units: si|natural` declares the unit system.
    SI rows are rad/s and are converted with the time unit hbar/E_ref.
    A file that cannot be read, or a row without two numbers, raises
    ValueError naming the file (and the line).
    """
    units = "natural"
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read tabulated spectral density {path}: "
                         f"{exc.strerror or exc}") from None
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip().lower()
                if body.startswith("units:"):
                    units = body.split(":", 1)[1].strip()
                continue
            parts = line.replace(",", " ").split()
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (IndexError, ValueError):
                raise ValueError(f"{path}, line {lineno}: need two numbers "
                                 f"(omega, J), got {line!r}") from None
    if units not in ("si", "natural"):
        raise ValueError(f"unknown unit declaration {units!r}")
    w = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    if units == "si":
        if si_reference_energy is None:
            raise ValueError("SI tabulated data needs a reference energy in joules")
        t_unit = HBAR / si_reference_energy
        w = w * t_unit
        v = v * t_unit
    return Tabulated(tuple(w), tuple(v))


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def quad(f, a, b, **opts):
    """scipy.integrate.quad, imported on the first call: a run that makes no
    QUADPACK call does not load scipy.integrate."""
    from scipy.integrate import quad as quadpack

    return quadpack(f, a, b, **opts)


def _quad(f, a, b, **opts):
    """quad, its IntegrationWarning silenced: (value, error estimate)."""
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, a, b, **opts)


def _converged(value, err, rule, epsabs=_QUAD_OPTS["epsabs"], epsrel=_QUAD_OPTS["epsrel"]):
    """value after raising BathIntegrationError unless it is finite and its
    error estimate err is within max(epsabs, epsrel |value|), elementwise. A
    rule that stops refining (QUADPACK at its subdivision limit) returns an
    estimate above that tolerance: a failure, not a number."""
    if not np.isfinite(value).all():
        raise BathIntegrationError(f"{rule} returned {value}")
    if (err > np.maximum(epsabs, epsrel * np.abs(value))).any():
        raise BathIntegrationError(
            f"{rule} did not converge (error estimate {np.max(err):.2e})")
    return value


def checked_quad(f, a, b, **opts):
    """scipy quad through _converged at its own epsabs and epsrel. QAWF (a
    weight over [a, inf)) takes no epsrel."""
    val, err = _quad(f, a, b, **opts)
    return _converged(val, err, f"quadrature over [{a}, {b}]",
                      opts["epsabs"], opts.get("epsrel", 0.0))


def principal_value(h, a, scale, knots=(), delta=None):
    """PV int_0^inf h(w)/(w^2 - a^2) dw for a stack of poles a >= 0, by fixed
    Gauss-Legendre sums over each pole's own graded cells (_graded_rule); the
    result has the shape of a, a float for a scalar a.

    h(w, k) is h at points w of the poles k, an index array into the stack
    that broadcasts against w, so h takes a per-pole constant c as c[k].
    Subtracting h(a) leaves a regular integrand, as PV int dw/(w^2 - a^2) = 0.
    delta (default scale) is the distance of the singularities of h from the
    real axis, as min(2 pi/beta, scale) for coth(beta w/2). knots (those of a
    Tabulated J) are where h is only piecewise smooth: h is smooth between
    them and 0 beyond the last one, and they become cell edges.
    """
    a = np.asarray(a, dtype=float)
    if (a < 0).any():
        raise ValueError("need a >= 0")
    poles = np.where(a < _TINY, 0.0, a).reshape(-1)  # a subnormal pole's cells underflow
    if not poles.size:
        return np.zeros(a.shape)
    pv = _graded_rule(h, poles, scale, scale if delta is None else delta, knots)
    return pv.reshape(a.shape) if a.ndim else float(pv[0])


def _graded_rule(h, poles, scale, delta, knots):
    """principal_value for an (M,) stack of poles by _cell_sum. Pole a's cells
    are [0, a] and [a, a + 16 scale] plus the tail w = X/t for an analytic h;
    with knots they lie between 0, the knots and a up to the last knot W, and
    the tail -h(a) int_W^inf dw/(w^2 - a^2) is closed form. Each is bisected
    to a half-width of at most 2/3 of its reach, the least of hypot(mid,
    delta) (h's singularities at +-i delta) and max(|mid - a|, delta)
    (h(w) - h(a) cancels the pole at a), but 3/4 |mid - a| on knot cells not
    next to a, whose cubics reach other values at a, and also 3/4 mid above
    the first knot cell, where the cubic over w has a pole at 0: at a small a
    the three poles merge into one of order 3, whose order-10 sum fell short
    of the tolerance at 2/3. The pole at -a, removable at a = 0, bounds the
    half-width by (mid + a)/3: h(w) - h(a) does not cancel it, and the two
    branches S'(w) and S'(-w) of D_beta' make it a full pole, on which a
    bound of 2 (mid + a)/3 fell short of the tolerance (OhmicExp(0.2, 3),
    beta = 1, omega from -0.409 to -0.4634)."""
    m = poles.size
    ha = h(poles, np.arange(m))
    if not len(knots):
        far = poles + 16 * scale
        rows = np.column_stack([np.zeros(m), poles, far])
        near_lo, near_hi, first, tail = np.zeros(m), np.full(m, np.inf), np.inf, None
    else:
        W = float(knots[-1])
        if (poles == W).any():
            raise BathIntegrationError(
                f"a pole at the last knot {W} of a piecewise h: the principal value diverges")
        edges = np.union1d(0.0, knots)
        # the knot cells next to a, and where the first one ends
        near_lo = edges[np.maximum(np.searchsorted(edges, poles) - 1, 0)]
        near_hi = np.append(edges, np.inf)[np.searchsorted(edges, poles, side="right")]
        first, far = edges[1], np.full(m, W)
        # a is an edge unless a knot lies within 1e-12 a: the nodes between would round onto a
        close = np.minimum(poles - near_lo, near_hi - poles) < 1e-12 * poles
        rows = np.column_stack([np.tile(edges, (m, 1)), np.where(close, 0.0, np.minimum(poles, W))])
        # int_W^inf dw/(w^2 - a^2) = ln|(W + a)/(W - a)|/(2a) = (ln(1 + u)/u)
        # (min(a, W)/a)/|W - a| with u = 2 min(a, W)/|W - a|, 1/W at a = 0
        span = np.abs(W - poles)
        u = 2.0 * np.minimum(poles, W) / span
        log_ratio = np.where(u > 0, np.log1p(u) / np.where(u > 0, u, 1.0), 1.0)
        tail = -ha * log_ratio * (W / np.maximum(poles, W)) / span
    lo, hi, pole = _edge_cells(rows)

    def bound(mid, k):
        a = poles[k]
        gap = np.abs(mid - a)
        beside = (near_lo[k] <= mid) & (mid <= near_hi[k])
        reach = np.minimum(np.hypot(mid, delta),
                           np.where(beside, np.maximum(gap, delta), 0.75 * gap))
        reach = np.where(mid > first, np.minimum(reach, 0.75 * mid), reach)
        return np.where(a > 0, np.minimum(2 * reach, mid + a), 2 * reach) / 3

    def integrand(w, dw, k):
        a = poles[k]
        return (h(w, k) - ha[k]) / (w - a) / (w + a) * dw

    return _cell_sum(lo, hi, pole, far, bound, integrand, "graded cell rule", tail)


def _cell_sum(lo, hi, pole, far, bound, integrand, rule, tail=None):
    """The graded-cell engine: for each pole k of a stack, the integral over
    its cells [lo, hi] (pole[i] is cell i's pole), each bisected until its
    half-width is at most bound(mid, pole), plus its tail beyond far[k]: tail[k]
    when given in closed form, else x = far[k]/t summed over two cells of t in
    (0, 1]. integrand(x, dx, k) is the integrand times dx at nodes x (nodes,
    cells) of the poles k. Nodes go in blocks of _CELL_BLOCK; each cell's node
    sum and each pole's cell sum runs in a fixed order, so a pole's value does
    not depend on the rest of the stack. Its error estimate for _converged is
    the order-20 less the order-10 sum."""
    cells = []
    while lo.size:
        half = (hi - lo) / 2
        mid = lo + half
        wide = half > bound(mid, pole)
        cells.append((mid[~wide], half[~wide], pole[~wide]))
        lo, hi = np.concatenate([lo[wide], mid[wide]]), np.concatenate([mid[wide], hi[wide]])
        pole = np.concatenate([pole[wide], pole[wide]])
    body = [np.concatenate(c) for c in zip(*cells)]
    n = far.size if tail is None else 0  # the poles whose tail x = far/t is summed
    rest = [np.repeat([0.25, 0.75], n), np.full(2 * n, 0.25), np.tile(np.arange(n), 2)]
    step = max(1, _CELL_BLOCK // len(_CELL_NODES))
    low, high = [], []
    for in_tail, (mid, half, pole) in enumerate((body, rest)):
        for c in range(0, mid.size, step):
            m, d, p = mid[c:c + step], half[c:c + step], pole[c:c + step]
            u = m + d * _CELL_NODES[:, None]  # x, or t in the tail x = far/t
            f = integrand(far[p] / u, d * far[p] / (u * u), p) if in_tail else integrand(u, d, p)
            low.append(sum(wt * row for wt, row in zip(_W10, f)))
            high.append(sum(wt * row for wt, row in zip(_W20, f[len(_W10):])))
    pole = np.concatenate([body[2], rest[2]])
    low, high = (np.bincount(pole, np.concatenate(s), far.size) for s in (low, high))
    return _converged(high if tail is None else high + tail, np.abs(high - low), rule)


def _edge_cells(edges):
    """The cells between the sorted rows of an (M, n) array of edges, one row
    per pole, as (lo, hi, pole) without the empty ones, each pole's in order."""
    edges = np.sort(edges, axis=1)
    full = edges[:, 1:] > edges[:, :-1]
    return edges[:, :-1][full], edges[:, 1:][full], np.nonzero(full)[0]


def _stacked(values, omega_m):
    """Results for a tuple of frequencies as a read-only array (they are
    memoized), for a single frequency as a Python scalar."""
    if not isinstance(omega_m, tuple):
        return values[0].item()
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# bath functions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def d_beta(J: SpectralDensity, beta: float, omega_m):
    """The principal-value integral D_beta(omega_m).

    D_beta = PV int_0^inf J(w) [ (omega_m coth(beta w/2) + w)/(w^2 - omega_m^2)
                                 - 1/w ] dw; identically zero at omega_m = 0.
    omega_m is a float or a tuple of floats, integrated as one stack of poles
    |omega_m|. Values are memoized per process on (J, beta, omega_m).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    om = np.atleast_1d(np.asarray(omega_m, dtype=float))
    if J.discrete:  # PV int S(nu) [1/(nu - w) - 1/nu] dnu over the atoms
        nu, s = J.atoms(beta, om)
        return _stacked(om * np.sum(s / (nu * (nu - om[:, None])), axis=1), omega_m)

    def h(w, k):  # exactly 0 at omega_m = 0, and so is the integral
        return J.j_over_omega(w) * om[k] * (_w_coth(w, beta) + om[k])

    return _stacked(principal_value(h, np.abs(om), J.scale(), J.knots,
                                    delta=min(2 * math.pi / beta, J.scale())), omega_m)


@functools.lru_cache(maxsize=4096)
def d_beta_deriv(J: SpectralDensity, beta: float, omega_m):
    """dD_beta/d omega_m: a sum over the atoms of S for a discrete bath, else
    one principal_value call for the whole stack (see the module docstring),

        D_beta'(omega) = PV int_0^inf [S'(w) (w + omega) - S'(-w) (w - omega)]
                                      / (w^2 - omega^2) dw,

    plus, for a Tabulated J, -S(W)/(W - omega) - S(-W)/(W + omega) from the
    jumps of S to 0 at +-W, its last knot. Against 50-digit values at beta =
    0.1 to 10 and |omega_m| from 0.3 down to 1e-9 scale (1e-12 for OhmicExp)
    the analytic J are within 5e-16 max(1, |D_beta'|). Where S' jumps, at nu
    = 0 for Ohmic-class J (OhmicExp, a Tabulated J from 0) and at a kink p of
    a Tabulated J, D_beta' ~ c log|omega_m - nu|, and it raises
    BathIntegrationError on the jump itself. Next to p a rounding u of
    omega_m moves D_beta' by about c u/|omega_m - p|: 3e-7 (relative 2e-8) at
    1e-10 (relative) from a kink of a 16-point table.

    omega_m is a float or a tuple of floats; a tuple gives a read-only array.
    Values are memoized per process on (J, beta, omega_m)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    om = np.atleast_1d(np.asarray(omega_m, dtype=float))
    if J.discrete:
        nu, s = J.atoms(beta, om)
        return _stacked(np.sum(s / (nu - om[:, None]) ** 2, axis=1), omega_m)

    def h(w, k):
        up, down = _thermal_slopes(J, beta, w)
        return up * (w + om[k]) - down * (w - om[k])

    pv = principal_value(h, np.abs(om), J.scale(), J.knots,
                         delta=min(2 * math.pi / beta, J.scale()))
    if J.knots:
        W = J.knots[-1]
        s_up, s_down = _thermal_spectrum(J, beta, np.array([W, -W]))
        pv = pv - s_up / (W - om) - s_down / (W + om)
    return _stacked(pv, omega_m)


def _thermal_slopes(J: SpectralDensity, beta: float, w):
    """S'(w) and S'(-w) at an array of w >= 0 from one pair of exponentials,
    e = e^(-x) and E = 1 - e at x = beta w. With m = J/w and B = _bose_ratio,
    S(+-w) = m(w) B(+-x)/beta, and B(-x) = e B(x), so

        S'(w) = m' B/beta + m B',    S'(-w) = e [m (B - B') - m' B/beta],

    B = x/E and B' = (E - x e)/E^2; below x = 0.1, where E - x e cancels,
    their Bernoulli series (the next terms are 2e-8 x^10 and 2e-7 x^9)."""
    m = J.j_over_omega(w)
    dm = np.where(m > 0, J.j_over_omega_slope(w), 0.0)  # 0 where a table is clipped to 0
    x = beta * w
    e, E = np.exp(-x), -np.expm1(-x)
    series = x < 0.1
    s = np.where(series, x, 0.0)
    s2 = s * s
    safe = np.where(series, 1.0, E)
    B = np.where(series,
                 1 + s / 2 + s2 * (1 / 12 - s2 * (1 / 720 - s2 * (1 / 30240 - s2 / 1209600))),
                 x / safe)
    dB = np.where(series, 0.5 + s * (1 / 6 - s2 * (1 / 180 - s2 * (1 / 5040 - s2 / 151200))),
                  (safe - x * e) / (safe * safe))
    tilt = dm * B / beta
    return tilt + m * dB, e * (m * (B - dB) - tilt)


def _bose_ratio(x):
    """x / (1 - e^(-x)), smooth through x = 0 (series below 1e-6)."""
    if isinstance(x, float):  # a QUADPACK node: math, as in _backend
        return 1.0 + x / 2.0 + x * x / 12.0 if abs(x) < 1e-6 else x / -math.expm1(-x)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x / 2.0 + x * x / 12.0, safe / -np.expm1(-safe))


def _thermal_spectrum(J: SpectralDensity, beta: float, nu):
    """S(nu) = J(nu) (n(nu) + 1) with J odd, so that G(r) = int S(nu) e^{-i nu r} dnu.

    S(nu) = J(nu) (n(nu) + 1) for nu > 0 (emission into the bath) and
    J(|nu|) n(|nu|) for nu < 0 (absorption); smooth through nu = 0. nu is a
    float or an array, evaluated by math or numpy as in _backend.
    """
    a = abs(nu)
    s = J.j_over_omega(a) / beta * _bose_ratio(beta * a)
    if isinstance(nu, float):
        return s if nu >= 0 else s * math.exp(-beta * a)
    return np.where(nu >= 0, s, s * np.exp(-beta * a))


def _osc_quad(envelope, t, scale, kind):
    """int_0^inf envelope(w) * cos/sin(w t) dw for decaying envelopes, over
    panels split at scale, 4 scale and 16 scale: a plain quad at t = 0, and
    at t > 0 QUADPACK's Fourier rules (QAWO, and QAWF on the tail; QAWF over
    all of [0, inf] extrapolates over cycles on which the envelope still
    varies, and its estimate can fail to converge where its value is right).
    The four estimates sum to at most 1e-11, the bound of one QAWF."""
    if t == 0.0 and kind == "sin":
        return 0.0
    edges = (0.0, scale, 4 * scale, 16 * scale, np.inf)
    opts = _QUAD_OPTS if t == 0.0 else dict(weight=kind, wvar=t, limit=400,
                                              epsabs=2.5e-12, epsrel=0.0)
    return sum(checked_quad(envelope, lo, hi, **opts) for lo, hi in zip(edges, edges[1:]))


def corr_fn_complex_time(J: SpectralDensity, beta: float, tc: complex) -> complex:
    """G at complex time, valid on the KMS strip -beta <= Im(tc) <= 0.

    Evaluates int J(w) [(n+1) e^(-i w tc) + n e^(i w tc)] dw with every
    exponential factor kept individually bounded on the strip.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    tc = complex(tc)
    tr, ti = tc.real, tc.imag
    if not -beta - 1e-12 <= ti <= 1e-12:
        raise ValueError("Im(t) must lie in [-beta, 0] (KMS strip)")
    ti = min(0.0, max(-beta, ti))
    if J.discrete:
        nu, s = J.atoms(beta)
        return complex(np.sum(s * np.exp(-1j * nu * tc)))
    scale = J.scale()

    def a_env(w):  # J (n+1) e^{w ti}
        return _thermal_spectrum(J, beta, w) * math.exp(w * ti)

    def b_env(w):  # J n e^{-w ti} = J (n+1) e^{-w (beta + ti)}, bounded factors
        return _thermal_spectrum(J, beta, w) * math.exp(-w * (beta + ti))

    re = _osc_quad(lambda w: a_env(w) + b_env(w), tr, scale, "cos")
    im = _osc_quad(lambda w: b_env(w) - a_env(w), tr, scale, "sin")
    return complex(re, im)


def corr_fn(J: SpectralDensity, beta: float, t: float) -> complex:
    """Bath correlation function G(t) (coupling lambda excluded).

    G(t) = int_0^inf J(w) [coth(beta w / 2) cos(w t) - i sin(w t)] dw,
    with G(-t) = conj(G(t)).
    """
    if t < 0:
        return np.conj(corr_fn(J, beta, -t))
    return corr_fn_complex_time(J, beta, float(t))


def _phase_integral(x, t):
    """int_0^t e^{i x r} dr = (e^{i x t} - 1)/(i x), stable at x = 0."""
    arg = x * t / 2.0
    if isinstance(arg, float):  # t e^{i arg} sin(arg)/arg
        sin = math.sin(arg)
        f = t * sin / arg if arg else t
        return complex(f * math.cos(arg), f * sin)
    return t * np.exp(1j * arg) * np.sinc(arg / np.pi)


@functools.lru_cache(maxsize=4096)
def gamma_m(J: SpectralDensity, beta: float, omega_m, t):
    """Half-Fourier coefficient Gamma_m(t) = int_0^t e^{-i omega_m r} G(r) dr.

    In the frequency domain, with Phi(x, t) = int_0^t e^{i x r} dr,

        Gamma_m(t) = int_0^inf J(w) K_m(w, t) dw,
        K_m(w, t) = (n(w) + 1) Phi(-(w + omega_m), t) + n(w) Phi(w - omega_m, t).

    A discrete bath sums s Phi(-(nu + omega_m), t) over the atoms (nu, s) of
    its thermal spectrum. For a continuous J, write
    F(x) = S(x - omega_m) with the thermal spectrum S of _thermal_spectrum
    and fold x -> -x onto x > 0:

        Gamma_m(t) = int_0^inf [A(x) sin(x t) - i B(x) (1 - cos(x t))] dx,
        A = (F(x) + F(-x))/x,  B = (F(x) - F(-x))/x.

    The sinc peak of the kernel lies in its first half period [0, pi/t],
    where the folded kernel F(x) Phi(-x, t) + F(-x) Phi(x, t) is integrated
    as it stands. Beyond it A and B are smooth: QUADPACK's Fourier rules
    (QAWO/QAWF) take sin(x t) and cos(x t), and B alone is a plain integral,
    so the result stays accurate as the peak narrows at large t. A summed
    error estimate above the _QUAD_OPTS tolerance raises BathIntegrationError.

    omega_m is a float or a tuple of floats; a tuple at finite t is one
    quadrature per mode, at ASYMPTOTIC one principal_value call for the stack.

    Pass t = ASYMPTOTIC for Gamma_m(infinity). The real part is
    pi S(-omega_m): pi J n at |omega_m| for raising eigenoperators
    (absorption), pi J (n + 1) for lowering ones. The imaginary part is
    one principal_value call,

        Im Gamma_m(inf) = PV int_0^inf J(w) (omega_m coth(beta w/2) - w)
                                  / (w^2 - omega_m^2) dw,

    the same integral as d_beta: D_beta(w) = -Im Gamma_{-w}(inf) - int J/w.
    Values are memoized per process on (J, beta, omega_m, t).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if t == ASYMPTOTIC:
        return _stacked(_gamma_asymptotic(J, beta, omega_m), omega_m)
    t = float(t)
    if t < 0:
        raise ValueError("need t >= 0 or ASYMPTOTIC")
    stack = np.atleast_1d(np.asarray(omega_m, dtype=float))
    return _stacked(np.array([_gamma_finite(J, beta, w, t) for w in stack.tolist()],
                             dtype=complex), omega_m)


def _gamma_finite(J: SpectralDensity, beta: float, omega_m: float, t: float) -> complex:
    if t == 0.0:
        return 0.0 + 0.0j

    if J.discrete:
        nu, s = J.atoms(beta)
        return complex(np.sum(s * _phase_integral(-(nu + omega_m), t)))

    def F(x):
        return _thermal_spectrum(J, beta, x - omega_m)

    def A(x):
        return (F(x) + F(-x)) / x

    def B(x):
        return (F(x) - F(-x)) / x

    scale = J.scale()
    head = np.pi / t
    # S has a kink at nu = 0 (x = |omega_m|) unless J/w is smooth in w^2
    splits = sorted({s for s in (abs(omega_m), scale, 4 * scale, 16 * scale)
                     if s > 1e-9 * scale})
    inner = [s for s in splits if s < head] or None
    pieces = [  # (factor, integrand, a, b, quad options); Gamma = sum factor * integral
        (1, lambda x: F(x) * _phase_integral(-x, t) + F(-x) * _phase_integral(x, t),
         0.0, head, dict(points=inner, complex_func=True)),
    ]
    lo = head
    for hi in [s for s in splits if s > head] + [np.inf]:
        pieces += [(1, A, lo, hi, dict(weight="sin", wvar=t)),
                   (1j, B, lo, hi, dict(weight="cos", wvar=t)),
                   (-1j, B, lo, hi, {})]
        lo = hi
    total, error = 0j, 0.0
    for factor, f, a, b, opts in pieces:
        val, err = _quad(f, a, b, **_FOURIER_OPTS, **opts)
        total += factor * val
        error += abs(err)
    # the summed error estimate against the library-wide tolerance
    return complex(_converged(total, error, "Gamma_m(t) quadrature"))


def _gamma_asymptotic(J: SpectralDensity, beta: float, omega_m) -> np.ndarray:
    if J.discrete:
        raise BathDivergenceError(
            "Gamma_m(infinity) does not exist for a discrete mode set "
            "(no continuum decay)"
        )
    om = np.atleast_1d(np.asarray(omega_m, dtype=float))

    def h(w, k):
        return J.j_over_omega(w) * (om[k] * _w_coth(w, beta) - w * w)

    im = principal_value(h, np.abs(om), J.scale(), J.knots,
                         delta=min(2 * math.pi / beta, J.scale()))
    return np.pi * _thermal_spectrum(J, beta, -om) + 1j * im


def reorganization_energy(J: SpectralDensity, lam: float) -> float:
    """ell = lambda^2 int_0^inf J(omega)/omega d omega: for a continuous J,
    principal_value at a pole at 0 with h = w J."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if J.discrete:
        w, g2 = J.arrays()
        return float(lam**2 * np.sum(g2 / w))
    if J.knots:  # Tabulated
        J.check_tail()
    return float(lam**2 * principal_value(lambda w, k: w * J.j(w), 0.0, J.scale(), J.knots))
