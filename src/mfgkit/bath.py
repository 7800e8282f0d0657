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
Im Gamma_m(infinity), D_beta and the oscillator self-energy in clexact, is
PV int_0^inf h(w)/(w^2 - a^2) dw evaluated by principal_value over a stack of
poles a at once, one quad_vec call per half of the range. It subtracts h(a)
and integrates each pole in its own coordinate x = w - a,

    int_{-a}^0 (h(a + x) - h(a))/(x (2a + x)) dx + int_0^inf (same) dx,

so every pole's removable point x = 0 is a panel edge, where no node falls;
in w, nodes that land next to some pole lose digits to cancellation.
Im Gamma(infinity) and D_beta are one integral:

    D_beta(omega) = -Im Gamma_{-omega}(infinity) - int_0^inf J(w)/w dw.

With the thermal spectrum S of _thermal_spectrum, D_beta(omega) =
PV int S(nu)/(nu - omega) dnu - int J/w, so D_beta' is a Hadamard finite part:

    D_beta'(omega) = int_0^inf [S(omega + x) + S(omega - x) - 2 S(omega)] / x^2 dx.

For Ohmic-class J, S has a kink at nu = 0, and D_beta' ~ log|omega| as omega -> 0.

gamma_m, d_beta and d_beta_deriv are memoized per process on their
arguments (the spectral densities are frozen dataclasses). gamma_m and d_beta
take a float or a tuple of frequencies; a tuple gives a read-only array.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad, quad_vec
from scipy.interpolate import CubicSpline

ASYMPTOTIC = "asymptotic"
HBAR = 1.054571817e-34  # J s, for tables and scenarios in SI units

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-8, limit=400)
_FOURIER_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
_TINY = np.finfo(float).tiny  # the smallest normal float


class BathIntegrationError(RuntimeError):
    """A bath quadrature failed to produce a finite value."""


class BathDivergenceError(ValueError):
    """The requested bath integral diverges for this spectral density."""


def coth(x):
    """Stable coth for positive arguments (series below 1e-4)."""
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


# ---------------------------------------------------------------------------
# spectral density variants
# ---------------------------------------------------------------------------


class SpectralDensity:
    """A continuous density is its J(omega)/omega: subclasses implement
    j_over_omega() and scale(), and J is derived. A discrete bath
    (DiscreteModes) is the atoms of its thermal spectrum instead."""

    discrete = False

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
        return self.gamma * np.exp(-np.asarray(omega, dtype=float) / self.omega_c)

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
        omega = np.asarray(omega, dtype=float)
        u = omega / self.omega_c
        return 0.5 * self.gamma * u * u * np.exp(-u) / self.omega_c

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
        omega = np.asarray(omega, dtype=float)
        return (2 * self.gamma * self.omega_d**2 / np.pi) / (omega**2 + self.omega_d**2)

    def scale(self):
        return self.omega_d


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Cubic-spline interpolation of sampled (omega, J) pairs.

    Below the first grid point J is linear through the origin (Ohmic-class
    small-omega behaviour); above the last grid point J is zero. On a grid
    starting at 0, J(0) = 0: J(0) above 1e-12 max J is rejected (J/w would
    diverge) and below it is stored as 0, so spline(w)/w loses no digits as
    w -> 0. Grids whose tail has not decayed are rejected by the
    semi-infinite integrals.
    """

    omegas: tuple
    values: tuple
    # built once from omegas/values; not part of eq, hash or repr
    _cubic: CubicSpline = field(init=False, repr=False, compare=False)
    _slope0: float = field(init=False, repr=False, compare=False)  # J(w0)/w0, or J'(0) if w0 = 0

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
        object.__setattr__(self, "omegas", tuple(w))
        object.__setattr__(self, "values", tuple(v))
        cubic = CubicSpline(w, v)
        object.__setattr__(self, "_cubic", cubic)
        object.__setattr__(self, "_slope0", float(
            v[0] / w[0] if w[0] > 0 else max(cubic(0.0, 1), 0.0)))

    def _spline(self):
        return self._cubic

    def j_over_omega(self, omega):
        """spline(w)/w on the grid, 0 above it, and at or below its first point
        (or a subnormal w, where spline(w) underflows) _slope0. A float takes
        one spline call, an array one call on its points."""
        lo, hi = self.omegas[0] or _TINY, self.omegas[-1]
        if isinstance(omega, float):  # also np.float64
            if omega <= lo:
                return self._slope0
            if omega > hi:
                return 0.0
            return max(float(self._spline()(omega)), 0.0) / float(omega)
        w = np.asarray(omega, dtype=float)
        inside = (w > lo) & (w <= hi)
        x = np.where(inside, w, hi)
        return np.where(inside, np.maximum(self._cubic(x), 0.0) / x,
                        np.where(w > hi, 0.0, self._slope0))

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
    """
    units = "natural"
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip().lower()
                if body.startswith("units:"):
                    units = body.split(":", 1)[1].strip()
                continue
            parts = line.replace(",", " ").split()
            rows.append((float(parts[0]), float(parts[1])))
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


def checked_quad(f, a, b, vector=False, **opts):
    """scipy quad (quad_vec under the max norm for a vector f) that raises
    BathIntegrationError unless the value is finite and the error estimate is
    within max(epsabs, epsrel max|value|). QAWF (a weight over [a, inf))
    takes no epsrel."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if vector:  # gk21 on [a, inf) too: quad_vec's gk15 left 1e-12 errors in D_beta
            val, err = quad_vec(f, a, b, norm="max", quadrature="gk21", **opts)
        else:
            val, err = quad(f, a, b, **opts)
    if not np.isfinite(val).all():
        raise BathIntegrationError(f"quadrature over [{a}, {b}] returned {val}")
    # QUADPACK stops at its subdivision limit; an error estimate above the
    # requested tolerance is a failure, not a number
    if err > max(opts["epsabs"], opts.get("epsrel", 0.0) * np.abs(val).max()):
        raise BathIntegrationError(
            f"quadrature over [{a}, {b}] did not converge (error estimate {err:.2e})")
    return val


def semi_infinite_quad(f, scale, points=()):
    """Integrate f over [0, inf) with panel splits at multiples of scale."""
    splits = sorted({s for s in (*points, scale, 4 * scale, 16 * scale) if s > 0})
    total = 0.0
    lo = 0.0
    for s in splits:
        total += checked_quad(f, lo, s, **_QUAD_OPTS)
        lo = s
    total += checked_quad(f, lo, np.inf, **_QUAD_OPTS)
    return total


def principal_value(h, a, scale):
    """PV int_0^inf h(w)/(w^2 - a^2) dw for a stack of poles a >= 0.

    h maps an array of points, one per pole, to h at each (elementwise in the
    stack); the result has the shape of a, a float for a scalar a. Since
    PV int_0^inf dw/(w^2 - a^2) = 0, subtracting h(a) leaves a regular
    integrand; at a = 0 it is the plain integral of (h(w) - h(0))/w^2. Each
    pole is integrated in x = w - a: the lower half w in [0, a] as x = a s,
    s in [-1, 0], the upper half over x in [0, inf), so x = 0 is a panel
    edge. Dividing by x (or s) and 2a + x in turn keeps tiny a from
    underflowing their product.
    """
    a = np.asarray(a, dtype=float)
    if (a < 0).any():
        raise ValueError("need a >= 0")
    poles = a.reshape(-1)
    if not poles.size:
        return np.zeros(a.shape)
    ha = h(poles)
    # a pole at 0 has no lower half; its numerator is exactly 0 there
    lower_span = np.where(poles > 0, 2.0 * poles, 1.0)

    def lower(s):
        x = poles * s
        return (h(poles + x) - ha) / s / (lower_span + x)

    def upper(x):
        return (h(poles + x) - ha) / x / (2.0 * poles + x)

    pv = checked_quad(upper, 0.0, np.inf, vector=True,
                      points=(scale, 4 * scale, 16 * scale), **_QUAD_OPTS)
    if poles.any():
        pv = pv + checked_quad(lower, -1.0, 0.0, vector=True, **_QUAD_OPTS)
    return pv.reshape(a.shape) if a.ndim else float(pv[0])


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
    out = np.zeros(om.shape)
    if J.discrete:  # PV int S(nu) [1/(nu - w) - 1/nu] dnu over the atoms
        nu, s = J.atoms(beta, om)
        out = om * np.sum(s / (nu * (nu - om[:, None])), axis=1)
    elif om.any():
        nz = om[om != 0.0]

        def h(w):
            return J.j_over_omega(w) * nz * (_w_coth(w, beta) + nz)

        out[om != 0.0] = principal_value(h, np.abs(nz), J.scale())
    return _stacked(out, omega_m)


@functools.lru_cache(maxsize=4096)
def d_beta_deriv(J: SpectralDensity, beta: float, omega_m: float) -> float:
    """dD_beta/d omega_m: a sum over the atoms of S for a discrete bath, else the
    finite part of the module docstring. Its panels split at x = |omega_m| (the
    kink of S at nu = 0) only for |omega_m| >= 1e-2 scale: QUADPACK does not
    converge on a shorter first panel of cancelling differences. For Ohmic-class
    J (OhmicExp, Tabulated) D_beta'(0) diverges and the quadrature raises
    BathIntegrationError; it converges for |omega_m| >= 3e-5 scale (measured at
    beta = 0.1 to 10) and may raise below, where the kink sinks into rounding."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if J.discrete:
        nu, s = J.atoms(beta, omega_m)
        return float(np.sum(s / (nu - omega_m) ** 2))

    s0 = _thermal_spectrum(J, beta, omega_m)

    def integrand(x):
        return (_thermal_spectrum(J, beta, omega_m + x)
                + _thermal_spectrum(J, beta, omega_m - x) - 2.0 * s0) / (x * x)

    a, scale = abs(omega_m), J.scale()
    return semi_infinite_quad(integrand, scale, points=(a,) if a >= 1e-2 * scale else ())


def _bose_ratio(x):
    """x / (1 - e^(-x)), smooth through x = 0."""
    if abs(x) < 1e-6:
        return 1.0 + x / 2.0 + x * x / 12.0
    return x / -np.expm1(-x)


def _thermal_spectrum(J: SpectralDensity, beta: float, nu: float) -> float:
    """S(nu) = J(nu) (n(nu) + 1) with J odd, so that G(r) = int S(nu) e^{-i nu r} dnu.

    S(nu) = J(nu) (n(nu) + 1) for nu > 0 (emission into the bath) and
    J(|nu|) n(|nu|) for nu < 0 (absorption); smooth through nu = 0.
    """
    a = abs(nu)
    s = float(J.j_over_omega(a)) / beta * _bose_ratio(beta * a)
    return s if nu >= 0 else s * np.exp(-beta * a)


def _osc_quad(envelope, t, scale, kind):
    """int_0^inf envelope(w) * cos/sin(w t) dw for decaying envelopes."""
    if t == 0.0:
        if kind == "sin":
            return 0.0
        return semi_infinite_quad(envelope, scale)
    return checked_quad(envelope, 0, np.inf, weight=kind, wvar=t, limit=400, epsabs=1e-11)


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
        return _thermal_spectrum(J, beta, w) * np.exp(w * ti)

    def b_env(w):  # J n e^{-w ti} = J (n+1) e^{-w (beta + ti)}, bounded factors
        return _thermal_spectrum(J, beta, w) * np.exp(-w * (beta + ti))

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for factor, f, a, b, opts in pieces:
            val, err = quad(f, a, b, **_FOURIER_OPTS, **opts)
            total += factor * val
            error += abs(err)
    # QUADPACK refines up to its limit; a summed error estimate above the
    # library-wide tolerance is a failure, not a number
    if not (np.isfinite(total)
            and error <= max(_QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"] * abs(total))):
        raise BathIntegrationError(
            f"Gamma_m(t) quadrature did not converge (error estimate {error:.2e})")
    return complex(total)


def _gamma_asymptotic(J: SpectralDensity, beta: float, omega_m) -> np.ndarray:
    if J.discrete:
        raise BathDivergenceError(
            "Gamma_m(infinity) does not exist for a discrete mode set "
            "(no continuum decay)"
        )
    om = np.atleast_1d(np.asarray(omega_m, dtype=float))

    def h(w):
        return J.j_over_omega(w) * (om * _w_coth(w, beta) - w * w)

    re = np.pi * np.array([_thermal_spectrum(J, beta, -w) for w in om.tolist()])
    return re + 1j * principal_value(h, np.abs(om), J.scale())


def reorganization_energy(J: SpectralDensity, lam: float) -> float:
    """ell = lambda^2 int_0^inf J(omega)/omega d omega."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if J.discrete:
        w, g2 = J.arrays()
        return float(lam**2 * np.sum(g2 / w))
    if isinstance(J, Tabulated):
        J.check_tail()
    return float(lam**2 * semi_infinite_quad(lambda w: float(J.j_over_omega(w)), J.scale()))
