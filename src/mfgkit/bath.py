"""Spectral densities and bath-derived scalar functions.

Covers the correlation function G(t), its half-Fourier coefficients
Gamma_m(t), the principal-value integral D_beta, the polaron factor kappa,
and reorganization energies. Everything is in natural units (hbar = k_B = 1).

Convention: G(t) and Gamma_m exclude the dimensionless coupling lambda;
the master-equation generators multiply their dissipators by lambda^2
explicitly. Eigenoperators satisfy [H_S, X_m] = +omega_m X_m, and
Gamma_m(t) = int_0^t dr e^(-i omega_m r) G(r), so for omega_m > 0 the rate
2 Re Gamma_m is an absorption rate proportional to the Bose factor n(omega_m).

Finite-time Gamma_m(t) is one frequency-domain integral for every bath,

    Gamma_m(t) = int_0^inf J(w) [(n(w) + 1) Phi(-(w + omega_m), t)
                                 + n(w) Phi(w - omega_m, t)] dw,
    Phi(x, t) = int_0^t e^(i x r) dr = (e^(i x t) - 1)/(i x),

a sum over the modes for a discrete bath and a quadrature for a continuous
J (see gamma_m); G(r) is not needed.

Every principal-value integral over a continuous J, the Lamb shift
Im Gamma_m(infinity), D_beta and the oscillator self-energy in clexact, is
PV int_0^inf h(w)/(w^2 - a^2) dw evaluated by principal_value, which
subtracts h(a). Im Gamma(infinity) and D_beta are one integral:

    D_beta(omega) = -Im Gamma_{-omega}(infinity) - int_0^inf J(w)/w dw.

With the thermal spectrum S of _thermal_spectrum, D_beta(omega) =
PV int S(nu)/(nu - omega) dnu - int J/w, so D_beta' is a Hadamard finite part:

    D_beta'(omega) = int_0^inf [S(omega + x) + S(omega - x) - 2 S(omega)] / x^2 dx.

For Ohmic-class J, S has a kink at nu = 0, and D_beta' ~ log|omega| as omega -> 0.

gamma_m, d_beta and d_beta_deriv are memoized per process on their
arguments (the spectral densities are frozen dataclasses).
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline

ASYMPTOTIC = "asymptotic"

_QUAD_OPTS = dict(epsabs=1e-10, epsrel=1e-8, limit=400)
_FOURIER_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=400)


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
    """w coth(beta w/2) for scalar w, smooth through w = 0."""
    x = beta * w / 2.0
    return (2.0 / beta) * (1.0 + x * x / 3.0 if abs(x) < 1e-4 else x / np.tanh(x))


def bose(omega, beta):
    """Bose occupation 1/(e^(beta*omega) - 1); omega > 0."""
    return 1.0 / np.expm1(beta * np.asarray(omega, dtype=float))


# ---------------------------------------------------------------------------
# spectral density variants
# ---------------------------------------------------------------------------


class SpectralDensity:
    """Base class; subclasses implement j(), j_over_omega(), scale()."""

    discrete = False

    def j(self, omega):
        raise NotImplementedError

    def j_over_omega(self, omega):
        """J(omega)/omega with its analytic omega -> 0 limit."""
        raise NotImplementedError

    def scale(self) -> float:
        """Characteristic cutoff frequency used to place quadrature nodes."""
        raise NotImplementedError

    def low_freq_exponent(self) -> float:
        """s in J ~ omega^s as omega -> 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class OhmicExp(SpectralDensity):
    """J(omega) = gamma * omega * exp(-omega/omega_c); gamma dimensionless."""

    gamma: float
    omega_c: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_c <= 0:
            raise ValueError("need gamma >= 0 and omega_c > 0")

    def j(self, omega):
        omega = np.asarray(omega, dtype=float)
        return self.gamma * omega * np.exp(-omega / self.omega_c)

    def j_over_omega(self, omega):
        return self.gamma * np.exp(-np.asarray(omega, dtype=float) / self.omega_c)

    def scale(self):
        return self.omega_c

    def low_freq_exponent(self):
        return 1.0


@dataclass(frozen=True)
class SuperOhmicCubic(SpectralDensity):
    """J(omega) = (gamma/2) * (omega^3/omega_c^3) * exp(-omega/omega_c)."""

    gamma: float
    omega_c: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_c <= 0:
            raise ValueError("need gamma >= 0 and omega_c > 0")

    def j(self, omega):
        omega = np.asarray(omega, dtype=float)
        u = omega / self.omega_c
        return 0.5 * self.gamma * u**3 * np.exp(-u)

    def j_over_omega(self, omega):
        omega = np.asarray(omega, dtype=float)
        u = omega / self.omega_c
        return 0.5 * self.gamma * u * u * np.exp(-u) / self.omega_c

    def scale(self):
        return self.omega_c

    def low_freq_exponent(self):
        return 3.0


@dataclass(frozen=True)
class DrudeLorentz(SpectralDensity):
    """J(omega) = (2 gamma omega_D / pi) * omega omega_D / (omega^2 + omega_D^2)."""

    gamma: float
    omega_d: float

    def __post_init__(self):
        if self.gamma < 0 or self.omega_d <= 0:
            raise ValueError("need gamma >= 0 and omega_d > 0")

    def j(self, omega):
        omega = np.asarray(omega, dtype=float)
        return (2 * self.gamma * self.omega_d / np.pi) * omega * self.omega_d / (
            omega**2 + self.omega_d**2
        )

    def j_over_omega(self, omega):
        omega = np.asarray(omega, dtype=float)
        return (2 * self.gamma * self.omega_d**2 / np.pi) / (omega**2 + self.omega_d**2)

    def scale(self):
        return self.omega_d

    def low_freq_exponent(self):
        return 1.0


@dataclass(frozen=True)
class Tabulated(SpectralDensity):
    """Cubic-spline interpolation of sampled (omega, J) pairs.

    Below the first grid point J is linear through the origin (Ohmic-class
    small-omega behaviour); above the last grid point J is zero. Grids whose
    tail has not decayed are rejected by the semi-infinite integrals.
    """

    omegas: tuple
    values: tuple
    # built once from omegas/values; not part of eq, hash or repr
    _cubic: CubicSpline = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.omegas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or w.shape != v.shape or len(w) < 4:
            raise ValueError("need matching 1-d grids with at least 4 points")
        if (np.diff(w) <= 0).any() or w[0] < 0:
            raise ValueError("omega grid must be ascending and nonnegative")
        if (v < -1e-12 * max(1.0, v.max())).any():
            raise ValueError("J(omega) must be nonnegative")
        object.__setattr__(self, "omegas", tuple(w))
        object.__setattr__(self, "values", tuple(np.clip(v, 0.0, None)))
        object.__setattr__(self, "_cubic",
                           CubicSpline(np.asarray(self.omegas), np.asarray(self.values)))

    def _spline(self):
        return self._cubic

    def j(self, omega):
        w0, w1, v0 = self.omegas[0], self.omegas[-1], self.values[0]
        omega = np.asarray(omega, dtype=float)
        out = np.zeros_like(omega, dtype=float)
        inside = (omega >= w0) & (omega <= w1)
        out[inside] = np.clip(self._spline()(omega[inside]), 0.0, None)
        below = omega < w0
        if below.any() and w0 > 0:
            out[below] = v0 * omega[below] / w0
        return out if out.ndim else float(out)

    def j_over_omega(self, omega):
        """Scalar omega only: the grid's first slope below it (the spline's
        slope at 0 on a grid starting at 0), 0 above, else one spline call."""
        w, w0 = float(omega), self.omegas[0]
        if w < max(w0, 1e-12):
            return float(self.values[0] / w0 if w0 > 0 else max(self._cubic(0.0, 1), 0.0))
        if w > self.omegas[-1]:
            return 0.0
        return max(float(self._spline()(w)), 0.0) / w

    def scale(self):
        w = np.asarray(self.omegas)
        v = np.asarray(self.values)
        return float(w[np.argmax(v)]) or float(w[-1] / 4)

    def low_freq_exponent(self):
        w = np.asarray(self.omegas)[:4]
        v = np.asarray(self.values)[:4]
        keep = (w > 0) & (v > 0)
        if keep.sum() < 2:
            return 1.0
        p = np.polyfit(np.log(w[keep]), np.log(v[keep]), 1)
        return float(p[0])

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

    All bath integrals become sums over the modes; pointwise evaluation of
    J(omega) is undefined and rejected.
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

    def j(self, omega):
        raise ValueError("pointwise J(omega) is undefined for a discrete mode set")

    def j_over_omega(self, omega):
        raise ValueError("pointwise J(omega) is undefined for a discrete mode set")

    def scale(self):
        w, g2 = self.arrays()
        return float(np.average(w, weights=g2 + 1e-300))

    def low_freq_exponent(self):
        return 1.0


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
        hbar = 1.054571817e-34
        t_unit = hbar / si_reference_energy
        w = w * t_unit
        v = v * t_unit
    return Tabulated(tuple(w), tuple(v))


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def checked_quad(f, a, b, **opts):
    """scipy quad that raises BathIntegrationError unless the value is finite
    and the error estimate is within max(epsabs, epsrel |value|). QAWF (a
    weight over [a, inf)) takes no epsrel."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, **opts)
    if not np.isfinite(val):
        raise BathIntegrationError(f"quadrature over [{a}, {b}] returned {val}")
    # QUADPACK stops at its subdivision limit; an error estimate above the
    # requested tolerance is a failure, not a number
    if err > max(opts["epsabs"], opts.get("epsrel", 0.0) * abs(val)):
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
    """PV int_0^inf h(w)/(w^2 - a^2) dw for a >= 0.

    Since PV int_0^inf dw/(w^2 - a^2) = 0, subtracting h(a) leaves a regular
    integrand; at a = 0 it is the plain integral of (h(w) - h(0))/w^2.
    Dividing by (w - a) and (w + a) in turn keeps tiny a from underflowing
    their product.
    """
    if a < 0:
        raise ValueError("need a >= 0")
    ha = h(a)
    guard = 1e-8 * min(a, scale)
    if guard > 0:
        dha = (h(a + guard) - h(a - guard)) / (2.0 * guard)

    def integrand(w):
        if abs(w - a) < guard:
            return dha / (w + a)
        return (h(w) - ha) / (w - a) / (w + a)

    return semi_infinite_quad(integrand, scale, points=(a, 2 * a))


# ---------------------------------------------------------------------------
# bath functions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def d_beta(J: SpectralDensity, beta: float, omega_m: float) -> float:
    """The principal-value integral D_beta(omega_m).

    D_beta = PV int_0^inf J(w) [ (omega_m coth(beta w/2) + w)/(w^2 - omega_m^2)
                                 - 1/w ] dw; identically zero at omega_m = 0.
    Values are memoized per process on (J, beta, omega_m).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if omega_m == 0.0:
        return 0.0
    if J.discrete:
        w, g2 = J.arrays()
        if np.any(np.abs(w - abs(omega_m)) < 1e-12):
            raise BathIntegrationError("omega_m collides with a discrete bath mode")
        term = (omega_m * coth(beta * w / 2) + w) / (w**2 - omega_m**2) - 1.0 / w
        return float(np.sum(g2 * term))

    def h(w):
        return float(J.j_over_omega(w)) * omega_m * (_w_coth(w, beta) + omega_m)

    return principal_value(h, abs(omega_m), J.scale())


@functools.lru_cache(maxsize=4096)
def d_beta_deriv(J: SpectralDensity, beta: float, omega_m: float) -> float:
    """dD_beta/d omega_m: the mode sum's derivative for a discrete bath, else the
    finite part of the module docstring. Its panels split at x = |omega_m| (the
    kink of S at nu = 0) only for |omega_m| >= 1e-2 scale: QUADPACK does not
    converge on a shorter first panel of cancelling differences. For Ohmic-class
    J (OhmicExp, Tabulated) D_beta'(0) diverges and the quadrature raises
    BathIntegrationError; it converges for |omega_m| >= 3e-5 scale (measured at
    beta = 0.1 to 10) and may raise below, where the kink sinks into rounding."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if J.discrete:
        w, g2 = J.arrays()
        if np.any(np.abs(w - abs(omega_m)) < 1e-12):
            raise BathIntegrationError("omega_m collides with a discrete bath mode")
        c, gap = coth(beta * w / 2), w**2 - omega_m**2
        return float(np.sum(g2 * (c * gap + 2 * omega_m * (omega_m * c + w)) / gap**2))

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
        w, g2 = J.arrays()
        n = bose(w, beta)
        return complex(np.sum(
            g2 * ((n + 1) * np.exp(-1j * w * tc) + n * np.exp(1j * w * tc))
        ))
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
def gamma_m(J: SpectralDensity, beta: float, omega_m: float, t) -> complex:
    """Half-Fourier coefficient Gamma_m(t) = int_0^t e^{-i omega_m r} G(r) dr.

    In the frequency domain, with Phi(x, t) = int_0^t e^{i x r} dr,

        Gamma_m(t) = int_0^inf J(w) K_m(w, t) dw,
        K_m(w, t) = (n(w) + 1) Phi(-(w + omega_m), t) + n(w) Phi(w - omega_m, t).

    A discrete bath sums K_m over its modes. For a continuous J, write
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
        return _gamma_asymptotic(J, beta, omega_m)
    t = float(t)
    if t < 0:
        raise ValueError("need t >= 0 or ASYMPTOTIC")
    if t == 0.0:
        return 0.0 + 0.0j

    if J.discrete:
        w, g2 = J.arrays()
        n = bose(w, beta)
        val = np.sum(
            g2 * ((n + 1) * _phase_integral(-(w + omega_m), t)
                  + n * _phase_integral(w - omega_m, t))
        )
        return complex(val)

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


def _gamma_asymptotic(J: SpectralDensity, beta: float, omega_m: float) -> complex:
    if J.discrete:
        raise BathDivergenceError(
            "Gamma_m(infinity) does not exist for a discrete mode set "
            "(no continuum decay)"
        )

    def h(w):
        return float(J.j_over_omega(w)) * (omega_m * _w_coth(w, beta) - w * w)

    re = np.pi * _thermal_spectrum(J, beta, -omega_m)
    return complex(re, principal_value(h, abs(omega_m), J.scale()))


def polaron_kappa(J: SpectralDensity, beta: float, lam: float) -> float:
    """kappa = exp[-2 lambda^2 int_0^inf J(w)/w^2 coth(beta w/2) dw].

    Only converges for spectral densities steeper than w^2 at the origin;
    Ohmic-class input raises BathDivergenceError.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if J.discrete:
        w, g2 = J.arrays()
        integral = float(np.sum(g2 / w**2 * coth(beta * w / 2)))
        return float(np.exp(-2 * lam**2 * integral))
    if isinstance(J, Tabulated):
        J.check_tail()
    if J.low_freq_exponent() <= 2.0 + 1e-9:
        raise BathDivergenceError(
            "polaron kappa integral diverges: J(omega) must vanish faster "
            "than omega^2 at low frequency"
        )
    if lam == 0.0:
        return 1.0
    scale = J.scale()

    def integrand(w):
        # J/w^2 * coth = (J/w^3) * w coth, finite at 0 for s > 2 (here s = 3)
        jow = float(J.j_over_omega(w))
        return jow / max(w, 1e-300)**2 * _w_coth(w, beta)

    integral = semi_infinite_quad(integrand, scale)
    return float(np.exp(-2 * lam**2 * integral))


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
