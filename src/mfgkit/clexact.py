"""Exact statics of the damped harmonic oscillator (Caldeira-Leggett model).

Two independent routes to the stationary second moments: log-derivatives of
the closed-form partition function (Drude-Lorentz bath), and the spectral
correlation integral over the oscillator Green's function (any spectral
density). Their agreement is the executable form of the model's
cross-identity; the Gaussian MFG state is reconstructed from the moments.

ln Z is a sum of ln Gamma over the roots mu_j of a cubic P, so its parameter
derivatives are closed form: digamma values times mu_j' = -(d_x P)/P' (moments).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import digamma, loggamma, polygamma

from . import bath as bathmod
from .opcore import dag

ROOT_RESIDUAL_TOL = 1e-10
ROOT_PAIR_TOL, TRIPLE_ROOT_TOL = 1e-5, 1e-3  # relative root gaps for moments' Taylor terms


@dataclass(frozen=True)
class CLParams:
    """Damped oscillator with a Drude-Lorentz bath; nu is the first Matsubara frequency."""

    omega_0: float
    gamma: float
    omega_D: float
    beta: float
    nu: float = field(init=False)

    def __post_init__(self):
        for name in ("omega_0", "gamma", "omega_D", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        object.__setattr__(self, "nu", 2 * np.pi / self.beta)


@dataclass(frozen=True)
class OscillatorMoments:
    """Unit-free second moments: xx = <x~^2>, pp = <p~^2>, px = <p~x~> = -i/2."""

    xx: float
    pp: float
    px: complex = -0.5j

    def __post_init__(self):
        if self.xx <= 0 or self.pp <= 0:
            raise ValueError("second moments must be positive")
        if self.xx * self.pp < 0.25 - 1e-12:
            raise ValueError(
                f"Heisenberg violation: xx*pp = {self.xx * self.pp:.6g} < 1/4"
            )


def cubic_roots(p: CLParams) -> tuple[complex, complex, complex]:
    """Roots of mu^3 - w_D mu^2 + (w_0^2 + gamma w_D) mu - w_D w_0^2.

    Companion-matrix method (np.roots); real root listed first. Thermodynamic
    stability requires every root in the right half plane (ValueError if not).
    """
    coeffs = [1.0, -p.omega_D, p.omega_0**2 + p.gamma * p.omega_D,
              -p.omega_D * p.omega_0**2]
    roots = np.roots(coeffs)
    res = np.abs(np.polyval(coeffs, roots)).max()
    if res > ROOT_RESIDUAL_TOL * max(p.omega_D, p.omega_0) ** 3:
        raise RuntimeError(f"cubic root residual {res:.3e} too large")
    if any(mu.real <= 0 for mu in roots):
        raise ValueError(f"unstable parameters: root with Re <= 0 in {roots}")
    # real-root-first; a real cubic has 3 real roots or 1 real + conjugate pair,
    # and the companion matrix returns real roots with Im exactly 0
    return tuple(complex(mu) for mu in sorted(roots, key=lambda mu: (mu.imag != 0, -mu.imag)))


def log_partition(p: CLParams) -> float:
    """ln Z = ln(beta w_0 / 4 pi^2) + sum_j ln Gamma(mu_j/nu) - ln Gamma(w_D/nu).

    Conjugate root pairs make the sum real.
    """
    val = np.log(p.beta * p.omega_0 / (4 * np.pi**2)) - loggamma(p.omega_D / p.nu)
    val += sum(loggamma(mu / p.nu) for mu in cubic_roots(p))
    if abs(val.imag) > 1e-10:
        raise RuntimeError(f"ln Z acquired imaginary part {val.imag:.3e}")
    return float(val.real)


def moments(p: CLParams) -> OscillatorMoments:
    """Unit-free moments xx = -(1/beta) d ln Z/d w_0 and pp (from d ln Z/d gamma):

        d ln Z/dx = sum_j psi(mu_j/nu) mu_j'/nu  (+ 1/w_0 for x = w_0),
        mu_j' = -(d_x P)(mu_j)/P'(mu_j),  d_w0 P = 2 w_0 (mu - w_D),  d_gamma P = w_D mu.

    With f(z) = psi(z/nu) and P' the product of root differences, each sum is the
    divided difference (f h)[a, b, c] = f[a, b] h' + f[a, b, c] h(c) of linear
    h = d_x P, (a, b) the closest pair. Where roots nearly meet (critical damping)
    differences lose digits as eps/gap; Taylor terms at the real centre s of the
    cluster replace them: f[a, b] = f'(s) for a real or conjugate pair, and
    f[a, b] = f'(s) - f''(s) (c - s)/2, f[a, b, c] = f''(s)/2 for three roots.
    Worst error against a 40-digit reference: 1.3e-10 (critical), 2e-9 (triple).
    """
    def f(z, n=0):  # n-th derivative of psi(z/nu); n >= 1 needs real z
        return digamma(z / p.nu) if n == 0 else polygamma(n, z / p.nu) / p.nu**n

    mu = np.array(cubic_roots(p))
    i = int(np.argmin(np.abs(mu - np.roll(mu, 1))))
    a, b, c = mu[i], mu[i - 1], mu[i - 2]
    s, m = mu.sum().real / 3, (a + b) / 2  # m is real for a real or a conjugate pair
    if np.abs(mu - s).max() < TRIPLE_ROOT_TOL * s:
        f_ab, f_abc = f(s, 1) - f(s, 2) * (c - s) / 2, f(s, 2) / 2
    else:
        close = m.imag == 0 and abs(a - b) < ROOT_PAIR_TOL * abs(m)
        f_ab = f(m.real, 1) if close else (f(a) - f(b)) / (a - b)
        f_abc = (f_ab - (f(b) - f(c)) / (b - c)) / (a - c)
    dw0 = 1 / p.omega_0 - (2 * p.omega_0 * (f_ab + f_abc * (c - p.omega_D))).real / p.nu
    dgamma = -(p.omega_D * (f_ab + f_abc * c)).real / p.nu
    xx = -dw0 / p.beta
    pp = xx - (2 * p.gamma / (p.beta * p.omega_0)) * dgamma
    return OscillatorMoments(xx=float(xx), pp=float(pp))


def _self_energy_real(J: bathmod.SpectralDensity, omegas) -> np.ndarray:
    """Re Sigma(w) = w^2 PV int J(xi) / (xi (xi^2 - w^2)) dxi (counter-term
    included) at an array of w >= 0, one principal_value call for the stack;
    0 at w = 0, where the integral alone diverges for Ohmic-class J."""
    w = np.asarray(omegas, dtype=float)
    out = np.zeros(w.shape)
    nz = w != 0.0
    w2 = w[nz] ** 2  # inside h, so the stack's error tolerance is on Re Sigma itself
    out[nz] = bathmod.principal_value(lambda xi: w2 * J.j_over_omega(xi), w[nz], J.scale())
    return out


def position_correlation(J: bathmod.SpectralDensity, beta: float, omega_0: float,
                         t_minus_tprime: float = 0.0) -> float:
    """Stationary position correlator of the damped oscillator (m = 1).

    (1/pi) int_0^inf cos(w dt) coth(beta w/2) Im G(w) dw with
    G(w) = 1/(w_0^2 - w^2 - Sigma(w)), Im Sigma = pi J(w)/2. At dt = 0 this
    is <x^2>; the free-bath limit gives coth(beta w_0/2)/(2 w_0).
    """
    if beta <= 0 or omega_0 <= 0:
        raise ValueError("need beta > 0 and omega_0 > 0")
    dt = abs(float(t_minus_tprime))
    scale = J.scale()
    probe = np.linspace(scale / 7, 7 * scale, 13)
    if np.max(np.abs(J.j(probe))) == 0.0:
        # free oscillator: Im G collapses to a delta at the bare frequency
        return np.cos(omega_0 * dt) * bathmod.coth(beta * omega_0 / 2) / (2 * omega_0)

    w_max = max(12 * scale, 8 * omega_0, 40.0 / beta)
    grid = np.linspace(0.0, w_max, 481)
    sigma_re = CubicSpline(grid, _self_energy_real(J, grid))

    def denom_re(w):
        return omega_0**2 - w**2 - sigma_re(w)

    def envelope(w):
        if w == 0.0:
            return 0.0
        im_sigma = np.pi * float(J.j(w)) / 2
        g_im = im_sigma / (denom_re(w) ** 2 + im_sigma**2)
        return bathmod.coth(beta * w / 2) * g_im

    def integrand(w):
        return np.cos(w * dt) * envelope(w)

    # locate the dressed resonance so the quadrature subdivides around it
    points = []
    samples = np.linspace(1e-6, w_max, 2001)
    vals = denom_re(samples)
    for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
        points.append(brentq(denom_re, samples[i], samples[i + 1]))

    total = bathmod.checked_quad(integrand, 0.0, w_max, points=points or None,
                                 limit=400, epsabs=1e-12, epsrel=1e-10)
    if dt == 0.0:
        tail = bathmod.checked_quad(integrand, w_max, np.inf, limit=200,
                                    epsabs=1e-12, epsrel=1.49e-8)
    else:  # QAWF: the oscillating tail as its envelope under the weight cos(w dt)
        tail = bathmod.checked_quad(envelope, w_max, np.inf, weight="cos", wvar=dt,
                                    epsabs=1e-12)
    return float((total + tail) / np.pi)


def gaussian_covariance_state(m: OscillatorMoments, n_max: int | None = None):
    """Covariance matrix [[xx, 0], [0, pp]] and the Fock-basis density matrix.

    The state is a squeezed thermal state: n_bar + 1/2 = sqrt(xx pp) fixes the
    occupation, r = (1/4) ln(xx/pp) the squeezing. n_max defaults to a tail
    criterion on the thermal occupation inflated by the squeezing.
    """
    cov = np.array([[m.xx, 0.0], [0.0, m.pp]])
    n_bar = np.sqrt(m.xx * m.pp) - 0.5
    r = 0.25 * np.log(m.xx / m.pp)
    if n_max is None:
        n_max = int(np.ceil(20 * (n_bar + 1) * np.exp(2 * abs(r)))) + 10
    a = np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), k=1).astype(complex)
    num = dag(a) @ a
    # thermal state of the Bogoliubov mode b = a cosh r + a^dag sinh r
    squeeze = scipy.linalg.expm(0.5 * r * (dag(a) @ dag(a) - a @ a))
    if n_bar <= 0.0:
        rho_th = np.zeros((n_max, n_max), dtype=complex)
        rho_th[0, 0] = 1.0
    else:
        logp = np.arange(n_max) * np.log(n_bar / (n_bar + 1))
        pops = np.exp(logp - logp.max())
        rho_th = np.diag(pops / pops.sum()).astype(complex)
    rho = squeeze @ rho_th @ dag(squeeze)
    rho = (rho + dag(rho)) / 2
    rho /= np.trace(rho).real

    x_op = (a + dag(a)) / np.sqrt(2)
    xx_num = np.trace(rho @ x_op @ x_op).real
    if abs(xx_num - m.xx) > 1e-6 * max(m.xx, 1.0):
        raise RuntimeError(
            f"Fock reconstruction drifted: <x^2> = {xx_num:.8g} vs {m.xx:.8g}; "
            "increase n_max"
        )
    return cov, rho
