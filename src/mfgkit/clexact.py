"""Exact statics of the damped harmonic oscillator (Caldeira-Leggett model).

Two independent routes to the stationary second moments: log-derivatives of
the closed-form partition function (Drude-Lorentz bath), and the spectral
correlation integral over the oscillator Green's function (any spectral
density). Their agreement is the executable form of the model's
cross-identity; the Gaussian MFG state is reconstructed from the moments.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq
from scipy.special import loggamma

from . import bath as bathmod
from .opcore import dag, matrix_exp

ROOT_RESIDUAL_TOL = 1e-10
DERIV_AGREEMENT_TOL = 1e-5


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

    Companion-matrix method (np.roots); real root listed first.
    """
    coeffs = [1.0, -p.omega_D, p.omega_0**2 + p.gamma * p.omega_D,
              -p.omega_D * p.omega_0**2]
    roots = np.roots(coeffs)
    scale = max(p.omega_D, p.omega_0) ** 3
    for mu in roots:
        res = abs(np.polyval(coeffs, mu))
        if res > ROOT_RESIDUAL_TOL * scale:
            raise RuntimeError(f"cubic root residual {res:.3e} too large")
    # real-root-first; a real cubic has 3 real roots or 1 real + conjugate pair
    im_tol = 1e-9 * max(p.omega_D, p.omega_0)
    cleaned = [complex(mu.real, 0.0) if abs(mu.imag) < im_tol else complex(mu)
               for mu in roots]
    cleaned.sort(key=lambda mu: (abs(mu.imag) > 0, -mu.imag))
    return tuple(cleaned)


def log_partition(p: CLParams, roots=None) -> float:
    """ln Z = ln(beta w_0 / 4 pi^2) + sum_j ln Gamma(mu_j/nu) - ln Gamma(w_D/nu).

    Conjugate root pairs make the sum real; thermodynamic stability requires
    every root to sit in the right half plane.
    """
    roots = cubic_roots(p) if roots is None else roots
    if any(mu.real <= 0 for mu in roots):
        raise ValueError(f"unstable parameters: root with Re <= 0 in {roots}")
    val = np.log(p.beta * p.omega_0 / (4 * np.pi**2)) - loggamma(p.omega_D / p.nu)
    val += sum(loggamma(mu / p.nu) for mu in roots)
    if abs(val.imag) > 1e-10:
        raise RuntimeError(f"ln Z acquired imaginary part {val.imag:.3e}")
    return float(val.real)


def _richardson_derivative(f, x, h):
    """Finite-difference derivative with one Richardson step and an h/2 check.

    Central stencil when x - h stays in the (positive) domain, forward
    otherwise; the step is never shrunk below what cancellation tolerates.
    """
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
        raise RuntimeError(
            f"derivative did not converge: {rich1:.8g} vs {rich2:.8g}"
        )
    return rich2


def moments(p: CLParams) -> OscillatorMoments:
    """Unit-free moments from ln Z: xx = -(1/beta) d ln Z/d w_0, etc."""

    def lnz_w0(w0):
        return log_partition(CLParams(w0, p.gamma, p.omega_D, p.beta))

    def lnz_gamma(g):
        return log_partition(CLParams(p.omega_0, g, p.omega_D, p.beta))

    dw0 = _richardson_derivative(lnz_w0, p.omega_0, 1e-4 * p.omega_0)
    # step set by the oscillator scale, not gamma: a tiny damping would
    # otherwise shrink the stencil into round-off
    h_gamma = 1e-4 * max(p.gamma, p.omega_0)
    dgamma = _richardson_derivative(lnz_gamma, p.gamma, h_gamma)
    xx = -dw0 / p.beta
    pp = xx - (2 * p.gamma / (p.beta * p.omega_0)) * dgamma
    return OscillatorMoments(xx=float(xx), pp=float(pp))


def _self_energy_real(J: bathmod.SpectralDensity, omega: float) -> float:
    """Re Sigma(w) = w^2 PV int J(xi) / (xi (xi^2 - w^2)) dxi (counter-term included)."""
    if omega == 0.0:
        return 0.0
    return omega**2 * bathmod.principal_value(J.j_over_omega, omega, J.scale())


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
    sigma_re = CubicSpline(grid, [_self_energy_real(J, w) for w in grid])

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
    squeeze = matrix_exp(0.5 * r * (dag(a) @ dag(a) - a @ a))
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
