import numpy as np
import pytest


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2


def hamiltonian_with_spectrum(kind, rng, dim):
    """Hamiltonian in a random unitary basis with "random" levels, "degenerate"
    (repeated) levels that put several pairs at omega = 0, or "ladder"
    (equally spaced) levels whose gaps merge into shared Bohr clusters."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if kind == "degenerate":
        levels = rng.choice([-1.0, 0.0, 0.7], size=dim)
    elif kind == "ladder":
        levels = 0.8 * np.arange(dim)
    else:
        levels = rng.normal(size=dim)
    h = q @ np.diag(levels) @ q.conj().T
    return (h + h.conj().T) / 2


def random_density_matrix(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
