from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgkit.opcore import (
    commutator,
    gibbs,
    hermiticity_defect,
    partial_trace,
    require_density_matrix,
    require_hermitian,
    trace_distance,
)

from conftest import random_density_matrix, random_hermitian


def _complex_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestHermiticity:
    def test_defect_zero_for_hermitian(self, rng):
        h = random_hermitian(rng, 4)
        assert hermiticity_defect(h) == 0.0

    def test_require_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_require_passes_through(self, rng):
        h = random_hermitian(rng, 3)
        assert require_hermitian(h) is not None


class TestGibbs:
    def test_infinite_temperature_is_maximally_mixed(self, rng):
        h = random_hermitian(rng, 4)
        tau = gibbs(h, 1e-14)
        assert np.allclose(tau, np.eye(4) / 4, atol=1e-10)

    def test_zero_temperature_limit_is_ground_state(self, rng):
        h = random_hermitian(rng, 3)
        w, v = np.linalg.eigh(h)
        tau = gibbs(h, 1e4 / max(w[1] - w[0], 1e-3))
        ground = np.outer(v[:, 0], v[:, 0].conj())
        assert trace_distance(tau, ground) < 1e-6

    def test_commutes_with_hamiltonian(self, rng):
        h = random_hermitian(rng, 5)
        tau = gibbs(h, 0.7)
        assert np.linalg.norm(commutator(h, tau)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
        log_beta=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_output_is_density_matrix(self, dim, seed, log_beta):
        rng = np.random.default_rng(seed)
        tau = gibbs(random_hermitian(rng, dim), 10.0**log_beta)
        require_density_matrix(tau)
        assert abs(np.trace(tau) - 1) < 1e-12


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_density_matrix(rng, 3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_case(self):
        a = np.diag([0.6, 0.4]).astype(complex)
        b = np.diag([0.5, 0.5]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(0.1, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density_matrix(rng, 3) for _ in range(3))
        assert trace_distance(a, c) <= (
            trace_distance(a, b) + trace_distance(b, c) + 1e-12
        )


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        rho = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(rho, (2, 3), keep=0), rho_a, atol=1e-13)
        assert np.allclose(partial_trace(rho, (2, 3), keep=1), rho_b, atol=1e-13)

    def test_trace_preserving_and_linear(self, rng):
        dims = (2, 2, 3)
        x = _complex_matrix(12, 7)
        y = _complex_matrix(12, 8)
        for keep in range(3):
            red = partial_trace(x, dims, keep=keep)
            assert abs(np.trace(red) - np.trace(x)) < 1e-12
            lin = partial_trace(2.0 * x + 3.0 * y, dims, keep=keep)
            assert np.allclose(
                lin,
                2.0 * red + 3.0 * partial_trace(y, dims, keep=keep),
                atol=1e-12,
            )

    @settings(max_examples=100, deadline=None)
    @given(
        dims=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_product_reduces_to_each_factor(self, dims, seed):
        rng = np.random.default_rng(seed)
        factors = [random_density_matrix(rng, d) for d in dims]
        rho = reduce(np.kron, factors)
        for keep, factor in enumerate(factors):
            assert np.allclose(partial_trace(rho, dims, keep), factor, atol=1e-13)

    def test_keep_out_of_range_raises(self):
        for keep in (-1, 2):
            with pytest.raises(IndexError):
                partial_trace(np.eye(6) / 6, (2, 3), keep)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(5) / 5, (2, 3), 0)

    def test_nonpositive_dim_raises(self):
        for dims in ((2, 0), (3, -1), ()):
            with pytest.raises(ValueError, match="positive"):
                partial_trace(np.eye(1), dims, 0)
