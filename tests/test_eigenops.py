import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgkit.eigenops import decompose
from mfgkit.opcore import commutator, dag

from conftest import hamiltonian_with_spectrum, random_hermitian

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _decompose_reference(H_S, X, degeneracy_tol):
    """Reference: the per-cluster, per-element loop the scatter replaced.

    Returns the (omega_m, X_m) pairs sorted by omega_m.
    """
    energies, v = np.linalg.eigh(H_S)
    x_eig = dag(v) @ X @ v
    d = len(energies)
    flat = (energies[:, None] - energies[None, :]).ravel()
    order = np.argsort(flat)
    groups, current = [], [order[0]]
    for i in order[1:]:
        if flat[i] - flat[current[-1]] > degeneracy_tol:
            groups.append(np.array(current))
            current = [i]
        else:
            current.append(i)
    groups.append(np.array(current))
    modes = []
    for group in groups:
        block = np.zeros((d, d), dtype=complex)
        for idx in group:
            a, b = divmod(int(idx), d)
            block[a, b] = x_eig[a, b]
        if np.linalg.norm(block) == 0.0:
            continue
        omega = float(np.mean(flat[group]))
        if abs(omega) < degeneracy_tol:
            omega = 0.0
        modes.append((omega, v @ block @ dag(v)))
    modes.sort(key=lambda m: m[0])
    return modes


class TestQubitExamples:
    def test_sigma_x_splits_into_raising_and_lowering(self):
        eps = 1.3
        dec = decompose((eps / 2) * SZ, SX)
        assert sorted(dec.frequencies) == pytest.approx([-eps, eps])
        for w, x_m in dec.modes:
            # [H, X_m] = w X_m picks out sigma_+/-
            assert np.allclose(commutator((eps / 2) * SZ, x_m), w * x_m, atol=1e-12)

    def test_commuting_coupling_is_single_zero_mode(self):
        dec = decompose(0.9 * SZ, SZ)
        assert dec.frequencies == (0.0,)
        assert np.allclose(dec.modes[0][1], SZ, atol=1e-13)


class TestRandomSystems:
    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_reconstruction_and_commutators(self, dim, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        x = random_hermitian(rng, dim)
        dec = decompose(h, x)
        assert np.allclose(sum(m for _, m in dec.modes), x, atol=1e-13)
        for w, x_m in dec.modes:
            assert np.linalg.norm(commutator(h, x_m) - w * x_m) < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        t=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_interaction_picture_phase(self, seed, t):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        x = random_hermitian(rng, 4)
        u = scipy.linalg.expm(1j * t * h)
        for w, x_m in decompose(h, x).modes:
            assert np.allclose(
                u @ x_m @ dag(u), x_m * np.exp(1j * w * t), atol=1e-10
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_hermitian_closure(self, seed):
        # decomposing X yields the adjoint mode set: X_m(w) = X_m(-w)^dag
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        x = random_hermitian(rng, 4)
        modes = {round(w, 9): x_m for w, x_m in decompose(h, x).modes}
        for w, x_m in modes.items():
            assert -w in modes or abs(w) < 1e-9
            partner = modes.get(-w, x_m)
            assert np.allclose(dag(x_m), partner, atol=1e-10)

    def test_frequencies_sorted_ascending(self, rng):
        dec = decompose(random_hermitian(rng, 5), random_hermitian(rng, 5))
        assert list(dec.frequencies) == sorted(dec.frequencies)


class TestStackedFormat:
    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        kind=st.sampled_from(["random", "degenerate", "ladder", "zero_coupling"]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_scatter_matches_per_cluster_loop(self, dim, kind, seed):
        rng = np.random.default_rng(seed)
        h = hamiltonian_with_spectrum(kind, rng, dim)
        x = (np.zeros((dim, dim), dtype=complex) if kind == "zero_coupling"
             else random_hermitian(rng, dim))
        dec = decompose(h, x)
        ref = _decompose_reference(h, x, dec.degeneracy_tol)
        assert dec.frequencies.shape == (len(ref),)
        assert dec.operators.shape == (len(ref), dim, dim)
        assert len(dec.modes) == len(ref)
        for (w, x_m), (w_ref, x_ref) in zip(dec.modes, ref):
            assert abs(w - w_ref) <= 1e-14
            assert np.abs(x_m - x_ref).max() <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        kind=st.sampled_from(["random", "degenerate", "ladder", "zero_coupling"]),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_energy_basis_labels_rebuild_every_mode(self, dim, kind, seed):
        # X_m = V P_m V^dag, with P_m the entries of V^dag X V labelled m; a
        # label of -1 marks exactly the pairs of the dropped (all-zero) modes,
        # and `degenerate` the pairs whose gap lies in the omega = 0 cluster
        rng = np.random.default_rng(seed)
        h = hamiltonian_with_spectrum(kind, rng, dim)
        x = (np.zeros((dim, dim), dtype=complex) if kind == "zero_coupling"
             else random_hermitian(rng, dim))
        dec = decompose(h, x)
        v, lab = dec.vectors, dec.labels
        scale = max(1.0, np.abs(h).max())
        assert np.abs(dag(v) @ h @ v - np.diag(dec.energies)).max() <= 1e-13 * scale
        assert list(dec.energies) == sorted(dec.energies)
        x_eig = dag(v) @ x @ v
        assert not x_eig[lab < 0].any()
        for m, x_m in enumerate(dec.operators):
            rebuilt = v @ np.where(lab == m, x_eig, 0) @ dag(v)
            assert np.abs(rebuilt - x_m).max() <= 1e-14 * max(1.0, np.abs(x).max())
            gaps = (dec.energies[:, None] - dec.energies[None, :])[lab == m]
            assert np.abs(gaps - dec.frequencies[m]).max() <= dim * dec.degeneracy_tol
        assert dec.degenerate.diagonal().all()
        zero = np.flatnonzero(dec.frequencies == 0.0)
        if zero.size:
            assert np.array_equal(dec.degenerate, lab == zero[0])
        gaps = np.abs(dec.energies[:, None] - dec.energies[None, :])
        assert (gaps[dec.degenerate] <= dim * dec.degeneracy_tol).all()
        assert (gaps[~dec.degenerate] > dec.degeneracy_tol).all()

    def test_memoized_and_read_only(self, rng):
        h, x = random_hermitian(rng, 3), random_hermitian(rng, 3)
        dec = decompose(h, x)
        assert decompose(h.copy(), x.copy()) is dec
        assert decompose(h, x, degeneracy_tol=1e-7) is not dec
        for a in (dec.frequencies, dec.operators, dec.energies, dec.vectors,
                  dec.labels, dec.degenerate):
            assert not a.flags.writeable

    def test_modes_view_is_read_only(self, rng):
        dec = decompose(random_hermitian(rng, 3), random_hermitian(rng, 3))
        w, x_m = dec.modes[0]
        assert np.shares_memory(x_m, dec.operators)
        with pytest.raises(ValueError):
            x_m[0, 0] = 1.0


class TestDegeneracyClustering:
    def test_near_degenerate_frequencies_merge(self):
        # two Bohr gaps split by 1e-12 must merge into one mode under the
        # default tolerance but separate under a tighter explicit one
        h = np.diag([0.0, 1.0, 2.0 + 1e-12]).astype(complex)
        x = np.zeros((3, 3), dtype=complex)
        x[0, 1] = x[1, 0] = 1.0
        x[1, 2] = x[2, 1] = 1.0
        merged = decompose(h, x)
        assert len(merged.modes) == 2
        split = decompose(h, x, degeneracy_tol=1e-14)
        assert len(split.modes) == 4

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decompose(SZ, np.eye(3, dtype=complex))
