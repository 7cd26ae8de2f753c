"""Eigendecomposition, heat semigroup, projectors, and the spectral cache."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import NAMED, NAMED_IDS, all_degrees, spectrum_of
from hodgeheat import (
    Cochain,
    betti_numbers,
    build_complex,
    classify_zero,
    eigendecompose,
    harmonic_projector,
    heat_apply,
    heat_derivative,
    heat_operator,
    hodge_laplacian,
    laplacian_spectrum,
)
from hodgeheat import library as lib
from hodgeheat.spectral import (
    cached_laplacian_spectrum,
    complex_content_hash,
    load_spectral_data,
    save_spectral_data,
)


def _opnorm2w(M, w):
    sw = np.sqrt(w)
    return np.linalg.svd((M * sw[:, None]) / sw[None, :], compute_uv=False)[0]


class TestEigendecompose:
    def test_c3_degree0(self):
        s = laplacian_spectrum(lib.cycle_complex(3), 0)
        assert np.allclose(s.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
        assert s.kernel_dim == 1
        assert s.gap == pytest.approx(3.0, abs=1e-12)

    def test_c3_degree1_shares_nonzero_spectrum(self):
        s = laplacian_spectrum(lib.cycle_complex(3), 1)
        assert np.allclose(s.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
        assert s.kernel_dim == 1

    def test_zero_matrix(self):
        s = eigendecompose(np.zeros((3, 3)), np.ones(3))
        assert s.kernel_dim == 3
        assert math.isinf(s.gap)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="self-adjoint"):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            eigendecompose(-np.eye(2), np.ones(2))

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_w_orthonormality_and_residual(self, name, K):
        for ell in all_degrees(K):
            s = spectrum_of(name, K, ell)
            V, w = s.eigencochains, s.weights
            gram = V.T @ (V * w[:, None])
            assert np.max(np.abs(gram - np.eye(V.shape[1]))) <= 1e-10
            A = hodge_laplacian(K, ell).entries
            resid = A @ V - V * s.eigenvalues[None, :]
            scale = max(float(s.eigenvalues[-1]), 1.0)
            assert np.max(np.abs(resid)) <= 1e-8 * scale


class TestClassifyZero:
    def test_c3_degree1(self):
        rep = classify_zero(laplacian_spectrum(lib.cycle_complex(3), 1))
        assert rep.zero_in_spectrum and rep.isolated
        assert rep.gap == pytest.approx(3.0, abs=1e-12)

    def test_filled_triangle_degree1(self):
        rep = classify_zero(laplacian_spectrum(lib.filled_triangle(), 1))
        assert not rep.zero_in_spectrum
        assert rep.gap == pytest.approx(3.0, abs=1e-12)

    def test_single_vertex(self):
        K = build_complex({"vertices": [0]})
        rep = classify_zero(laplacian_spectrum(K, 0))
        assert rep.zero_in_spectrum
        assert math.isinf(rep.gap)


class TestHeatSemigroup:
    def test_t_zero_is_identity(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 5)
        out = heat_apply(s, 0.0, omega)
        assert np.allclose(out.values, omega.values, atol=1e-14)

    def test_harmonic_fixed_point(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = Cochain(0, np.ones(3))
        for t in (0.3, 2.0, 17.0):
            out = heat_apply(s, t, omega)
            assert np.allclose(out.values, 1.0, atol=1e-13)

    def test_eigenvector_decay_rate(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        v = s.eigencochains[:, 2]  # eigenvalue 3
        out = heat_apply(s, 0.7, Cochain(0, v))
        assert np.allclose(out.values, math.exp(-2.1) * v, atol=1e-12)

    def test_negative_time_rejected(self):
        s = laplacian_spectrum(lib.interval(), 0)
        with pytest.raises(ValueError):
            heat_apply(s, -0.1, Cochain(0, [1.0, 0.0]))

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_backend_agreement_50_pairs(self, name, K):
        rng = np.random.default_rng(11)
        delta = {ell: hodge_laplacian(K, ell) for ell in all_degrees(K)}
        for _ in range(50):
            ell = int(rng.integers(0, K.max_degree + 1))
            t = float(rng.uniform(0.0, 10.0))
            omega = Cochain(ell, rng.uniform(-1, 1, K.n_simplices(ell)))
            s = spectrum_of(name, K, ell)
            a = heat_apply(s, t, omega).values
            b = heat_apply(delta[ell], t, omega).values
            assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(a), 1.0)

    def test_backend_agreement_torus_degree1(self):
        name, K = "torus_6x6", lib.flat_torus(6, 6)
        s = spectrum_of(name, K, 1)
        delta = hodge_laplacian(K, 1)
        rng = np.random.default_rng(12)
        for _ in range(10):
            t = float(rng.uniform(0.0, 10.0))
            omega = Cochain(1, rng.uniform(-1, 1, K.n_simplices(1)))
            a = heat_apply(s, t, omega).values
            b = heat_apply(delta, t, omega).values
            assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_semigroup_law(self, name, K):
        for ell in all_degrees(K):
            s = spectrum_of(name, K, ell)
            for ts, tt in ((0.2, 0.5), (1.0, 3.0)):
                Ps = heat_operator(s, ts).entries
                Pt = heat_operator(s, tt).entries
                Pst = heat_operator(s, ts + tt).entries
                assert np.linalg.norm(Ps @ Pt - Pst, 2) <= 1e-9

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_exact_gap_decay_on_complement(self, name, K):
        for ell in all_degrees(K):
            s = spectrum_of(name, K, ell)
            for t in (0.1, 1.0, 5.0):
                M = s.function_matrix(lambda lam: np.exp(-t * lam) * (lam > 0))
                measured = _opnorm2w(M, s.weights)
                assert abs(measured - math.exp(-s.gap * t)) <= 1e-10

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_projector_commutes_with_heat(self, name, K):
        for ell in all_degrees(K):
            s = spectrum_of(name, K, ell)
            H = harmonic_projector(s).entries
            for t in (0.5, 2.0):
                P = heat_operator(s, t).entries
                assert np.linalg.norm(H @ P - P @ H, 2) <= 1e-10


class TestHeatDerivative:
    def test_harmonic_gives_zero(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        out = heat_derivative(s, 1.0, Cochain(0, np.ones(3)))
        assert np.allclose(out.values, 0.0, atol=1e-14)

    def test_eigenvector_scalar_calculus(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        v = s.eigencochains[:, 1]
        t = 0.4
        out = heat_derivative(s, t, Cochain(0, v))
        assert np.allclose(out.values, -3.0 * math.exp(-3.0 * t) * v, atol=1e-12)

    def test_telescoping_against_quadrature_oracle(self):
        # Independent oracle: adaptive quadrature of each component of
        # d/ds P_s omega over [0, T] must telescope to P_T omega - omega.
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 21)
        T = 10.0
        lhs = heat_apply(s, T, omega).values - omega.values
        for i in range(3):
            integral, _ = quad(
                lambda u: heat_derivative(s, u, omega).values[i], 0.0, T,
                epsabs=1e-10, epsrel=1e-10, points=[0.0], limit=200,
            )
            assert abs(integral - lhs[i]) <= 1e-6

    def test_requires_positive_time(self):
        s = laplacian_spectrum(lib.interval(), 0)
        with pytest.raises(ValueError):
            heat_derivative(s, 0.0, Cochain(0, [1.0, 0.0]))


class TestHarmonicProjector:
    def test_connected_unit_weights_is_mean(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 2)
        out = harmonic_projector(s).apply(omega)
        assert np.allclose(out.values, omega.values.mean(), atol=1e-12)

    def test_weighted_mean_on_weighted_complex(self):
        K = build_complex({"edges": [(0, 1), (1, 2)], "weights": {0: [1.0, 2.0, 3.0]}})
        s = laplacian_spectrum(K, 0)
        omega = Cochain(0, [1.0, -2.0, 4.0])
        expected = np.sum(s.weights * omega.values) / np.sum(s.weights)
        out = harmonic_projector(s).apply(omega)
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_filled_triangle_degree1_is_zero(self):
        s = laplacian_spectrum(lib.filled_triangle(), 1)
        H = harmonic_projector(s).entries
        assert np.allclose(H, 0.0, atol=1e-14)

    def test_idempotent(self):
        s = laplacian_spectrum(lib.simplex_boundary(3), 2)
        H = harmonic_projector(s).entries
        assert np.linalg.norm(H @ H - H, 2) <= 1e-12

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_rank_equals_betti(self, name, K):
        betti = betti_numbers(K)
        for ell in all_degrees(K):
            H = harmonic_projector(spectrum_of(name, K, ell)).entries
            assert round(float(np.trace(H))) == betti[ell]


class TestSpectralCache:
    def test_roundtrip(self, tmp_path):
        K = lib.simplex_boundary(3)
        s = laplacian_spectrum(K, 1)
        path = tmp_path / "spec.npz"
        save_spectral_data(s, str(path))
        loaded = load_spectral_data(str(path))
        assert loaded.degree == s.degree
        assert loaded.kernel_dim == s.kernel_dim
        assert loaded.gap == s.gap
        assert np.array_equal(loaded.eigenvalues, s.eigenvalues)
        assert np.array_equal(loaded.eigencochains, s.eigencochains)

    def test_cached_spectrum_hits_disk_once(self, tmp_path):
        K = lib.cycle_complex(3)
        s1 = cached_laplacian_spectrum(K, 0, str(tmp_path))
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        s2 = cached_laplacian_spectrum(K, 0, str(tmp_path))
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert files[0].name.startswith(complex_content_hash(K, 0))

    def test_hash_distinguishes_weights(self):
        K1 = lib.interval()
        K2 = build_complex({"edges": [(0, 1)], "weights": {1: [2.0]}})
        assert complex_content_hash(K1, 0) != complex_content_hash(K2, 0)
