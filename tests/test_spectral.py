"""Eigendecomposition, heat semigroup, projectors, and the spectral cache."""

import math
import sys
import threading

import numpy as np
import pytest
from scipy import sparse, special
from scipy.integrate import quad

from conftest import (
    CORPUS,
    CORPUS_IDS,
    NAMED,
    NAMED_IDS,
    all_degrees,
    chebyshev_heat,
    count_assemblies,
    count_calls,
    entries,
    general_product,
    log10_uniform_weights,
    log_uniform_weights,
    traced_peak,
)
from hodgeheat import (
    Cochain,
    SimplicialComplex,
    betti_numbers,
    build_complex,
    eigendecompose,
    harmonic_projector,
    hodge_laplacian,
    laplacian_spectrum,
)
from hodgeheat import library as lib
from hodgeheat.complexes import _SparseOperator
from hodgeheat.decomposition import _green_after_heat
from hodgeheat.spectral import (
    _ROW_BLOCK,
    LIFT_MAX_SPREAD,
    _UNIT_ROUNDOFF,
    _chebyshev_sum,
    _cut_series,
    _green_series,
    _heat_series,
    _lift,
    _scaled_bessel_i,
    complex_content_hash,
    lifted_from,
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

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_weight_on_a_zero_row(self, weight):
        # No nonzero reads the second weight, so only the weights check sees it.
        with pytest.raises(ValueError, match="weights"):
            eigendecompose(np.diag([1.0, 0.0]), [1.0, weight])

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            eigendecompose(-np.eye(2), np.ones(2))

    @pytest.mark.parametrize("operator", [np.float64(3.0), np.ones(3), np.ones((2, 3))],
                             ids=["scalar", "vector", "non-square"])
    def test_rejects_an_operator_that_is_no_square_matrix(self, operator):
        with pytest.raises(ValueError, match="mismatched shapes"):
            eigendecompose(operator)

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_w_orthonormality_and_residual(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            V, w = s.eigencochains, s.weights
            gram = V.T @ (V * w[:, None])
            assert np.max(np.abs(gram - np.eye(V.shape[1]))) <= 1e-10
            A = entries(hodge_laplacian(K, ell))
            resid = A @ V - V * s.eigenvalues[None, :]
            scale = max(float(s.eigenvalues[-1]), 1.0)
            assert np.max(np.abs(resid)) <= 1e-8 * scale


_SAME_SPECTRUM_CASES = [(name, K, ell) for name, K in NAMED for ell in all_degrees(K)]
_SAME_SPECTRUM_CASES += [("torus_6x6_weighted", log_uniform_weights(lib.flat_torus(6, 6), 6), ell)
                         for ell in range(3)]
_SAME_SPECTRUM_CASES += [(name, K, ell) for name, K in CORPUS[len(NAMED):]
                         for ell in all_degrees(K)]
_SAME_SPECTRUM_CASES += [(f"{name}_log_uniform", log_uniform_weights(K, i), ell)
                         for i, (name, K) in enumerate(CORPUS) for ell in all_degrees(K)]


@pytest.mark.parametrize("name,K,ell", _SAME_SPECTRUM_CASES,
                         ids=[f"{name}-{ell}" for name, _, ell in _SAME_SPECTRUM_CASES])
def test_symmetrized_lower_equals_dense_average(name, K, ell):
    # The lower triangle eigh reads, built from the Laplacian's nonzeros,
    # against the dense formula on its entries: each entry takes the same
    # operations, so the bits agree.
    sqrt_w = np.sqrt(K.weight_vector(ell))
    L = hodge_laplacian(K, ell)
    S = entries(L) * sqrt_w[:, None] / sqrt_w[None, :]
    lower = L.symmetrized_lower(sqrt_w)
    assert lower.tobytes() == np.tril((S + S.T) / 2.0).tobytes()


@pytest.mark.parametrize("as_operator", [False, True], ids=["array", "operator"])
def test_eigendecompose_leaves_its_argument_unchanged(as_operator):
    # A weighted Laplacian is not a symmetric matrix, so both the scaling
    # and the averaging would show in it.
    K = log_uniform_weights(lib.flat_torus(6, 6), 3)
    L = hodge_laplacian(K, 1)
    before = entries(L)
    eigendecompose(L if as_operator else entries(L), K.weight_vector(1))
    assert entries(L).tobytes() == before.tobytes()


@pytest.mark.parametrize("i,name,K", [(i, name, K) for i, (name, K) in enumerate(CORPUS)],
                         ids=CORPUS_IDS)
def test_operator_forms_agree_bit_for_bit(i, name, K):
    # The assembly's nonzeros and the dense entries both reach eigh and the
    # Chebyshev matvec through _SparseOperator.of, and laplacian_spectrum
    # is eigendecompose of the first wherever it does not lift (see
    # TestDegreeOneLift for the lift).
    K = log_uniform_weights(K, i)
    for ell in all_degrees(K):
        L = hodge_laplacian(K, ell)
        w = K.weight_vector(ell)
        omega = lib.random_cochain(K, ell, 31)
        forms = (L, entries(L))
        spectra = [eigendecompose(form, w, degree=ell) for form in forms]
        sources = lifted_from(K, ell)
        if not sources or _lift(K, *(laplacian_spectrum(K, d) for d in sources)) is None:
            spectra.append(laplacian_spectrum(K, ell))
        assert len({(s.eigenvalues.tobytes(), s.eigencochains.tobytes(), s.kernel_dim, s.gap)
                    for s in spectra}) == 1
        assert len({chebyshev_heat(form, 0.7, omega.values).tobytes() for form in forms}) == 1


def test_laplacian_spectrum_footprint():
    # Traced: the lower-triangle buffer beside eigh's eigenvector output;
    # the Laplacian itself is only its nonzeros.  Not traced: eigh's input
    # copy and the dsyevd workspace, which numpy's LAPACK wrapper allocates
    # outside numpy's arrays.
    K = lib.flat_torus(12, 12)
    n = K.n_simplices(1)
    _, peak = traced_peak(laplacian_spectrum, K, 1)
    assert peak <= 2.5 * n * n * 8


def _neighbour_spread(K):
    """lambda_max / gap of degree 1, read off its neighbours' spectra."""
    values = np.concatenate([s.eigenvalues[s.kernel_dim:]
                             for s in (laplacian_spectrum(K, d) for d in lifted_from(K, 1))])
    return values.max() / values.min()


_LIFT_CASES = [(name, K, True) for name, K in CORPUS]
_LIFT_CASES += [(f"{name}_log_uniform", log_uniform_weights(K, i), False)
                for i, (name, K) in enumerate(CORPUS)]
_LIFT_CASES += [(f"torus_{n}x{n}", lib.flat_torus(n, n), True) for n in (12, 20)]


class TestDegreeOneLift:
    """Degree 1 of a graph or a 2-complex is lifted from degrees 0 and 2."""

    @pytest.mark.parametrize("name,K,must_lift", _LIFT_CASES,
                             ids=[name for name, _, _ in _LIFT_CASES])
    def test_agrees_with_eigh(self, name, K, must_lift):
        # Every unit-weight case lifts; the log-uniform ones lift where
        # their spread allows, and are eigh's spectrum elsewhere.
        w = K.weight_vector(1)
        s = laplacian_spectrum(K, 1)
        if must_lift:
            assert _neighbour_spread(K) <= LIFT_MAX_SPREAD
        ref = eigendecompose(hodge_laplacian(K, 1), w)
        lam_max = ref.eigenvalues[-1]
        assert s.kernel_dim == ref.kernel_dim and s.degree == 1
        assert np.abs(s.eigenvalues - ref.eigenvalues).max() <= 1e-12 * lam_max
        assert s.gap == s.eigenvalues[s.kernel_dim] and not s.eigenvalues[:s.kernel_dim].any()
        V = s.eigencochains
        assert np.abs(V.T @ (w[:, None] * V) - np.eye(s.dim)).max() <= 1e-12
        residual = entries(hodge_laplacian(K, 1)) @ V - V * s.eigenvalues
        assert np.abs(residual).max() <= 1e-12 * lam_max

    def test_degree_one_runs_no_eigh_of_its_own(self, monkeypatch):
        K = lib.flat_torus(12, 12)
        eighs = count_calls(monkeypatch, "eigh", np.linalg)
        qrs = count_calls(monkeypatch, "qr", np.linalg)
        assemblies = count_assemblies(monkeypatch)
        s = laplacian_spectrum(K, 1)
        # One eigh each for degrees 0 and 2, which K then holds, one QR for
        # the two harmonic columns, one assembly of each degree, and d_1^T,
        # into degree 1, for delta_2.
        assert sorted(len(args[0]) for args in eighs) == [144, 288]
        assert len(qrs) == 1 and sorted(assemblies) == [0, 1, 1, 2]
        # Asked again, K computes nothing: it returns the spectra it holds.
        assert laplacian_spectrum(K, 1) is s
        assert [laplacian_spectrum(K, d).dim for d in (0, 2)] == [144, 288]
        assert (len(eighs), len(qrs), len(assemblies)) == (2, 1, 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_past_the_spread_bound_is_eigh_bit_for_bit(self, seed):
        K = log10_uniform_weights(lib.flat_torus(6, 6), 2.0, seed)
        assert _neighbour_spread(K) > LIFT_MAX_SPREAD
        s = laplacian_spectrum(K, 1)
        ref = eigendecompose(hodge_laplacian(K, 1), K.weight_vector(1))
        assert s.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert s.eigencochains.tobytes() == ref.eigencochains.tobytes()
        assert (s.kernel_dim, s.gap) == (ref.kernel_dim, ref.gap)

    def test_deterministic_and_leaves_global_random_state(self):
        K = lib.flat_torus(6, 6)
        before = np.random.get_state(legacy=False)
        # Two complexes: one complex builds its spectrum once and holds it.
        a, b = laplacian_spectrum(K, 1), laplacian_spectrum(lib.flat_torus(6, 6), 1)
        after = np.random.get_state(legacy=False)
        assert a.eigencochains.tobytes() == b.eigencochains.tobytes()
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert np.array_equal(before["state"]["key"], after["state"]["key"])
        assert before["state"]["pos"] == after["state"]["pos"]

    def test_only_degree_one_of_low_complexes_lifts(self):
        assert lifted_from(lib.cycle_complex(5), 1) == (0,)
        assert lifted_from(lib.flat_torus(4, 4), 1) == (0, 2)
        assert lifted_from(lib.flat_torus(4, 4), 0) == ()
        assert lifted_from(lib.flat_torus(4, 4), 2) == ()
        assert lifted_from(lib.simplex_boundary(4), 1) == ()


class TestHeldByTheComplex:
    """K holds one Laplacian and one spectrum per degree; nothing they were
    built from can change after they are built."""

    def test_held_arrays_are_read_only(self):
        K = lib.flat_torus(4, 4)
        s = laplacian_spectrum(K, 1)
        for array in (K.weights[1], s.weights, s.eigenvalues, s.eigencochains):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0

    def test_callers_weights_are_copied(self):
        base = lib.flat_torus(4, 4)
        weights = [np.array(w) for w in base.weights]
        K = SimplicialComplex(base.simplices, weights)
        weights[1] *= 5.0
        s = laplacian_spectrum(K, 1)
        weights[0] *= 3.0
        weights[2] *= 7.0
        assert all(np.array_equal(a, b) for a, b in zip(K.weights, base.weights))
        ref = laplacian_spectrum(base, 1)
        assert s.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert s.eigencochains.tobytes() == ref.eigencochains.tobytes()
        for d in (0, 2):
            assert (laplacian_spectrum(K, d).eigenvalues.tobytes()
                    == laplacian_spectrum(base, d).eigenvalues.tobytes())

    def test_other_weights_give_other_spectra(self):
        K = lib.flat_torus(4, 4)
        other = log_uniform_weights(K, 1)
        for ell in all_degrees(K):
            s, t = laplacian_spectrum(K, ell), laplacian_spectrum(other, ell)
            assert hodge_laplacian(K, ell) is not hodge_laplacian(other, ell)
            assert not np.array_equal(s.eigenvalues, t.eigenvalues)

    def test_threads_that_ask_at_once_share_one(self):
        # More threads than cores, released together and switching often,
        # all building K's first degree-1 spectrum (and through the lift
        # degrees 0 and 2) at once: each gets the one object K then holds.
        K = lib.flat_torus(6, 6)
        results, start = [], threading.Barrier(4)

        def work():
            start.wait(timeout=60)
            results.append((laplacian_spectrum(K, 1), hodge_laplacian(K, 1)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        workers = [threading.Thread(target=work) for _ in range(4)]
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(w.is_alive() for w in workers) and len(results) == 4
        assert all(s is laplacian_spectrum(K, 1) and L is hodge_laplacian(K, 1)
                   for s, L in results)


class TestScaleInvariantChecks:
    """The self-adjointness test divides by the largest |entry| before squaring."""

    @staticmethod
    def _with_vals(L, vals):
        return _SparseOperator(L.rows * L.shape[1] + L.cols, vals, L.shape, L.degree)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_asymmetry_is_caught_at_any_scale(self, scale):
        A = scale * np.array([[2.0, 1.0], [-1.0, 2.0]])
        with pytest.raises(ValueError, match="not self-adjoint"):
            eigendecompose(A)
        # A face-table Laplacian passes; with the entries above its diagonal
        # negated it is no longer W-self-adjoint.
        K = log_uniform_weights(lib.filled_triangle(), 2)
        L = hodge_laplacian(K, 1)
        sqrt_w = np.sqrt(K.weight_vector(1))
        flipped = np.where(L.rows < L.cols, -L.vals, L.vals)
        self._with_vals(L, L.vals * scale).symmetrized_average(sqrt_w)
        with pytest.raises(ValueError, match="not self-adjoint"):
            self._with_vals(L, flipped * scale).symmetrized_average(sqrt_w)

    def test_extreme_weights_overflow_the_symmetrized_operator(self):
        # A weight ratio of 1e600 across the hollow triangle: the assembly
        # passes, and the symmetrized operator names the overflow, which the
        # CLI reports as an input error.
        K = build_complex({"edges": [[0, 1], [0, 2], [1, 2]],
                           "weights": {"1": [1e-300, 1e300, 1.0]}})
        L = hodge_laplacian(K, 1)
        with pytest.raises(ValueError, match=r"degree 1: the weights overflow the W\^\(1/2\)-"):
            L.symmetrized_average(np.sqrt(K.weight_vector(1)))

    def test_non_finite_spectrum_is_rejected(self):
        # Every entry and every (S_ij + S_ji) / 2 is finite, but the largest
        # eigenvalue, 2.4e308, is not.
        with pytest.raises(ValueError, match="non-finite eigenvalue"):
            eigendecompose(np.full((3, 3), 8e307))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_symmetric_passes_at_any_scale(self, scale):
        s = eigendecompose(scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert s.eigenvalues == pytest.approx([scale, 3.0 * scale], rel=1e-15)


class TestDenseInput:
    """Fully dense raw matrices: eigendecompose reads all n^2 of their nonzeros."""

    @staticmethod
    def _positive_definite(n):
        X = np.random.default_rng(n).standard_normal((n, n))
        return X @ X.T + n * np.eye(n)

    @pytest.mark.parametrize("col", [0, -2], ids=["first-column", "last-row"])
    def test_asymmetry_in_the_last_row_is_caught(self, col):
        n = 133
        A = self._positive_definite(n)
        A[n - 1, col] += 1.0
        with pytest.raises(ValueError,
                           match="operator is not self-adjoint in the weighted inner product"):
            eigendecompose(A)

    def test_symmetric_passes(self):
        s = eigendecompose(self._positive_definite(61))
        assert s.kernel_dim == 0

    def test_average_equals_the_whole_matrix_average(self):
        n = 133
        A = self._positive_definite(n)
        A += 1e-12 * np.random.default_rng(0).standard_normal((n, n))
        s = eigendecompose(A)
        evals, U = np.linalg.eigh((A + A.T) / 2.0)
        assert s.eigenvalues.tobytes() == evals.tobytes()
        assert s.eigencochains.tobytes() == U.tobytes()


class TestClassifyZero:
    """Whether 0 is in the spectrum (a kernel), and the gap that isolates it."""

    def test_c3_degree1(self):
        s = laplacian_spectrum(lib.cycle_complex(3), 1)
        assert s.kernel_dim > 0
        assert s.gap == pytest.approx(3.0, abs=1e-12)

    def test_filled_triangle_degree1(self):
        s = laplacian_spectrum(lib.filled_triangle(), 1)
        assert not s.kernel_dim > 0
        assert s.gap == pytest.approx(3.0, abs=1e-12)

    def test_single_vertex(self):
        s = laplacian_spectrum(build_complex({"vertices": [0]}), 0)
        assert s.kernel_dim > 0
        assert math.isinf(s.gap)


def _heat(s, t, values):
    """P_t values, the spectral sum exp(-t lambda_i) <values, v_i> v_i."""
    return s.apply_function(lambda lam: np.exp(-t * lam), values)


class TestHeatSemigroup:
    def test_t_zero_is_identity(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 5)
        assert np.allclose(_heat(s, 0.0, omega.values), omega.values, atol=1e-14)

    def test_harmonic_fixed_point(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = Cochain(0, np.ones(3))
        for t in (0.3, 2.0, 17.0):
            assert np.allclose(_heat(s, t, omega.values), 1.0, atol=1e-13)

    def test_eigenvector_decay_rate(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        v = s.eigencochains[:, 2]  # eigenvalue 3
        assert np.allclose(_heat(s, 0.7, v), math.exp(-2.1) * v, atol=1e-12)

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_backend_agreement_50_pairs(self, name, K):
        rng = np.random.default_rng(11)
        delta = {ell: hodge_laplacian(K, ell) for ell in all_degrees(K)}
        for _ in range(50):
            ell = int(rng.integers(0, K.max_degree + 1))
            t = float(rng.uniform(0.0, 10.0))
            omega = Cochain(ell, rng.uniform(-1, 1, K.n_simplices(ell)))
            s = laplacian_spectrum(K, ell)
            a = _heat(s, t, omega.values)
            b = chebyshev_heat(delta[ell], t, omega.values)
            assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(a), 1.0)

    def test_backend_agreement_torus_degree1(self):
        K = lib.flat_torus(6, 6)
        s = laplacian_spectrum(K, 1)
        delta = hodge_laplacian(K, 1)
        rng = np.random.default_rng(12)
        for _ in range(10):
            t = float(rng.uniform(0.0, 10.0))
            omega = Cochain(1, rng.uniform(-1, 1, K.n_simplices(1)))
            a = _heat(s, t, omega.values)
            b = chebyshev_heat(delta, t, omega.values)
            assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(a), 1.0)

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_semigroup_law(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            for ts, tt in ((0.2, 0.5), (1.0, 3.0)):
                Ps = s.function_matrix(lambda lam: np.exp(-ts * lam))
                Pt = s.function_matrix(lambda lam: np.exp(-tt * lam))
                Pst = s.function_matrix(lambda lam: np.exp(-(ts + tt) * lam))
                assert np.linalg.norm(Ps @ Pt - Pst, 2) <= 1e-9

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_exact_gap_decay_on_complement(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            for t in (0.1, 1.0, 5.0):
                M = s.function_matrix(lambda lam: np.exp(-t * lam) * (lam > 0))
                measured = _opnorm2w(M, s.weights)
                assert abs(measured - math.exp(-s.gap * t)) <= 1e-10

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_projector_commutes_with_heat(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            H = harmonic_projector(s)
            for t in (0.5, 2.0):
                P = s.function_matrix(lambda lam: np.exp(-t * lam))
                assert np.linalg.norm(H @ P - P @ H, 2) <= 1e-10



def _heat_derivative(K, s, t, omega):
    """d/dt P_t omega = -Delta P_t omega, from the spectral sum and the Laplacian."""
    L = entries(hodge_laplacian(K, omega.degree))
    return -(L @ _heat(s, t, omega.values))


class TestHeatDerivative:
    """The spectral sum solves the heat equation d/dt P_t omega = -Delta P_t omega."""

    def test_harmonic_gives_zero(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = Cochain(0, np.ones(3))
        for t in (0.0, 1.0, 7.5):
            assert np.allclose(_heat(s, t, omega.values), 1.0, atol=1e-14)
            assert np.allclose(_heat_derivative(K, s, t, omega), 0.0, atol=1e-14)

    def test_eigenvector_scalar_calculus(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        v = s.eigencochains[:, 1]
        t, h = 0.4, 1e-4
        expected = -3.0 * math.exp(-3.0 * t) * v
        assert np.allclose(_heat_derivative(K, s, t, Cochain(0, v)), expected, atol=1e-12)
        # Central difference of the spectral sum in t: error about 27 h^2 / 6.
        diff = (_heat(s, t + h, v) - _heat(s, t - h, v)) / (2 * h)
        assert np.allclose(diff, expected, atol=1e-7)

    def test_telescoping_against_quadrature_oracle(self):
        # Independent oracle: adaptive quadrature of each component of
        # d/ds P_s omega over [0, T] must telescope to P_T omega - omega.
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 21)
        T = 10.0
        lhs = _heat(s, T, omega.values) - omega.values
        for i in range(3):
            integral, _ = quad(
                lambda u: _heat_derivative(K, s, u, omega)[i], 0.0, T,
                epsabs=1e-10, epsrel=1e-10, points=[0.0], limit=200,
            )
            assert abs(integral - lhs[i]) <= 1e-6


# Two triangles sharing an edge, a dangling edge, a separate triangle, a
# separate edge and two isolated vertices.
_DISCONNECTED = build_complex({
    "triangles": [(0, 1, 2), (1, 2, 3), (20, 21, 22)],
    "edges": [(3, 7), (40, 41)],
    "vertices": [99, 5],
})
_ACTION_COMPLEXES = NAMED + [
    ("disconnected", _DISCONNECTED),
    ("random_107", lib.random_two_complex(107)),
    ("strip_24x3", lib.flat_torus(24, 3)),
]
_ACTION_IDS = [name for name, _ in _ACTION_COMPLEXES]


def _green_function(t):
    """int_0^t exp(-s lam) ds, equal to t at lam = 0."""
    return lambda lam: np.where(
        lam > 0, -np.expm1(-t * lam) / np.where(lam > 0, lam, 1.0), t)


def _green_after_heat_function(t1, t2):
    """(1 - exp(-t1 lam)) (1 - exp(-t2 lam)) / lam, equal to 0 at lam = 0."""
    return lambda lam: np.where(
        lam > 0, np.expm1(-t1 * lam) * np.expm1(-t2 * lam) / np.where(lam > 0, lam, 1.0), 0.0)


def _cut_action(L, x, coeffs):
    """(values, dropped, matvecs) of the cut series, summed on L's recurrence."""
    kept, dropped = _cut_series(coeffs)
    return _chebyshev_sum(L, L.bound, [kept], x)[0], dropped, kept.size - 1


class TestChebyshevAction:
    @pytest.mark.parametrize("z", [0.0, 1e-12, 0.5, 3.0, 40.0, 441.0, 2e4])
    def test_bessel_values_match_scipy(self, z):
        # Every value lies in [0, 1]; one machine epsilon is about an ulp of the largest.
        f = _scaled_bessel_i(z)
        assert np.max(np.abs(f - special.ive(np.arange(f.size), z))) <= np.finfo(float).eps
        if z == 0.0:
            assert f[0] == 1.0 and not f[1:].any()

    @pytest.mark.parametrize("z", [0.5, 3.0, 40.0, 441.0])
    def test_green_coefficients_match_quadrature(self, z):
        # With b = 2 the coefficients are 2 (-1)^k J_k (a_0 halved) and Z = t.
        a = _green_series(z, 2.0)
        J = np.abs(a) / 2.0
        J[0] *= 2.0
        relevant = np.nonzero(J > 1e-25 * J[0])[0]
        for k in sorted({0, 1, 2, 5, *np.linspace(6, relevant[-1], 8).astype(int)}):
            ref, _ = quad(lambda x: special.ive(k, x), 0.0, z, epsabs=0.0, epsrel=1e-13,
                          limit=500)
            assert abs(J[k] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("name,K", _ACTION_COMPLEXES, ids=_ACTION_IDS)
    def test_spectral_bound_dominates_lambda_max(self, name, K):
        # b may equal lambda_max (torus degree 2: both 6), which eigh returns
        # with its backward error of a few ulps.
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            b = _SparseOperator.of(entries(hodge_laplacian(K, ell)), ell).bound
            assert b >= s.eigenvalues[-1] - 1e-13 * b

    @pytest.mark.parametrize("nx,ny,seed", [(6, 6, 1), (12, 12, 2), (24, 3, 3)])
    def test_matvec_and_bound_equal_compressed_row_oracle(self, nx, ny, seed):
        # Bit for bit: the products and the two norms of b sum in the
        # same order as scipy's compressed-row matrix.
        K = log_uniform_weights(lib.flat_torus(nx, ny), seed)
        rng = np.random.default_rng(seed)
        for ell in all_degrees(K):
            A = entries(hodge_laplacian(K, ell))
            M, csr = _SparseOperator.of(A, ell), sparse.csr_matrix(A)
            for _ in range(20):
                x = rng.standard_normal(A.shape[0])
                assert np.array_equal(M @ x, csr @ x)
            norms = [np.asarray(abs(csr).sum(axis=axis)).max() for axis in (0, 1)]
            assert M.bound == min(norms)

    @staticmethod
    def _cone_over_cycle(n):
        edges = lib.cycle_complex(n).simplices[1]
        return build_complex({"triangles": [(u, v, n) for u, v in edges]})

    def test_row_slots_equal_compressed_row_bit_for_bit(self):
        # On the cone the apex's rows outgrow the slots and spill; a row of
        # -0.0 products sums to +0.0 from 0.0, as a compressed-row matvec does.
        K = log_uniform_weights(self._cone_over_cycle(500), 5)
        rng = np.random.default_rng(5)
        for ell in all_degrees(K):
            L = hodge_laplacian(K, ell)
            A = entries(L)
            n = A.shape[0]
            signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            cases = [(A, rng.standard_normal(n)), (A, signed_zeros),
                     (np.abs(A), np.full(n, -0.0))]
            for matrix, x in cases:
                csr = sparse.csr_matrix(matrix)
                expected = (csr @ x).tobytes()
                slots = [_SparseOperator.of(matrix, ell)] + ([L] if matrix is A else [])
                for M in slots:
                    assert (M @ x).tobytes() == expected
                    norms = [np.asarray(abs(csr).sum(axis=axis)).max() for axis in (0, 1)]
                    assert M.bound == min(norms)
            if ell == 0:
                spill_rows = L._slots[2][0]
                assert spill_rows.size >= 400

    def test_t_zero_returns_x_exactly(self):
        K = lib.flat_torus(6, 6)
        omega = lib.random_cochain(K, 1, 3)
        out = chebyshev_heat(hodge_laplacian(K, 1), 0.0, omega.values)
        assert np.array_equal(out, omega.values)

    def test_zero_laplacian_and_empty_cochain(self):
        K = build_complex({"vertices": [0, 1, 2]})
        L = hodge_laplacian(K, 0)
        x = np.array([0.3, -1.7, 2.2])
        assert not entries(L).any()
        assert np.array_equal(chebyshev_heat(L, 5.0, x), x)
        M = _SparseOperator.of(entries(L), 0)
        green, _, matvecs = _cut_action(M, x, _green_series(2.5, M.bound))
        assert np.array_equal(green, 2.5 * x) and matvecs == 0
        empty = chebyshev_heat(np.zeros((0, 0)), 1.0, np.zeros(0))
        assert empty.shape == (0,)

    @pytest.mark.parametrize("name,K", _ACTION_COMPLEXES, ids=_ACTION_IDS)
    def test_agrees_with_spectral_sum(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            L = hodge_laplacian(K, ell)
            omega = lib.random_cochain(K, ell, 19)
            norm = s.norm2(omega.values)
            for t in (0.01, 1.0, 30.0):
                heat = chebyshev_heat(L, t, omega.values)
                assert s.norm2(heat - _heat(s, t, omega.values)) <= 1e-12 * norm
                green = _cut_action(L, omega.values, _green_series(t, L.bound))[0]
                exact = s.apply_function(_green_function(t), omega.values)
                assert s.norm2(green - exact) <= 1e-12 * s.norm2(exact)

    @pytest.mark.parametrize("name,K", _ACTION_COMPLEXES, ids=_ACTION_IDS)
    def test_truncation_bound_dominates_truncation_error(self, name, K):
        # Cut each series at every degree whose dropped sum is still far above
        # rounding; the error against the spectral function must stay below
        # the dropped |coefficients| times |x|_W.  1e-14 |x|_W allows for the
        # rounding of the two evaluations.  The third series is route B's
        # Green row, three Green series whose sum cancels.
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            A = entries(hodge_laplacian(K, ell))
            M = _SparseOperator.of(A, ell)
            b = M.bound
            if b == 0.0:
                continue
            x = lib.random_cochain(K, ell, 23).values
            norm = s.norm2(x)
            for t in (0.3, 12.0):
                for coeffs, func in (
                        (_heat_series(t, b), lambda lam: np.exp(-t * lam)),
                        (_green_series(t, b), _green_function(t)),
                        (_green_after_heat(t, 2.0 * t, b), _green_after_heat_function(t, 2.0 * t))):
                    exact = s.apply_function(func, x)
                    tails = np.cumsum(np.abs(coeffs[::-1]))[::-1]
                    for m in range(0, coeffs.size - 1, 3):
                        dropped = tails[m + 1]
                        if dropped < 1e-9 * tails[0]:
                            break
                        err = s.norm2(_chebyshev_sum(A, b, [coeffs[: m + 1]], x)[0] - exact)
                        assert err <= dropped * norm + 1e-14 * norm, (m, dropped)
                    values, dropped, matvecs = _cut_action(M, x, coeffs)
                    assert dropped == pytest.approx(tails[matvecs + 1], rel=1e-9)
                    assert dropped <= _UNIT_ROUNDOFF * tails[0]
                    assert s.norm2(values - exact) <= 1e-12 * tails[0] * norm

    @pytest.mark.parametrize("name,K", _ACTION_COMPLEXES, ids=_ACTION_IDS)
    def test_rows_share_one_recurrence(self, name, K, monkeypatch):
        # Two rows on one recurrence: each gets the bits it gets alone, and the
        # products number one less than the longer row.
        calls = []
        matvec = _SparseOperator.__matmul__
        monkeypatch.setattr(_SparseOperator, "__matmul__",
                            lambda self, x: calls.append(1) or matvec(self, x))
        for ell in all_degrees(K):
            L = hodge_laplacian(K, ell)
            if L.bound == 0.0:
                continue
            x = lib.random_cochain(K, ell, 29).values
            rows = [_cut_series(_heat_series(2.0, L.bound))[0],
                    _cut_series(_green_after_heat(2.0, 5.0, L.bound))[0]]
            alone = [_chebyshev_sum(L, L.bound, [c], x)[0] for c in rows]
            calls.clear()
            together = _chebyshev_sum(L, L.bound, rows, x)
            assert len(calls) == max(c.size for c in rows) - 1
            assert [y.tobytes() for y in together] == [y.tobytes() for y in alone]


class TestHarmonicProjector:
    def test_connected_unit_weights_is_mean(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 2)
        out = harmonic_projector(s) @ omega.values
        assert np.allclose(out, omega.values.mean(), atol=1e-12)

    def test_weighted_mean_on_weighted_complex(self):
        K = build_complex({"vertices": [0, 1, 2], "edges": [(0, 1), (1, 2)],
                           "weights": {0: [1.0, 2.0, 3.0]}})
        assert list(K.weight_vector(0)) == [1.0, 2.0, 3.0]
        s = laplacian_spectrum(K, 0)
        omega = Cochain(0, [1.0, -2.0, 4.0])
        expected = np.sum(s.weights * omega.values) / np.sum(s.weights)
        out = harmonic_projector(s) @ omega.values
        assert np.allclose(out, expected, atol=1e-12)

    def test_filled_triangle_degree1_is_zero(self):
        s = laplacian_spectrum(lib.filled_triangle(), 1)
        H = harmonic_projector(s)
        assert np.allclose(H, 0.0, atol=1e-14)

    def test_idempotent(self):
        s = laplacian_spectrum(lib.simplex_boundary(3), 2)
        H = harmonic_projector(s)
        assert np.linalg.norm(H @ H - H, 2) <= 1e-12

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_rank_equals_betti(self, name, K):
        betti = betti_numbers(K)
        for ell in all_degrees(K):
            H = harmonic_projector(laplacian_spectrum(K, ell))
            assert round(float(np.trace(H))) == betti[ell]


def _on_support(g):
    return lambda lam: np.where(lam > 0, g(np.where(lam > 0, lam, 1.0)), 0.0)


# Every function the package hands to function_matrix, all >= 0.
_NONNEGATIVE_FUNCTIONS = {
    "heat": lambda lam: np.exp(-0.7 * lam),
    "complement_heat": lambda lam: np.exp(-0.7 * lam) * (lam > 0),
    "kernel_decay": lambda lam: lam * np.exp(-lam / 4.0),
    "green": _on_support(lambda lam: 1.0 / lam),
    "inv_sqrt": _on_support(lambda lam: 1.0 / np.sqrt(lam)),
    "complement": lambda lam: (lam > 0).astype(float),
}


class TestFunctionMatrix:
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_matches_general_product(self, name, K, weighted):
        if weighted:
            K = log_uniform_weights(K, 11)
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell) if weighted else laplacian_spectrum(K, ell)
            for func in _NONNEGATIVE_FUNCTIONS.values():
                reference = general_product(s, func)
                M = s.function_matrix(func)
                assert np.max(np.abs(M - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("func", [lambda lam: lam - 1.0, lambda lam: np.full_like(lam, np.nan)],
                             ids=["negative", "nan"])
    def test_function_negative_on_the_spectrum_rejected(self, func):
        s = laplacian_spectrum(lib.cycle_complex(3), 1)
        with pytest.raises(ValueError, match=">= 0 on the spectrum"):
            s.function_matrix(func)

    @staticmethod
    def _tiled(s, f):
        S, starts = np.full((s.dim, s.dim), np.nan), []
        for i0, i1, B in s.row_blocks(f):
            assert B.shape == (i1 - i0, s.dim - i0) and i1 - i0 <= _ROW_BLOCK
            assert np.array_equal(B[:, : i1 - i0], B[:, : i1 - i0].T)
            S[i0:i1, i0:] = B
            S[i1:, i0:i1] = B[:, i1 - i0:].T
            starts.append(i0)
        assert starts == list(range(0, s.dim, _ROW_BLOCK)) and not np.isnan(S).any()
        assert np.array_equal(S, S.T)
        return S

    @pytest.mark.parametrize("nx", [6, 12])
    def test_row_blocks_tile_one_exactly_symmetric_core(self, nx):
        # The blocks cover the upper triangle once, each diagonal block is
        # exactly symmetric, and function_matrix is that core times W, bit
        # for bit.  The 12x12 torus spans four blocks, the last one short.
        K = log_uniform_weights(lib.flat_torus(nx, nx), 5)
        s = laplacian_spectrum(K, 1)
        S = self._tiled(s, np.exp(-0.7 * s.eigenvalues))
        assert np.array_equal(s.function_matrix(lambda lam: np.exp(-0.7 * lam)),
                              S * s.weights[None, :])
        reference = general_product(s, lambda lam: np.exp(-0.7 * lam))
        assert np.max(np.abs(S * s.weights - reference)) <= 1e-13 * np.max(np.abs(reference))
        # A length-k f reads the first k eigencochains only, the kernel's:
        # S = V_k V_k^T, as exactly symmetric, in k-wide products.
        Vk = s.kernel_basis()
        S = self._tiled(s, np.ones(s.kernel_dim))
        assert s.kernel_dim == 2 and np.max(np.abs(S - Vk @ Vk.T)) <= 1e-14 * np.max(np.abs(S))

    def test_function_zero_on_the_spectrum_gives_zero(self):
        s = laplacian_spectrum(lib.cycle_complex(3), 1)
        assert np.array_equal(s.function_matrix(np.zeros_like), np.zeros((3, 3)))

    def test_apply_function_acts_on_kernel_and_eigenvectors(self):
        # sqrt(lam + 1) - sqrt(lam) on C3 at degree 0: sqrt(1) on the
        # constants, 2 - sqrt(3) on the eigenvalue 3; it agrees with the matrix.
        def func(lam):
            lam = np.maximum(lam, 0.0)
            return np.sqrt(lam + 1.0) - np.sqrt(lam)

        s = laplacian_spectrum(lib.cycle_complex(3), 0)
        v = s.eigencochains[:, 2]
        assert np.allclose(s.apply_function(func, np.ones(3)), 1.0, atol=1e-12)
        assert np.allclose(s.apply_function(func, v), (2.0 - math.sqrt(3.0)) * v, atol=1e-12)
        x = lib.random_cochain(lib.cycle_complex(3), 0, 5).values
        assert np.allclose(s.apply_function(func, x), s.function_matrix(func) @ x, atol=1e-13)


def _assert_same_spectrum(loaded, s):
    for name in ("degree", "kernel_dim", "gap"):
        assert type(getattr(loaded, name)) is type(getattr(s, name))
        assert getattr(loaded, name) == getattr(s, name)
    for name in ("eigenvalues", "eigencochains", "weights"):
        assert np.array_equal(getattr(loaded, name), getattr(s, name))


class TestSpectralCache:
    def test_roundtrip(self, tmp_path):
        K = lib.simplex_boundary(3)
        s = laplacian_spectrum(K, 1)
        path = tmp_path / "spec.npz"
        save_spectral_data(s, str(path))
        loaded = load_spectral_data(str(path))
        _assert_same_spectrum(loaded, s)

    def test_parent_format_with_tol_entry_loads(self, tmp_path):
        # Cache files written before SpectralData lost its tol field carry
        # a tol entry; they still load, field for field.
        s = laplacian_spectrum(lib.flat_torus(4, 4), 1)
        path = tmp_path / "old.npz"
        np.savez(path, degree=s.degree, eigenvalues=s.eigenvalues,
                 eigencochains=s.eigencochains, weights=s.weights,
                 kernel_dim=s.kernel_dim, gap=s.gap, tol=1e-10)
        _assert_same_spectrum(load_spectral_data(str(path)), s)

    def test_hash_unchanged(self):
        # Existing --cache-dir directories keep hitting: the name of a cache
        # file is the same hash as before.
        assert complex_content_hash(lib.flat_torus(4, 4), 1) == \
            "edc5c402c9354c17ccd75fbc14ee4cdbca28a05baf530c8ca18e2810e91caf93"

    def test_cached_spectrum_hits_disk_once(self, tmp_path):
        K = lib.cycle_complex(3)
        s1 = laplacian_spectrum(K, 0, str(tmp_path))
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        s2 = laplacian_spectrum(K, 0, str(tmp_path))
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert files[0].name.startswith(complex_content_hash(K, 0))

    def test_hit_is_held_by_the_complex(self, tmp_path, monkeypatch):
        # Later stages read the loaded spectrum: K holds it, read-only, and
        # builds none of its own.
        laplacian_spectrum(lib.flat_torus(6, 6), 1, str(tmp_path))
        K = lib.flat_torus(6, 6)
        eighs = count_calls(monkeypatch, "eigh", np.linalg)
        qrs = count_calls(monkeypatch, "qr", np.linalg)
        s = laplacian_spectrum(K, 1, str(tmp_path))
        assert laplacian_spectrum(K, 1) is s
        assert eighs == [] and qrs == []
        assert not any(a.flags.writeable for a in (s.eigenvalues, s.eigencochains, s.weights))

    def test_hash_distinguishes_weights(self):
        K1 = lib.interval()
        K2 = build_complex({"edges": [(0, 1)], "weights": {1: [2.0]}})
        assert complex_content_hash(K1, 0) != complex_content_hash(K2, 0)
