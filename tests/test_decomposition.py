"""Green operators, fractional powers, and the three-part splitting."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import hodgeheat
from conftest import (
    CORPUS,
    CORPUS_IDS,
    NAMED,
    NAMED_IDS,
    all_degrees,
    codifferential,
    entries,
    log_uniform_weights,
)
from hodgeheat import (
    Cochain,
    coboundary,
    decompose,
    green_spectral,
    harmonic_projector,
    harmonic_representative,
    hodge_laplacian,
    inner_product,
    inv_sqrt_spectral,
    inv_sqrt_subordinated,
    laplacian_spectrum,
    opnorm_bracket,
    verify_uniqueness,
)
from hodgeheat import library as lib
from hodgeheat.complexes import _SparseOperator
from hodgeheat.decomposition import _hodge_split, _route_b
from hodgeheat.spectral import (
    complex_content_hash,
    harmonic_part,
    save_spectral_data,
)


class TestGreenSpectral:
    def test_annihilates_harmonic(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        out = green_spectral(s) @ np.ones(3)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_interval_pseudo_inverse_oracle(self):
        # Laplacian maps (1, -1) to (2, -2); the pseudo-inverse halves it.
        K = lib.interval()
        s = laplacian_spectrum(K, 0)
        assert np.allclose(
            entries(hodge_laplacian(K, 0)) @ [1.0, -1.0], [2.0, -2.0], atol=1e-14
        )
        out = green_spectral(s) @ [1.0, -1.0]
        assert np.allclose(out, [0.5, -0.5], atol=1e-12)

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_defining_identity_all_degrees(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            G = green_spectral(s)
            A = entries(hodge_laplacian(K, ell))
            one_minus_h = np.eye(len(s.weights)) - harmonic_projector(s)
            assert np.linalg.norm(A @ G - one_minus_h, 2) <= 1e-10
            assert np.linalg.norm(G @ A - one_minus_h, 2) <= 1e-10

    def test_green_of_laplacian_recovers_complement(self):
        K = lib.simplex_boundary(3)
        s = laplacian_spectrum(K, 1)
        omega = lib.random_cochain(K, 1, 8)
        lap = hodge_laplacian(K, 1) @ omega.values
        out = green_spectral(s) @ lap
        expected = omega.values - harmonic_part(s, omega.values)
        assert np.linalg.norm(out - expected) <= 1e-10


class TestGreenQuadrature:
    """Route B's Green term, the heat semigroup integrated by its Chebyshev
    recurrence beside the heat limit."""

    def test_harmonic_gives_zero(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        _, res = _route_b(hodge_laplacian(K, 0), s, Cochain(0, np.ones(3)), 1e-8)
        assert np.allclose(res.cochain.values, 0.0, atol=1e-12)
        assert res.tail_bound <= 1e-12

    def test_c3_eigenvector_scalar_integral(self):
        # Oracle: integral of exp(-3 t) over [0, inf) is exactly 1/3.
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        v = s.eigencochains[:, 2]
        _, res = _route_b(hodge_laplacian(K, 0), s, Cochain(0, v), 1e-6)
        assert np.linalg.norm(res.cochain.values - v / 3.0) <= 1e-6

    def test_defining_identity_through_quadrature_route(self):
        # Laplacian applied to route B's Green term recovers (1-H)omega to
        # 1e-10 once its error target is pushed past that.
        K = lib.simplex_boundary(3)
        s = laplacian_spectrum(K, 1)
        omega = lib.random_cochain(K, 1, 15)
        lap = hodge_laplacian(K, 1)
        _, res = _route_b(lap, s, omega, 1e-12)
        recovered = entries(lap) @ res.cochain.values
        expected = omega.values - harmonic_part(s, omega.values)
        assert np.linalg.norm(recovered - expected) <= 1e-10


class TestInverseSquareRoot:
    def test_eigenvalue_four_halves(self):
        K = lib.complete_graph(4)
        s = laplacian_spectrum(K, 0)
        assert s.eigenvalues[-1] == pytest.approx(4.0, abs=1e-12)
        v = s.eigencochains[:, -1]
        out = inv_sqrt_spectral(s) @ v
        assert np.allclose(out, v / 2.0, atol=1e-12)

    def test_harmonic_gives_zero(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        res = inv_sqrt_subordinated(s, Cochain(0, np.ones(3)))
        assert np.allclose(res.cochain.values, 0.0, atol=1e-14)
        assert res.error_target == 1e-8

    def test_subordinated_matches_spectral(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        omega = lib.random_cochain(K, 0, 19)
        exact = inv_sqrt_spectral(s) @ omega.values
        res = inv_sqrt_subordinated(s, omega, error_target=1e-6)
        rel = np.linalg.norm(res.cochain.values - exact) / np.linalg.norm(exact)
        assert rel <= 1e-6

    @pytest.mark.parametrize("target", [0.0, 1.0, -1.0, math.nan, math.inf])
    def test_error_target_outside_unit_interval_rejected(self, target):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        with pytest.raises(ValueError, match="^error_target must lie in \\(0, 1\\), got "):
            inv_sqrt_subordinated(s, lib.random_cochain(K, 0, 1), error_target=target)

    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_half_inverse_squares_to_green(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            R = inv_sqrt_spectral(s)
            G = green_spectral(s)
            assert np.linalg.norm(R @ R - G, 2) <= 1e-9 * max(np.linalg.norm(G, 2), 1.0)


class TestDecompose:
    def test_harmonic_input_passes_through(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 1)
        h = s.kernel_basis()[:, 0]
        dec = decompose(K, Cochain(1, h), p_list=(2.0,))
        assert np.allclose(dec.omega3.values, h, atol=1e-12)
        assert np.allclose(dec.exact_part.values, 0.0, atol=1e-12)
        assert dec.omega2 is None  # no degree-2 simplices on C3

    def test_exact_form_on_c3(self):
        K = lib.cycle_complex(3)
        f = lib.random_cochain(K, 0, 23)
        omega = Cochain(1, coboundary(K, 0) @ f.values)
        dec = decompose(K, omega)
        assert np.allclose(dec.omega3.values, 0.0, atol=1e-10)
        assert np.allclose(dec.exact_part.values, omega.values, atol=1e-10)

    def test_tetra_random_residual_and_orthogonality(self):
        K = lib.simplex_boundary(3)
        omega = lib.random_cochain(K, 1, 29)
        dec = decompose(K, omega, p_list=(1.0, 2.0, math.inf))
        assert dec.residual <= 1e-8
        assert dec.harmonic_defect <= 1e-8
        assert all(v <= 1e-8 for v in dec.orthogonality.values())
        for p, c in dec.c_p.items():
            assert math.isfinite(c)

    def test_pythagoras(self):
        K = lib.simplex_boundary(3)
        omega = lib.random_cochain(K, 1, 31)
        dec = decompose(K, omega)
        total = (
            inner_product(K, dec.exact_part, dec.exact_part)
            + inner_product(K, dec.coexact_part, dec.coexact_part)
            + inner_product(K, dec.omega3, dec.omega3)
        )
        expected = inner_product(K, omega, omega)
        assert abs(total - expected) <= 1e-8 * expected

    def test_idempotent_on_harmonic_component(self):
        K = lib.flat_torus(6, 6)
        omega = lib.random_cochain(K, 1, 37)
        first = decompose(K, omega)
        again = decompose(K, first.omega3)
        norm = max(np.linalg.norm(first.omega3.values), 1e-30)
        assert np.linalg.norm(again.omega3.values - first.omega3.values) <= 1e-10 * norm
        assert np.linalg.norm(again.exact_part.values) <= 1e-10 * norm
        assert np.linalg.norm(again.coexact_part.values) <= 1e-10 * norm

    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_face_table_split_matches_dense_products(self, name, K):
        # Gathers and bincounts over the face tables against the dense
        # coboundary and codifferential.  Relative to the scale of the
        # products' rounding: the largest entry of the same products taken
        # with |entries| and |g|.
        for weighted in (K, log_uniform_weights(K, 11)):
            for ell in all_degrees(K):
                g = np.random.default_rng(ell).standard_normal(K.n_simplices(ell))
                dense = [None, np.zeros_like(g), None, np.zeros_like(g)]
                bound = [None, np.zeros_like(g), None, np.zeros_like(g)]
                if ell >= 1:
                    delta = codifferential(weighted, ell)
                    d = coboundary(weighted, ell - 1)
                    dense[0], bound[0] = delta @ g, np.abs(delta) @ np.abs(g)
                    dense[1], bound[1] = d @ dense[0], np.abs(d) @ bound[0]
                if ell < K.max_degree:
                    d = coboundary(weighted, ell)
                    delta = codifferential(weighted, ell + 1)
                    dense[2], bound[2] = d @ g, np.abs(d) @ np.abs(g)
                    dense[3], bound[3] = delta @ dense[2], np.abs(delta) @ bound[2]
                for got, want, scale in zip(_hodge_split(weighted, ell, g), dense, bound):
                    if want is None:
                        assert got is None
                    else:
                        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(scale, initial=0.0)

    def test_zero_cochain(self):
        K = lib.interval()
        dec = decompose(K, Cochain(0, np.zeros(2)), p_list=(2.0,))
        assert dec.residual == 0.0
        assert dec.c_p[2.0] == 0.0


class TestHarmonicRepresentative:
    def test_harmonic_is_its_own_representative(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 1)
        h = s.kernel_basis()[:, 0]
        rep = harmonic_representative(K, Cochain(1, h))
        assert np.allclose(rep.cochain.values, h, atol=1e-10)
        assert rep.coexact_norm_rel <= 1e-8

    def test_circulation_plus_gradient_recovers_circulation(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 1)
        circulation = 1.7 * s.kernel_basis()[:, 0]
        f = lib.random_cochain(K, 0, 41)
        omega = Cochain(1, circulation + coboundary(K, 0) @ f.values)
        rep = harmonic_representative(K, omega)
        norm = np.linalg.norm(omega.values)
        assert np.linalg.norm(rep.cochain.values - circulation) <= 1e-8 * norm
        assert rep.exactness_residual <= 1e-8
        assert rep.coexact_norm_rel <= 1e-8

    def test_filled_triangle_closed_forms_are_exact(self):
        K = lib.filled_triangle()
        f = lib.random_cochain(K, 0, 43)
        omega = Cochain(1, coboundary(K, 0) @ f.values)  # closed since b1 = 0 forces exactness
        rep = harmonic_representative(K, omega)
        assert np.allclose(rep.cochain.values, 0.0, atol=1e-10)
        assert rep.exactness_residual <= 1e-8

    def test_rejects_non_closed_where_the_norm_overflows(self):
        # At 2^1020 |omega|_W passes the largest double; the closedness test
        # is formed on omega scaled by a power of two.
        K = lib.flat_torus(12, 12)
        omega = Cochain(1, [((i % 7) - 3) * 2.0 ** 1020 for i in range(K.n_simplices(1))])
        with pytest.raises(ValueError, match="input is not closed"):
            harmonic_representative(K, omega)

    def test_rejects_non_closed_with_norm_report(self):
        K = lib.filled_triangle()
        omega = Cochain(1, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="not closed"):
            harmonic_representative(K, omega)

    def test_top_degree_always_closed(self):
        K = lib.simplex_boundary(3)
        omega = lib.random_cochain(K, 2, 47)
        rep = harmonic_representative(K, omega)
        assert rep.exactness_residual <= 1e-8


class TestVerifyUniqueness:
    @pytest.mark.parametrize("ell", [0, 1])
    def test_c3_routes_agree(self, ell):
        K = lib.cycle_complex(3)
        rep = verify_uniqueness(K, decompose(K, lib.random_cochain(K, ell, 53)))
        assert rep.passed
        assert rep.max_rel_diff <= 1e-6

    @pytest.mark.parametrize("target", [0.0, 1.0, math.nan, -1.0, math.inf])
    def test_error_target_outside_unit_interval_rejected(self, target):
        # No decomposition: the target is checked before anything else.
        with pytest.raises(ValueError, match="error_target"):
            verify_uniqueness(lib.cycle_complex(3), None, error_target=target)

    def test_decomposition_of_another_complex_rejected(self):
        # The cochain that dec keeps is checked against K before route B reads it.
        other = lib.flat_torus(4, 4)
        dec = decompose(other, lib.random_cochain(other, 1, 5))
        with pytest.raises(ValueError, match=r"^cochain of degree 1 must have 108 values, "
                                             r"got \(48,\)$"):
            verify_uniqueness(lib.flat_torus(6, 6), dec)

    def test_zero_cochain_both_routes_zero(self):
        K = lib.cycle_complex(3)
        rep = verify_uniqueness(K, decompose(K, Cochain(1, np.zeros(3))))
        assert rep.passed
        assert rep.max_rel_diff == 0.0

    def test_tetra_random(self):
        K = lib.simplex_boundary(3)
        rep = verify_uniqueness(K, decompose(K, lib.random_cochain(K, 1, 59)))
        assert rep.passed

    def test_kernel_perturbation_detected(self):
        K = lib.cycle_complex(3)
        rep = verify_uniqueness(K, decompose(K, lib.random_cochain(K, 1, 61)))
        assert rep.kernel_perturbations  # b1 = 1
        assert rep.perturbation_detected

    def test_kernel_perturbations_where_the_norm_overflows(self):
        # At 2^1020 |omega|_W passes the largest double; the perturbations
        # are of omega scaled by a power of two, so they keep their bits.
        K = lib.flat_torus(12, 12)
        base = np.array([(i % 7) - 3 for i in range(K.n_simplices(1))], dtype=float)
        reps = [verify_uniqueness(K, decompose(K, Cochain(1, base * scale)))
                for scale in (1.0, 2.0 ** 1020)]
        assert reps[1].kernel_perturbations == reps[0].kernel_perturbations
        assert all(p["residue"] / p["perturbation"] == pytest.approx(1.0, rel=1e-9)
                   for p in reps[1].kernel_perturbations)
        assert reps[1].perturbation_detected

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_route_b_meets_its_certificates(self, name, K, monkeypatch):
        # Eigencochains replaced by NaN: route B must not read them.
        matvecs = []
        matvec = _SparseOperator.__matmul__

        def counting_matvec(self, x):
            matvecs.append(1)
            return matvec(self, x)

        monkeypatch.setattr(_SparseOperator, "__matmul__", counting_matvec)
        error_target = 1e-8
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            if math.isinf(s.gap):
                continue
            omega = lib.random_cochain(K, ell, 67)
            blind = dataclasses.replace(s, eigencochains=np.full_like(s.eigencochains, np.nan))
            matvecs.clear()
            h_b, quad = _route_b(hodge_laplacian(K, ell), blind, omega, error_target)
            norm = s.norm2(omega.values)
            # exp(-gap t_h) = error_target * min(1, gap) at route B's heat time
            h_bound = error_target * min(1.0, s.gap) * norm * (1 + 1e-6)
            assert s.norm2(h_b - harmonic_part(s, omega.values)) <= h_bound
            g_err = s.norm2(quad.cochain.values - green_spectral(s) @ omega.values)
            assert g_err <= quad.tail_bound + error_target * norm
            assert quad.nodes_evaluated == len(matvecs) > 0
            assert 0.0 <= quad.truncation_bound <= 1e-3 * error_target * norm

    def test_stiff_strip_torus_passes(self):
        K = lib.flat_torus(24, 3)  # lambda_max / gap about 400
        omega = lib.random_cochain(K, 1, 71)
        rep = verify_uniqueness(K, decompose(K, omega))
        assert rep.passed
        assert rep.quadrature.tail_bound <= rep.quadrature.error_target * np.linalg.norm(
            omega.values)

    def test_route_b_ignores_and_keeps_global_random_state(self):
        K = lib.flat_torus(6, 6)
        dec = decompose(K, lib.random_cochain(K, 2, 42))
        runs = []
        for seed in range(20):
            np.random.seed(seed)
            rep = verify_uniqueness(K, dec)
            runs.append((rep.max_rel_diff, rep.quadrature.tail_bound))
            assert np.random.randint(2**31) == np.random.RandomState(seed).randint(2**31)
        assert len(set(runs)) == 1

    def test_route_b_threads_beside_global_reseeding(self):
        # Two threads run route B while a third keeps reseeding numpy's global
        # random state; route B reads no random state, so nothing moves.
        K = lib.flat_torus(6, 6)
        dec = decompose(K, lib.random_cochain(K, 2, 42))

        def key(rep):
            # Every field; the Green cochain apart, for np.array_equal.
            green = rep.quadrature.cochain
            return (dataclasses.replace(rep, quadrature=dataclasses.replace(
                rep.quadrature, cochain=None)), green.degree, green.values)

        def same(a, b):
            return a[:2] == b[:2] and np.array_equal(a[2], b[2])

        expected = key(verify_uniqueness(K, dec))
        results, stop = [], threading.Event()

        def reseed():
            seed = 0
            while not stop.is_set():
                np.random.seed(seed % 2**32)
                np.random.random()
                seed += 1

        def work():
            for _ in range(3):
                results.append(key(verify_uniqueness(K, dec)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        seeder = threading.Thread(target=reseed)
        workers = [threading.Thread(target=work) for _ in range(2)]
        try:
            seeder.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            stop.set()
            seeder.join(timeout=10)
            sys.setswitchinterval(switch)
        assert not seeder.is_alive() and not any(w.is_alive() for w in workers)
        assert len(results) == 6 and all(same(r, expected) for r in results)


def _d_delta_and_delta_d(K, ell):
    """Dense d_(ell-1) delta_ell and delta_(ell+1) d_ell on C^ell, zero where
    the degree has no face or coface."""
    n = K.n_simplices(ell)
    d_delta = (coboundary(K, ell - 1) @ codifferential(K, ell)
               if ell >= 1 else np.zeros((n, n)))
    delta_d = (codifferential(K, ell + 1) @ coboundary(K, ell)
               if ell < K.max_degree else np.zeros((n, n)))
    return d_delta, delta_d


def _riesz_transforms(K, s):
    """(name, d Lap^(-1/2) or delta Lap^(-1/2), codomain weights) at s's degree."""
    ell = s.degree
    inv_sqrt = inv_sqrt_spectral(s)
    out = []
    if ell < K.max_degree:
        out.append(("d", coboundary(K, ell) @ inv_sqrt, K.weight_vector(ell + 1)))
    if ell >= 1:
        out.append(("delta", codifferential(K, ell) @ inv_sqrt, K.weight_vector(ell - 1)))
    return out


class TestRieszIdentities:
    """The Hodge identities behind the Riesz transforms d Lap^(-1/2) and
    delta Lap^(-1/2), at the matrix level, from the spectral Green operator,
    inverse square root and harmonic projector."""

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_resolution_of_identity(self, name, K):
        # d delta G + delta d G = 1 - H.
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            green = green_spectral(s)
            d_delta, delta_d = _d_delta_and_delta_d(K, ell)
            one_minus_h = np.eye(s.dim) - harmonic_projector(s)
            assert np.linalg.norm(d_delta @ green + delta_d @ green - one_minus_h, 2) <= 1e-10

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_d_delta_commutes_with_laplacian(self, name, K):
        for ell in all_degrees(K):
            lap = entries(hodge_laplacian(K, ell))
            d_delta, _ = _d_delta_and_delta_d(K, ell)
            scale = max(np.linalg.norm(lap, 2) ** 2, 1.0)
            assert np.linalg.norm(d_delta @ lap - lap @ d_delta, 2) <= 1e-12 * scale

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_d_delta_green_factors_through_half_inverses(self, name, K):
        # d delta G = Lap^(-1/2) d delta Lap^(-1/2).
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            green = green_spectral(s)
            inv_sqrt = inv_sqrt_spectral(s)
            d_delta, _ = _d_delta_and_delta_d(K, ell)
            assert np.linalg.norm(d_delta @ green - inv_sqrt @ d_delta @ inv_sqrt, 2) <= 1e-10

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_transforms_split_the_l2_norm(self, name, K):
        # |d R omega|^2 + |delta R omega|^2 = |(1 - H) omega|^2, so each
        # transform has weighted 2->2 norm at most 1.
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            omega = lib.random_cochain(K, ell, 11)
            coexact_exact = omega.values - harmonic_part(s, omega.values)
            total = 0.0
            for _, T, w_cod in _riesz_transforms(K, s):
                total += float(np.sum(w_cod * (T @ omega.values) ** 2))
                lower, upper = opnorm_bracket(T, 2.0, K.weight_vector(ell), w_cod)
                assert lower == upper <= 1.0 + 1e-10
            assert total == pytest.approx(s.norm2(coexact_exact) ** 2, rel=1e-10, abs=1e-24)

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_brackets_ordered(self, name, K):
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            for _, T, w_cod in _riesz_transforms(K, s):
                for p in (1.5, 2.0, 3.0):
                    lower, upper = opnorm_bracket(T, p, K.weight_vector(ell), w_cod,
                                                  iters=48, seed=0)
                    assert 0.0 <= lower <= upper + 1e-8


class TestSpectrumBelongsToComplex:
    """Every routine that takes K reads the spectrum K holds.  A spectrum
    that is not K's reaches K only as a cache entry under K's name; such an
    entry is a miss, so every routine gives what it gives uncached."""

    @staticmethod
    def _calls(K):
        def closed():  # exact plus harmonic, so harmonic_representative accepts it
            exact = coboundary(K, 0) @ lib.random_cochain(K, 0, 5).values
            return Cochain(1, exact + laplacian_spectrum(K, 1).kernel_basis()[:, 0])

        omega = lib.random_cochain(K, 1, 5)
        return {
            "kernel_decay_fit": lambda: hodgeheat.kernel_decay_fit(K, 1, 1.0),
            "interpolation_report": lambda: hodgeheat.interpolation_report(K, 1),
            "gaffney_constant": lambda: hodgeheat.gaffney_constant(K, 1, 1.0),
            "decompose": lambda: decompose(K, omega),
            "harmonic_representative": lambda: harmonic_representative(K, closed()),
            "verify_uniqueness": lambda: verify_uniqueness(K, decompose(K, omega)),
        }

    # (the spectrum written under K's degree-1 name, a builder of K)
    CASES = {
        "other_complex": (lambda: laplacian_spectrum(lib.flat_torus(4, 4), 1),
                          lambda: lib.flat_torus(6, 6)),
        "other_weights": (lambda: laplacian_spectrum(
                              log_uniform_weights(lib.flat_torus(6, 6), 3), 1),
                          lambda: lib.flat_torus(6, 6)),
        "degree_past_complex": (lambda: laplacian_spectrum(lib.flat_torus(6, 6), 2),
                                lambda: lib.cycle_complex(12)),
    }
    COCHAIN_ROUTINES = ("decompose", "harmonic_representative", "verify_uniqueness")

    def _check(self, routine, spectrum_of, make, cache_dir):
        K, uncached = make(), make()
        save_spectral_data(spectrum_of(), str(cache_dir / f"{complex_content_hash(K, 1)}.npz"))
        s = laplacian_spectrum(K, 1, str(cache_dir))
        assert s is laplacian_spectrum(K, 1)
        assert np.array_equal(s.eigenvalues, laplacian_spectrum(uncached, 1).eigenvalues)
        assert np.array_equal(s.weights, K.weights[1])
        np.testing.assert_equal(dataclasses.asdict(self._calls(K)[routine]()),
                                dataclasses.asdict(self._calls(uncached)[routine]()))

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("routine", ["kernel_decay_fit", "interpolation_report",
                                         "gaffney_constant", *COCHAIN_ROUTINES])
    def test_spectrum_of_another_complex_rejected(self, routine, case, tmp_path):
        self._check(routine, *self.CASES[case], tmp_path)

    @pytest.mark.parametrize("routine", COCHAIN_ROUTINES)
    def test_spectrum_of_another_degree_rejected(self, routine, tmp_path):
        # K's own degree-2 spectrum under its degree-1 name, with a degree-1
        # cochain (verify_uniqueness reads the one its decomposition keeps).
        self._check(routine, lambda: laplacian_spectrum(lib.flat_torus(6, 6), 2),
                    lambda: lib.flat_torus(6, 6), tmp_path)


class TestCochainMatchesSpectrum:
    """Every routine that takes a spectrum and a cochain checks both the
    degree and the size, before any arithmetic can broadcast."""

    K = lib.filled_triangle()  # 3 vertices, 3 edges, 1 triangle
    ENTRIES = {"inv_sqrt_subordinated": inv_sqrt_subordinated}

    @pytest.mark.parametrize("degree,n", [(1, 5), (0, 3), (2, 1)],
                             ids=["size", "degree", "both"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_mismatch_rejected(self, entry, degree, n):
        s = laplacian_spectrum(self.K, 1)
        message = (f"^cochain of degree {degree} on {n} simplices does not match "
                   f"the spectrum of degree 1 on 3 simplices$")
        with pytest.raises(ValueError, match=message):
            self.ENTRIES[entry](s, Cochain(degree, np.ones(n)))
