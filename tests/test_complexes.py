"""Complex construction, discrete operators, norms, and Betti numbers."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import (
    CORPUS,
    CORPUS_IDS,
    NAMED,
    NAMED_IDS,
    all_degrees,
    codifferential,
    log_uniform_weights,
    spectrum_of,
    traced_peak,
    weighted_adjoint,
)
import hodgeheat.complexes
from hodgeheat import (
    Cochain,
    SimplicialComplex,
    betti_numbers,
    build_complex,
    coboundary,
    hodge_laplacian,
    inner_product,
    lp_norm,
)
from hodgeheat import library as lib
from hodgeheat.cli import RunConfig, run_pipeline
from hodgeheat.complexes import (
    _coboundary_apply,
    _codifferential_apply,
    _incidence,
    _pivot_rows,
    _vertex_ranks,
)
from hodgeheat.io import complex_to_json_dict
from hodgeheat.spectral import RANK_TOL


class TestBuildComplex:
    def test_single_edge(self):
        K = build_complex({"edges": [(0, 1)]})
        assert K.vertex_count == 2
        assert K.n_simplices(1) == 1
        assert K.simplices[1] == ((0, 1),)

    def test_c3_closure_adds_vertices(self):
        K = build_complex({"edges": [(0, 1), (1, 2), (0, 2)]})
        assert K.vertex_count == 3
        assert K.max_degree == 1

    def test_filled_triangle_against_subset_oracle(self):
        # Oracle: the closure of a single triangle is every nonempty subset.
        K = build_complex({"triangles": [(0, 1, 2)]})
        for ell in range(3):
            expected = sorted(itertools.combinations((0, 1, 2), ell + 1))
            assert list(K.simplices[ell]) == expected

    def test_duplicate_simplex_rejected_with_tuple(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            build_complex({"edges": [(0, 1), (1, 0)]})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            build_complex({"edges": [(0, 1)], "weights": {1: [0.0]}})

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            build_complex({"edges": [(1, 1)]})

    def test_weights_follow_simplices_through_sorting(self):
        K = build_complex({"edges": [(1, 2), (0, 1)], "weights": {1: [5.0, 7.0]}})
        assert K.simplices[1] == ((0, 1), (1, 2))
        assert list(K.weight_vector(1)) == [7.0, 5.0]

    def test_closure_added_faces_get_unit_weight(self):
        K = build_complex({"triangles": [(0, 1, 2)], "weights": {2: [3.0]}})
        assert list(K.weight_vector(2)) == [3.0]
        assert list(K.weight_vector(1)) == [1.0, 1.0, 1.0]

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).filter(
            lambda t: len(set(t)) == 3
        ),
        min_size=1, max_size=8, unique_by=lambda t: tuple(sorted(t)),
    ))
    @settings(max_examples=60, deadline=None)
    def test_closure_property(self, triangles):
        K = build_complex({"triangles": triangles})
        for ell in range(1, K.max_degree + 1):
            lower = set(K.simplices[ell - 1])
            for s in K.simplices[ell]:
                for face in itertools.combinations(s, ell):
                    assert face in lower
        for level in K.simplices:
            assert len(set(level)) == len(level)
        for w in K.weights:
            assert np.all(w > 0)


class TestCoboundary:
    def test_interval_incidence(self):
        D = coboundary(lib.interval(), 0).entries
        assert D.shape == (1, 2)
        assert list(D[0]) == [-1.0, 1.0]

    def test_c3_rows_from_edge_boundaries(self):
        # Oracle: each edge (u, v) has dσ row +1 at v, -1 at u.
        K = lib.cycle_complex(3)
        D = coboundary(K, 0).entries
        for row, (u, v) in enumerate(K.simplices[1]):
            expected = np.zeros(3)
            expected[K.index_of(0, (u,))] = -1.0
            expected[K.index_of(0, (v,))] = 1.0
            assert np.array_equal(D[row], expected)

    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_dd_is_exactly_zero(self, name, K):
        for ell in range(K.max_degree - 1):
            d_lo = coboundary(K, ell).entries
            d_hi = coboundary(K, ell + 1).entries
            assert np.array_equal(d_hi @ d_lo, np.zeros((d_hi.shape[0], d_lo.shape[1])))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            coboundary(lib.interval(), 1)


_NON_CONTIGUOUS = build_complex(
    {"triangles": [(5, 17, 40), (5, 17, 1000), (5, 40, 1000), (17, 40, 1000)]})
_RANK_CASES = CORPUS + [
    ("non_contiguous", _NON_CONTIGUOUS),
    ("negative_ids", build_complex({"triangles": [(-9, -4, 0), (-4, 0, 6)], "edges": [(-9, 6)]})),
    ("past_int64", build_complex({"triangles": [(-5, 2 ** 63, 2 ** 64 + 5)]})),
]


@pytest.mark.parametrize("name,K", _RANK_CASES, ids=[name for name, _ in _RANK_CASES])
def test_vertex_ranks_equal_index_lookups(name, K):
    # Oracle: each vertex looked up in degree 0 by id.  Exact, dtype included.
    for k in all_degrees(K):
        want = np.array([[K.index_of(0, (v,)) for v in s] for s in K.simplices[k]],
                        dtype=np.int64).reshape(-1, k + 1)
        got = _vertex_ranks(K, k)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    with pytest.raises(ValueError, match="out of range"):
        _vertex_ranks(K, K.max_degree + 1)


def _loop_coboundary(K, ell):
    """Oracle: d_ell filled one simplex and one face at a time."""
    lo, hi = K.simplices[ell], K.simplices[ell + 1]
    D = np.zeros((len(hi), len(lo)))
    for row, s in enumerate(hi):
        for i in range(len(s)):
            D[row, K.index_of(ell, s[:i] + s[i + 1:])] = -1.0 if i % 2 else 1.0
    return D


def _dense_laplacian(K, ell):
    """Oracle: d delta + delta d as dense products of the loop coboundaries."""
    def delta(k):
        return weighted_adjoint(_loop_coboundary(K, k - 1), K.weight_vector(k - 1),
                                K.weight_vector(k))
    A = np.zeros((K.n_simplices(ell), K.n_simplices(ell)))
    if ell >= 1:
        A += _loop_coboundary(K, ell - 1) @ delta(ell)
    if ell < K.max_degree:
        A += delta(ell + 1) @ _loop_coboundary(K, ell)
    return A


def _sparse_laplacian(K, ell):
    """Oracle: d delta + delta d as products of compressed-row incidence matrices."""
    def pair(k):
        rows, cols, signs = _incidence(K, k)
        shape = (K.n_simplices(k + 1), K.n_simplices(k))
        adjoint = signs * K.weight_vector(k + 1)[rows] / K.weight_vector(k)[cols]
        return (sparse.csr_array((signs, (rows, cols)), shape=shape),
                sparse.csr_array((adjoint, (cols, rows)), shape=shape[::-1]))
    n = K.n_simplices(ell)
    A = sparse.csr_array((n, n))
    if ell >= 1:
        d, delta = pair(ell - 1)
        A = A + d @ delta
    if ell < K.max_degree:
        d, delta = pair(ell)
        A = A + delta @ d
    return A.toarray()


class TestOperatorsAgainstLoopOracles:
    @pytest.mark.parametrize("seed", [None, 11, 12], ids=["plain", "weighted_11", "weighted_12"])
    @pytest.mark.parametrize("name,K", CORPUS + [("torus_12x12", lib.flat_torus(12, 12))],
                             ids=CORPUS_IDS + ["torus_12x12"])
    def test_laplacian_equals_sparse_product(self, name, K, seed):
        # Bit for bit, weights exp(U(-3, 3)) included: every entry is summed
        # in the sparse product's order.
        if seed is not None:
            K = log_uniform_weights(K, seed)
        for ell in all_degrees(K):
            assert np.array_equal(hodge_laplacian(K, ell).entries, _sparse_laplacian(K, ell))

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_coboundary_and_laplacian_equal_oracles(self, name, K, weighted):
        if weighted:
            K = log_uniform_weights(K, 3)
        for ell in all_degrees(K):
            if ell < K.max_degree:
                assert np.array_equal(coboundary(K, ell).entries, _loop_coboundary(K, ell))
            assert np.array_equal(hodge_laplacian(K, ell).entries, _dense_laplacian(K, ell))

    def test_non_contiguous_vertex_ids(self):
        K = log_uniform_weights(_NON_CONTIGUOUS, 5)
        for ell in range(K.max_degree):
            d = coboundary(K, ell).entries
            assert np.array_equal(d, _loop_coboundary(K, ell))
            if ell + 1 < K.max_degree:
                d_hi = coboundary(K, ell + 1).entries
                assert np.array_equal(d_hi @ d, np.zeros((d_hi.shape[0], d.shape[1])))
        for ell in all_degrees(K):
            assert np.array_equal(hodge_laplacian(K, ell).entries, _dense_laplacian(K, ell))

    def test_six_simplex_among_a_thousand_vertices(self):
        # 1000^7 overflows int64: the face columns come from the face table,
        # not from base-1000 keys, so d_5 is built like every other degree.
        K = build_complex({"vertices": list(range(1000)), 6: [tuple(range(7))]})
        d4, d5 = coboundary(K, 4).entries, coboundary(K, 5).entries
        assert np.array_equal(d4, _loop_coboundary(K, 4))
        assert np.array_equal(d5, _loop_coboundary(K, 5))
        assert np.array_equal(d5 @ d4, np.zeros((d5.shape[0], d4.shape[1])))

    def test_missing_face_rejected(self):
        # Without the face closure: vertex 3 and the edge (1, 2) are absent.
        with pytest.raises(ValueError, match=r"simplex \(0, 3\) has a face \(3,\) missing "
                                             "from degree 0"):
            SimplicialComplex([[(0,), (1,), (2,), (5,)], [(0, 1), (0, 2), (0, 3)]],
                              [[1.0] * 4, [1.0] * 3])
        with pytest.raises(ValueError, match=r"simplex \(0, 1, 2\) has a face \(1, 2\) "
                                             "missing from degree 1"):
            SimplicialComplex([[(0,), (1,), (2,)], [(0, 1), (0, 2)], [(0, 1, 2)]],
                              [[1.0] * 3, [1.0] * 2, [1.0]])


class TestCodifferential:
    def test_unit_weights_is_transpose(self):
        K = lib.cycle_complex(4)
        assert np.array_equal(codifferential(K, 1).entries, coboundary(K, 0).entries.T)

    def test_interval_edge_to_vertices(self):
        K = lib.interval()
        out = codifferential(K, 1).apply(Cochain(1, [1.0]))
        assert list(out.values) == [-1.0, 1.0]

    @pytest.mark.parametrize("name,K", NAMED, ids=NAMED_IDS)
    def test_adjointness_100_random_pairs(self, name, K):
        rng = np.random.default_rng(7)
        for ell in range(K.max_degree):
            d = coboundary(K, ell).entries
            delta = codifferential(K, ell + 1).entries
            w_lo, w_hi = K.weight_vector(ell), K.weight_vector(ell + 1)
            U = rng.uniform(-1, 1, size=(len(w_lo), 100))
            V = rng.uniform(-1, 1, size=(len(w_hi), 100))
            lhs = np.einsum("ik,i,ik->k", d @ U, w_hi, V)
            rhs = np.einsum("jk,j,jk->k", U, w_lo, delta @ V)
            scale = max(np.max(np.abs(lhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            codifferential(lib.interval(), 0)


def _book(pages):
    """Triangles (0, 1, k) on one spine edge: it has ``pages`` cofaces, far
    past twice the mean, so the coface slots spill."""
    return build_complex({"triangles": [(0, 1, k) for k in range(2, pages + 2)]})


_APPLY_CASES = [*CORPUS, ("book_8", _book(8))]
_APPLY_CASES += [(f"{name}_log_uniform", log_uniform_weights(K, i))
                 for i, (name, K) in enumerate(_APPLY_CASES)]


@pytest.mark.parametrize("name,K", _APPLY_CASES, ids=[name for name, _ in _APPLY_CASES])
def test_block_applies_are_the_cochain_applies_row_by_row(name, K):
    # A block of cochains, one per row, gives each row the bits of the
    # one-cochain apply; and the codifferential keeps the bits of one
    # np.bincount over the face table, spill included.
    rng = np.random.default_rng(5)
    for ell in all_degrees(K):
        block = rng.uniform(-1.0, 1.0, (4, K.n_simplices(ell)))
        if ell < K.max_degree:
            rows = [_coboundary_apply(K, ell, row) for row in block]
            assert np.array_equal(_coboundary_apply(K, ell, block), rows)
            assert np.allclose(rows, block @ coboundary(K, ell).entries.T, rtol=0, atol=1e-14)
        if ell >= 1:
            rows = [_codifferential_apply(K, ell, row) for row in block]
            assert np.array_equal(_codifferential_apply(K, ell, block), rows)
            signs = (-1.0) ** np.arange(ell + 1)
            lower = K.weight_vector(ell - 1)
            for row, got in zip(block, rows):
                signed = np.multiply.outer(K.weight_vector(ell) * row, signs)
                summed = np.bincount(K._faces[ell].ravel(), signed.ravel(), minlength=lower.size)
                assert (summed / lower).tobytes() == got.tobytes()


def test_book_spills_its_spine():
    K = _book(8)
    cofaces, _, (spill, _, _) = hodgeheat.complexes._coface_slots(K, 2)
    assert cofaces.shape[0] < 8 and set(spill.tolist()) == {K.index_of(1, (0, 1))}


class TestHodgeLaplacian:
    def test_interval_matches_graph_laplacian_oracle(self):
        A = hodge_laplacian(lib.interval(), 0).entries
        assert np.array_equal(A, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(np.linalg.eigvalsh(A), [0.0, 2.0])

    def test_c3_eigenvalues_oracle(self):
        A = hodge_laplacian(lib.cycle_complex(3), 0).entries
        oracle = 2.0 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(A, oracle)
        assert np.allclose(np.linalg.eigvalsh(A), [0.0, 3.0, 3.0])

    def test_filled_triangle_degree1_is_three_identity(self):
        A = hodge_laplacian(lib.filled_triangle(), 1).entries
        assert np.allclose(A, 3.0 * np.eye(3))

    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_psd_and_weighted_symmetry(self, name, K):
        for ell in all_degrees(K):
            op = hodge_laplacian(K, ell)
            w = K.weight_vector(ell)
            adj = weighted_adjoint(op.entries, w, w)
            assert np.linalg.norm(op.entries - adj) <= 1e-12 * max(
                np.linalg.norm(op.entries), 1e-300
            )
            sqrt_w = np.sqrt(w)
            sym = (op.entries * sqrt_w[:, None]) / sqrt_w[None, :]
            evals = np.linalg.eigvalsh((sym + sym.T) / 2)
            assert evals.min() >= -1e-10

    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_apply_agrees_with_the_dense_product(self, name, K):
        for ell in all_degrees(K):
            L = hodge_laplacian(K, ell)
            x = np.random.default_rng(ell).standard_normal(K.n_simplices(ell))
            y = L.apply(Cochain(ell, x))
            dense = L.entries @ x
            assert y.degree == ell
            assert np.linalg.norm(y.values - dense) <= 1e-14 * np.linalg.norm(dense)

    def test_apply_builds_no_dense_matrix(self):
        K = lib.flat_torus(20, 20)
        L = hodge_laplacian(K, 1)
        n = K.n_simplices(1)
        omega = Cochain(1, np.random.default_rng(0).standard_normal(n))
        y, peak = traced_peak(L.apply, omega)
        assert np.array_equal(y.values, L @ omega.values)
        assert peak < n * n * 8 / 10  # the row slots are built in this call too

    def test_apply_checks_degree_and_size(self):
        L = hodge_laplacian(lib.cycle_complex(3), 1)
        with pytest.raises(ValueError, match="operator expects degree 1, got 0"):
            L.apply(Cochain(0, np.zeros(3)))
        with pytest.raises(ValueError, match="acts on 3 values, got a cochain of 4"):
            L.apply(Cochain(1, np.zeros(4)))


def _complete_two_skeleton(n):
    return build_complex({"triangles": list(itertools.combinations(range(n), 3))})


_BETTI_NAMED = [
    ("torus_12x12", lib.flat_torus(12, 12)),
    ("torus_20x20", lib.flat_torus(20, 20)),
    ("C2000", lib.cycle_complex(2000)),
    ("simplex_boundary_4", lib.simplex_boundary(4)),
    ("two_skeleton_20", _complete_two_skeleton(20)),
]


def _rp2():
    """The 6-vertex real projective plane."""
    return build_complex({"triangles": [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]})


def _klein_bottle(n=4):
    """flat_torus's n x n grid, with the vertical wrap sending row i to -i."""
    def vid(i, j):
        if j == n:
            i, j = -i, 0
        return (i % n) * n + j

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            triangles += [tuple(sorted((a, b, d))), tuple(sorted((a, d, c)))]
    return build_complex({"triangles": triangles})


_TORSION = {"rp2": _rp2, "klein": _klein_bottle}


class TestBetti:
    def test_known_homotopy_types(self):
        assert betti_numbers(lib.cycle_complex(3)) == [1, 1]
        assert betti_numbers(lib.filled_triangle()) == [1, 0, 0]
        assert betti_numbers(lib.simplex_boundary(3)) == [1, 0, 1]
        assert betti_numbers(lib.flat_torus(6, 6)) == [1, 2, 1]

    @pytest.mark.parametrize("name,K", CORPUS, ids=CORPUS_IDS)
    def test_kernel_dimension_matches_betti(self, name, K):
        betti = betti_numbers(K)
        for ell in all_degrees(K):
            s = spectrum_of(name, K, ell)
            assert s.kernel_dim == betti[ell]

    @pytest.mark.parametrize("name,K", CORPUS + _BETTI_NAMED,
                             ids=CORPUS_IDS + [name for name, _ in _BETTI_NAMED])
    def test_exact_betti_equals_float_svd_ranks(self, name, K):
        # ranks[ell] = rank d_(ell-1), 0 past either end.
        ranks = [0] + [_svd_rank(coboundary(K, ell).entries) for ell in range(K.max_degree)] + [0]
        assert betti_numbers(K) == [K.n_simplices(ell) - ranks[ell] - ranks[ell + 1]
                                    for ell in all_degrees(K)]

    def test_reduction_rank_of_random_rank_deficient_integer_matrices(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            m, n = rng.integers(1, 30, size=2)
            k = rng.integers(0, min(m, n))
            A = rng.integers(-2, 3, size=(m, k)) @ rng.integers(-2, 3, size=(k, n))
            for B in (A, A.T):
                assert _reduction_rank(B) == _fraction_rank(B) <= k

    def test_reduction_of_empty_and_zero_columns(self):
        for shape in ((0, 3), (3, 0), (2, 5), (5, 2)):
            assert _reduction_rank(np.zeros(shape, dtype=int)) == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_euler_characteristic(self, seed):
        K = lib.random_two_complex(seed)
        signs = [(-1) ** ell for ell in all_degrees(K)]
        assert (sum(s * K.n_simplices(ell) for ell, s in enumerate(signs))
                == sum(s * b for s, b in zip(signs, betti_numbers(K))))

    @pytest.mark.parametrize("name,betti,betti_mod2",
                             [("rp2", [1, 0, 0], [1, 1, 1]),
                              ("klein", [1, 1, 0], [1, 2, 1])])
    def test_torsion_fixtures(self, name, betti, betti_mod2, monkeypatch):
        # Both have 2-torsion in H_1: over F_2 a Betti number comes out too
        # large, never too small.
        K = _TORSION[name]()
        assert betti_numbers(K) == betti
        monkeypatch.setattr(hodgeheat.complexes, "_PRIME", 2)
        assert betti_numbers(K) == betti_mod2

    def test_torsion_at_the_prime_fails_named_invariants(self, tmp_path, monkeypatch):
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps(complex_to_json_dict(_TORSION["rp2"]())))
        config = RunConfig(input_path=str(path), degree=1, p_list=())
        assert run_pipeline(config)[1] == 0
        monkeypatch.setattr(hodgeheat.complexes, "_PRIME", 2)
        report, code = run_pipeline(config)
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert code == 1
        assert {"kernel_dim_equals_betti", "dimension_consistency"} <= failed


def _reduction_rank(A):
    """Rank over F_p of an integer matrix, by the Betti oracle's reduction."""
    return len(_pivot_rows({i: int(v) for i, v in enumerate(col) if v} for col in A.T))


def _fraction_rank(A):
    """Exact rational rank by Gaussian elimination over fractions.Fraction."""
    rows = [[Fraction(int(v)) for v in row] for row in A]
    rank = 0
    for col in range(A.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _svd_rank(A):
    """Singular values of A above RANK_TOL times the largest."""
    if min(A.shape) == 0:
        return 0
    sv = np.linalg.svd(A, compute_uv=False)
    return 0 if sv[0] == 0 else int(np.count_nonzero(sv > RANK_TOL * sv[0]))


class TestLpNorm:
    def test_zero_cochain_all_p(self):
        K = lib.interval()
        zero = Cochain(0, np.zeros(2))
        for p in (1, 1.5, 2, 7, math.inf):
            assert lp_norm(K, zero, p) == 0.0

    def test_euclidean_three_four_five(self):
        K = lib.interval()
        assert lp_norm(K, Cochain(0, [3.0, 4.0]), 2) == pytest.approx(5.0, abs=1e-14)

    def test_weighted_l1(self):
        K = build_complex({"vertices": [0, 1], "weights": {0: [2.0, 1.0]}})
        assert lp_norm(K, Cochain(0, [1.0, 1.0]), 1) == pytest.approx(3.0, abs=1e-14)

    def test_p_below_one_rejected(self):
        for p in (0.5, math.nan):
            with pytest.raises(ValueError, match="p >= 1"):
                lp_norm(lib.interval(), Cochain(0, [1.0, 2.0]), p)

    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.floats(1.0, 8.0),
        st.floats(0.0, 8.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_holder_consistency(self, values, p, extra):
        K = lib.path_complex(5)
        omega = Cochain(1, values)
        q = p + extra
        total = K.total_weight(1)
        lhs = lp_norm(K, omega, p)
        rhs = total ** (1.0 / p - 1.0 / q) * lp_norm(K, omega, q)
        assert lhs <= rhs * (1 + 1e-10) + 1e-12

    def test_holder_against_sup_norm(self):
        K = lib.path_complex(5)
        rng = np.random.default_rng(3)
        omega = Cochain(1, rng.uniform(-1, 1, 4))
        total = K.total_weight(1)
        for p in (1.0, 2.0, 3.5):
            bound = total ** (1.0 / p) * lp_norm(K, omega, math.inf)
            assert lp_norm(K, omega, p) <= bound * (1 + 1e-12)


class TestOperatorMatrix:
    def test_apply_checks_degree(self):
        K = lib.interval()
        with pytest.raises(ValueError):
            coboundary(K, 0).apply(Cochain(1, [1.0]))

    def test_inner_product_requires_equal_degree(self):
        K = lib.interval()
        with pytest.raises(ValueError):
            inner_product(K, Cochain(0, [1.0, 0.0]), Cochain(1, [1.0]))
