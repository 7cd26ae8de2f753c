"""Operator p-norms, rate measurement, and the exponent calculus."""

import dataclasses
import functools
import json
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse import csgraph

import hodgeheat
from conftest import (
    CORPUS,
    NAMED,
    NAMED_IDS,
    all_degrees,
    codifferential,
    count_calls,
    entries,
    general_product,
    log_uniform_weights,
    traced_peak,
    weighted_adjoint,
)
from hodgeheat import (
    SimplicialComplex,
    admissible_interval,
    betti_numbers,
    build_complex,
    decay_rate,
    dimension_consistency,
    gaffney_constant,
    harmonic_projector,
    hodge_laplacian,
    interpolation_report,
    kernel_decay_fit,
    laplacian_spectrum,
    measure_alpha,
    opnorm_bracket,
    opnorm_exact_extremes,
    opnorm_power_method,
    projector_norm_profile,
    volume_growth_fit,
)
from hodgeheat import library as lib
from hodgeheat.cli import RunConfig, run_pipeline
from hodgeheat.complexes import _SparseOperator, _vertex_ranks
from hodgeheat.interpolation import (
    _P_SAMPLES,
    _distance_keys,
    _Factored,
    _hop_distances,
    _opnorm2,
    _simplex_distances,
    admissible_exponents,
)
from hodgeheat.io import complex_to_json_dict
from hodgeheat.spectral import _ROW_BLOCK, SpectralData


def _count_slot_builds(monkeypatch):
    """The operators whose row slots are built, one entry per build."""
    built, build = [], _SparseOperator._slots.func

    def counting(self):
        built.append(self)
        return build(self)

    slots = functools.cached_property(counting)
    slots.__set_name__(_SparseOperator, "_slots")
    monkeypatch.setattr(_SparseOperator, "_slots", slots)
    return built


class TestExactExtremes:
    def test_identity_any_weights(self):
        w = np.array([0.5, 2.0, 3.0])
        for p in (1, math.inf):
            assert opnorm_exact_extremes(np.eye(3), p, w, w) == 1.0

    def test_max_column_sum(self):
        assert opnorm_exact_extremes([[1.0, 1.0], [0.0, 1.0]], 1) == 2.0

    def test_heat_on_vertices_is_stochastic(self):
        # Oracle: explicit matrix exponential of the graph Laplacian has
        # nonnegative entries with unit column sums, so the 1->1 norm is 1.
        K = lib.path_complex(5)
        L = entries(hodge_laplacian(K, 0))
        for t in (0.1, 1.0, 4.0):
            P = expm(-t * L)
            assert P.min() >= -1e-15
            assert np.allclose(P.sum(axis=0), 1.0, atol=1e-12)
            assert opnorm_exact_extremes(P, 1) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_p_rejected(self):
        with pytest.raises(ValueError, match="power method"):
            opnorm_exact_extremes(np.eye(2), 1.5)

    def test_duality_is_exact(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n, m = rng.integers(2, 7, size=2)
            A = rng.normal(size=(m, n))
            w_dom = rng.uniform(0.5, 3.0, size=n)
            w_cod = rng.uniform(0.5, 3.0, size=m)
            adj = weighted_adjoint(A, w_dom, w_cod)
            lhs = opnorm_exact_extremes(A, 1, w_dom, w_cod)
            rhs = opnorm_exact_extremes(adj, math.inf, w_cod, w_dom)
            assert lhs == rhs


class TestPowerMethod:
    def test_identity(self):
        assert opnorm_power_method(np.eye(4), 1.7, seed=3) == pytest.approx(1.0, abs=1e-12)

    def test_p2_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(8, 8)) + 3.0 * np.outer(rng.normal(size=8), rng.normal(size=8))
        sv = np.linalg.svd(A, compute_uv=False)[0]
        est = opnorm_power_method(A, 2.0, iters=500, seed=1)
        assert est == pytest.approx(sv, abs=1e-8 * sv)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
    def test_diagonal_attains_max_entry(self, p):
        assert opnorm_power_method(np.diag([3.0, 1.0]), p, iters=100, seed=2) == \
            pytest.approx(3.0, abs=1e-10)

    def test_lower_bound_is_monotone_in_iters(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6))
        prev = 0.0
        for iters in (1, 2, 4, 8, 16, 32):
            est = opnorm_power_method(A, 2.5, iters=iters, seed=9)
            assert est >= prev - 1e-15
            prev = est

    def test_rejects_endpoint_p(self):
        with pytest.raises(ValueError):
            opnorm_power_method(np.eye(2), 1.0)


class TestRieszThorin:
    def test_arithmetic_example(self):
        # p = 4/3 is theta = 1/2 between 1 and 2: the upper bracket is
        # sqrt(|A|_1 |A|_2), here sqrt(2 * golden ratio).
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        upper = opnorm_bracket(A, 4.0 / 3.0)[1]
        assert upper == pytest.approx(math.sqrt(2.0 * (1.0 + math.sqrt(5.0)) / 2.0), abs=1e-14)

    def test_equal_norms_give_same_bound(self):
        # 5 times a permutation: every endpoint norm is 5, and so is each bracket.
        A = 5.0 * np.eye(3)[[2, 0, 1]]
        for p in (1.5, 3.0):
            lower, upper = opnorm_bracket(A, p)
            assert upper == pytest.approx(5.0, abs=1e-12)
            assert lower == pytest.approx(5.0, abs=1e-12)

    def test_theta_limits_rejected(self):
        # theta = 0 or 1 puts p on an exact endpoint: no interpolation, the
        # bracket closes.  theta outside [0, 1] means p < 1: rejected.
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        for p in (1.0, 2.0, math.inf):
            lower, upper = opnorm_bracket(A, p)
            assert lower == upper
        for p in (0.0, 0.5, -0.2, math.nan):
            with pytest.raises(ValueError):
                opnorm_bracket(A, p)

    def test_power_estimates_respect_interpolation(self):
        # 200 seeded random matrices: the lower bound at the interpolated
        # exponent never beats m0^(1-theta) m1^theta from the exact
        # endpoint norms, with 1/p = (1-theta)/p0 + theta/p1.
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
            m1 = opnorm_exact_extremes(A, 1)
            m2 = opnorm_bracket(A, 2.0)[0]
            mi = opnorm_exact_extremes(A, math.inf)
            if min(m1, m2, mi) == 0.0:
                continue
            for theta in (0.25, 0.5, 0.75):
                p = 1.0 / ((1 - theta) + theta / 2)
                est = opnorm_power_method(A, p, iters=60, seed=trial)
                assert est <= m1 ** (1 - theta) * m2 ** theta + 1e-8
                p = 2.0 / (1 - theta)
                est = opnorm_power_method(A, p, iters=60, seed=trial)
                assert est <= m2 ** (1 - theta) * mi ** theta + 1e-8


class TestMeasureAlpha:
    def test_vertex_heat_has_zero_growth(self):
        for K in (lib.path_complex(5), lib.cycle_complex(12), lib.complete_graph(4)):
            fit = measure_alpha(laplacian_spectrum(K, 0), (0.5, 1.0, 2.0, 4.0))
            assert fit.alpha == 0.0
            assert all(n == pytest.approx(1.0, abs=1e-11) for n in fit.norms)

    def test_single_simplex_degree(self):
        K = lib.interval()  # degree 1 has one simplex; P_t is exp(-2t)
        fit = measure_alpha(laplacian_spectrum(K, 1), (0.5, 1.0, 2.0))
        assert fit.alpha == 0.0
        assert fit.c1 == pytest.approx(1.0, abs=1e-12)
        assert fit.norms[0] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_c3_degree1_reports_fit(self):
        fit = measure_alpha(laplacian_spectrum(lib.cycle_complex(3), 1), (0.25, 0.5, 1.0, 2.0))
        assert fit.alpha >= 0.0
        assert math.isfinite(fit.residual)
        assert fit.envelope_c1 >= max(
            n * math.exp(-fit.alpha * t) for t, n in zip(fit.t_grid, fit.norms)
        ) - 1e-15

    def test_degenerate_grid_rejected(self):
        K = lib.interval()
        for grid in ((1.0, 2.0), (1.0, 1.0, 2.0), (-1.0, 1.0, 2.0),
                     (math.nan, 1.0, 2.0), (1.0, 2.0, math.inf)):
            with pytest.raises(ValueError, match="grid"):
                measure_alpha(laplacian_spectrum(K, 0), grid)

    @pytest.mark.parametrize("weights_seed", [None, 3, 4])
    @pytest.mark.parametrize("t_grid", [(0.25, 0.5, 1.0, 2.0, 4.0), (1000.0, 2000.0, 4000.0)])
    def test_norms_match_dense_heat_matrices(self, t_grid, weights_seed):
        # The norms measure_alpha sums up a block of rows at a time are the
        # exact 1->1 norms of the dense heat matrices, to rounding: at most
        # 5.8e-16 relative over the corpus.  At t >= 1000 every nonzero
        # mode underflows and only the harmonic projector is left.  The
        # 12x12 torus's 432 edges span several row blocks.
        for name, K in CORPUS + [("torus_12x12", lib.flat_torus(12, 12))]:
            if weights_seed is not None:
                K = log_uniform_weights(K, weights_seed)
            for ell in all_degrees(K):
                s = (laplacian_spectrum(K, ell) if weights_seed is None
                     else laplacian_spectrum(K, ell))
                dense = [opnorm_exact_extremes(s.function_matrix(lambda lam: np.exp(-t * lam)),
                                               1, s.weights, s.weights) for t in t_grid]
                assert measure_alpha(s, t_grid).norms == pytest.approx(dense, rel=1e-15), \
                    f"{name} ell={ell}"


class TestFootprint:
    """Peak traced memory above the start, on the 20x20 torus at degree 1.

    The interval stage reads its n x n matrices (heat, kernel decay,
    projector) a block of rows at a time, and its distances as a
    vertex-to-simplex table, so no stage holds an n x n array beside the
    eigenbasis: each stays under half of one n x n buffer of doubles.
    """

    K = lib.flat_torus(20, 20)

    @pytest.fixture(scope="class")
    def spectrum(self):
        return laplacian_spectrum(self.K, 1)

    def check(self, spectrum, fn, *args, **kwargs):
        n = spectrum.dim
        _, peak = traced_peak(fn, *args, **kwargs)
        assert peak <= 0.5 * n * n * 8, peak / (n * n * 8)

    def test_measure_alpha(self, spectrum):
        self.check(spectrum, measure_alpha, spectrum, (0.25, 0.5, 1.0, 2.0, 4.0))

    def test_kernel_decay_fit(self, spectrum):
        _simplex_distances(self.K, 1)  # K holds them, as after a report's first fit
        self.check(spectrum, kernel_decay_fit, self.K, 1, 1.0)

    def test_projector_norm_profile(self, spectrum):
        self.check(spectrum, projector_norm_profile, spectrum, (1.25, 4.0 / 3.0, 1.5, 2.0, 3.0))

    def test_simplex_distances(self, spectrum):
        # A fresh complex, whose hop search and table are built here.
        self.check(spectrum, _simplex_distances, lib.flat_torus(20, 20), 1)


class TestSemigroupInterpolationBound:
    @pytest.mark.parametrize("name,K", NAMED[:6], ids=NAMED_IDS[:6])
    def test_complement_norms_under_rate_envelope(self, name, K):
        # At every sampled t the 1->1 norm of P_t(1-H) sits under its fitted
        # envelope c1 * exp(alpha t) and the 2->2 norm equals exp(-tau t),
        # so interpolation bounds the p->p lower estimates in between.  The
        # fit is measure_alpha's, on the complement heat matrices.
        t_grid = (0.5, 1.0, 2.0, 5.0)
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            if math.isinf(s.gap):
                continue
            heat = [s.function_matrix(lambda lam: np.exp(-t * lam) * (lam > 0)) for t in t_grid]
            norms = np.array([opnorm_exact_extremes(M, 1, s.weights, s.weights) for M in heat])
            slope = np.polyfit(t_grid, np.log(np.maximum(norms, 1e-300)), 1)[0]
            alpha = float(slope) if slope > 1e-12 else 0.0
            envelope_c1 = float(np.max(norms * np.exp(-alpha * np.array(t_grid))))
            tau = s.gap
            p1, p2 = admissible_interval(alpha, tau, tau / 20.0)
            for t, norm1, M in zip(t_grid, norms, heat):
                assert norm1 <= envelope_c1 * math.exp(alpha * t) * (1 + 1e-12)
                for p in (1.25, 1.5, 3.0, 4.0):
                    if not p1 < p < p2:
                        continue
                    q = min(p, p / (p - 1.0))
                    theta = 2.0 * (1.0 - 1.0 / q)
                    bound = ((envelope_c1 * math.exp(alpha * t)) ** (1 - theta)
                             * math.exp(-tau * t) ** theta)
                    est = opnorm_power_method(M, p, s.weights, s.weights,
                                              iters=40, seed=3)
                    assert est <= bound + 1e-8, \
                        f"{name} ell={ell} t={t} p={p}: {est} > {bound}"


class TestMeasureTau:
    def test_c3_and_interval(self):
        # tau is the spectral gap, and the decay rate at p = 2.
        for K, tau in ((lib.cycle_complex(3), 3.0), (lib.interval(), 2.0)):
            gap = laplacian_spectrum(K, 0).gap
            assert gap == pytest.approx(tau, abs=1e-12)
            assert decay_rate(0.5, gap, 2.0) == pytest.approx(tau, abs=1e-12)

    def test_decay_equality_at_sampled_times(self):
        # The 2->2 decay rate on the harmonic complement is the gap.
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 0)
        tau = s.gap
        sw = np.sqrt(s.weights)
        for t in (0.1, 1.0, 5.0):
            M = s.function_matrix(lambda lam: np.exp(-t * lam) * (lam > 0))
            sym = (M * sw[:, None]) / sw[None, :]
            measured = np.linalg.svd(sym, compute_uv=False)[0]
            assert abs(measured - math.exp(-tau * t)) <= 1e-10


class TestAdmissibleInterval:
    def test_alpha_zero_eps_zero_full_range(self):
        assert admissible_interval(0.0, 1.0, 0.0) == (1.0, math.inf)

    def test_alpha_one_tau_one(self):
        p1, p2 = admissible_interval(1.0, 1.0, 0.0)
        assert p1 == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert p2 == pytest.approx(4.0, abs=1e-15)

    @given(
        st.fractions(min_value=0, max_value=10),
        st.fractions(min_value=Fraction(1, 100), max_value=10),
        st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_conjugacy_exact_in_rational_arithmetic(self, alpha, tau, frac):
        epsilon = frac * tau * Fraction(99, 100)
        p1, p2 = admissible_interval(alpha, tau, epsilon)
        if p2 == math.inf:
            assert p1 == 1
        else:
            assert 1 / p1 + 1 / p2 == 1
            assert 1 <= p1 < 2 < p2

    def test_p1_increasing_in_epsilon(self):
        values = [admissible_interval(1.0, 2.0, e)[0] for e in (0.0, 0.5, 1.0, 1.9)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            admissible_interval(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            admissible_interval(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            admissible_interval(-0.5, 1.0, 0.0)


class TestDecayRate:
    def test_p2_is_exactly_tau(self):
        for tau in (0.3, 1.0, 7.25):
            assert decay_rate(1.3, tau, 2.0) == tau

    def test_boundary_of_interval_vanishes(self):
        assert decay_rate(1.0, 1.0, 4.0 / 3.0) == pytest.approx(0.0, abs=1e-15)

    @given(
        st.fractions(min_value=Fraction(1, 10), max_value=5),
        st.fractions(min_value=Fraction(1, 10), max_value=5),
        st.fractions(min_value=Fraction(11, 10), max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_sign_iff_inside_critical_interval(self, alpha, tau, p):
        q0 = 2 * (alpha + tau) / (alpha + 2 * tau)
        q0c = q0 / (q0 - 1) if q0 > 1 else None
        gamma = decay_rate(alpha, tau, p)
        inside = q0 < p and (q0c is None or p < q0c)
        if inside:
            assert gamma > 0
        elif p != q0 and (q0c is None or p != q0c):
            assert gamma <= 0

    @given(st.fractions(min_value=Fraction(11, 10), max_value=Fraction(19, 10)))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_under_conjugation(self, p):
        alpha, tau = Fraction(1, 3), Fraction(5, 4)
        pc = p / (p - 1)
        assert decay_rate(alpha, tau, p) == decay_rate(alpha, tau, pc)

    def test_out_of_range_rejected(self):
        for p in (1.0, math.inf, 0.5):
            with pytest.raises(ValueError):
                decay_rate(0.0, 1.0, p)


class TestProjectorProfile:
    def test_orthogonal_projection_norm_one_at_p2(self):
        K = lib.cycle_complex(3)
        rows = projector_norm_profile(laplacian_spectrum(K, 0), (2.0,))
        assert rows[0]["lower"] == pytest.approx(1.0, abs=1e-10)
        assert rows[0]["upper"] == pytest.approx(1.0, abs=1e-10)

    def test_averaging_has_unit_l1_norm(self):
        K = lib.path_complex(5)
        rows = projector_norm_profile(laplacian_spectrum(K, 0), (1.0,))
        assert rows[0]["upper"] == pytest.approx(1.0, abs=1e-12)

    def test_rank_zero_projector_vanishes(self):
        K = lib.filled_triangle()
        for row in projector_norm_profile(laplacian_spectrum(K, 1), (1.0, 1.5, 2.0, math.inf)):
            assert row["lower"] <= 1e-12 and row["upper"] <= 1e-12

    def test_brackets_ordered_across_grid(self):
        K = lib.simplex_boundary(3)
        s = laplacian_spectrum(K, 1)
        for row in projector_norm_profile(s, (1.0, 1.25, 2.0, 3.0, math.inf)):
            assert row["lower"] <= row["upper"] + 1e-8


def _hop_oracle(K):
    """Hop distances {u: {v: hops}} by breadth-first search from every vertex."""
    adj = {v: set() for (v,) in K.simplices[0]}
    for u, v in K.simplices[1] if K.max_degree >= 1 else ():
        adj[u].add(v)
        adj[v].add(u)
    dist = {}
    for start in adj:
        seen = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for nb in adj[u]:
                if nb not in seen:
                    seen[nb] = seen[u] + 1
                    queue.append(nb)
        dist[start] = seen
    return dist


def _kernel_decay_oracle(K, ell, t0):
    """(bins, component_fits, rho) from a per-pair loop over simplex distances."""
    M = laplacian_spectrum(K, ell).function_matrix(lambda lam: lam * np.exp(-lam * t0 / 4.0))
    dist = _hop_oracle(K)
    roots = sorted({min(reach) for reach in dist.values()})
    component = {v: cid for cid, root in enumerate(roots) for v in dist[root]}
    simplices = K.simplices[ell]
    per_component, all_bins = {}, {}
    for i, si in enumerate(simplices):
        for j, sj in enumerate(simplices):
            if component[si[0]] != component[sj[0]]:
                continue
            d = min(dist[u][v] for u in si for v in sj)
            bins = per_component.setdefault(component[si[0]], {})
            bins[d] = max(bins.get(d, 0.0), abs(M[i, j]))
            all_bins[d] = max(all_bins.get(d, 0.0), abs(M[i, j]))
    floor = max(len(M) * 2.0 ** -53 * np.abs(M).max(), 1e-250)
    fits = []
    for cid, bins in sorted(per_component.items()):
        usable = sorted((d, m) for d, m in bins.items() if m > floor)
        if len(usable) < 2:
            continue
        ds = np.array([d for d, _ in usable], dtype=float)
        logs = np.log([m for _, m in usable])
        slope, intercept = np.polyfit(ds, logs, 1)
        residual = float(np.sqrt(np.mean((logs - (slope * ds + intercept)) ** 2)))
        fits.append({"component": cid, "rho": float(-slope * t0 / 2.0),
                     "residual": residual, "bins": usable})
    rho = min(f["rho"] for f in fits) if fits else None
    return sorted(all_bins.items()), fits, rho


# Two triangles sharing an edge, a dangling edge, a separate triangle, a
# separate edge and two isolated vertices, on non-contiguous vertex ids.
_DISCONNECTED = build_complex({
    "triangles": [(0, 1, 2), (1, 2, 3), (20, 21, 22)],
    "edges": [(3, 7), (40, 41)],
    "vertices": [99, 5],
})
_ORACLE_CASES = [(name, K, ell) for name, K in NAMED for ell in all_degrees(K)]
_ORACLE_CASES += [("disconnected", _DISCONNECTED, ell) for ell in all_degrees(_DISCONNECTED)]
_ORACLE_CASES += [("vertices_only", build_complex({"vertices": [3, 7, 9]}), 0)]
# Weights exp(U(-3, 3)) spread the entries over several orders of magnitude.
_ORACLE_CASES += [("torus_6x6_weighted", log_uniform_weights(lib.flat_torus(6, 6), 6), 1)]
_ORACLE_CASES += [("random_107_weighted", log_uniform_weights(lib.random_two_complex(107), 7), ell)
                  for ell in range(3)]
_ORACLE_CASES += [("random_115_weighted", log_uniform_weights(lib.random_two_complex(115), 2), 2)]
# 432 edges: pairs in different row blocks of the kernel-decay matrix.
_ORACLE_CASES += [("torus_12x12_weighted", log_uniform_weights(lib.flat_torus(12, 12), 6), 1)]


_HOP_CASES = list(CORPUS) + [
    ("disconnected", _DISCONNECTED),
    ("isolated_vertex", build_complex({"edges": [(0, 1), (1, 2)], "vertices": [9]})),
    ("edge_free", build_complex({"vertices": [3, 7, 9]})),
    ("single_vertex", build_complex({"vertices": [0]})),
    ("torus_12x12", lib.flat_torus(12, 12)),
    ("strip_48x3", lib.flat_torus(48, 3)),
    ("torus_20x20", lib.flat_torus(20, 20)),
    # Long diameter and one hub, at the README's few thousand simplices.
    ("cycle_2000", lib.cycle_complex(2000)),
    ("fan_2000", build_complex({"triangles": [(0, v, v % 2000 + 1) for v in range(1, 2001)]})),
]


@pytest.mark.parametrize("name,K", _HOP_CASES, ids=[name for name, _ in _HOP_CASES])
def test_hop_distances_equal_csgraph(name, K):
    # Exact equality, dtypes included, with scipy's graph search as the reference.
    n = K.vertex_count
    edges = _vertex_ranks(K, 1) if K.max_degree >= 1 else np.empty((0, 2), dtype=int)
    graph = sparse.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=False)
    hops = csgraph.shortest_path(graph, directed=False, unweighted=True)
    hops[np.isinf(hops)] = n
    got_labels, got_hops = _hop_distances(K)
    assert np.array_equal(got_labels, labels) and got_labels.dtype == labels.dtype
    assert np.array_equal(got_hops, hops) and got_hops.dtype == np.int32


@pytest.mark.parametrize("pairs", [1, 7])
def test_hop_distances_do_not_depend_on_the_step_size(pairs, monkeypatch):
    # Steps of one or a few pairs split every level, and a vertex of
    # higher degree spans several steps, leaving some of them empty.
    cases = [lib.flat_torus(6, 6), _DISCONNECTED,
             build_complex({"triangles": [(0, v, v % 30 + 1) for v in range(1, 31)]})]
    expected = [_hop_distances(K) for K in cases]
    monkeypatch.setattr(hodgeheat.interpolation, "_BFS_PAIRS", pairs)
    for K, want in zip(cases, expected):
        got = _hop_distances(K)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


def _all_pairs_key(K, ell):
    """Distance keys by (ell+1)^2 gathers of the hop table, one per vertex pair."""
    labels, hops = _hop_distances(K)
    nv, n = K.vertex_count, K.n_simplices(ell)
    verts = _vertex_ranks(K, ell)
    key = np.full((n, n), nv, dtype=np.intp)
    for a in range(ell + 1):
        for b in range(ell + 1):
            np.minimum(key, hops[np.ix_(verts[:, a], verts[:, b])], out=key)
    key += (nv + 1) * labels[verts[:, 0], None].astype(np.intp)
    return key


def _block_keys(K, ell):
    """The keys ``kernel_decay_fit`` bins, one row block at a time, assembled
    into their upper triangle; -1 below it."""
    labels, _, near = _simplex_distances(K, ell)
    verts, n = _vertex_ranks(K, ell), K.n_simplices(ell)
    key = np.full((n, n), -1, dtype=np.intp)
    for i0 in range(0, n, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n)
        rows = _distance_keys(labels, near, verts, i0, i1)
        assert rows.dtype == np.intp
        key[i0:i1, i0:] = np.where(np.tri(i1 - i0, n - i0, -1, dtype=bool), -1, rows)
    return key


_BLOCK_KEY_CASES = _ORACLE_CASES + [("torus_20x20", lib.flat_torus(20, 20), 1)]


@pytest.mark.parametrize("name,K,ell", _BLOCK_KEY_CASES,
                         ids=[f"{name}-{ell}" for name, _, ell in _BLOCK_KEY_CASES])
def test_simplex_distances_equal_all_pairs_gathers(name, K, ell):
    # The keys go through a vertex-to-simplex table, one block of rows at a
    # time; the oracle gathers the hop table once per pair of vertex
    # slots.  Exact on the upper triangle, which the blocks cover once; the
    # 20x20 torus spans several blocks and a short last one.
    key, want = _block_keys(K, ell), _all_pairs_key(K, ell)
    upper = np.triu(np.ones(want.shape, dtype=bool))
    assert want.dtype == np.intp and np.array_equal(key[upper], want[upper])
    assert np.all(key[~upper] == -1)
    assert np.array_equal(_simplex_distances(K, ell)[1], _hop_distances(K)[1])


_ROUNDING_CASES = [(name, K, ell) for name, K in CORPUS for ell in all_degrees(K)]
_ROUNDING_CASES += [(f"torus_{n}x{n}", lib.flat_torus(n, n), 1) for n in (12, 20)]


class TestKernelDecayFit:
    @pytest.mark.parametrize("t0", [0.5, 1.0])
    @pytest.mark.parametrize("name,K,ell", _ORACLE_CASES,
                             ids=[f"{name}-{ell}" for name, _, ell in _ORACLE_CASES])
    def test_matches_per_pair_oracle(self, name, K, ell, t0):
        fit = kernel_decay_fit(K, ell, t0=t0)
        bins, fits, rho = _kernel_decay_oracle(K, ell, t0)
        assert fit.bins == bins
        assert fit.component_fits == fits
        assert fit.rho == rho and fit.degenerate == (rho is None)

    def test_path_graph_has_positive_rho(self):
        K = lib.path_complex(8)
        fit = kernel_decay_fit(K, 0, t0=0.5)
        assert not fit.degenerate
        assert fit.rho > 0
        assert fit.bins[0][0] == 0  # distance-0 bin populated

    def test_single_vertex_degenerate(self):
        K = build_complex({"vertices": [0]})
        fit = kernel_decay_fit(K, 0, t0=1.0)
        assert fit.degenerate
        assert fit.rho is None

    def test_c12_binned_magnitudes_decay_monotonically(self):
        K = lib.cycle_complex(12)
        fit = kernel_decay_fit(K, 0, t0=1.0)
        mags = [m for _, m in fit.bins]
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_disconnected_fits_per_component(self):
        K = build_complex({"edges": [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13)]})
        fit = kernel_decay_fit(K, 0, t0=0.5)
        assert len(fit.component_fits) == 2
        assert fit.rho == min(f["rho"] for f in fit.component_fits)

    def test_invalid_t0(self):
        with pytest.raises(ValueError):
            kernel_decay_fit(lib.interval(), 0, t0=0.0)

    def test_distances_are_held_by_the_complex(self):
        # One hop search per complex and one table per degree (degree 0's
        # is the hop table), held read-only; no caller hands them in.
        K = lib.flat_torus(6, 6)
        vertex, edge = _simplex_distances(K, 0), _simplex_distances(K, 1)
        assert _simplex_distances(K, 1) is edge and edge[1] is vertex[1]
        assert vertex[2] is vertex[1] and edge[2].shape == (K.vertex_count, K.n_simplices(1))
        assert not any(a.flags.writeable for a in (*vertex, *edge))
        with pytest.raises(TypeError):
            kernel_decay_fit(K, 1, 1.0, distances=edge)
        with pytest.raises(TypeError):
            volume_growth_fit(K, distances=edge)

    @pytest.mark.parametrize("name,K,ell", _ROUNDING_CASES,
                             ids=[f"{name}-{ell}" for name, _, ell in _ROUNDING_CASES])
    def test_rho_does_not_depend_on_product_rounding(self, name, K, ell, monkeypatch):
        # The same matrix from the general product V diag(f) V^T, its
        # upper row blocks cut from the whole product and not mirrored,
        # must give the same rho, at t0 = 1 and at a second t0, rho /
        # gamma_vol.  The absolute 1e-12 covers a true rho of 0 (the
        # interval's two bins are equal), which rounding leaves at about
        # +-1e-17.
        first = kernel_decay_fit(K, ell, 1.0)
        t0s = [1.0]
        gamma_vol = volume_growth_fit(K).gamma_vol
        if not first.degenerate and first.rho > 0 and gamma_vol > 0:
            t0s.append(first.rho / gamma_vol)
        rhos = [kernel_decay_fit(K, ell, t0).rho for t0 in t0s]
        patched = []

        def general_blocks(self, f):
            S = general_product(dataclasses.replace(self, weights=np.ones(self.dim)),
                                lambda lam: f)
            patched.append(f)
            for i0 in range(0, self.dim, _ROW_BLOCK):
                i1 = min(i0 + _ROW_BLOCK, self.dim)
                yield i0, i1, S[i0:i1, i0:].copy()

        monkeypatch.setattr(SpectralData, "row_blocks", general_blocks)
        for t0, rho in zip(t0s, rhos):
            gemm_rho = kernel_decay_fit(K, ell, t0).rho
            if rho is None or gemm_rho is None:
                assert rho is gemm_rho
            else:
                assert gemm_rho == pytest.approx(rho, rel=1e-6, abs=1e-12)
        assert len(patched) == len(t0s)

    def test_bins_of_rounding_noise_are_not_fitted(self):
        # Every pair of triangles at distance 1 lies in another block of
        # the degree-2 Laplacian, so those entries of L P_t are exactly 0
        # and the ~2e-16 the product leaves there is rounding noise.
        K = lib.random_two_complex(115)
        blocks = csgraph.connected_components(entries(hodge_laplacian(K, 2)) != 0)[1]
        far = _block_keys(K, 2) > 0
        assert far.any() and not np.any(far & (blocks[:, None] == blocks[None, :]))
        fit = kernel_decay_fit(K, 2, t0=1.0)
        assert [d for d, _ in fit.bins] == [0, 1] and 0 < fit.bins[1][1] < 1e-15
        assert fit.degenerate and fit.rho is None

    def test_weighted_rounding_noise_is_not_fitted(self):
        # The same exact zeros under log-uniform weights: at t0 = 2 the
        # noise left there exceeds the rounding bound of its own dot
        # product, so a floor of that bound alone would fit it.
        K = log_uniform_weights(lib.random_two_complex(115), 1)
        fit = kernel_decay_fit(K, 2, t0=2.0)
        assert [d for d, _ in fit.bins] == [0, 1] and 0 < fit.bins[1][1] < 1e-15
        assert fit.degenerate and fit.rho is None

    def test_edge_endpoint_missing_from_vertices_rejected(self):
        # Without the face closure: edge (0, 1) has no vertex 1.
        with pytest.raises(ValueError, match=r"face \(1,\) missing from degree 0"):
            SimplicialComplex([[(0,), (2,)], [(0, 1)]], [[1.0, 1.0], [1.0]])


def _volume_loop(K):
    """(gamma_vol, c, max_radius) by a loop over centers and radii."""
    w0 = K.weight_vector(0)
    c = float(np.max(w0))
    gamma, max_radius = 0.0, 0
    for reach in _hop_oracle(K).values():
        radius = max(reach.values())
        max_radius = max(max_radius, radius)
        for r in range(1, radius + 1):
            vol = float(sum(w0[K.index_of(0, (v,))] for v, d in reach.items() if d <= r))
            gamma = max(gamma, math.log(vol / c) / r)
    return gamma, c, max_radius


_VOLUME_CASES = list(CORPUS) + [
    ("disconnected", _DISCONNECTED),
    ("disconnected_weighted", log_uniform_weights(_DISCONNECTED, 5)),
    ("torus_6x6_weighted", log_uniform_weights(lib.flat_torus(6, 6), 6)),
]


class TestVolumeGrowth:
    def test_single_vertex(self):
        K = build_complex({"vertices": [0]})
        fit = volume_growth_fit(K)
        assert fit.gamma_vol == 0.0

    def test_p5_envelope_log3(self):
        # Oracle: center balls grow (1, 3, 5, 5, 5); log 3 at r = 1 is the
        # binding envelope over all centers.
        fit = volume_growth_fit(lib.path_complex(5))
        assert fit.gamma_vol == pytest.approx(math.log(3.0), abs=1e-12)
        assert fit.c == 1.0

    def test_k4_envelope_log4(self):
        fit = volume_growth_fit(lib.complete_graph(4))
        assert fit.gamma_vol == pytest.approx(math.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("name,K", _VOLUME_CASES, ids=[name for name, _ in _VOLUME_CASES])
    def test_matches_per_center_loop(self, name, K):
        fit = volume_growth_fit(K)
        gamma, c, max_radius = _volume_loop(K)
        assert (fit.c, fit.max_radius) == (c, max_radius)
        assert fit.gamma_vol == pytest.approx(gamma, rel=1e-14, abs=0.0)
        if np.all(K.weight_vector(0) == 1.0):  # integer volumes: no rounding
            assert fit.gamma_vol == gamma

    def test_envelope_dominates_all_balls(self):
        # brute-force oracle over vertices and radii
        for K in (lib.random_two_complex(105), _DISCONNECTED):
            fit = volume_growth_fit(K)
            w0 = {v: float(K.weight_vector(0)[i]) for i, (v,) in enumerate(K.simplices[0])}
            dist = _hop_oracle(K)
            assert fit.max_radius == max(max(reach.values()) for reach in dist.values())
            for reach in dist.values():
                for r in range(0, max(reach.values()) + 1):
                    vol = sum(w0[v] for v, d in reach.items() if d <= r)
                    assert vol <= fit.c * math.exp(fit.gamma_vol * r) * (1 + 1e-12)


class TestGaffney:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_p2_ratio_below_sqrt2(self, gamma):
        for K, ell in ((lib.cycle_complex(3), 0), (lib.simplex_boundary(3), 1),
                       (lib.flat_torus(6, 6), 1)):
            rep = gaffney_constant(K, ell, gamma, p=2, n_samples=25, seed=5)
            assert rep.max_ratio <= math.sqrt(2.0) + 1e-10
            assert rep.max_ratio <= rep.upper_bound_2 + 1e-10

    def test_single_vertex_ratio_zero(self):
        K = build_complex({"vertices": [0]})
        rep = gaffney_constant(K, 0, 1.0, n_samples=5)
        assert rep.max_ratio == 0.0

    def test_harmonic_direction_scores_zero(self):
        K = lib.cycle_complex(3)
        s = laplacian_spectrum(K, 1)
        h = s.kernel_basis()[:, 0]
        d = codifferential(K, 1) @ h
        assert np.linalg.norm(d) <= 1e-12  # d omega = delta omega = 0 on kernel

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            gaffney_constant(lib.interval(), 0, 0.0)


class TestDimensionConsistency:
    @pytest.mark.parametrize("K", [lib.cycle_complex(3), lib.simplex_boundary(3),
                                   lib.filled_triangle()],
                             ids=["C3", "tetra", "filled"])
    def test_all_rows_ok(self, K):
        rows = dimension_consistency(K, betti_numbers(K))
        assert all(r["ok"] for r in rows)
        assert all(r["spectral_dim"] == r["betti"] for r in rows)

    def test_c3_degree1_counts(self):
        K = lib.cycle_complex(3)
        rows = dimension_consistency(K, betti_numbers(K))
        assert rows[1]["spectral_dim"] == 1 and rows[1]["betti"] == 1

    def test_computes_no_spectrum_and_no_decomposition(self, monkeypatch):
        # Once K holds the spectrum of every degree, they are only read.
        K = lib.flat_torus(6, 6)
        for ell in all_degrees(K):
            laplacian_spectrum(K, ell)
        monkeypatch.setattr(np.linalg, "eigh", _forbidden)
        monkeypatch.setattr(hodgeheat.decomposition, "decompose", _forbidden)
        assert all(r["ok"] for r in dimension_consistency(K, betti_numbers(K)))


def _forbidden(*args, **kwargs):
    raise AssertionError("called")


class TestBracketsShareEndpoints:
    GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf)

    def test_profile_runs_no_svd(self, monkeypatch):
        # The projector's 2-norm is closed form: no _opnorm2, no SVD at all.
        K = lib.flat_torus(6, 6)
        s = laplacian_spectrum(K, 1)
        calls = count_calls(monkeypatch, "_opnorm2", hodgeheat.interpolation)
        svds = count_calls(monkeypatch, "svd", np.linalg)
        projector_norm_profile(s, (1.25, 1.5, 2.0, 3.0, 4.0))
        assert calls == [] and svds == []

    def test_no_svd_when_no_p_needs_it(self, monkeypatch):
        K = lib.flat_torus(6, 6)
        s = laplacian_spectrum(K, 1)
        calls = count_calls(monkeypatch, "_opnorm2", hodgeheat.interpolation)
        projector_norm_profile(s, (1.0, math.inf))
        assert calls == []

    def check_profile_against_dense_brackets(self, K, ell, s):
        # Oracle: one opnorm_bracket call per p on the dense projector, with
        # the closed-form 2-norm as the p = 2 row and interpolation endpoint.
        # The profile reads H's 1->1 and inf->inf norms as one number, off
        # the k-wide row blocks of V_k V_k^T, so it matches both dense
        # endpoints, and the lower bounds the dense ones, up to rounding
        # only; its upper bounds are exactly the interpolation between that
        # number and the 2-norm.
        H, w = harmonic_projector(s), s.weights
        norm2 = 1.0 if s.kernel_dim else 0.0
        rows = projector_norm_profile(s, self.GRID)
        assert [row["p"] for row in rows] == list(self.GRID)
        end = rows[0]["upper"]
        for p in (1, math.inf):
            assert end == pytest.approx(opnorm_exact_extremes(H, p, w, w), rel=1e-13, abs=0.0)
        for p, row in zip(self.GRID, rows):
            lo, hi = opnorm_bracket(H, p, w, w)
            if p == 2.0:
                assert row == {"p": p, "lower": norm2, "upper": norm2}
                continue
            if 1.0 < p < math.inf:
                theta = 2 - 2 / p if p < 2 else 1 - 2 / p
                m0, m1 = (end, norm2) if p < 2 else (norm2, end)
                assert row["upper"] == (m0 ** (1 - theta) * m1 ** theta if m0 and m1 else 0.0)
                assert row["upper"] == pytest.approx(hi, rel=1e-13, abs=0.0)
                assert row["lower"] == pytest.approx(lo, rel=1e-12, abs=0.0)
                # Up to rounding: where the norm is 1 at every p (degree 0),
                # the dense lower bound, too, lands a few ulps above upper.
                assert row["lower"] <= row["upper"] * (1.0 + 1e-12)
                continue
            assert row == {"p": p, "lower": end, "upper": end}
            assert end == pytest.approx(lo, rel=1e-13, abs=0.0) and lo == hi

    @pytest.mark.parametrize("name, K", NAMED, ids=NAMED_IDS)
    def test_profile_rows_equal_per_p_brackets(self, name, K):
        for ell in all_degrees(K):
            self.check_profile_against_dense_brackets(K, ell, laplacian_spectrum(K, ell))

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("name, K", NAMED, ids=NAMED_IDS)
    def test_weighted_profile_rows_equal_per_p_brackets(self, name, K, seed):
        K = log_uniform_weights(K, seed)
        for ell in all_degrees(K):
            self.check_profile_against_dense_brackets(K, ell, laplacian_spectrum(K, ell))

    @pytest.mark.parametrize("seed", [None, 3, 4])
    @pytest.mark.parametrize("name, K", NAMED, ids=NAMED_IDS)
    def test_conjugate_rows_share_their_upper_bound(self, name, K, seed):
        # H is W-self-adjoint, so p and p' have one bracket: the two upper
        # bounds interpolate the one endpoint with exponents that agree up
        # to the rounding of theta, a few ulps.
        K = K if seed is None else log_uniform_weights(K, seed)
        for ell in all_degrees(K):
            rows = {r["p"]: r["upper"]
                    for r in projector_norm_profile(laplacian_spectrum(K, ell), _P_SAMPLES)}
            for p, q in ((4.0 / 3.0, 4.0), (1.5, 3.0)):
                assert abs(rows[p] - rows[q]) <= 4 * np.spacing(max(rows[p], rows[q]))

    @pytest.mark.parametrize("name, K", NAMED, ids=NAMED_IDS)
    def test_projector_norm2_closed_form_matches_svd(self, name, K):
        # H is a W-orthogonal projector: its 2-norm is 1 (0 on a trivial kernel).
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            closed = 1.0 if s.kernel_dim else 0.0
            svd = _opnorm2(harmonic_projector(s), s.weights, s.weights)
            assert abs(svd - closed) <= 1e-12
            row = projector_norm_profile(s, (2.0,))[0]
            assert row["lower"] == row["upper"] == closed


class TestInterpolationReport:
    def test_c3_degree0_fields(self):
        K = lib.cycle_complex(3)
        rep = interpolation_report(K, 0)
        assert rep.alpha == 0.0
        assert rep.tau == pytest.approx(3.0, abs=1e-12)
        assert rep.q0 == pytest.approx(1.0, abs=1e-12)
        assert 1 < rep.p1 < 2 < rep.p2
        assert dict(rep.gamma_of_p)[2.0] == rep.tau
        assert all(g > 0 for _, g in rep.gamma_of_p)

    def test_rho_is_the_positive_fit_at_unit_time(self):
        K = lib.path_complex(8)
        rho = interpolation_report(K, 0).rho
        assert rho is not None and rho > 0
        assert rho == kernel_decay_fit(K, 0, 1.0).rho
        # A negative fitted rate is no rate.
        K = log_uniform_weights(lib.cycle_complex(3), 3)
        assert kernel_decay_fit(K, 0, 1.0).rho < 0
        assert interpolation_report(K, 0).rho is None

    def test_all_harmonic_degree_degenerates_gracefully(self):
        K = build_complex({"vertices": [0, 1]})
        rep = interpolation_report(K, 0)
        assert math.isinf(rep.tau)
        assert rep.p1 == 1.0 and math.isinf(rep.p2)

    def test_all_harmonic_degree_samples_every_p_at_infinite_decay(self):
        # The interval (1, inf) admits every sampled p, and gamma(p) is +inf
        # at each, in the gamma list and in the profile rows alike.
        rep = interpolation_report(build_complex({"vertices": [0, 1]}), 0)
        assert rep.alpha == 0.0 and rep.q0 == 1.0 and rep.epsilon == 0.0
        assert [p for p, _ in rep.gamma_of_p] == [row["p"] for row in rep.profile] == list(
            _P_SAMPLES)
        assert all(g == math.inf for _, g in rep.gamma_of_p)
        assert all(row["gamma"] == math.inf for row in rep.profile)

    @pytest.mark.parametrize("p1, p2, want", [
        (1.05, 21.0, [1.5, 2.0, 3.0]),
        (1.0, math.inf, [1.01, 1.5, 2.0, 3.0, 50.0]),
        (2.0, 2.0, [2.0]),  # 2 is admitted even where rounding closes the interval
        (1.5, 3.0, [2.0]),  # the ends themselves are not
    ])
    def test_admissible_exponents(self, p1, p2, want):
        given = (1.01, 1.5, 2.0, 3.0, 50.0, 1.0, math.inf)
        assert admissible_exponents(given, p1, p2) == want

    @pytest.mark.parametrize("epsilon", [math.nan, -5.0, math.inf])
    def test_bad_epsilon_rejected_on_all_harmonic_degree(self, epsilon):
        K = build_complex({"vertices": [0, 1]})
        with pytest.raises(ValueError, match="epsilon"):
            interpolation_report(K, 0, epsilon=epsilon)

    @pytest.mark.parametrize("routine", [
        lambda K: interpolation_report(K, 2), lambda K: kernel_decay_fit(K, 2, 1.0),
        lambda K: gaffney_constant(K, 2, 1.0)],
        ids=["interpolation_report", "kernel_decay_fit", "gaffney_constant"])
    def test_degree_past_the_complex_rejected(self, routine):
        with pytest.raises(ValueError, match=r"^degree 2 out of range \[0, 1\]$"):
            routine(lib.cycle_complex(12))

    def test_pipeline_work_counts(self, tmp_path, monkeypatch):
        # Every operator once: no SVD, since the Betti numbers are exact
        # ranks over F_p; one eigh each for degrees 0 and 2, and degree 1
        # lifted from them with one QR for its kernel; one n-wide pass over
        # the row blocks of each of alpha's five heat matrices and of the
        # kernel-decay matrix, one b1-wide pass over the projector's,
        # which gives its 1 and inf endpoints in one walk, and no whole
        # matrix; one hop search for the whole report, and one distance
        # table per degree, read by every fit at that degree.
        K = lib.flat_torus(6, 6)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        svds = count_calls(monkeypatch, "svd", np.linalg)
        qrs = count_calls(monkeypatch, "qr", np.linalg)
        eighs = count_calls(monkeypatch, "eigh", np.linalg)
        matrices = count_calls(monkeypatch, "function_matrix", SpectralData)
        passes = count_calls(monkeypatch, "row_blocks", SpectralData)
        walks = count_calls(monkeypatch, "_one_norm", hodgeheat.interpolation)
        made = {}  # stage -> the row-block passes made inside it
        for stage in ("measure_alpha", "kernel_decay_fit", "projector_norm_profile"):
            def tally(*args, _stage=stage, _run=getattr(hodgeheat.interpolation, stage), **kw):
                start = len(passes)
                out = _run(*args, **kw)
                made[_stage] = made.get(_stage, 0) + len(passes) - start
                return out
            monkeypatch.setattr(hodgeheat.interpolation, stage, tally)
        hops = count_calls(monkeypatch, "_hop_distances", hodgeheat.interpolation)
        tables = []  # (degree, the distances K holds there), one per read

        def read(K, ell, _read=hodgeheat.interpolation._simplex_distances):
            tables.append((ell, _read(K, ell)))
            return tables[-1][1]
        monkeypatch.setattr(hodgeheat.interpolation, "_simplex_distances", read)
        powers = count_calls(monkeypatch, "opnorm_power_method", hodgeheat.interpolation)
        # Operators come from the face tables: no dense matrix is scanned
        # for its nonzeros, and route B builds its row slots once and runs
        # one Chebyshev recurrence for its heat limit and Green term.  The
        # lift applies delta_2, so d_1^T builds its row slots first.
        nonzeros = count_calls(monkeypatch, "nonzero", np)
        flat_nonzeros = count_calls(monkeypatch, "flatnonzero", np)
        conversions = count_calls(monkeypatch, "of", _SparseOperator)
        row_slots = _count_slot_builds(monkeypatch)
        recurrences = count_calls(monkeypatch, "_chebyshev_sum", hodgeheat.decomposition)
        report, code = run_pipeline(RunConfig(input_path=str(path), p_list=()))
        assert code == 0 and report["ok"]
        assert (len(svds), len(qrs), len(eighs), len(matrices), len(hops)) == (0, 1, 2, 0, 1)
        # The volume fit reads degree 0, whose table is the hop table; the
        # kernel-decay fit reads the degree-1 table built on those hops.
        held = {}
        assert all(held.setdefault(ell, table) is table for ell, table in tables)
        assert sorted(held) == [0, 1] and held[1][1] is held[0][1] is held[0][2]
        n, b1 = K.n_simplices(1), report["betti"][1]
        assert made == {"measure_alpha": 5, "kernel_decay_fit": 1, "projector_norm_profile": 1}
        assert sorted(args[1].size for args in passes) == [b1] + [n] * 6
        assert sorted(args[1].size for args in walks) == [b1] + [n] * 5
        assert sum(np.array_equal(args[1], np.ones(b1)) for args in walks) == 1
        # The projector brackets iterate through the rank-b1 factor of H:
        # no n x n matrix reaches the power method.
        assert powers and all(isinstance(args[0], _Factored) for args in powers)
        assert {(args[0].left.shape, args[0].right.shape) for args in powers} == {((n, b1),) * 2}
        # The full report builds route A once: verify_uniqueness compares
        # route B against decompose's result and splits only its own potential.
        decomposes = count_calls(monkeypatch, "decompose",
                                 hodgeheat.cli, hodgeheat.decomposition)
        splits = count_calls(monkeypatch, "_hodge_split", hodgeheat.decomposition)
        n0, n2 = K.n_simplices(0), K.n_simplices(2)
        assert [op.shape for op in row_slots] == [(n, n2)] and not recurrences
        eighs.clear()
        row_slots.clear()
        report, code = run_pipeline(RunConfig(input_path=str(path)))
        assert code == 0 and report["ok"] and report["uniqueness"].passed
        assert (len(decomposes), len(splits), len(eighs)) == (1, 2, 2)
        # The lift and route A apply delta_2, route A delta_1 and route B
        # the Laplacian: each operator builds its row slots once.
        assert sorted(op.shape for op in row_slots) == [(n0, n), (n, n2), (n, n)]
        assert len(recurrences) == 1 and len(recurrences[0][2]) == 2
        assert nonzeros and all(np.ndim(args[0]) == 1 for args in nonzeros)
        # np.flatnonzero ravels its argument before np.nonzero sees it, and
        # _SparseOperator.of only passes the assembled operators through: it
        # scans no dense matrix.
        assert all(np.ndim(args[0]) == 1 for args in flat_nonzeros)
        assert conversions and all(isinstance(args[0], _SparseOperator) for args in conversions)


class TestConjugateExponent:
    def test_values(self):
        # The brackets pair p with its conjugate p' = p / (p - 1): the
        # p'->p' bracket of A is the p->p bracket of A^T, exactly at the
        # endpoints (1 and inf, 2 and 2), up to rounding for the interpolated
        # upper bound.
        A = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, 3.0], [1.0, 0.0, -1.0]])
        for p, q in ((1.0, math.inf), (2.0, 2.0), (4.0 / 3.0, 4.0), (1.25, 5.0)):
            upper = opnorm_bracket(A, q)[1]
            assert opnorm_bracket(A.T, p)[1] == pytest.approx(upper, rel=1e-14)
            assert opnorm_bracket(A, p)[1] == pytest.approx(opnorm_bracket(A.T, q)[1],
                                                            rel=1e-14)
            # The decay rate mirrors across 2 through the same pairing.
            if 1.0 < p < math.inf:
                assert decay_rate(0.5, 2.0, p) == pytest.approx(decay_rate(0.5, 2.0, q),
                                                                abs=1e-14)
