"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The corpus is the seven named complexes plus twenty seeded
random weighted 2-complexes; every criterion runs at its stated tolerance
over the whole corpus.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import CORPUS, all_degrees, child_env
from hodgeheat import (
    Cochain,
    admissible_interval,
    betti_numbers,
    coboundary,
    decay_rate,
    decompose,
    gaffney_constant,
    harmonic_representative,
    inv_sqrt_spectral,
    inv_sqrt_subordinated,
    laplacian_spectrum,
    measure_alpha,
    opnorm_bracket,
    verify_uniqueness,
)
from hodgeheat import library as lib
from hodgeheat.io import complex_to_json_dict

P_PROBES = (1.25, 1.5, 4.0 / 3.0, 2.0, 3.0, 4.0)

_INTERVALS = {}


def _interval_data(name, K, ell):
    """(spectral data, alpha, tau, p1, p2) cached per corpus entry/degree."""
    key = (name, ell)
    if key not in _INTERVALS:
        s = laplacian_spectrum(K, ell)
        fit = measure_alpha(s, (0.5, 1.0, 2.0, 4.0))
        tau = s.gap
        if math.isinf(tau):
            p1, p2 = 1.0, math.inf
        else:
            p1, p2 = admissible_interval(fit.alpha, tau, tau / 20.0)
        _INTERVALS[key] = (s, fit.alpha, tau, p1, p2)
    return _INTERVALS[key]


def _opnorm2w(M, w):
    sw = np.sqrt(w)
    return float(np.linalg.svd((M * sw[:, None]) / sw[None, :], compute_uv=False)[0])


def test_criterion_1_decomposition_theorem():
    for name, K in CORPUS:
        for ell in all_degrees(K):
            s, alpha, tau, p1, p2 = _interval_data(name, K, ell)
            probes = tuple(p for p in P_PROBES if p1 < p < p2)
            for i in range(20):
                omega = lib.random_cochain(K, ell, seed=1000 + i)
                dec = decompose(K, omega, p_list=probes)
                where = f"{name} ell={ell} cochain={i}"
                assert dec.residual <= 1e-8, f"residual {dec.residual} at {where}"
                assert dec.harmonic_defect <= 1e-8, \
                    f"harmonic defect {dec.harmonic_defect} at {where}"
                worst = max(dec.orthogonality.values())
                assert worst <= 1e-8, f"orthogonality {worst} at {where}"
                for p in probes:
                    assert math.isfinite(dec.c_p[p]), f"c_p infinite at {where} p={p}"
    print("ACCEPTANCE 1 decomposition-theorem: PASS")


def test_criterion_2_uniqueness_dual_route():
    for name, K in CORPUS:
        for ell in all_degrees(K):
            omega = lib.random_cochain(K, ell, seed=2000 + ell)
            rep = verify_uniqueness(K, decompose(K, omega))
            assert rep.passed, \
                f"route disagreement {rep.max_rel_diff} at {name} ell={ell}"
            assert rep.perturbation_detected, f"perturbation missed at {name} ell={ell}"
    print("ACCEPTANCE 2 uniqueness-dual-route: PASS")


def test_criterion_3_exact_gap_decay():
    for name, K in CORPUS:
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            expected_rate = s.gap
            for t in (0.1, 1.0, 5.0):
                M = s.function_matrix(lambda lam: np.exp(-t * lam) * (lam > 0))
                measured = _opnorm2w(M, s.weights)
                expected = 0.0 if math.isinf(expected_rate) else math.exp(-expected_rate * t)
                assert abs(measured - expected) <= 1e-10, \
                    f"2->2 decay off by {abs(measured - expected)} at {name} ell={ell} t={t}"
    print("ACCEPTANCE 3 exact-gap-decay: PASS")


def test_criterion_4_subordination_identity():
    for name, K in CORPUS:
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            if math.isinf(s.gap):
                continue
            omega = lib.random_cochain(K, ell, seed=3000 + ell)
            exact = inv_sqrt_spectral(s) @ omega.values
            quad = inv_sqrt_subordinated(s, omega, error_target=1e-6).cochain.values
            scale = np.linalg.norm(exact)
            if scale == 0.0:
                assert np.linalg.norm(quad) <= 1e-12
            else:
                rel = np.linalg.norm(quad - exact) / scale
                assert rel <= 1e-6, f"subordination error {rel} at {name} ell={ell}"
    print("ACCEPTANCE 4 subordination-identity: PASS")


def test_criterion_5_interpolation_soundness():
    for name, K in CORPUS:
        for ell in all_degrees(K):
            s, alpha, tau, p1, p2 = _interval_data(name, K, ell)
            if not math.isinf(tau):
                # gamma(2) = tau exactly, and the interval is exactly conjugate.
                assert decay_rate(alpha, tau, 2.0) == tau
                fp1, fp2 = admissible_interval(
                    Fraction(alpha), Fraction(tau), Fraction(tau) / 20
                )
                assert 1 / fp1 + 1 / fp2 == 1
                assert float(fp1) == pytest.approx(p1, abs=1e-12)
            probes = [p for p in P_PROBES if p1 < p < p2]
            for t in (0.5, 1.0, 2.0, 5.0):
                M = s.function_matrix(lambda lam: np.exp(-t * lam) * (lam > 0))
                for p in probes:
                    lower, upper = opnorm_bracket(M, p, s.weights, s.weights,
                                                  iters=32, seed=7)
                    assert lower <= upper + 1e-8, \
                        f"bracket inverted at {name} ell={ell} t={t} p={p}: " \
                        f"{lower} > {upper}"
    print("ACCEPTANCE 5 interpolation-soundness: PASS")


def test_criterion_6_cohomology_representation():
    for name, K in CORPUS:
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            rng = np.random.default_rng(6000 + 31 * ell)
            harmonic = np.zeros(K.n_simplices(ell))
            if s.kernel_dim:
                harmonic = s.kernel_basis() @ rng.uniform(-1, 1, s.kernel_dim)
            exact = np.zeros_like(harmonic)
            if ell >= 1:
                f = rng.uniform(-1, 1, K.n_simplices(ell - 1))
                exact = coboundary(K, ell - 1) @ f
            omega = Cochain(ell, harmonic + exact)
            norm = s.norm2(omega.values)
            if norm == 0.0:
                continue
            rep = harmonic_representative(K, omega)
            err = s.norm2(rep.cochain.values - harmonic) / norm
            assert err <= 1e-8, f"representative off by {err} at {name} ell={ell}"
            assert rep.coexact_norm_rel <= 1e-8, \
                f"coexact part {rep.coexact_norm_rel} at {name} ell={ell}"
    print("ACCEPTANCE 6 cohomology-representation: PASS")


def test_criterion_7_corollary_dimension_consistency():
    for name, K in CORPUS:
        betti = betti_numbers(K)
        for ell in all_degrees(K):
            s = laplacian_spectrum(K, ell)
            assert s.kernel_dim == betti[ell], \
                f"kernel dim {s.kernel_dim} != betti {betti[ell]} at {name} ell={ell}"
    assert betti_numbers(lib.flat_torus(6, 6)) == [1, 2, 1]
    assert betti_numbers(lib.simplex_boundary(3)) == [1, 0, 1]
    print("ACCEPTANCE 7 corollary-dimension-consistency: PASS")


def test_criterion_8_gaffney_bound_at_p2():
    bound = math.sqrt(2.0) + 1e-10
    for name, K in CORPUS:
        for ell in all_degrees(K):
            for gamma in (0.1, 1.0, 10.0):
                rep = gaffney_constant(K, ell, gamma, p=2, n_samples=20, seed=4000)
                assert rep.max_ratio <= bound, \
                    f"gaffney ratio {rep.max_ratio} at {name} ell={ell} gamma={gamma}"
    print("ACCEPTANCE 8 gaffney-bound: PASS")


def test_criterion_9_report_determinism(tmp_path):
    inputs = {
        "c3.json": complex_to_json_dict(lib.cycle_complex(3)),
        "random101.json": complex_to_json_dict(lib.random_two_complex(101)),
    }
    for fname, doc in inputs.items():
        (tmp_path / fname).write_text(json.dumps(doc))

    def run(fname, out, threads):
        cmd = [sys.executable, "-m", "hodgeheat.cli", "report", fname,
               "--degree", "1", "--seed", "42", "-o", out]
        proc = subprocess.run(cmd, cwd=tmp_path, env=child_env(threads),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return (tmp_path / out).read_bytes()

    for threads in ("1", "2"):
        a = run("c3.json", f"a{threads}.json", threads)
        b = run("c3.json", f"b{threads}.json", threads)
        assert a == b, f"reports differ at {threads} threads"
    a = run("random101.json", "ra.json", "1")
    b = run("random101.json", "rb.json", "1")
    assert a == b
    print("ACCEPTANCE 9 report-determinism: PASS")
