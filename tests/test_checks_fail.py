"""Every named check can fail: one injected fault per check.

A faulty spectrum is held in ``K._spectra[ell]`` before the routine runs,
or written as the ``--cache-dir`` entry of the complex's degree, so the
check reads it where it reads every spectrum.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import log10_uniform_weights
from hodgeheat import (
    SimplicialComplex,
    betti_numbers,
    decompose,
    dimension_consistency,
    laplacian_spectrum,
)
from hodgeheat import decomposition
from hodgeheat import library as lib
from hodgeheat.cli import main
from hodgeheat.io import complex_to_json_dict
from hodgeheat.spectral import SpectralData, complex_content_hash, save_spectral_data


def _scaled_kernel_columns(s: SpectralData, columns: int = 1,
                           scale: float = 1e200) -> SpectralData:
    """s with its first ``columns`` kernel eigencochains multiplied by scale:
    still finite, no longer W-unit."""
    V = s.eigencochains.copy()
    V[:, :columns] *= scale
    return SpectralData(s.degree, s.eigenvalues, V, s.weights, s.kernel_dim, s.gap)


def _spread_torus():
    """The 6x6 torus with weights 10^U(-3, 3) on every simplex, drawn degree
    by degree from one ``np.random.default_rng(12)``: its spectra count 2,
    5 and 2 kernel directions against Betti numbers 1, 2 and 1."""
    K = lib.flat_torus(6, 6)
    rng = np.random.default_rng(12)
    return SimplicialComplex(K.simplices, [10.0 ** rng.uniform(-3.0, 3.0, len(level))
                                           for level in K.simplices])


def _failed(result, failed):
    """Assert that a run exited 1 naming exactly the ``failed`` checks, in
    report order, on stderr and in its payload; return the payload."""
    assert result.exit_code == 1, result.output
    assert result.stderr == f"invariant violated: {', '.join(failed)}\n"
    payload = json.loads(result.stdout)
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == failed
    return payload


class TestKernelDimEqualsBetti:
    @pytest.mark.parametrize("command, failed", [
        ("spectrum", ["kernel_dim_equals_betti"]),
        ("interp", ["kernel_dim_equals_betti"]),
        # The extra kernel column is not in the kernel of the Laplacian.
        ("decompose", ["kernel_dim_equals_betti", "harmonic_component_defect"]),
    ], ids=["spectrum", "interp", "decompose"])
    def test_subcommand_names_the_check(self, tmp_path, command, failed):
        # Each subcommand runs the spectrum stage, which brings the check.
        path = tmp_path / "spread.json"
        path.write_text(json.dumps(complex_to_json_dict(_spread_torus())))
        result = CliRunner().invoke(main, [command, str(path), "--degree", "0"])
        (check,) = [c for c in _failed(result, failed)["checks"]
                    if c["name"] == "kernel_dim_equals_betti"]
        assert (check["value"], check["threshold"]) == (2, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_harmonic_defect_fails_exactly_on_a_misclassified_kernel(self, seed):
        # Under weights 10^U(-3, 3), 9 of these 60 spectra count a kernel
        # that is not the Betti number.  A misclassified kernel column has a
        # small nonzero eigenvalue, so |L omega3|_W / |omega3|_W reads it
        # (1.9e-5 or more); on the others it reads at most 1.4e-10.
        K = log10_uniform_weights(lib.flat_torus(6, 6), 3, seed)
        betti = betti_numbers(K)
        for ell in range(K.max_degree + 1):
            dec = decompose(K, lib.random_cochain(K, ell, 42))
            misclassified = laplacian_spectrum(K, ell).kernel_dim != betti[ell]
            assert (dec.harmonic_defect > 1e-8) == misclassified, (ell, dec.harmonic_defect)


class TestDimensionConsistency:
    @pytest.mark.parametrize("make, ell", [
        (lambda: lib.flat_torus(6, 6), 0), (lambda: lib.flat_torus(6, 6), 1),
        (lib.filled_triangle, 0), (lambda: lib.cycle_complex(3), 1)],
        ids=["torus-0", "torus-1", "filled-0", "C3-1"])
    def test_kernel_column_off_unit_fails_its_row(self, make, ell):
        K = make()
        K._spectra[ell] = _scaled_kernel_columns(laplacian_spectrum(K, ell))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the projection overflows, with no warning
            rows = dimension_consistency(K, betti_numbers(K))
        assert [r["ok"] for r in rows] == [d != ell for d in range(K.max_degree + 1)]
        assert rows[ell]["equal"] and rows[ell]["projector_residual"] > 1e-8

    def test_nan_defect_fails_its_row(self):
        # Both of degree 1's kernel columns 1e200 times too long: the
        # projection sums inf - inf, so each defect is NaN.
        K = lib.flat_torus(6, 6)
        K._spectra[1] = _scaled_kernel_columns(laplacian_spectrum(K, 1), columns=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = dimension_consistency(K, betti_numbers(K))
        assert [r["ok"] for r in rows] == [True, False, True]
        assert rows[1]["equal"] and math.isnan(rows[1]["projector_residual"])

    @pytest.mark.parametrize("columns, residual", [(1, "inf"), (2, "nan")])
    def test_report_names_the_check_for_a_cache_entry_of_another_degree(self, tmp_path,
                                                                        columns, residual):
        # The degree-1 entry is read only by the dimension stage of a
        # degree-0 report; its first kernel column, or both, are 1e200
        # times too long.  (A degree-1 report lifts degree 1 from the
        # degree-0 and degree-2 spectra it builds, so K holds those before
        # any entry is read.)
        K = lib.flat_torus(6, 6)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        cache = tmp_path / "cache"
        cache.mkdir()
        save_spectral_data(_scaled_kernel_columns(laplacian_spectrum(K, 1), columns),
                           str(cache / f"{complex_content_hash(K, 1)}.npz"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, ["report", str(path), "--degree", "0",
                                               "--cache-dir", str(cache)])
        assert result.exit_code == 1, result.output
        assert result.stderr == "invariant violated: dimension_consistency\n"
        assert not caught, [str(w.message) for w in caught]
        rows = json.loads(result.stdout)["dimension_consistency"]
        assert [r["ok"] for r in rows] == [True, False, True]
        assert rows[1]["equal"] and rows[1]["projector_residual"] == residual


def _swapped_kernel_column(s: SpectralData) -> SpectralData:
    """s with kernel column 0 swapped for the nonkernel column 5: still
    W-orthonormal, and still a kernel of the right size."""
    V = s.eigencochains.copy()
    V[:, [0, 5]] = V[:, [5, 0]]
    return replace(s, eigencochains=V)


def _mixed_kernel_column(s: SpectralData) -> SpectralData:
    """s with kernel column 0 plus 1e-6 times column 5, W-renormalized."""
    V = s.eigencochains.copy()
    column = V[:, 0] + 1e-6 * V[:, 5]
    V[:, 0] = column / np.sqrt(np.sum(s.weights * column * column))
    return replace(s, eigencochains=V)


def _nonzero_eigenvalues_high(s: SpectralData) -> SpectralData:
    """s with every nonzero eigenvalue 1e-6 relative too high."""
    lam = s.eigenvalues.copy()
    lam[s.kernel_dim:] *= 1.0 + 1e-6
    return replace(s, eigenvalues=lam, gap=float(lam[s.kernel_dim]))


def _torus_report(tmp_path, fault=None):
    """``report --degree 1`` on the 6x6 torus, whose degree-1 spectrum is
    read from a ``--cache-dir`` entry of ``fault`` of the true one."""
    K = lib.flat_torus(6, 6)
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(complex_to_json_dict(K)))
    cache = tmp_path / "cache"
    cache.mkdir()
    if fault is not None:
        save_spectral_data(fault(laplacian_spectrum(K, 1)),
                           str(cache / f"{complex_content_hash(K, 1)}.npz"))
    return CliRunner().invoke(main, ["report", str(path), "--degree", "1",
                                     "--cache-dir", str(cache)])


class TestHeldSpectrumFaults:
    """A faulty degree-1 spectrum that passes the cache's hit test: finite,
    of the right shapes, its kernel first and exactly 0, its gap eigenvalue
    k.  Route B reads only its gap, largest eigenvalue and weights."""

    def test_nonzero_eigenvalues_high_fail_the_residual(self, tmp_path):
        # The Green operator is 1e-6 too small, and so are the exact and
        # coexact parts; route B is within its 1e-6 tolerance of route A.
        payload = _failed(_torus_report(tmp_path, _nonzero_eigenvalues_high),
                          ["decomposition_residual"])
        (check,) = [c for c in payload["checks"] if c["name"] == "decomposition_residual"]
        assert check["value"] == pytest.approx(1e-6, rel=0.01)

    def test_kernel_column_swapped_fails_the_harmonic_defect(self, tmp_path):
        # The swapped-in column has eigenvalue 1 of the Laplacian that K
        # holds, whatever the eigenbasis says.
        payload = _failed(_torus_report(tmp_path, _swapped_kernel_column),
                          ["decomposition_residual", "harmonic_component_defect",
                           "uniqueness_dual_route"])
        (check,) = [c for c in payload["checks"] if c["name"] == "harmonic_component_defect"]
        assert check["value"] > 0.1

    def test_kernel_column_mixed_fails_the_orthogonality(self, tmp_path):
        _failed(_torus_report(tmp_path, _mixed_kernel_column),
                ["decomposition_residual", "harmonic_component_defect",
                 "component_orthogonality"])

    def test_heat_series_high_fails_the_dual_route(self, tmp_path, monkeypatch):
        # Route B's heat coefficients 1e-4 relative too large: its parts
        # move by 4.3e-6 of |omega|.  At 1e-5 they stay within the 1e-6
        # tolerance.
        heat_series = decomposition._heat_series
        monkeypatch.setattr(decomposition, "_heat_series",
                            lambda t, b: heat_series(t, b) * (1.0 + 1e-4))
        _failed(_torus_report(tmp_path), ["uniqueness_dual_route"])


# Each check that a report emits, and the test whose fault fails it by name.
FAULTS = {
    "kernel_dim_equals_betti": TestKernelDimEqualsBetti.test_subcommand_names_the_check,
    "decomposition_residual":
        TestHeldSpectrumFaults.test_nonzero_eigenvalues_high_fail_the_residual,
    "harmonic_component_defect":
        TestHeldSpectrumFaults.test_kernel_column_swapped_fails_the_harmonic_defect,
    "component_orthogonality":
        TestHeldSpectrumFaults.test_kernel_column_mixed_fails_the_orthogonality,
    "uniqueness_dual_route": TestHeldSpectrumFaults.test_heat_series_high_fails_the_dual_route,
    "dimension_consistency":
        TestDimensionConsistency.test_report_names_the_check_for_a_cache_entry_of_another_degree,
}

# Checks with no fault, and why.
UNFAULTED = {
    "uniqueness_kernel_perturbation":
        "it passes under every fault above, since its residue reads only the W-orthonormality "
        "of the kernel basis; the acceptance test's criterion 2 reads its "
        "perturbation_detected; a certified kernel (ROADMAP direction 10) removes it",
}


def test_every_check_has_its_fault(tmp_path):
    # A check added to the report without a fault here fails this test.
    # Unfaulted, the report that the faults above break passes.
    result = _torus_report(tmp_path)
    assert result.exit_code == 0, result.output
    names = [c["name"] for c in json.loads(result.stdout)["checks"]]
    assert not FAULTS.keys() & UNFAULTED.keys()
    assert [name for name in names if name not in FAULTS.keys() | UNFAULTED.keys()] == []
