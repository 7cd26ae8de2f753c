"""Every named check can fail: one injected fault per check.

A faulty spectrum is held in ``K._spectra[ell]`` before the routine runs,
or written as the ``--cache-dir`` entry of the complex's degree, so the
check reads it where it reads every spectrum.
"""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from hodgeheat import (
    SimplicialComplex,
    betti_numbers,
    dimension_consistency,
    laplacian_spectrum,
)
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


class TestKernelDimEqualsBetti:
    @pytest.mark.parametrize("command", ["spectrum", "interp", "decompose"])
    def test_subcommand_names_the_check(self, tmp_path, command):
        # Each subcommand runs the spectrum stage, which brings the check.
        path = tmp_path / "spread.json"
        path.write_text(json.dumps(complex_to_json_dict(_spread_torus())))
        result = CliRunner().invoke(main, [command, str(path), "--degree", "0"])
        assert result.exit_code == 1, result.output
        assert result.stderr == "invariant violated: kernel_dim_equals_betti\n"
        (check,) = [c for c in json.loads(result.stdout)["checks"] if not c["passed"]]
        assert (check["name"], check["value"], check["threshold"]) == (
            "kernel_dim_equals_betti", 2, 1)


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
