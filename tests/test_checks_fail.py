"""Every named check can fail: one injected fault per check.

A faulty spectrum is held in ``K._spectra[ell]`` before the routine runs,
or written as the ``--cache-dir`` entry of the complex's degree, so the
check reads it where it reads every spectrum.
"""

import json
import warnings

import pytest
from click.testing import CliRunner

from hodgeheat import dimension_consistency, laplacian_spectrum
from hodgeheat import library as lib
from hodgeheat.cli import main
from hodgeheat.io import complex_to_json_dict
from hodgeheat.spectral import SpectralData, complex_content_hash, save_spectral_data


def _scaled_kernel_column(s: SpectralData, scale: float = 1e200) -> SpectralData:
    """s with its first kernel eigencochain multiplied by scale: still finite,
    no longer W-unit."""
    V = s.eigencochains.copy()
    V[:, 0] *= scale
    return SpectralData(s.degree, s.eigenvalues, V, s.weights, s.kernel_dim, s.gap)


class TestDimensionConsistency:
    @pytest.mark.parametrize("make, ell", [
        (lambda: lib.flat_torus(6, 6), 0), (lambda: lib.flat_torus(6, 6), 1),
        (lib.filled_triangle, 0), (lambda: lib.cycle_complex(3), 1)],
        ids=["torus-0", "torus-1", "filled-0", "C3-1"])
    def test_kernel_column_off_unit_fails_its_row(self, make, ell):
        K = make()
        K._spectra[ell] = _scaled_kernel_column(laplacian_spectrum(K, ell))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the projection overflows
            rows = dimension_consistency(K)
        assert [r["ok"] for r in rows] == [d != ell for d in range(K.max_degree + 1)]
        assert rows[ell]["equal"] and rows[ell]["projector_residual"] > 1e-8

    def test_report_names_the_check_for_a_cache_entry_of_another_degree(self, tmp_path):
        # The degree-1 entry is read only by the dimension stage of a
        # degree-0 report; its first kernel column is 1e200 times too long.
        # (A degree-1 report lifts degree 1 from the degree-0 and degree-2
        # spectra it builds, so K holds those before any entry is read.)
        K = lib.flat_torus(6, 6)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        cache = tmp_path / "cache"
        cache.mkdir()
        save_spectral_data(_scaled_kernel_column(laplacian_spectrum(K, 1)),
                           str(cache / f"{complex_content_hash(K, 1)}.npz"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = CliRunner().invoke(main, ["report", str(path), "--degree", "0",
                                               "--cache-dir", str(cache)])
        assert result.exit_code == 1, result.output
        assert result.stderr.splitlines()[-1] == "invariant violated: dimension_consistency"
        rows = json.loads(result.stdout)["dimension_consistency"]
        assert [r["ok"] for r in rows] == [True, False, True]
        assert rows[1]["equal"] and rows[1]["projector_residual"] == "inf"
