"""Parsers, report emission, schema validation, and the CLI surface."""

import ctypes
import dataclasses
import functools
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import compare_reports
import hodgeheat
import hodgeheat.spectral
from conftest import (
    child_env,
    count_assemblies,
    count_calls,
    log10_uniform_weights,
    log_uniform_weights,
)
from hodgeheat import (
    Cochain,
    QuadratureResult,
    SimplicialComplex,
    betti_numbers,
    decompose,
    laplacian_spectrum,
    verify_uniqueness,
)
from hodgeheat import library as lib
from hodgeheat.cli import RunConfig, main, run_pipeline
from hodgeheat.interpolation import admissible_exponents
from hodgeheat.io import (
    complex_to_json_dict,
    emit_report,
    parse_edgelist,
    parse_input,
    parse_json_complex,
    parse_off,
    render_report,
    report_schema,
    report_to_csv,
    report_to_json,
    sanitize,
)

TETRA_OFF = """OFF
4 4 6
0 0 0
1 0 0
0 1 0
0 0 1
3 0 1 2
3 1 0 3
3 0 2 3
3 2 1 3
"""


class TestEdgeList:
    def test_c3(self):
        parsed = parse_edgelist("0 1\n1 2\n0 2\n")
        K = parsed.complex
        assert [len(level) for level in K.simplices] == [3, 3]
        assert betti_numbers(K) == [1, 1]

    def test_weights_and_comments(self):
        parsed = parse_edgelist("# a path\n0 1 2.5\n\n1 2 0.5\n")
        assert list(parsed.complex.weight_vector(1)) == [2.5, 0.5]

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edgelist("0 1\n0 one two three\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_edgelist("3 3\n")

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edgelist("0 1 -2\n")


class TestOff:
    def test_tetrahedron_surface(self):
        parsed = parse_off(TETRA_OFF)
        K = parsed.complex
        assert [len(level) for level in K.simplices] == [4, 6, 4]
        assert betti_numbers(K) == [1, 0, 1]
        assert parsed.warnings == []

    def test_orientation_inconsistency_rejected(self):
        # Second face repeats the directed edge (0, 1) of the first.
        bad = "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 1 3\n"
        with pytest.raises(ValueError, match="orientation"):
            parse_off(bad)

    def test_non_manifold_edge_flagged(self):
        fan = ("OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
               "3 0 1 2\n3 1 0 3\n3 0 1 4\n")
        parsed = parse_off(fan)
        assert any("non-manifold" in w for w in parsed.warnings)

    def test_quad_face_rejected(self):
        quad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(ValueError, match="triangular"):
            parse_off(quad)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="OFF"):
            parse_off("3 1 0\n0 0 0\n")

    @pytest.mark.parametrize("text, counts", [
        ("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n", "3 -1 0"),
        ("OFF\n-1 1 0\n3 0 1 2\n", "-1 1 0"),
        ("OFF\n3 1 -1\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "3 1 -1"),
    ], ids=["faces", "vertices", "edges"])
    def test_negative_counts_rejected(self, tmp_path, text, counts):
        # A negative face count built an empty degree 2; a negative vertex
        # count read the counts line as a face.
        message = f"line 2: counts must be non-negative, got {counts}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_off(text)
        path = tmp_path / "negative.off"
        path.write_text(text)
        result = CliRunner().invoke(main, ["build", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"input error: {message}\n"


class TestJson:
    def test_roundtrip_normalized_form(self):
        K = lib.random_two_complex(103)
        doc = complex_to_json_dict(K)
        parsed = parse_json_complex(json.dumps(doc))
        assert parsed.complex.simplices == K.simplices
        for ell in range(K.max_degree + 1):
            assert np.allclose(parsed.complex.weight_vector(ell), K.weight_vector(ell))

    def test_nonpositive_weight_names_simplex(self):
        doc = {"simplices": {"1": [[0, 1]]}, "weights": {"1": [-1.0]}}
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            parse_json_complex(json.dumps(doc))

    def test_cochain_values_follow_sorted_indexing(self):
        doc = {
            "simplices": {"1": [[1, 2], [0, 1], [0, 2]]},
            "cochain": {"degree": 1, "values": [10.0, 20.0, 30.0]},
        }
        parsed = parse_json_complex(json.dumps(doc))
        K = parsed.complex
        values = parsed.cochain.values
        assert values[K.index_of(1, (1, 2))] == 10.0
        assert values[K.index_of(1, (0, 1))] == 20.0
        assert values[K.index_of(1, (0, 2))] == 30.0

    def test_cochain_length_mismatch(self):
        doc = {
            "simplices": {"2": [[0, 1, 2]]},
            "cochain": {"degree": 1, "values": [1.0]},
        }
        with pytest.raises(ValueError, match="cochain"):
            parse_json_complex(json.dumps(doc))

    def test_invalid_json_message(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_json_complex("{not json")

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "complex.xyz"
        path.write_text("whatever")
        with pytest.raises(ValueError, match="format"):
            parse_input(str(path))


def _c3_json(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(complex_to_json_dict(lib.cycle_complex(3))))
    return str(path)


class TestPipelineAndReports:
    def test_report_validates_against_shipped_schema(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), degree=1)
        report, code = run_pipeline(config)
        assert code == 0
        jsonschema.validate(sanitize(report), report_schema())

    def test_pipeline_deterministic_json(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), degree=1)
        a, _ = run_pipeline(config)
        b, _ = run_pipeline(config)
        assert report_to_json(a) == report_to_json(b)

    def test_empty_p_list_keeps_spectral_sections_only(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), degree=1, p_list=())
        report, code = run_pipeline(config)
        assert code == 0
        assert report["decomposition"] is None
        assert report["uniqueness"] is None
        assert report["spectrum"]["eigenvalues"]
        assert report["interval"].p1 >= 1.0

    def test_csv_norms_header(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), degree=1)
        report, _ = run_pipeline(config)
        csv_text = report_to_csv(sanitize(report))
        assert "p,component,norm,ratio" in csv_text
        assert "# spectrum" in csv_text

    def test_c3_pipeline_oracle_values(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), degree=1, seed=42)
        report, code = run_pipeline(config)
        assert code == 0
        assert report["betti"] == [1, 1]
        assert report["interval"].tau == pytest.approx(3.0, abs=1e-12)
        assert report["decomposition"].residual <= 1e-8

    def test_filled_triangle_harmonic_component_trivial(self, tmp_path):
        path = tmp_path / "filled.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.filled_triangle())))
        report, code = run_pipeline(RunConfig(input_path=str(path), degree=1))
        assert code == 0
        assert report["spectrum"]["kernel_dim"] == 0
        assert np.allclose(report["decomposition"].omega3.values, 0.0, atol=1e-10)

    def test_degree_out_of_range_is_input_error(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), degree=5)
        with pytest.raises(ValueError, match="degree"):
            run_pipeline(config)

    def test_error_target_validated(self, tmp_path):
        config = RunConfig(input_path=_c3_json(tmp_path), error_target=0.5)
        with pytest.raises(ValueError, match="error_target"):
            run_pipeline(config)

    def test_one_spectrum_per_degree_and_one_betti_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(6, 6))))
        eigh_calls = count_calls(monkeypatch, "eigh", np.linalg)
        qr_calls = count_calls(monkeypatch, "qr", np.linalg)
        betti_calls = count_calls(monkeypatch, "betti_numbers", hodgeheat.cli)
        assemblies = count_assemblies(monkeypatch)
        report, code = run_pipeline(RunConfig(input_path=str(path), degree=1))
        assert code == 0 and report["betti"] == [1, 2, 1]
        assert report["checks"][0]["name"] == "kernel_dim_equals_betti"
        # Degree 1 is lifted from the spectra of degrees 0 and 2, which the
        # complex holds for the dimension stage: one eigh each for those two
        # and one QR for degree 1's kernel.  Each Laplacian is assembled
        # once; route B reads degree 1's from the complex.  So is each
        # transposed incidence: d_0^T for delta_1, d_1^T for delta_2.
        assert (len(eigh_calls), len(qr_calls), len(betti_calls)) == (2, 1, 1)
        assert sorted(assemblies) == [0, 0, 1, 1, 2]

    @pytest.mark.parametrize("degree, p_list", [(0, (2.0,)), (1, ()), (2, (1.5, 3.0))])
    def test_betti_oracle_runs_once_per_run(self, tmp_path, monkeypatch, degree, p_list):
        # The spectrum stage counts the Betti numbers and hands them to the
        # dimension stage.
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(6, 6))))
        calls = count_calls(monkeypatch, "betti_numbers", *(
            module for name, module in sys.modules.items()
            if name.partition(".")[0] == "hodgeheat" and hasattr(module, "betti_numbers")))
        for run in range(1, 3):
            report, code = run_pipeline(RunConfig(input_path=str(path), degree=degree,
                                                  p_list=p_list))
            assert code == 0 and report["betti"] == [1, 2, 1] and len(calls) == run

    def test_sanitize_handles_infinities(self):
        assert sanitize({"x": math.inf, "y": [-math.inf, np.float64(2.0)]}) == \
            {"x": "inf", "y": ["-inf", 2.0]}

    def test_emit_report_json_and_csv(self, tmp_path):
        report = {"spectrum": {"degree": 0, "eigenvalues": [0.0, 2.0]}, "checks": []}
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        emit_report(report, str(jpath), "json")
        emit_report(report, str(cpath), "csv")
        assert json.loads(jpath.read_text())["spectrum"]["degree"] == 0
        assert "eigenvalue" in cpath.read_text()


class TestReportEncoding:
    """``sanitize`` encodes a Cochain as its values, and any other dataclass
    as its fields whose repr is true."""

    def test_decomposition_result_gives_its_emitted_fields(self):
        K = lib.filled_triangle()
        dec = decompose(K, lib.random_cochain(K, 1, 42), p_list=(1.5, 2.0, 3.0))
        doc = json.loads(report_to_json({"decomposition": dec}))["decomposition"]
        assert sorted(doc) == [
            "c_p", "coexact_part", "component_norms", "degree", "exact_part",
            "harmonic_defect", "omega1", "omega2", "omega3", "orthogonality", "residual"]
        assert doc["omega3"] == dec.omega3.values.tolist()
        assert sorted(doc["component_norms"]) == ["1.5", "2.0", "3.0"]

    def test_uniqueness_report_leaves_out_perturbations_and_green_cochain(self):
        K = lib.cycle_complex(3)
        uniq = verify_uniqueness(K, decompose(K, lib.random_cochain(K, 1, 42)))
        assert uniq.kernel_perturbations and isinstance(uniq.quadrature, QuadratureResult)
        doc = sanitize(uniq)
        assert sorted(doc) == ["component_diffs", "max_rel_diff", "passed",
                               "perturbation_detected", "quadrature", "tol"]
        assert sorted(doc["quadrature"]) == [
            "error_target", "nodes_evaluated", "t_max", "tail_bound", "truncation_bound"]

    def test_cochain_encodes_as_its_values(self):
        assert sanitize(Cochain(1, [0.5, -math.inf, 2.0])) == [0.5, "-inf", 2.0]

    def test_unknown_format_rejected_before_the_file_opens(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            render_report({"checks": []}, "xml")
        path = tmp_path / "r.xml"
        path.write_text("kept")
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report({"checks": []}, str(path), "xml")
        assert path.read_text() == "kept"


# name -> (document, the part of it that the error message names)
_MALFORMED_JSON = {
    "simplices_not_a_mapping": ('{"simplices": [[0]]}', "'simplices' mapping"),
    "simplex_not_a_list": ('{"simplices": {"0": [0]}}', "simplices['0'][0]"),
    "cochain_without_degree":
        ('{"simplices": {"1": [[0, 1]]}, "cochain": {"values": [1.0]}}', "cochain degree"),
    "cochain_value_not_a_number":
        ('{"simplices": {"1": [[0, 1]]}, "cochain": {"degree": 1, "values": [{"a": 1}]}}',
         "cochain values[0]"),
    "weights_not_a_mapping": ('{"simplices": {"1": [[0, 1]]}, "weights": [1]}', "'weights'"),
    "vertex_id_not_an_integer": ('{"simplices": {"1": [[0, 1.5]]}}', "simplices['1'][0][1]"),
    "degree_key_not_an_integer":
        ('{"simplices": {"x": [[0]]}}', "simplices['x']: degree keys are non-negative integers"),
    "degree_key_listed_twice":
        ('{"simplices": {"1": [[0, 1]], "01": [[1, 2]]}}',
         "simplices['01']: degree 1 is listed twice"),
    # json.dumps writes 10 ** 400 as its 401 digits, past the double range.
    "weight_past_the_double_range":
        (json.dumps({"simplices": {"1": [[0, 1], [1, 2]]}, "weights": {"1": [1, 10 ** 400]}}),
         "weights['1'][1] must be a number in the double range, got an integer of 401 digits"),
    "weights_default_past_the_double_range":
        (json.dumps({"simplices": {"1": [[0, 1]]}, "weights_default": 10 ** 400}),
         "'weights_default' must be a number in the double range"),
    "cochain_value_past_the_double_range":
        (json.dumps({"simplices": {"1": [[0, 1], [1, 2]]},
                     "cochain": {"degree": 1, "values": [1, 10 ** 400]}}),
         "cochain values[1] must be a number in the double range"),
    # Past sys.get_int_max_str_digits() (4300), which json.loads's own int()
    # refuses with a message that names no field; written by hand, since
    # json.dumps refuses such an int too.
    "weight_past_the_digit_limit":
        ('{"simplices": {"1": [[0, 1], [1, 2]]}, "weights": {"1": [1, 1%s]}}' % ("0" * 5000),
         "weights['1'][1] must be a number in the double range, got an integer of 5001 digits"),
    "negative_weight_past_the_digit_limit":
        ('{"simplices": {"1": [[0, 1]]}, "weights": {"1": [-9%s]}}' % ("9" * 5000),
         "weights['1'][0] must be a number in the double range, got an integer of 5001 digits"),
    "weights_default_past_the_digit_limit":
        ('{"simplices": {"1": [[0, 1]]}, "weights_default": 1%s}' % ("0" * 5000),
         "'weights_default' must be a number in the double range, got an integer of 5001"),
    "cochain_value_past_the_digit_limit":
        ('{"simplices": {"1": [[0, 1]]}, "cochain": {"degree": 1, "values": [1%s]}}'
         % ("0" * 5000), "cochain values[0] must be a number in the double range"),
    "vertex_id_past_the_digit_limit":
        ('{"simplices": {"1": [[0, 1%s]]}}' % ("0" * 5000),
         "simplices['1'][0][1] must be an integer of at most 4300 digits, got one of 5001"),
    "cochain_degree_past_the_digit_limit":
        ('{"simplices": {"1": [[0, 1]]}, "cochain": {"degree": 1%s, "values": [1]}}'
         % ("0" * 5000), "cochain degree must be an integer of at most 4300 digits"),
    # Weights of a degree that lists no simplices: its faces come from the
    # closure, at weight 1.0, so no simplex would read them.
    "weights_of_an_unlisted_degree":
        ('{"simplices": {"1": [[0, 1], [1, 2]]}, "weights": {"0": [7, 7, 7]}}',
         "weights['0']: degree 0 lists no simplices to weigh"),
    "weights_of_an_unlisted_degree_of_no_length":
        ('{"simplices": {"1": [[0, 1], [1, 2]]}, "weights": {"0": [7]}}',
         "weights['0']: degree 0 lists no simplices to weigh"),
}


def _relative_figures(report):
    """The figures that a ``report`` or ``verify`` payload divides by |omega|,
    and the harmonic defect, by name."""
    uniq = report["uniqueness"]
    figures = {"max_rel_diff": uniq["max_rel_diff"], **uniq["component_diffs"]}
    if "decomposition" in report:
        figures.update(residual=report["decomposition"]["residual"],
                       harmonic_defect=report["decomposition"]["harmonic_defect"])
    return figures


class TestCli:
    def test_build_summary(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["build", _c3_json(tmp_path)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["counts"] == [3, 3]
        assert payload["betti"] == [1, 1]

    def test_spectrum_with_cache(self, tmp_path):
        runner = CliRunner()
        cache = tmp_path / "cache"
        args = ["spectrum", _c3_json(tmp_path), "--degree", "0",
                "--cache-dir", str(cache)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert len(list(cache.glob("*.npz"))) == 1
        again = runner.invoke(main, args)
        assert again.exit_code == 0
        assert json.loads(again.output) == json.loads(result.output)

    def test_broken_cache_entry_is_recomputed(self, tmp_path):
        # An entry left broken by a killed writer is a miss, not a crash.
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(4, 4))))
        cache = tmp_path / "cache"
        runner = CliRunner()
        uncached = runner.invoke(main, ["spectrum", str(path)])
        args = ["spectrum", str(path), "--cache-dir", str(cache)]
        assert runner.invoke(main, args).stdout == uncached.stdout
        (entry,) = cache.glob("*.npz")
        size = entry.stat().st_size
        for broken in (entry.read_bytes()[: size // 3], b""):
            entry.write_bytes(broken)
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert result.stdout == uncached.stdout
            assert entry.stat().st_size == size
        assert [p.name for p in cache.iterdir()] == [entry.name]

    @pytest.mark.parametrize("other", [lambda K: lib.flat_torus(4, 4),
                                       lambda K: log_uniform_weights(K, 3)],
                             ids=["other_complex", "other_weights"])
    @pytest.mark.parametrize("command", ["spectrum", "report"])
    def test_cache_entry_of_another_spectrum_is_recomputed(self, tmp_path, command, other):
        # An entry under K's name that is not K's degree-1 spectrum is a miss,
        # and is overwritten with K's.
        K = lib.flat_torus(6, 6)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / f"{hodgeheat.spectral.complex_content_hash(K, 1)}.npz"
        hodgeheat.spectral.save_spectral_data(laplacian_spectrum(other(K), 1), str(entry))
        runner = CliRunner()
        uncached = runner.invoke(main, [command, str(path)])
        result = runner.invoke(main, [command, str(path), "--cache-dir", str(cache)])
        assert result.exit_code == uncached.exit_code == 0, result.output
        assert result.stdout.replace(json.dumps(str(cache)), "null") == uncached.stdout
        held = hodgeheat.spectral.load_spectral_data(str(entry))
        assert held.dim == 108 and np.array_equal(held.weights, K.weights[1])

    @pytest.mark.parametrize("spoil", [
        lambda s: dataclasses.replace(s, eigencochains=s.eigencochains[:, :3]),
        lambda s: dataclasses.replace(s, eigenvalues=np.where(np.arange(s.dim) == 5, np.nan,
                                                              s.eigenvalues)),
        lambda s: dataclasses.replace(s, gap=math.nan),
        lambda s: dataclasses.replace(s, gap=2.0 * s.gap),
        lambda s: dataclasses.replace(s, kernel_dim=float(s.kernel_dim)),
        lambda s: dataclasses.replace(s, kernel_dim=s.kernel_dim + 1)],
        ids=["cut_eigencochains", "nan_eigenvalue", "nan_gap", "gap_off_the_spectrum",
             "float_kernel_dim", "kernel_past_the_zeros"])
    @pytest.mark.parametrize("command", ["spectrum", "report"])
    def test_cache_entry_that_does_not_fit_is_recomputed(self, tmp_path, command, spoil):
        # K's own degree-1 spectrum under K's name, but with eigencochains of
        # shape (108, 3), a NaN eigenvalue or gap, a gap or a kernel_dim that
        # disagrees with the eigenvalues, or a float kernel_dim: a miss,
        # overwritten with K's.
        K = lib.flat_torus(6, 6)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        cache = tmp_path / "cache"
        cache.mkdir()
        entry = cache / f"{hodgeheat.spectral.complex_content_hash(K, 1)}.npz"
        hodgeheat.spectral.save_spectral_data(spoil(laplacian_spectrum(K, 1)), str(entry))
        runner = CliRunner()
        uncached = runner.invoke(main, [command, str(path)])
        result = runner.invoke(main, [command, str(path), "--cache-dir", str(cache)])
        assert result.exit_code == uncached.exit_code == 0, result.output
        assert result.stdout.replace(json.dumps(str(cache)), "null") == uncached.stdout
        held = hodgeheat.spectral.load_spectral_data(str(entry))
        assert held.eigencochains.shape == (108, 108) and np.isfinite(held.eigenvalues).all()
        assert held.kernel_dim == 2 and held.gap == held.eigenvalues[2] > 0

    def test_warm_cache_report_builds_no_spectrum(self, tmp_path, monkeypatch):
        # Every degree's entry hits and K holds it, so no stage runs an eigh
        # or the lift's QR.
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(6, 6))))
        args = ["report", str(path), "--degree", "1", "--cache-dir", str(tmp_path / "cache")]
        runner = CliRunner()
        cold = runner.invoke(main, args)
        eighs = count_calls(monkeypatch, "eigh", np.linalg)
        qrs = count_calls(monkeypatch, "qr", np.linalg)
        warm = runner.invoke(main, args)
        assert cold.exit_code == warm.exit_code == 0 and warm.stdout == cold.stdout
        assert eighs == [] and qrs == []

    def test_report_cache_covers_every_degree(self, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(6, 6))))
        cache = tmp_path / "cache"
        args = ["report", str(path), "--degree", "1", "--p", "2"]
        runner = CliRunner()
        first = runner.invoke(main, args + ["--cache-dir", str(cache)])
        assert first.exit_code == 0
        assert len(list(cache.glob("*.npz"))) == 3
        again = runner.invoke(main, args + ["--cache-dir", str(cache)])
        assert again.exit_code == 0 and again.stdout == first.stdout
        uncached = runner.invoke(main, args)
        assert uncached.exit_code == 0
        assert first.stdout.replace(json.dumps(str(cache)), "null") == uncached.stdout

    def test_held_degree_is_not_read_from_the_cache(self, tmp_path, monkeypatch):
        # With no degree-1 entry, degree 1 is lifted from the spectra of
        # degrees 0 and 2, which the complex then holds: their entries are
        # neither loaded nor rewritten, and degree 1's is written.
        K = lib.flat_torus(6, 6)
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        cache = tmp_path / "cache"
        runner = CliRunner()
        for ell in ("0", "2"):
            args = ["spectrum", str(path), "--degree", ell, "--cache-dir", str(cache)]
            assert runner.invoke(main, args).exit_code == 0
        entry = {ell: cache / f"{hodgeheat.spectral.complex_content_hash(K, ell)}.npz"
                 for ell in range(3)}
        before = {ell: (entry[ell].read_bytes(), entry[ell].stat().st_mtime_ns)
                  for ell in (0, 2)}
        loads = count_calls(monkeypatch, "load_spectral_data", hodgeheat.spectral)
        result = runner.invoke(main, ["report", str(path), "--degree", "1", "--cache-dir",
                                      str(cache)])
        assert result.exit_code == 0, result.output
        assert loads == [(str(entry[1]),)]
        assert {ell: (entry[ell].read_bytes(), entry[ell].stat().st_mtime_ns)
                for ell in (0, 2)} == before
        assert sorted(cache.iterdir()) == sorted(entry.values())

    def test_vertex_ids_past_int64(self, tmp_path):
        # Vertex ids are labels only: ids past int64, and past the double
        # range, give the output of the order-preserving relabelling, apart
        # from the input path and the ids that build lists.
        relabel = {0: 0, 1: 1, 2 ** 63: 2, 2 ** 64 + 5: 3, 10 ** 400: 4}
        big, small = tmp_path / "big.json", tmp_path / "small.json"
        big.write_text(json.dumps({"simplices": {"2": [[0, 1, 2 ** 63],
                                                       [1, 2 ** 63, 2 ** 64 + 5],
                                                       [2 ** 63, 2 ** 64 + 5, 10 ** 400]]}}))
        small.write_text(json.dumps({"simplices": {"2": [[0, 1, 2], [1, 2, 3], [2, 3, 4]]}}))
        runner = CliRunner()
        for command in ("build", "spectrum", "report"):
            got, want = (runner.invoke(main, [command, str(path)]) for path in (big, small))
            assert got.exit_code == 0 and want.exit_code == 0, got.output
            out = got.stdout.replace(json.dumps(str(big)), json.dumps(str(small)))
            if command == "build":
                payload = json.loads(out)
                for level in payload["complex"]["simplices"].values():
                    level[:] = [[relabel[v] for v in s] for s in level]
                assert payload == json.loads(want.stdout)
            else:
                assert out == want.stdout

    @pytest.mark.parametrize("command", ["report", "verify"])
    @pytest.mark.parametrize("value", ["0", "0.5", "nan", "-1"])
    def test_bad_error_target_is_input_error(self, tmp_path, command, value):
        result = CliRunner().invoke(main, [command, _c3_json(tmp_path), "--error-target", value])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "input error: error_target" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["report", "interp", "decompose", "verify"])
    def test_negative_seed_is_input_error(self, tmp_path, command, monkeypatch):
        # Rejected with the config, before any spectrum is built.
        eighs = count_calls(monkeypatch, "eigh", np.linalg)
        result = CliRunner().invoke(main, [command, _c3_json(tmp_path), "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert result.stderr == "input error: seed must be a non-negative integer, got -1\n"
        assert eighs == []

    @pytest.mark.parametrize("degree", ["-1", "2"])
    def test_verify_degree_out_of_range_exits_2(self, tmp_path, degree):
        result = CliRunner().invoke(main, ["verify", _c3_json(tmp_path), "--degree", degree])
        assert result.exit_code == 2
        assert f"input error: degree {degree} out of range" in result.output

    def test_decompose_output(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "decompose", _c3_json(tmp_path), "--degree", "1", "--p", "2", "--seed", "7",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["decomposition"]["residual"] <= 1e-8
        assert [c["name"] for c in payload["checks"] if c["passed"]] == [
            "kernel_dim_equals_betti", "decomposition_residual", "harmonic_component_defect",
            "component_orthogonality"]

    def test_interp_csv(self, tmp_path):
        runner = CliRunner()
        args = ["interp", _c3_json(tmp_path), "--degree", "0"]
        result = runner.invoke(main, args + ["--output-format", "csv"])
        assert result.exit_code == 0
        profile = json.loads(runner.invoke(main, args).output)["interval"]["profile"]
        assert _csv_tables(result.output)["gamma"] == [
            ["p", "lower", "upper", "gamma"],
            *([str(row[k]) for k in ("p", "lower", "upper", "gamma")] for row in profile)]

    def test_verify_passes(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", _c3_json(tmp_path), "--degree", "1"])
        assert result.exit_code == 0

    def test_report_writes_file(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "report.json"
        result = runner.invoke(main, [
            "report", _c3_json(tmp_path), "--degree", "1", "-o", str(out),
        ])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        jsonschema.validate(payload, report_schema())

    def test_bad_degree_exits_2(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, ["spectrum", _c3_json(tmp_path), "--degree", "9"])
        assert result.exit_code == 2
        assert "input error" in result.output or "input error" in (result.stderr or "")

    @pytest.mark.parametrize("fname, text, simplex", [
        ("nan_weight.json",
         '{"simplices": {"1": [[0, 1], [1, 2]]}, "weights": {"1": [1.0, NaN]}}', "(1, 2)"),
        ("nan_weight.txt", "0 1 nan\n1 2\n", "(0, 1)"),
        ("inf_cochain.json",
         '{"simplices": {"1": [[0, 1], [1, 2]]},'
         ' "cochain": {"degree": 1, "values": [1.0, Infinity]}}', "(1, 2)"),
    ], ids=["json_nan_weight", "edgelist_nan_weight", "json_inf_cochain"])
    def test_report_rejects_nonfinite_input(self, tmp_path, fname, text, simplex):
        path = tmp_path / fname
        path.write_text(text)
        result = CliRunner().invoke(main, ["report", str(path), "--degree", "1"])
        assert result.exit_code == 2, result.output
        assert "input error" in result.output and simplex in result.output

    def test_report_bad_t_grid_exits_2(self, tmp_path):
        result = CliRunner().invoke(main, ["report", _c3_json(tmp_path), "--t-grid", "abc"])
        assert result.exit_code == 2, result.output
        assert "input error" in result.output

    @pytest.mark.parametrize("command", ["interp", "report"])
    @pytest.mark.parametrize("grid", ["0.5,x,2", ""])
    def test_t_grid_that_is_not_numbers_names_the_option(self, tmp_path, command, grid):
        result = CliRunner().invoke(main, [command, _c3_json(tmp_path), "--t-grid", grid])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("input error: --t-grid must be comma-separated numbers, "
                                 f"got {grid!r}\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("command", [
        "build", "spectrum", "decompose", "interp", "verify", "report"])
    def test_no_options_give_the_default_config(self, tmp_path, monkeypatch, command):
        # Every option's default is RunConfig's own.  build parses its input
        # through _build_payload, every other subcommand through _front_end.
        configs = []
        if command == "build":
            monkeypatch.setattr(hodgeheat.cli, "_build_payload",
                                lambda config: (configs.append(config) or {}, []))
        else:
            front_end = hodgeheat.cli._front_end
            monkeypatch.setattr(hodgeheat.cli, "_front_end",
                                lambda config: configs.append(config) or front_end(config))
        path = _c3_json(tmp_path)
        result = CliRunner().invoke(main, [command, path])
        assert result.exit_code == 0, result.output
        assert configs == [RunConfig(input_path=path)]

    def test_component_table_keeps_the_admissible_p(self, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(6, 6))))
        result = CliRunner().invoke(main, ["report", str(path), "--p", "1.01", "--p", "2",
                                           "--p", "50"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        p1, p2 = report["interval"]["p1"], report["interval"]["p2"]
        kept = admissible_exponents((1.01, 2.0, 50.0), p1, p2)
        assert kept == [2.0]  # 1.01 < p1 and 50 > p2 on this torus
        for table in ("component_norms", "c_p"):
            assert list(report["decomposition"][table]) == [str(p) for p in kept]

    def test_missing_file_exits_2(self):
        runner = CliRunner()
        result = runner.invoke(main, ["build", "/nonexistent/path.json"])
        assert result.exit_code == 2

    def test_off_input_via_cli(self, tmp_path):
        path = tmp_path / "tetra.off"
        path.write_text(TETRA_OFF)
        runner = CliRunner()
        result = runner.invoke(main, ["build", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["counts"] == [4, 6, 4]

    @pytest.mark.parametrize("name", list(_MALFORMED_JSON))
    def test_build_rejects_malformed_json(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        text, part = _MALFORMED_JSON[name]
        path.write_text(text)
        result = CliRunner().invoke(main, ["build", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("input error: ") and part in result.stderr
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.output

    @pytest.mark.parametrize("command, grid", [("report", "nan,1,2"), ("interp", "1,2,inf")])
    def test_nonfinite_t_grid_is_input_error(self, tmp_path, command, grid):
        # A subprocess, so that LAPACK's own stderr lines would be seen too.
        proc = subprocess.run(
            [sys.executable, "-m", "hodgeheat.cli", command, _c3_json(tmp_path),
             "--t-grid", grid], env=child_env("1"), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("input error: degenerate t_grid")
        assert "DLASCL" not in proc.stderr

    @pytest.mark.parametrize("command, grid", [("report", "0.1,0.2,1e308"),
                                               ("interp", "1,2,1e300")])
    def test_huge_t_grid_runs_without_warnings(self, tmp_path, command, grid):
        # The heat factor exp(-t lambda) tends to 0 without overflowing t
        # lambda, and the alpha fit runs on the times scaled into [1/2, 1),
        # so its t^2 stays finite: no warning is raised, none is printed.
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(6, 6))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, [command, str(path), "--degree", "1",
                                               "--t-grid", grid])
        assert result.exit_code == 0 and result.exception is None, result.output
        assert result.stderr == ""
        assert json.loads(result.stdout)["interval"]["alpha"] == 0.0

    @pytest.mark.parametrize("weights, commands, message", [
        ([1.7e308, 1.7e308, 1.0], ["spectrum", "interp", "verify", "report"],
         "the weights overflow the Laplacian"),
        ([1e-300, 1.0, 1e300], ["spectrum"],
         "the weights overflow the W^(1/2)-symmetrized operator"),
    ], ids=["laplacian_overflows", "symmetrized_overflows"])
    def test_weights_that_overflow_the_operators_are_input_errors(self, tmp_path, weights,
                                                                  commands, message):
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps({"simplices": {"1": [[0, 1], [1, 2], [0, 2]]},
                                    "weights": {"1": weights}}))
        for command in commands:
            result = CliRunner().invoke(main, [command, str(path), "--degree", "1"])
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert f"input error: degree 1: {message}" in result.stderr
            assert "Traceback" not in result.output and not result.stdout

    @pytest.mark.parametrize("weights, operator", [
        ([1.7e308, 1.7e308, 1.0], "Laplacian"),
        ([1e-300, 1.0, 1e300], "W^(1/2)-symmetrized operator"),
    ], ids=["laplacian_overflows", "symmetrized_overflows"])
    def test_overflow_error_is_the_only_stderr_line(self, tmp_path, weights, operator):
        # A subprocess, so that numpy's RuntimeWarnings would be seen too.
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps({"simplices": {"1": [[0, 1], [1, 2], [0, 2]]},
                                    "weights": {"1": weights}}))
        proc = subprocess.run(
            [sys.executable, "-m", "hodgeheat.cli", "spectrum", str(path), "--degree", "1"],
            env=child_env("1"), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.splitlines() == [
            f"input error: degree 1: the weights overflow the {operator} "
            "(it has a non-finite entry)"]

    @pytest.mark.parametrize("command", ["spectrum", "report"])
    def test_weights_that_overflow_the_symmetrized_average_are_input_errors(self, tmp_path,
                                                                            command):
        # S_ij and S_ji are finite, but their sum in (S + S^T) / 2 is not.
        # eigh would get an inf and return NaNs; the check names the weights.
        K = lib.filled_triangle()
        K = SimplicialComplex(K.simplices, [[1.0, 1.0, 1.7e308], [1.7e308, 1.0, 2.0], [1.0]])
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        proc = subprocess.run(
            [sys.executable, "-m", "hodgeheat.cli", command, str(path), "--degree", "0"],
            env=child_env("1"), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr.splitlines() == [
            "input error: degree 0: the weights overflow the W^(1/2)-symmetrized operator "
            "(it has a non-finite entry)"]

    @pytest.mark.parametrize("command, code, failed", [
        ("spectrum", 1, "kernel_dim_equals_betti"),
        ("report", 1, "kernel_dim_equals_betti, harmonic_component_defect, "
                      "uniqueness_dual_route, dimension_consistency"),
    ])
    def test_underflowing_laplacian_entry_runs_to_named_checks(self, tmp_path, command, code,
                                                               failed):
        # Degree 1's Laplacian is [[2, 0], [-1, 0]]: its entry -w_1 / w_v =
        # -1e-500 underflows to 0 beside a mirror of -1.  The symmetrized
        # operator is self-adjoint to rounding, so the run reaches its checks.
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"simplices": {"0": [[0], [1], [2]], "1": [[0, 1], [1, 2]]},
                                    "weights": {"0": [1e200] * 3, "1": [1e200, 1e-300]}}))
        self._run_to_named_checks([command, str(path), "--degree", "1"], code, failed)

    @pytest.mark.parametrize("degree, code, failed", [
        (0, 1, "kernel_dim_equals_betti"),
        (1, 1, "kernel_dim_equals_betti, decomposition_residual, harmonic_component_defect"),
        (2, 1, "harmonic_component_defect"),
    ])
    def test_extreme_weights_decompose_to_named_checks(self, tmp_path, degree, code, failed):
        # Vertex weights 1e200 and 1e-300 alternating by rank, edge weights
        # 1e-300, triangle weights 1.
        K = lib.random_two_complex(101)
        vertex = np.where(np.arange(K.vertex_count) % 2 == 0, 1e200, 1e-300)
        K = SimplicialComplex(K.simplices, [vertex, np.full(K.n_simplices(1), 1e-300),
                                            np.ones(K.n_simplices(2))])
        path = tmp_path / "random_101.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        self._run_to_named_checks(["decompose", str(path), "--degree", str(degree)], code, failed)

    @staticmethod
    def _run_to_named_checks(args, code, failed):
        """The run exits ``code`` after its payload, and names the ``failed``
        checks on its one stderr line, with no warning and no traceback."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)
        assert result.exit_code == code, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert json.loads(result.stdout) and "Traceback" not in result.output
        assert result.stderr.splitlines() == ([f"invariant violated: {failed}"] if failed else [])
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("weights_of, degree", [
        (lambda K, rng: [rng.choice([1.0, 1e200, 1e300], len(level)) for level in K.simplices],
         2),
        (lambda K, rng: [np.full(len(level), w) for level, w in zip(K.simplices, (1, 1e300, 1))],
         1),
    ], ids=["mixed", "edges_1e300"])
    def test_lifted_report_checks_every_degree_before_any_stage(self, tmp_path, weights_of,
                                                                degree):
        # Degree 1 is lifted from degrees 0 and 2, so all three operators are
        # checked before any stage runs, and no stage overflows first.
        K = lib.random_two_complex(101)
        K = SimplicialComplex(K.simplices, weights_of(K, np.random.default_rng(4)))
        path = tmp_path / "random_101.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, ["report", str(path), "--degree", "1",
                                               "--error-target", "1e-12"])
        assert result.exit_code == 2 and not result.stdout
        assert result.stderr.splitlines() == [
            f"input error: degree {degree}: the weights overflow the W^(1/2)-symmetrized "
            "operator (it has a non-finite entry)"]
        assert not caught, [str(w.message) for w in caught]

    def test_stiff_torus_decomposes_past_the_lift_bound(self, tmp_path, monkeypatch):
        # 10^U(-2, 2) weights put degree 1's lambda_max / gap past 1e6, where
        # lifted columns lose W-orthogonality.  The spread bound sends it to
        # eigh, and decompose passes; lifted anyway, it fails its residual.
        path = tmp_path / "torus.json"
        K = log10_uniform_weights(lib.flat_torus(6, 6), 2.0, 0)
        path.write_text(json.dumps(complex_to_json_dict(K)))
        args = ["decompose", str(path), "--degree", "1"]
        assert CliRunner().invoke(main, args).exit_code == 0
        monkeypatch.setattr(hodgeheat.spectral, "LIFT_MAX_SPREAD", math.inf)
        ungated = CliRunner().invoke(main, args)
        assert ungated.exit_code == 1
        assert "invariant violated: decomposition_residual" in ungated.stderr

    @pytest.fixture(scope="class")
    def scaled_reports(self, tmp_path_factory):
        """run(scale, command, side): (exit code, stderr, report) of ``command``
        (``report`` by default) in a child process on the side x side torus
        (4 by default) with the degree-1 cochain ((i % 7) - 3) * scale."""

        def run(scale, command="report", side=4):
            K = lib.flat_torus(side, side)
            doc = complex_to_json_dict(K)
            doc["cochain"] = {"degree": 1, "values": [((i % 7) - 3) * scale
                                                      for i in range(K.n_simplices(1))]}
            path = tmp_path_factory.mktemp("scaled") / "torus.json"
            path.write_text(json.dumps(doc))
            proc = subprocess.run(
                [sys.executable, "-m", "hodgeheat.cli", command, str(path), "--degree", "1"],
                env=child_env("1"), capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stderr, json.loads(proc.stdout or "null")

        return functools.cache(run)

    @pytest.mark.parametrize("exponent", [500, -500, 530, -530, -660])
    def test_cochain_of_any_magnitude(self, scaled_reports, exponent):
        # Past 2^500 or below 2^-500 the plain sums of norms and inner
        # products overflow or underflow; a child process, so that numpy's
        # RuntimeWarnings would be seen.
        code, stderr, report = scaled_reports(2.0 ** exponent)
        _, _, unscaled = scaled_reports(1.0)
        assert code == 0 and stderr == ""
        assert report["decomposition"]["c_p"] == pytest.approx(
            unscaled["decomposition"]["c_p"], rel=1e-12)
        assert (report["uniqueness"]["quadrature"]["nodes_evaluated"]
                == unscaled["uniqueness"]["quadrature"]["nodes_evaluated"])

    @pytest.mark.parametrize("scale", [1e307, 2.0 ** 1020, 2.0 ** 1021],
                             ids=["1e307", "2^1020", "2^1021"])
    @pytest.mark.parametrize("command", ["decompose", "report"])
    def test_cochain_near_the_top_of_the_double_range(self, scaled_reports, command, scale):
        # Some p-norms read inf here, so c_p is formed from the parts scaled
        # by one power of two; route B runs on the scaled cochain, where its
        # products cannot overflow.
        code, stderr, report = scaled_reports(scale, command)
        _, _, unscaled = scaled_reports(1.0, command)
        assert (code, stderr) == (0, "")
        c_p = (report.get("decomposition") or report)["c_p"]
        expected = (unscaled.get("decomposition") or unscaled)["c_p"]
        assert c_p == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0 ** 1020, 2.0 ** 1021, 1e307],
                             ids=["2^1020", "2^1021", "1e307"])
    @pytest.mark.parametrize("command", ["report", "verify"])
    def test_figures_where_the_norm_overflows(self, scaled_reports, command, scale):
        # On the 12x12 torus |omega|_W passes the largest double at these
        # scales.  The relative figures are formed on omega scaled by a power
        # of two, so they keep their scale-1 bits at 2^1020 and 2^1021, and
        # route B's absolute bounds scale with omega.
        code, stderr, report = scaled_reports(scale, command, 12)
        _, _, unscaled = scaled_reports(1.0, command, 12)
        assert (code, stderr) == (0, "")
        figures, expected = (_relative_figures(r) for r in (report, unscaled))
        assert 0.0 not in figures.values()
        if scale != 1e307:
            assert figures == expected
            bounds = ("tail_bound", "truncation_bound")
            assert ([report["uniqueness"]["quadrature"][b] for b in bounds]
                    == [unscaled["uniqueness"]["quadrature"][b] * scale for b in bounds])

    @pytest.mark.parametrize("command", ["decompose", "report", "verify"])
    def test_part_past_the_double_range_is_input_error(self, scaled_reports, command):
        # At 2^1022 every entry is finite, but the coexact part's largest
        # entry passes the largest double once scaled back.
        code, stderr, _ = scaled_reports(2.0 ** 1022, command, 12)
        assert code == 2
        assert stderr == ("input error: the coexact part passes the largest double on "
                          "simplex (6, 138); the cochain must be scaled down\n")

    @pytest.mark.parametrize("command", ["decompose", "report"])
    def test_nan_p_is_input_error(self, tmp_path, command):
        result = CliRunner().invoke(main, [command, _c3_json(tmp_path), "--p", "nan"])
        assert result.exit_code == 2, result.output
        assert result.stderr == "input error: p = nan outside [1, inf]\n"

    @pytest.mark.parametrize("command", ["interp", "report"])
    @pytest.mark.parametrize("epsilon", ["nan", "-5", "inf"])
    def test_bad_epsilon_on_all_harmonic_degree_is_input_error(self, tmp_path, command,
                                                               epsilon):
        # Degree 0 of two isolated vertices has gap +inf, so no interval
        # computation would see epsilon; interpolation_report's own check must.
        path = tmp_path / "two.json"
        path.write_text('{"simplices": {"0": [[0], [1]]}}')
        result = CliRunner().invoke(main, [command, str(path), "--degree", "0",
                                           "--epsilon", epsilon])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"input error: epsilon = {float(epsilon)} ")


    @pytest.mark.parametrize("command", ["interp", "report"])
    def test_epsilon_past_tau_names_both(self, tmp_path, command):
        tau = hodgeheat.laplacian_spectrum(lib.cycle_complex(3), 0).gap
        result = CliRunner().invoke(main, [command, _c3_json(tmp_path), "--degree", "0",
                                           "--epsilon", "100"])
        assert result.exit_code == 2, result.output
        assert result.stderr == ("input error: epsilon = 100.0 must be finite and lie in "
                                 f"[0, tau) for tau = {tau}, the spectral gap\n")


def _csv_tables(text):
    """CSV text split into its ``# name`` tables: name -> rows, header first."""
    tables = {}
    for line in text.splitlines():
        if line.startswith("# "):
            rows = tables.setdefault(line[2:], [])
        else:
            rows.append(line.split(","))
    return tables


class TestSubcommandsAreReportSlices:
    """Every subcommand prints sections of the report, under the report's keys."""

    @pytest.fixture
    def complex_path(self, tmp_path):
        path = tmp_path / "random101.json"
        path.write_text(json.dumps(complex_to_json_dict(lib.random_two_complex(101))))
        return str(path)

    def test_each_subcommand_equals_its_report_sections(self, complex_path):
        def run(*args):
            result = CliRunner().invoke(main, [*args, complex_path, "--degree", "1"])
            assert result.exit_code == 0, result.output
            return json.loads(result.stdout)

        report = run("report", "--p", "2", "--seed", "7")
        checks = {c["name"]: c for c in report["checks"]}
        slices = [run("spectrum"), run("decompose", "--p", "2", "--seed", "7"),
                  run("interp", "--seed", "7"), run("verify", "--seed", "7")]
        assert [sorted(payload) for payload in slices] == [
            ["checks", "spectrum"], ["checks", "decomposition"], ["checks", "interval"],
            ["checks", "dimension_consistency", "uniqueness"]]
        for payload in slices:
            for key, section in payload.items():
                if key == "checks":
                    assert section == [checks[c["name"]] for c in section]
                else:
                    assert section == report[key], key
        assert [c["name"] for c in slices[3]["checks"]] == [
            "kernel_dim_equals_betti", "decomposition_residual", "harmonic_component_defect",
            "component_orthogonality", "uniqueness_dual_route",
            "uniqueness_kernel_perturbation", "dimension_consistency"]

    @pytest.mark.parametrize("K", [lib.cycle_complex(3), lib.filled_triangle(),
                                   lib.flat_torus(6, 6)], ids=["C3", "filled", "torus"])
    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_checks_are_the_report_checks_of_the_stages_run(self, tmp_path, K, degree):
        # Each subcommand runs the spectrum stage and the stages of the
        # sections it prints (verify's uniqueness runs the decomposition):
        # its checks are the report's checks of those stages, in order.
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(complex_to_json_dict(K)))

        def checks(command):
            result = CliRunner().invoke(main, [command, str(path), "--degree", degree])
            assert result.exit_code == 0, result.output
            return json.loads(result.stdout)["checks"]

        stage_of = {"kernel_dim_equals_betti": "spectrum",
                    "levelset_condition_below_one": "interval",
                    "decomposition_residual": "decomposition",
                    "harmonic_component_defect": "decomposition",
                    "component_orthogonality": "decomposition",
                    "uniqueness_dual_route": "uniqueness",
                    "uniqueness_kernel_perturbation": "uniqueness",
                    "dimension_consistency": "dimension"}
        report = checks("report")
        assert {c["name"] for c in report} <= set(stage_of)
        for command, stages in [("spectrum", {"spectrum"}),
                                ("interp", {"spectrum", "interval"}),
                                ("decompose", {"spectrum", "decomposition"}),
                                ("verify", {"spectrum", "decomposition", "uniqueness",
                                            "dimension"})]:
            assert checks(command) == [c for c in report if stage_of[c["name"]] in stages]

    @pytest.mark.parametrize("command, table", [
        ("spectrum", "spectrum"), ("decompose", "norms"), ("interp", "gamma")])
    def test_csv_holds_data_rows(self, complex_path, command, table):
        result = CliRunner().invoke(main, [command, complex_path, "--output-format", "csv"])
        assert result.exit_code == 0, result.output
        assert len(_csv_tables(result.stdout)[table]) > 1

    @pytest.mark.parametrize("command, stage, check", [
        ("decompose", "_decomposition_stage", "decomposition_residual"),
        ("verify", "_uniqueness_stage", "uniqueness_dual_route"),
        ("report", "_dimension_stage", "dimension_consistency"),
    ])
    def test_failed_check_exits_1_after_the_payload(self, complex_path, monkeypatch,
                                                     command, stage, check):
        original = getattr(hodgeheat.cli, stage)

        def failing(*args):
            section, checks = original(*args)
            return section, [dict(c, passed=c["passed"] and c["name"] != check)
                             for c in checks]

        monkeypatch.setattr(hodgeheat.cli, stage, failing)
        result = CliRunner().invoke(main, [command, complex_path])
        assert result.exit_code == 1, result.output
        assert result.stderr == f"invariant violated: {check}\n"
        payload = json.loads(result.stdout)
        assert [c["name"] for c in payload["checks"] if not c["passed"]] == [check]


_REPORT = {"ok": True, "checks": [{"name": "uniqueness_dual_route", "value": 1e-9}]}


def _corpus_tree(root):
    """A directory as ``tests/corpus_reports.py`` writes one: one report
    and one CLI run."""
    (root / "reports").mkdir(parents=True)
    (root / "cli").mkdir()
    (root / "reports" / "c3-1.json").write_text(json.dumps(_REPORT))
    (root / "cli" / "c3-report-json.stdout").write_text(json.dumps(_REPORT))
    (root / "cli" / "c3-report-json.exit").write_text("0\n")
    return str(root)

# What each change to the new tree is, and the line that names it.
_TREE_CHANGES = {
    "field": (lambda root: (root / "reports" / "c3-1.json").write_text(json.dumps(
        dict(_REPORT, checks=[{"name": "uniqueness_dual_route", "value": 2e-9}]))),
        "checks[uniqueness_dual_route].value        1  1"),
    "ok": (lambda root: (root / "reports" / "c3-1.json").write_text(
        json.dumps(dict(_REPORT, ok=False))), "ok changed: c3-1.json: True -> False"),
    "report_one_side": (lambda root: (root / "reports" / "c4-1.json").write_text("{}"),
                        "on one side only: reports/c4-1.json"),
    "cli_one_side": (lambda root: (root / "cli" / "c3-report-json.exit").unlink(),
                     "on one side only: cli/c3-report-json.exit"),
    "cli_bytes": (lambda root: (root / "cli" / "c3-report-json.exit").write_text("1\n"),
                  "bytes differ: cli/c3-report-json.exit"),
    "cli_gained_check": (lambda root: (root / "cli" / "c3-report-json.stdout").write_text(
        json.dumps(dict(_REPORT, checks=[{"name": "kernel_dim_equals_betti", "value": 1},
                                         *_REPORT["checks"]]))),
        "checks[kernel_dim_equals_betti]        1  -"),
    "cli_fields": (lambda root: (root / "cli" / "c3-report-json.stdout").write_text(
        json.dumps(dict(_REPORT, ok=False))), "fields differ: cli/c3-report-json.stdout"),
    "cli_not_json": (lambda root: (root / "cli" / "c3-report-json.stdout").write_text("# csv"),
                     "bytes differ: cli/c3-report-json.stdout"),
    "report_bytes": (lambda root: (root / "reports" / "c3-1.json").write_text(
        json.dumps(_REPORT, indent=1)), "bytes differ: reports/c3-1.json"),
}


class TestCompareReports:
    """``tests/compare_reports.py`` exits 1 on any difference, 0 on none."""

    def test_equal_trees_exit_0(self, tmp_path, capsys):
        old, new = _corpus_tree(tmp_path / "old"), _corpus_tree(tmp_path / "new")
        assert compare_reports.main(old, new) == 0
        assert capsys.readouterr().out == ("path  reports  largest relative move\n"
                                           "profile rows with lower > upper: 0 -> 0\n")

    def test_crossing_rows_are_counted_on_each_side(self, tmp_path, capsys):
        # ROADMAP D8's count: a profile row whose lower bound passes its
        # upper one, by an ulp here, is counted; the exit code reads only
        # the differences.
        rows = [{"p": 1.5, "lower": 1.0, "upper": 1.0 - 2.0 ** -53},
                {"p": 3.0, "lower": 1.0, "upper": 1.0}]
        old, new = _corpus_tree(tmp_path / "old"), _corpus_tree(tmp_path / "new")
        for root in (old, new):
            Path(root, "reports", "c3-0.json").write_text(
                json.dumps(dict(_REPORT, interval={"profile": rows})))
        assert compare_reports.main(old, new) == 0
        assert capsys.readouterr().out.endswith("profile rows with lower > upper: 1 -> 1\n")
        assert compare_reports.crossings(old) == 1

    @pytest.mark.parametrize("change", _TREE_CHANGES)
    def test_any_difference_exits_1(self, tmp_path, capsys, change):
        edit, line = _TREE_CHANGES[change]
        old, new = _corpus_tree(tmp_path / "old"), _corpus_tree(tmp_path / "new")
        edit(tmp_path / "new")
        assert compare_reports.main(old, new) == 1
        assert line in capsys.readouterr().out


def test_corpus_reports_applies_the_thread_cap():
    # The script imports hodgeheat before numpy, so HODGEHEAT_NUM_THREADS
    # applies and its import raises no RuntimeWarning.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", "import corpus_reports"],
        cwd=Path(compare_reports.__file__).parent, env=child_env("1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _c3_with_cochain(tmp_path):
    doc = complex_to_json_dict(lib.cycle_complex(3))
    doc["cochain"] = {"degree": 1, "values": [0.5, -1.0, 2.0]}
    path = tmp_path / "c3_cochain.json"
    path.write_text(json.dumps(doc))
    return str(path)


_IGNORED = "input cochain has degree 1, not 0; decomposing a random degree-0 cochain (seed 42)"


class TestFileCochainOfOtherDegree:
    def test_report_warns_and_matches_seeded_report(self, tmp_path):
        result = CliRunner().invoke(main, ["report", _c3_with_cochain(tmp_path), "--degree", "0"])
        assert result.exit_code == 0 and result.stderr == ""
        payload = json.loads(result.stdout)
        jsonschema.validate(payload, report_schema())
        warnings = payload["complex"].pop("warnings")
        assert len(warnings) == 1 and warnings[0].startswith(_IGNORED)
        plain = json.loads(CliRunner().invoke(
            main, ["report", _c3_json(tmp_path), "--degree", "0"]).stdout)
        assert plain["complex"].pop("warnings") == []
        for doc in (payload, plain):
            del doc["config"]["input_path"]
        assert payload == plain

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_subcommand_warns_on_stderr(self, tmp_path, command):
        result = CliRunner().invoke(main, [command, _c3_with_cochain(tmp_path), "--degree", "0"])
        assert result.exit_code == 0
        assert result.stderr.startswith("warning: " + _IGNORED)
        json.loads(result.stdout)

    @pytest.mark.parametrize("command", ["report", "decompose", "verify"])
    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_no_warning_when_cochain_matches_or_is_absent(self, tmp_path, command, degree):
        path = _c3_with_cochain(tmp_path) if degree == "1" else _c3_json(tmp_path)
        result = CliRunner().invoke(main, [command, path, "--degree", degree])
        assert result.exit_code == 0 and result.stderr == ""
        if command == "report":
            assert json.loads(result.stdout)["complex"]["warnings"] == []

    def test_matching_cochain_is_decomposed(self, tmp_path):
        result = CliRunner().invoke(main, ["decompose", _c3_with_cochain(tmp_path),
                                           "--degree", "1", "--p", "2"])
        assert result.exit_code == 0
        parts = json.loads(result.stdout)["decomposition"]
        total = np.add.reduce([parts[k] for k in ("exact_part", "coexact_part", "omega3")])
        assert np.allclose(total, [0.5, -1.0, 2.0], atol=1e-12)


def _openblas_thread_query():
    """(library path, symbol) reporting numpy's bundled OpenBLAS pool size, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(path), symbol
    return None


_OPENBLAS_QUERY = _openblas_thread_query()

# Imports hodgeheat first, as `python -m hodgeheat.cli` does, then asks OpenBLAS.
_CHILD_QUERY = """import ctypes, sys
import hodgeheat
print(getattr(ctypes.CDLL(sys.argv[1]), sys.argv[2])())
"""


@pytest.mark.skipif(_OPENBLAS_QUERY is None,
                    reason="no OpenBLAS with a get_num_threads symbol under numpy.libs")
@pytest.mark.parametrize("extra, expected", [
    ({}, 1),
    ({"HODGEHEAT_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 1),
], ids=["cap_applies", "explicit_openblas_wins"])
def test_thread_cap_reaches_openblas(extra, expected):
    env = dict(child_env("1"), **extra)
    proc = subprocess.run([sys.executable, "-c", _CHILD_QUERY, *_OPENBLAS_QUERY],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == expected


@pytest.mark.parametrize("imports, warns", [
    ("import numpy; import hodgeheat", True),
    ("import hodgeheat; import numpy", False),
], ids=["numpy_first_warns", "hodgeheat_first_silent"])
def test_thread_cap_warns_when_it_cannot_apply(imports, warns):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", imports],
                          env=child_env("1"), capture_output=True, text=True)
    assert (proc.returncode != 0) == warns, proc.stderr
    assert ("HODGEHEAT_NUM_THREADS was not applied" in proc.stderr) == warns


# Runs the `hodgeheat report` command in this process, then lists what is loaded.
_CHILD_REPORT = """import sys
from hodgeheat.cli import main
try:
    main(["report", sys.argv[1], "--output", sys.argv[2]])
except SystemExit as stop:
    assert not stop.code, stop.code
print("scipy" in sys.modules)
"""


def test_package_import_leaves_scipy_special_unloaded(tmp_path):
    # The runtime is numpy only: scipy would add about 0.45 s to every
    # start-up, and an import deferred into the pipeline would only move
    # that cost into every command.
    code = ("import sys, hodgeheat, hodgeheat.cli; "
            "print('scipy.special' in sys.modules, 'scipy' in sys.modules, "
            "'numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env("1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # numpy.polynomial serves only the Gauss-Legendre nodes of one
    # quadrature, which imports it when it runs.
    assert proc.stdout.split() == ["False", "False", "False"]

    source = tmp_path / "torus.json"
    source.write_text(json.dumps(complex_to_json_dict(lib.flat_torus(4, 4))))
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", _CHILD_REPORT, str(source), str(out)],
                          env=child_env("1"), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert json.loads(out.read_text())["uniqueness"]["passed"]
