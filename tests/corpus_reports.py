"""Write run_pipeline reports for a fixed set of inputs, to compare two trees.

Usage: PYTHONPATH=src python tests/corpus_reports.py OUTDIR

Writes OUTDIR/inputs/NAME.json and OUTDIR/reports/NAME.json for:
- every (complex, degree) pair of the test corpus, seed 42;
- the first 8 corpus complexes under ``log_uniform_weights``, every degree;
- flat_torus 12x12 and 48x3 at degree 1, and 20x20 at degree 1 with
  ``p_list=()``;
- flat_torus 12x12 at degree 1 with the file cochain ((i % 7) - 3) * scale
  on edge i, at scale 2^1020 and 1e307, where |omega|_W passes the
  largest double;
- flat_torus 6x6 with weights 10^U(-3, 3) on every simplex, drawn degree
  by degree from one ``np.random.default_rng(12)``, at degrees 0-2 with
  ``p_list=()``: its spectrum counts more kernel directions than its Betti
  numbers (2, 5, 2 against 1, 2, 1), so each report fails
  ``kernel_dim_equals_betti`` and ``dimension_consistency``.  ``p_list=()``
  leaves out route B, which takes about 40 s at degrees 1 and 2 here
  (ROADMAP D10);
- three vertices with no edges at degree 0: the gap is infinite, so route
  B does not run and the uniqueness section's ``quadrature`` is ``{}``.

It also runs every subcommand through click's ``CliRunner``, so the
comparison covers the CLI's renderer, its payload slices and every reader:

- ``build``, and ``spectrum``, ``decompose``, ``interp``, ``verify`` and
  ``report`` at degree 1, on ``cycle_complex(3)``, ``filled_triangle`` and
  flat_torus 6x6 as JSON files, in JSON and, where the subcommand offers
  it, with ``--output-format csv``;
- ``build`` and ``report`` on the tetrahedron boundary as an OFF mesh and
  on C3 as an edge list, both written as text;
- ``spectrum`` at degrees 0-2 on the filled triangle with ``--cache-dir``,
  which writes each entry, then ``report`` at degrees 0-2, which reads
  them.  The cache directory is removed afterwards: an entry's bytes hold
  the time it was written.

Each run writes OUTDIR/cli/NAME.stdout, .stderr and .exit (the exit code).

Each report names its input by the same relative path on every tree, so
``diff -r`` of two OUTDIRs is empty exactly when the reports agree byte
for byte.  pytest does not collect this file.
"""

import json
import os
import shutil
import sys

import numpy as np
from click.testing import CliRunner
from conftest import CORPUS, all_degrees, log_uniform_weights

from hodgeheat import SimplicialComplex, build_complex
from hodgeheat import library as lib
from hodgeheat.cli import RunConfig, main as cli_main, run_pipeline
from hodgeheat.io import complex_to_json_dict, emit_report

# Subcommand -> output formats it offers.
_CLI_COMMANDS = {"build": ("json",), "spectrum": ("json", "csv"),
                 "decompose": ("json", "csv"), "interp": ("json", "csv"),
                 "verify": ("json",), "report": ("json", "csv")}

# File name -> text, one input per text reader: the tetrahedron boundary as
# a consistently oriented OFF mesh, and C3 as an edge list, one edge weighted.
_TEXT_INPUTS = {
    "tetra_boundary.off": ("OFF\n4 4 6\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                           "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"),
    "c3.edges": "0 1\n1 2\n0 2 2.0\n",
}


def _cases():
    """(name, input document, degree, p_list) of every report; None keeps
    the default."""
    for name, K in CORPUS:
        for ell in all_degrees(K):
            yield f"{name}-{ell}", complex_to_json_dict(K), ell, None
    for i, (name, K) in enumerate(CORPUS[:8]):
        doc = complex_to_json_dict(log_uniform_weights(K, i))
        for ell in all_degrees(K):
            yield f"{name}_log_uniform-{ell}", doc, ell, None
    torus = complex_to_json_dict(lib.flat_torus(12, 12))
    yield "torus_12x12-1", torus, 1, None
    yield "torus_20x20-1", complex_to_json_dict(lib.flat_torus(20, 20)), 1, ()
    yield "torus_48x3-1", complex_to_json_dict(lib.flat_torus(48, 3)), 1, None
    n = len(torus["simplices"]["1"])
    for tag, scale in (("2p1020", 2.0 ** 1020), ("1e307", 1e307)):
        values = [((i % 7) - 3) * scale for i in range(n)]
        yield (f"torus_12x12_x{tag}-1", dict(torus, cochain={"degree": 1, "values": values}),
               1, None)
    K = lib.flat_torus(6, 6)
    rng = np.random.default_rng(12)
    spread = complex_to_json_dict(SimplicialComplex(
        K.simplices, [10.0 ** rng.uniform(-3.0, 3.0, len(level)) for level in K.simplices]))
    for ell in range(3):
        yield f"torus_6x6_spread-{ell}", spread, ell, ()
    yield "vertices_only-0", complex_to_json_dict(build_complex({"vertices": [0, 1, 2]})), 0, None


def _invoke(name, args):
    """Run the CLI on args; write its stdout, stderr and exit code to cli/NAME.*."""
    result = CliRunner().invoke(cli_main, args)
    stem = os.path.join("cli", name)
    for suffix, text in (("stdout", result.stdout), ("stderr", result.stderr),
                         ("exit", f"{result.exit_code}\n")):
        with open(f"{stem}.{suffix}", "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_input(filename, text):
    path = os.path.join("inputs", f"cli_{filename}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli_runs():
    """Write every subcommand's stdout, stderr and exit code to cli/."""
    os.makedirs("cli", exist_ok=True)
    inputs = {"c3": lib.cycle_complex(3), "filled_triangle": lib.filled_triangle(),
              "torus_6x6": lib.flat_torus(6, 6)}
    for name, K in inputs.items():
        path = _write_input(f"{name}.json", json.dumps(complex_to_json_dict(K)))
        for command, formats in _CLI_COMMANDS.items():
            degree = [] if command == "build" else ["--degree", "1"]
            for fmt in formats:
                extra = [] if fmt == "json" else ["--output-format", fmt]
                _invoke(f"{name}-{command}-{fmt}", [command, path, *degree, *extra])
    for filename, text in _TEXT_INPUTS.items():
        path = _write_input(filename, text)
        for command in ("build", "report"):
            _invoke(f"{filename.replace('.', '_')}-{command}-json", [command, path])
    path = os.path.join("inputs", "cli_filled_triangle.json")
    for command in ("spectrum", "report"):
        for ell in range(3):
            _invoke(f"filled_triangle-{command}-cache-{ell}",
                    [command, path, "--degree", str(ell), "--cache-dir", "cache"])
    shutil.rmtree("cache")


def main(outdir):
    os.makedirs(os.path.join(outdir, "inputs"), exist_ok=True)
    os.makedirs(os.path.join(outdir, "reports"), exist_ok=True)
    os.chdir(outdir)
    for name, doc, ell, p_list in _cases():
        path = os.path.join("inputs", f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        extra = {} if p_list is None else {"p_list": p_list}
        report, _ = run_pipeline(RunConfig(input_path=path, degree=ell, **extra))
        emit_report(report, os.path.join("reports", f"{name}.json"))
    _cli_runs()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: corpus_reports.py OUTDIR")
    main(sys.argv[1])
