"""Command-line harness: build, spectrum, decompose, interp, verify, report.

Exit codes: 0 success, 1 invariant failure, 2 input error.  The
environment variable HODGEHEAT_NUM_THREADS, set before the interpreter
starts, caps the BLAS thread pools (OMP / OpenBLAS / MKL / numexpr) so runs
are reproducible at a chosen thread count.  The cap is applied at package
import, in ``hodgeheat/__init__.py``, which runs before numpy loads;
explicitly set per-library variables (OPENBLAS_NUM_THREADS etc.) take
precedence.
"""

import math
import sys
from dataclasses import dataclass

import click

from . import __version__
from .complexes import betti_numbers
from .decomposition import decompose, verify_uniqueness
from .interpolation import (
    _DEFAULT_T_GRID,
    admissible_exponents,
    dimension_consistency,
    interpolation_report,
)
from .io import complex_to_json_dict, emit_report, parse_input, render_report
from .library import random_cochain
from .spectral import laplacian_spectrum


@dataclass
class RunConfig:
    """Everything a pipeline run depends on; equal configs give equal reports."""

    input_path: str
    input_format: str | None = None
    degree: int = 1
    p_list: tuple = (1.5, 2.0, 3.0)
    epsilon: float | None = None
    error_target: float = 1e-8
    t_grid: tuple = _DEFAULT_T_GRID
    seed: int = 42
    cache_dir: str | None = None

    def validate(self):
        for p in self.p_list:
            if not (p == math.inf or p >= 1):
                raise ValueError(f"p = {p} outside [1, inf]")
        if not 0 < self.error_target <= 1e-2:
            raise ValueError("error_target must lie in (0, 1e-2]")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def _front_end(config: RunConfig):
    """Validate, parse, check the degree, and build its spectrum: (parsed, s).

    Where s is lifted, the complex also holds the neighbours it was lifted
    from: every operator it reads is checked before any stage runs, and
    the dimension stage decomposes no degree twice.
    """
    config.validate()
    parsed = parse_input(config.input_path, config.input_format)
    K, ell = parsed.complex, config.degree
    K._check_degree(ell)
    return parsed, laplacian_spectrum(K, ell, config.cache_dir)


def _cochain_for(parsed, degree, seed):
    """The file's cochain when it has ``degree``, else a seeded random one.

    A file cochain of another degree is ignored; a warning that says so is
    appended to ``parsed.warnings``.
    """
    cochain = parsed.cochain
    if cochain is not None and cochain.degree == degree:
        return cochain
    if cochain is not None:
        parsed.warnings.append(
            f"input cochain has degree {cochain.degree}, not {degree}; "
            f"decomposing a random degree-{degree} cochain (seed {seed}) instead")
    return random_cochain(parsed.complex, degree, seed)


def _check(name, passed, value=None, threshold=None):
    return {"name": name, "passed": passed, "value": value, "threshold": threshold}


# Each stage below returns its report section (a result or rows) and its checks.

def _interval_stage(K, config):
    return interpolation_report(K, config.degree, epsilon=config.epsilon,
                                t_grid=config.t_grid, seed=config.seed), []


def _decomposition_stage(K, omega, p_list):
    dec = decompose(K, omega, p_list)
    orthogonality = max(dec.orthogonality.values())
    return dec, [
        _check("decomposition_residual", dec.residual <= 1e-8, dec.residual, 1e-8),
        _check("harmonic_component_defect", dec.harmonic_defect <= 1e-8,
               dec.harmonic_defect, 1e-8),
        _check("component_orthogonality", orthogonality <= 1e-8, orthogonality, 1e-8),
    ]


def _uniqueness_stage(K, dec, error_target):
    uniq = verify_uniqueness(K, dec, error_target=error_target)
    return uniq, [
        _check("uniqueness_dual_route", uniq.passed, uniq.max_rel_diff, uniq.tol),
        _check("uniqueness_kernel_perturbation", uniq.perturbation_detected),
    ]


def _dimension_stage(K, ell, betti, cache_dir):
    """Dimension rows of every degree; checks (dimension_consistency,).

    K holds degree ell's spectrum.  The other degrees are loaded or built
    only now, after the degree-ell work has released its temporaries, and
    K holds them for ``dimension_consistency``.
    """
    for d in range(K.max_degree + 1):
        if d != ell:
            laplacian_spectrum(K, d, cache_dir)
    rows = dimension_consistency(K, betti)
    return rows, [_check("dimension_consistency", all(r["ok"] for r in rows))]


_SECTIONS = ("spectrum", "interval", "decomposition", "uniqueness", "dimension_consistency")


def _report(config: RunConfig, sections):
    """The report of the stages that ``sections`` need, run in the report's order.

    Every stage reads the spectrum, and uniqueness reads the
    decomposition.  A section whose stage did not run is None, and
    ``checks`` holds the checks of the stages that ran, in that order.
    The decomposition keeps the admissible p where the interval ran and
    every p otherwise; with no p it does not run, nor does uniqueness.
    """
    parsed, s = _front_end(config)
    K, ell = parsed.complex, config.degree
    ran = set(sections) | ({"decomposition"} if "uniqueness" in sections else set())
    betti = betti_numbers(K)  # the F_p oracle, once per run
    checks = [_check("kernel_dim_equals_betti", s.kernel_dim == betti[ell], s.kernel_dim,
                     betti[ell])]
    results = dict.fromkeys(_SECTIONS) | {"spectrum": s}

    def stage(name, run, *args):
        results[name], stage_checks = run(*args)
        checks.extend(stage_checks)

    if "interval" in ran:
        stage("interval", _interval_stage, K, config)
    if "decomposition" in ran:
        omega = _cochain_for(parsed, ell, config.seed)  # warns even where no p runs it
        if config.p_list:
            interval = results["interval"]
            p_list = (config.p_list if interval is None
                      else admissible_exponents(config.p_list, interval.p1, interval.p2))
            stage("decomposition", _decomposition_stage, K, omega, p_list)
            if "uniqueness" in ran:
                stage("uniqueness", _uniqueness_stage, K, results["decomposition"],
                      config.error_target)
    if "dimension_consistency" in ran:
        stage("dimension_consistency", _dimension_stage, K, ell, betti, config.cache_dir)
    return {
        "tool": {"name": "hodgeheat", "version": __version__},
        "config": config,
        "complex": {
            "counts": [len(level) for level in K.simplices],
            "total_weights": [K.total_weight(d) for d in range(K.max_degree + 1)],
            "vertex_count": K.vertex_count,
            "warnings": list(parsed.warnings),
        },
        "betti": betti,
        "degree": ell,
        **results,
        "checks": checks,
    }


def run_pipeline(config: RunConfig):
    """Full pipeline; returns (report dict, exit code 0/1).

    The config, spectrum, interval, decomposition and uniqueness sections
    hold the RunConfig and the result objects themselves (the spectrum is
    the ``SpectralData`` that K holds); ``io.sanitize`` encodes them.
    """
    report = _report(config, _SECTIONS)
    report["ok"] = ok = all(c["passed"] for c in report["checks"])
    return report, (0 if ok else 1)


# What each subcommand prints: (payload, warnings for stderr).  Payloads
# are slices of the report, under the report's keys.

def _build_payload(config):
    parsed = parse_input(config.input_path, config.input_format)
    K = parsed.complex
    return {
        "counts": [len(level) for level in K.simplices],
        "vertex_count": K.vertex_count,
        "betti": betti_numbers(K),
        "warnings": list(parsed.warnings),
        "complex": complex_to_json_dict(K),
    }, []


def _slice(*sections):
    """What a subcommand that prints the report's ``sections`` prints:
    those sections and the checks of the stages they needed."""
    def payload_of(config):
        report = _report(config, sections)
        return ({name: report[name] for name in (*sections, "checks")},
                report["complex"]["warnings"])
    return payload_of


def _run(payload_of, output_path=None, output_format="json", t_grid=None, **fields):
    """Run one subcommand and exit: 2 on an input error, 1 on a failed check.

    ``payload_of`` maps the RunConfig of the command's options to
    (payload, warnings).  The payload is written even when a check fails;
    the failed checks are then named on stderr.
    """
    try:
        if t_grid is not None:
            try:
                fields["t_grid"] = tuple(float(tok) for tok in t_grid.split(","))
            except ValueError:
                raise ValueError(f"--t-grid must be comma-separated numbers, got {t_grid!r}")
        payload, warnings = payload_of(RunConfig(**fields))
        for warning in warnings:
            click.echo(f"warning: {warning}", err=True)
        if output_path:
            emit_report(payload, output_path, output_format)
            click.echo(f"wrote {output_path}")
        else:
            click.echo(render_report(payload, output_format), nl=False)
    except (ValueError, OSError) as exc:
        click.echo(f"input error: {exc}", err=True)
        sys.exit(2)
    failed = [c["name"] for c in payload.get("checks", []) if not c["passed"]]
    if failed:
        click.echo("invariant violated: " + ", ".join(failed), err=True)
        sys.exit(1)


_OPTIONS = {
    "degree": click.option("--degree", type=int, default=RunConfig.degree, show_default=True),
    "p": click.option("--p", "p_list", type=float, multiple=True, default=RunConfig.p_list,
                      show_default=True, help="Norm exponents for the component table."),
    "epsilon": click.option("--epsilon", type=float, default=None,
                            help="Interval margin (default: tau/20)."),
    "error_target": click.option("--error-target", type=float, default=RunConfig.error_target,
                                 show_default=True),
    "t_grid": click.option("--t-grid", default=",".join(f"{t:g}" for t in RunConfig.t_grid),
                           show_default=True,
                           help="Comma-separated times for the growth-rate fit."),
    "seed": click.option("--seed", type=int, default=RunConfig.seed, show_default=True),
    "cache_dir": click.option("--cache-dir", type=click.Path(), default=None),
    "format": click.option("--format", "input_format",
                           type=click.Choice(["json", "off", "edgelist"]), default=None,
                           help="Input format (default: by extension)."),
    "output": click.option("--output", "-o", "output_path", type=click.Path(), default=None),
    "output_format": click.option("--output-format", type=click.Choice(["json", "csv"]),
                                  default="json"),
}
_OUTPUT = ("format", "output", "output_format")


def _options(*names):
    """The input argument, then the named options."""
    def apply(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return click.argument("input_path", type=click.Path(exists=True))(fn)
    return apply


@click.group()
@click.version_option(__version__)
def main():
    """Hodge decomposition toolkit for weighted simplicial complexes."""


@main.command()
@_options("format", "output")
def build(**options):
    """Parse and validate a complex; report counts and cohomology dimensions (JSON)."""
    _run(_build_payload, **options)


@main.command()
@_options("degree", "cache_dir", *_OUTPUT)
def spectrum(**options):
    """Eigenvalues, kernel dimension, and spectral gap of one Laplacian."""
    _run(_slice("spectrum"), **options)


@main.command("decompose")
@_options("degree", "p", "seed", *_OUTPUT)
def decompose_cmd(**options):
    """Split a cochain (from the file, or seeded) into its three parts."""
    _run(_slice("decomposition"), **options)


@main.command()
@_options("degree", "epsilon", "t_grid", "seed", *_OUTPUT)
def interp(**options):
    """Measured rates and the admissible exponent interval for one degree."""
    _run(_slice("interval"), **options)


@main.command()
@_options("degree", "error_target", "seed", "format")
def verify(**options):
    """Dual-route uniqueness and dimension-consistency checks; exit 1 on failure."""
    _run(_slice("uniqueness", "dimension_consistency"), **options)


@main.command()
@_options("degree", "p", "epsilon", "error_target", "t_grid", "seed", "cache_dir", *_OUTPUT)
def report(**options):
    """Aggregate report: spectrum, interval, decomposition, and all checks."""
    _run(lambda config: (run_pipeline(config)[0], []), **options)


if __name__ == "__main__":
    main()
