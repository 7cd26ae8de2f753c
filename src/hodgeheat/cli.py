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
from .spectral import cached_laplacian_spectrum, laplacian_spectrum


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


def _spectrum_for(K, ell, cache_dir):
    """Degree ell's spectrum, through the cache if there is one."""
    if cache_dir:
        return cached_laplacian_spectrum(K, ell, cache_dir)
    return laplacian_spectrum(K, ell)


def _front_end(config: RunConfig):
    """Validate, parse, check the degree, and build its spectrum: (parsed, s).

    Where s is lifted, the complex also holds the neighbours it was lifted
    from: every operator it reads is checked before any stage runs, and
    the dimension stage decomposes no degree twice.
    """
    config.validate()
    parsed = parse_input(config.input_path, config.input_format)
    K, ell = parsed.complex, config.degree
    if not 0 <= ell <= K.max_degree:
        raise ValueError(f"degree {ell} out of range [0, {K.max_degree}]")
    return parsed, _spectrum_for(K, ell, config.cache_dir)


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


def _spectrum_section(s):
    # In finite dimension 0 is either absent from the spectrum or isolated;
    # the gap says how far.
    return {
        "degree": s.degree,
        "eigenvalues": list(s.eigenvalues),
        "kernel_dim": s.kernel_dim,
        "gap": s.gap,
        "zero_in_spectrum": s.kernel_dim > 0,
        "isolated": True,
    }


def _interval_section(K, config):
    return interpolation_report(K, config.degree, epsilon=config.epsilon,
                                t_grid=config.t_grid, seed=config.seed)


# Each stage below returns its report section (a result or rows) and its checks.

def _decomposition_stage(dec):
    orthogonality = max(dec.orthogonality.values())
    return dec, [
        {"name": "decomposition_residual", "passed": dec.residual <= 1e-8,
         "value": dec.residual, "threshold": 1e-8},
        {"name": "harmonic_component_defect", "passed": dec.harmonic_defect <= 1e-8,
         "value": dec.harmonic_defect, "threshold": 1e-8},
        {"name": "component_orthogonality", "passed": orthogonality <= 1e-8,
         "value": orthogonality, "threshold": 1e-8},
    ]


def _uniqueness_stage(K, dec, error_target):
    uniq = verify_uniqueness(K, dec, error_target=error_target)
    return uniq, [
        {"name": "uniqueness_dual_route", "passed": uniq.passed,
         "value": uniq.max_rel_diff, "threshold": uniq.tol},
        {"name": "uniqueness_kernel_perturbation", "passed": uniq.perturbation_detected,
         "value": None, "threshold": None},
    ]


def _dimension_stage(K, s, cache_dir):
    """Dimension rows of every degree; checks (kernel_dim_equals_betti, dimension_consistency).

    s is the report degree's spectrum, which K holds.  The other degrees
    are loaded or built only now, after the degree-ell work has released
    its temporaries, and K holds them for ``dimension_consistency``.
    """
    for d in range(K.max_degree + 1):
        if d != s.degree:
            _spectrum_for(K, d, cache_dir)
    rows = dimension_consistency(K)
    betti = rows[s.degree]["betti"]
    return rows, [
        {"name": "kernel_dim_equals_betti", "passed": s.kernel_dim == betti,
         "value": s.kernel_dim, "threshold": betti},
        {"name": "dimension_consistency", "passed": all(r["ok"] for r in rows),
         "value": None, "threshold": None},
    ]


def run_pipeline(config: RunConfig):
    """Full pipeline; returns (report dict, exit code 0/1).

    The config, interval, decomposition and uniqueness sections hold the
    RunConfig and the result objects themselves; ``io.sanitize`` encodes
    them.
    """
    parsed, s = _front_end(config)
    K, ell = parsed.complex, config.degree
    interval = _interval_section(K, config)

    checks = []
    if interval.levelset_condition is not None:
        checks.append({"name": "levelset_condition_below_one",
                       "passed": interval.levelset_condition < 1.0,
                       "value": interval.levelset_condition, "threshold": 1.0})

    omega = _cochain_for(parsed, ell, config.seed)
    admissible = admissible_exponents(config.p_list, interval.p1, interval.p2)
    dec = uniq = None
    if config.p_list:
        dec, dec_checks = _decomposition_stage(decompose(K, omega, p_list=admissible))
        uniq, uniq_checks = _uniqueness_stage(K, dec, config.error_target)
        checks += dec_checks + uniq_checks

    dim_rows, (kernel_check, dim_check) = _dimension_stage(K, s, config.cache_dir)
    checks = [kernel_check, *checks, dim_check]
    ok = all(c["passed"] for c in checks)
    report = {
        "tool": {"name": "hodgeheat", "version": __version__},
        "config": config,
        "complex": {
            "counts": [len(level) for level in K.simplices],
            "total_weights": [K.total_weight(d) for d in range(K.max_degree + 1)],
            "vertex_count": K.vertex_count,
            "warnings": list(parsed.warnings),
        },
        "betti": [row["betti"] for row in dim_rows],
        "degree": ell,
        "spectrum": _spectrum_section(s),
        "interval": interval,
        "decomposition": dec,
        "uniqueness": uniq,
        "dimension_consistency": dim_rows,
        "checks": checks,
        "ok": ok,
    }
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


def _spectrum_payload(config):
    parsed, s = _front_end(config)
    return {"spectrum": _spectrum_section(s)}, parsed.warnings


def _decompose_payload(config):
    parsed, _ = _front_end(config)
    omega = _cochain_for(parsed, config.degree, config.seed)
    dec = decompose(parsed.complex, omega, config.p_list)
    section, checks = _decomposition_stage(dec)
    return {"decomposition": section, "checks": checks}, parsed.warnings


def _interp_payload(config):
    parsed, _ = _front_end(config)
    interval = _interval_section(parsed.complex, config)
    return {"interval": interval}, parsed.warnings


def _verify_payload(config):
    parsed, s = _front_end(config)
    K = parsed.complex
    dec = decompose(K, _cochain_for(parsed, config.degree, config.seed))
    section, uniq_checks = _uniqueness_stage(K, dec, config.error_target)
    rows, (kernel_check, dim_check) = _dimension_stage(K, s, config.cache_dir)
    return {"uniqueness": section, "dimension_consistency": rows,
            "checks": [kernel_check, *uniq_checks, dim_check]}, parsed.warnings


def _report_payload(config):
    return run_pipeline(config)[0], []


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
    _run(_spectrum_payload, **options)


@main.command("decompose")
@_options("degree", "p", "seed", *_OUTPUT)
def decompose_cmd(**options):
    """Split a cochain (from the file, or seeded) into its three parts."""
    _run(_decompose_payload, **options)


@main.command()
@_options("degree", "epsilon", "t_grid", "seed", *_OUTPUT)
def interp(**options):
    """Measured rates and the admissible exponent interval for one degree."""
    _run(_interp_payload, **options)


@main.command()
@_options("degree", "error_target", "seed", "format")
def verify(**options):
    """Dual-route uniqueness and dimension-consistency checks; exit 1 on failure."""
    _run(_verify_payload, **options)


@main.command()
@_options("degree", "p", "epsilon", "error_target", "t_grid", "seed", "cache_dir", *_OUTPUT)
def report(**options):
    """Aggregate report: spectrum, interval, decomposition, and all checks."""
    _run(_report_payload, **options)


if __name__ == "__main__":
    main()
