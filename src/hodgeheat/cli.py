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
from dataclasses import asdict, dataclass

import click

from . import __version__
from .complexes import betti_numbers
from .decomposition import decompose, verify_uniqueness
from .interpolation import dimension_consistency, interpolation_report
from .io import (
    complex_to_json_dict,
    parse_input,
    report_to_csv,
    report_to_json,
    sanitize,
)
from .library import random_cochain
from .spectral import cached_laplacian_spectrum, classify_zero, laplacian_spectrum


@dataclass
class RunConfig:
    """Everything a pipeline run depends on; equal configs give equal reports."""

    input_path: str
    input_format: str | None = None
    degree: int = 1
    p_list: tuple = (1.5, 2.0, 3.0)
    epsilon: float | None = None
    error_target: float = 1e-8
    t_grid: tuple = (0.25, 0.5, 1.0, 2.0, 4.0)
    seed: int = 42
    cache_dir: str | None = None

    def validate(self):
        for p in self.p_list:
            if not (p == math.inf or p >= 1):
                raise ValueError(f"p = {p} outside [1, inf]")
        _check_error_target(self.error_target)

    def to_json_dict(self):
        """Every field; the report's ``config`` section."""
        return {**asdict(self), "p_list": list(self.p_list), "t_grid": list(self.t_grid)}


def _check_error_target(error_target):
    """The route B error targets that ``report`` and ``verify`` accept."""
    if not 0 < error_target <= 1e-2:
        raise ValueError("error_target must lie in (0, 1e-2]")


def _spectrum_for(K, ell, cache_dir):
    if cache_dir:
        return cached_laplacian_spectrum(K, ell, cache_dir)
    return laplacian_spectrum(K, ell)


def _cochain_for(parsed, degree, seed):
    """The file's cochain when it has ``degree``, else a seeded random one.

    Returns (cochain, warning).  A file cochain of another degree is
    ignored; the warning says so and is appended to ``parsed.warnings``.
    """
    cochain = parsed.cochain
    if cochain is not None and cochain.degree == degree:
        return cochain, None
    warning = None
    if cochain is not None:
        warning = (f"input cochain has degree {cochain.degree}, not {degree}; "
                   f"decomposing a random degree-{degree} cochain (seed {seed}) instead")
        parsed.warnings.append(warning)
    return random_cochain(parsed.complex, degree, seed), warning


def _spectrum_section(s):
    """The ``spectrum`` subcommand's payload and the report's section."""
    zero = classify_zero(s)
    return {
        "degree": s.degree,
        "eigenvalues": list(s.eigenvalues),
        "kernel_dim": s.kernel_dim,
        "gap": s.gap,
        "zero_in_spectrum": zero.zero_in_spectrum,
        "isolated": zero.isolated,
    }


def run_pipeline(config: RunConfig):
    """Full pipeline; returns (report dict, exit code 0/1)."""
    config.validate()
    parsed = parse_input(config.input_path, config.input_format)
    K = parsed.complex
    ell = config.degree
    if not 0 <= ell <= K.max_degree:
        raise ValueError(f"degree {ell} out of range [0, {K.max_degree}]")

    s = _spectrum_for(K, ell, config.cache_dir)
    interval = interpolation_report(K, ell, epsilon=config.epsilon,
                                    t_grid=config.t_grid, spectral=s,
                                    seed=config.seed)

    checks = []
    if interval.levelset_condition is not None:
        checks.append({"name": "levelset_condition_below_one",
                       "passed": interval.levelset_condition < 1.0,
                       "value": interval.levelset_condition, "threshold": 1.0})

    omega, _ = _cochain_for(parsed, ell, config.seed)

    admissible = [p for p in config.p_list
                  if interval.p1 < p < interval.p2 or p == 2.0]
    dec_section = None
    uniq_section = None
    if config.p_list:
        dec = decompose(K, ell, omega, p_list=admissible, spectral=s)
        dec_section = dec.to_json_dict()
        checks.extend([
            {"name": "decomposition_residual", "passed": dec.residual <= 1e-8,
             "value": dec.residual, "threshold": 1e-8},
            {"name": "harmonic_component_defect", "passed": dec.harmonic_defect <= 1e-8,
             "value": dec.harmonic_defect, "threshold": 1e-8},
            {"name": "component_orthogonality",
             "passed": max(dec.orthogonality.values()) <= 1e-8,
             "value": max(dec.orthogonality.values()), "threshold": 1e-8},
        ])
        uniq = verify_uniqueness(K, ell, omega, error_target=config.error_target,
                                 spectral=s)
        uniq_section = {
            "component_diffs": uniq.component_diffs,
            "max_rel_diff": uniq.max_rel_diff,
            "tol": uniq.tol,
            "passed": uniq.passed,
            "perturbation_detected": uniq.perturbation_detected,
            "quadrature": uniq.quadrature,
        }
        checks.append({"name": "uniqueness_dual_route", "passed": uniq.passed,
                       "value": uniq.max_rel_diff, "threshold": uniq.tol})
        checks.append({"name": "uniqueness_kernel_perturbation",
                       "passed": uniq.perturbation_detected,
                       "value": None, "threshold": None})

    # The other degrees' spectra are built only now, after the degree-ell
    # work has released its temporaries.
    spectra = [s if d == ell else _spectrum_for(K, d, config.cache_dir)
               for d in range(K.max_degree + 1)]
    dim_rows = dimension_consistency(K, spectra, p_list=admissible)
    betti = [row["betti"] for row in dim_rows]
    checks.insert(0, {"name": "kernel_dim_equals_betti", "passed": s.kernel_dim == betti[ell],
                      "value": s.kernel_dim, "threshold": betti[ell]})
    checks.append({"name": "dimension_consistency",
                   "passed": all(r["ok"] for r in dim_rows),
                   "value": None, "threshold": None})

    ok = all(c["passed"] for c in checks)
    report = {
        "tool": {"name": "hodgeheat", "version": __version__},
        "config": config.to_json_dict(),
        "complex": {
            "counts": [len(level) for level in K.simplices],
            "total_weights": [K.total_weight(d) for d in range(K.max_degree + 1)],
            "vertex_count": K.vertex_count,
            "warnings": list(parsed.warnings),
        },
        "betti": betti,
        "degree": ell,
        "spectrum": _spectrum_section(s),
        "interval": interval.to_json_dict(),
        "decomposition": dec_section,
        "uniqueness": uniq_section,
        "dimension_consistency": dim_rows,
        "checks": checks,
        "ok": ok,
    }
    return report, (0 if ok else 1)


def _write(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


def _emit(payload: dict, output: str | None, fmt: str):
    text = report_to_json(payload) if fmt == "json" else report_to_csv(sanitize(payload))
    _write(text, output)


def _fail_input(exc: Exception):
    click.echo(f"input error: {exc}", err=True)
    sys.exit(2)


_common = [
    click.option("--format", "input_format", type=click.Choice(["json", "off", "edgelist"]),
                 default=None, help="Input format (default: by extension)."),
    click.option("--output", "-o", "output_path", type=click.Path(), default=None),
    click.option("--output-format", type=click.Choice(["json", "csv"]), default="json"),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Hodge decomposition toolkit for weighted simplicial complexes."""


@main.command()
@click.argument("input_path", type=click.Path(exists=True))
@_with_common
def build(input_path, input_format, output_path, output_format):
    """Parse and validate a complex; report counts and cohomology dimensions."""
    try:
        parsed = parse_input(input_path, input_format)
        K = parsed.complex
        payload = {
            "counts": [len(level) for level in K.simplices],
            "vertex_count": K.vertex_count,
            "betti": betti_numbers(K),
            "warnings": list(parsed.warnings),
            "complex": complex_to_json_dict(K),
        }
    except (ValueError, OSError) as exc:
        _fail_input(exc)
    _emit(payload, output_path, output_format)


@main.command()
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--degree", type=int, default=1, show_default=True)
@click.option("--cache-dir", type=click.Path(), default=None)
@_with_common
def spectrum(input_path, degree, cache_dir, input_format, output_path, output_format):
    """Eigenvalues, kernel dimension, and spectral gap of one Laplacian."""
    try:
        parsed = parse_input(input_path, input_format)
        s = _spectrum_for(parsed.complex, degree, cache_dir)
    except (ValueError, OSError) as exc:
        _fail_input(exc)
    _emit(_spectrum_section(s), output_path, output_format)


@main.command("decompose")
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--degree", type=int, default=1, show_default=True)
@click.option("--p", "p_list", type=float, multiple=True, default=(1.5, 2.0, 3.0),
              show_default=True, help="Norm exponents for the component table.")
@click.option("--seed", type=int, default=42, show_default=True)
@_with_common
def decompose_cmd(input_path, degree, p_list, seed, input_format, output_path, output_format):
    """Split a cochain (from the file, or seeded) into its three parts."""
    try:
        parsed = parse_input(input_path, input_format)
        K = parsed.complex
        omega, warning = _cochain_for(parsed, degree, seed)
        dec = decompose(K, degree, omega, p_list=p_list)
    except (ValueError, OSError) as exc:
        _fail_input(exc)
    if warning:
        click.echo(f"warning: {warning}", err=True)
    payload = dec.to_json_dict()
    _emit(payload, output_path, output_format)
    if dec.residual > 1e-8 or dec.harmonic_defect > 1e-8:
        click.echo("invariant violated: decomposition_residual", err=True)
        sys.exit(1)


@main.command()
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--degree", type=int, default=1, show_default=True)
@click.option("--epsilon", type=float, default=None,
              help="Interval margin (default: tau/20).")
@click.option("--t-grid", default="0.25,0.5,1,2,4", show_default=True,
              help="Comma-separated times for the growth-rate fit.")
@click.option("--seed", type=int, default=42, show_default=True)
@_with_common
def interp(input_path, degree, epsilon, t_grid, seed, input_format, output_path, output_format):
    """Measured rates and the admissible exponent interval for one degree."""
    try:
        times = tuple(float(tok) for tok in t_grid.split(","))
        parsed = parse_input(input_path, input_format)
        rep = interpolation_report(parsed.complex, degree, epsilon=epsilon,
                                   t_grid=times, seed=seed)
    except (ValueError, OSError) as exc:
        _fail_input(exc)
    if output_format == "csv":
        _write("".join(",".join(map(str, row)) + "\n" for row in rep.to_csv_rows()),
               output_path)
    else:
        _emit(rep.to_json_dict(), output_path, "json")


@main.command()
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--degree", type=int, default=1, show_default=True)
@click.option("--error-target", type=float, default=1e-8, show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@_common[0]
def verify(input_path, degree, error_target, seed, input_format):
    """Dual-route uniqueness and dimension-consistency checks; exit 1 on failure."""
    try:
        _check_error_target(error_target)
        parsed = parse_input(input_path, input_format)
        K = parsed.complex
        if not 0 <= degree <= K.max_degree:
            raise ValueError(f"degree {degree} out of range [0, {K.max_degree}]")
        omega, warning = _cochain_for(parsed, degree, seed)
        spectra = [laplacian_spectrum(K, d) for d in range(K.max_degree + 1)]
        uniq = verify_uniqueness(K, degree, omega, error_target=error_target,
                                 spectral=spectra[degree])
        rows = dimension_consistency(K, spectra)
    except (ValueError, OSError) as exc:
        _fail_input(exc)
    if warning:
        click.echo(f"warning: {warning}", err=True)
    failures = []
    if not uniq.passed:
        failures.append("uniqueness_dual_route")
    if not uniq.perturbation_detected:
        failures.append("uniqueness_kernel_perturbation")
    failures.extend(f"dimension_consistency_degree_{r['degree']}"
                    for r in rows if not r["ok"])
    click.echo(report_to_json(sanitize({
        "uniqueness": {
            "max_rel_diff": uniq.max_rel_diff,
            "passed": uniq.passed,
            "component_diffs": uniq.component_diffs,
        },
        "dimension_consistency": rows,
        "failures": failures,
    })), nl=False)
    if failures:
        click.echo("invariant violated: " + ", ".join(failures), err=True)
        sys.exit(1)


@main.command()
@click.argument("input_path", type=click.Path(exists=True))
@click.option("--degree", type=int, default=1, show_default=True)
@click.option("--p", "p_list", type=float, multiple=True, default=(1.5, 2.0, 3.0),
              show_default=True)
@click.option("--epsilon", type=float, default=None)
@click.option("--error-target", type=float, default=1e-8, show_default=True)
@click.option("--t-grid", default="0.25,0.5,1,2,4", show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--cache-dir", type=click.Path(), default=None)
@_with_common
def report(input_path, degree, p_list, epsilon, error_target, t_grid, seed,
           cache_dir, input_format, output_path, output_format):
    """Aggregate report: spectrum, interval, decomposition, and all checks."""
    try:
        config = RunConfig(
            input_path=input_path,
            input_format=input_format,
            degree=degree,
            p_list=tuple(p_list),
            epsilon=epsilon,
            error_target=error_target,
            t_grid=tuple(float(tok) for tok in t_grid.split(",")),
            seed=seed,
            cache_dir=cache_dir,
        )
        payload, code = run_pipeline(config)
    except (ValueError, OSError) as exc:
        _fail_input(exc)
    _emit(payload, output_path, output_format)
    if code != 0:
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        click.echo("invariant violated: " + ", ".join(failed), err=True)
        sys.exit(code)


if __name__ == "__main__":
    main()
