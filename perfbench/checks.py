"""Checks of a hodgeheat report on a unit-weight flat torus.

Every expected value comes from the torus itself (``torus.py``): the
closed-form spectrum, the known topology, and the Hodge identities built
on the benchmark's own incidence matrices.  Nothing is copied from the
program's output.  Each check returns a list of failure messages; an empty
list means the report passed.

The tori have unit weights, so the weighted inner product is the plain dot
product and the codifferential is the transposed incidence matrix.
"""

import math

import numpy as np

import torus

SPECTRUM_TOL = 1e-10   # absolute, times max(1, lambda_max)
HODGE_TOL = 1e-8       # relative to |omega|
ROUTE_TOL = 1e-6       # RunConfig's route tolerance
ERROR_TARGET = 1e-8    # RunConfig's default error_target


def _fail_if(condition, message):
    return [message] if condition else []


def check_spectrum(report, nx, ny):
    expected = np.array(torus.degree1_spectrum(nx, ny))
    spectrum = report["spectrum"]
    got = np.asarray(spectrum["eigenvalues"], dtype=float)
    if got.shape != expected.shape:
        return [f"spectrum: {got.size} eigenvalues, expected {expected.size}"]
    tol = SPECTRUM_TOL * max(1.0, expected[-1])
    err = float(np.max(np.abs(np.sort(got) - expected)))
    gap = expected[2]
    return (_fail_if(err > tol, f"spectrum: off the closed form by {err:.3e}")
            + _fail_if(spectrum["kernel_dim"] != 2,
                       f"spectrum: kernel_dim {spectrum['kernel_dim']}, expected 2")
            + _fail_if(not abs(spectrum["gap"] - gap) <= tol,
                       f"spectrum: gap {spectrum['gap']}, expected {gap}"))


def check_topology(report, nx, ny):
    n = nx * ny
    counts = report["complex"]["counts"]
    euler = sum((-1) ** k * c for k, c in enumerate(counts))
    return (_fail_if(report["betti"] != [1, 2, 1], f"topology: betti {report['betti']}")
            + _fail_if(counts != [n, 3 * n, 2 * n], f"topology: counts {counts}")
            + _fail_if(euler != 0, f"topology: Euler characteristic {euler}"))


def check_hodge(report, nx, ny, cochain):
    """omega = d omega1 + delta omega2 + omega3 with the three parts orthogonal."""
    verts, edges, tris = torus.simplices(nx, ny)
    d0 = np.array(torus.incidence(verts, edges))
    d1 = np.array(torus.incidence(edges, tris))
    dec = report["decomposition"]
    omega = np.asarray(cochain, dtype=float)
    scale = float(np.linalg.norm(omega))
    exact, coexact, harmonic = (np.asarray(dec[k], dtype=float)
                                for k in ("exact_part", "coexact_part", "omega3"))
    residuals = {
        "exact_part - d omega1": exact - d0 @ np.asarray(dec["omega1"], dtype=float),
        "coexact_part - delta omega2": coexact - d1.T @ np.asarray(dec["omega2"], dtype=float),
        "parts - omega": exact + coexact + harmonic - omega,
        "d omega3": d1 @ harmonic,
        "delta omega3": d0.T @ harmonic,
    }
    failures = [f"hodge: |{name}| = {np.linalg.norm(r) / scale:.3e} |omega|"
                for name, r in residuals.items()
                if not np.linalg.norm(r) <= HODGE_TOL * scale]
    pairs = {"exact.coexact": exact @ coexact, "exact.omega3": exact @ harmonic,
             "coexact.omega3": coexact @ harmonic}
    failures += [f"hodge: <{name}> = {value / scale ** 2:.3e} |omega|^2"
                 for name, value in pairs.items()
                 if not abs(value) <= HODGE_TOL * scale ** 2]
    return failures


def check_routes(report, cochain):
    """Route B agrees with route A, and the quadrature tail meets its target."""
    uniq = report["uniqueness"]
    scale = math.sqrt(sum(x * x for x in cochain))
    diffs = [uniq["max_rel_diff"], *uniq["component_diffs"].values()]
    tail = uniq["quadrature"]["tail_bound"]
    return (_fail_if(not max(diffs) <= ROUTE_TOL,
                     f"routes: A and B differ by {max(diffs):.3e} relative")
            + _fail_if(not tail <= ERROR_TARGET * scale,
                       f"routes: tail bound {tail:.3e} above {ERROR_TARGET * scale:.3e}"))


def check_interval(report, nx, ny):
    """p1 < 2 < p2 conjugate, tau the gap, gamma(2) = tau, brackets ordered."""
    interval = report["interval"]
    p1, p2, tau = interval["p1"], interval["p2"], interval["tau"]
    gap = torus.degree1_spectrum(nx, ny)[2]
    gamma2 = [g for p, g in interval["gamma_of_p"] if p == 2.0]
    bad_brackets = [row["p"] for row in interval["profile"]
                    if not row["lower"] <= row["upper"]]
    return (_fail_if(not p1 < 2.0 < p2, f"interval: ({p1}, {p2}) does not contain 2")
            + _fail_if(not abs(1.0 / p1 + 1.0 / p2 - 1.0) <= 1e-12,
                       f"interval: 1/p1 + 1/p2 = {1.0 / p1 + 1.0 / p2!r}")
            + _fail_if(not abs(tau - gap) <= 1e-10 * gap, f"interval: tau {tau}, gap {gap}")
            + _fail_if(len(gamma2) != 1 or not abs(gamma2[0] - gap) <= 1e-10 * gap,
                       f"interval: gamma(2) {gamma2}, expected {gap}")
            + _fail_if(bool(bad_brackets), f"interval: lower > upper at p {bad_brackets}"))


def check_report(report, nx, ny, cochain, full):
    """All checks that apply; full reports add the Hodge and route checks."""
    failures = (check_spectrum(report, nx, ny) + check_topology(report, nx, ny)
                + check_interval(report, nx, ny)
                + _fail_if(report["ok"] is not True, "report: ok is not true"))
    if full:
        failures += check_hodge(report, nx, ny, cochain) + check_routes(report, cochain)
    else:
        failures += _fail_if(report["decomposition"] is not None
                             or report["uniqueness"] is not None,
                             "report: decomposition ran without a p list")
    return failures
