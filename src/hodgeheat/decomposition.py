"""Green operators, fractional powers, and the exact/coexact/harmonic splitting.

The Green operator inverts the Laplacian on the complement of its kernel.
It is computed two ways: in closed spectral form, and as the time integral
of the heat semigroup up to t_max, summed by the heat action's Chebyshev
recurrence with integrated coefficients, with a certified exponential
tail bound and a certified truncation bound.  The inverse square root
comes from the time integral with weight t^(-1/2) (normalized by
Gamma(1/2)), by Gauss-Legendre quadrature of the spectral heat sum after
the substitution t = u^2 removes the integrable singularity at t = 0.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .complexes import (
    Cochain,
    SimplicialComplex,
    _coboundary_apply,
    _codifferential_apply,
    _unit_scaled,
    hodge_laplacian,
    inner_product,
    lp_norm,
)
from .spectral import (
    SpectralData,
    _chebyshev_sum,
    _cut_series,
    _green_series,
    _heat_series,
    harmonic_part,
    laplacian_spectrum,
)


# Gauss-Legendre nodes per panel of the subordinated integral.
_GAUSS_NODES = 24


def _t_max(gap: float, lam_max: float, error_target: float) -> float:
    """Truncation time of a heat integral, for a finite positive gap: the
    certified tail beyond it beats error_target with margin."""
    ratio = max(lam_max / gap, 1.0)
    return (math.log(1.0 / error_target) + math.log(ratio) + 3.0) / gap


@dataclass
class QuadratureResult:
    """Integrated cochain plus the certificates of what was left out.

    ``tail_bound`` bounds the W-norm of the integral beyond t_max.
    ``truncation_bound`` bounds the W-norm error of cutting Chebyshev
    series: the dropped-coefficient sum times |v|_W (0 for the spectral
    Gauss sum; route B sums the dropped sums of its two rows, times
    |omega|_W).  ``nodes_evaluated`` counts the work: Gauss nodes for the
    subordinated integral, and for a Chebyshev recurrence its products
    with the Laplacian's nonzeros, which route B's heat limit and Green
    term share.
    """

    cochain: Cochain = field(repr=False)
    tail_bound: float
    t_max: float
    nodes_evaluated: int
    error_target: float
    truncation_bound: float = 0.0


def _inv_on_support(lam: np.ndarray) -> np.ndarray:
    return np.where(lam > 0, 1.0 / np.where(lam > 0, lam, 1.0), 0.0)


def green_spectral(s: SpectralData) -> np.ndarray:
    """Closed form of the Green operator: 1/lambda on the nonzero spectrum."""
    return s.function_matrix(_inv_on_support)


def inv_sqrt_spectral(s: SpectralData) -> np.ndarray:
    """lambda^(-1/2) on the nonzero spectrum, 0 on the kernel."""
    return s.function_matrix(
        lambda lam: np.where(lam > 0, 1.0 / np.sqrt(np.where(lam > 0, lam, 1.0)), 0.0)
    )


def inv_sqrt_subordinated(s: SpectralData, omega: Cochain,
                          error_target: float = 1e-8) -> QuadratureResult:
    """Inverse square root via the subordinated heat integral.

    Evaluates (1/Gamma(1/2)) * integral of t^(-1/2) P_t (1-H) omega dt up
    to the horizon t_max that the gap and error_target fix, with the
    substitution t = u^2, which makes the integrand analytic at 0.  The
    rule is composite Gauss-Legendre on [0, sqrt(t_max)], with the spectral
    heat sum at each node; panel widths double away from 0, so the first
    panel resolves the fastest spectral mode while the panel count stays
    logarithmic in t_max * lambda_max.  The Gamma(1/2) = sqrt(pi)
    normalization makes the identity with the spectral lambda^(-1/2)
    exact, and ``tail_bound`` certifies the integral beyond t_max by the
    gap.
    """
    if not 0 < error_target < 1:
        raise ValueError(f"error_target must lie in (0, 1), got {error_target}")
    s.check_cochain(omega)
    v0 = omega.values - harmonic_part(s, omega.values)
    if s.norm2(v0) == 0.0 or math.isinf(s.gap):
        return QuadratureResult(Cochain(s.degree, np.zeros_like(v0)), 0.0, 0.0, 0, error_target)
    lam_max = float(s.eigenvalues[-1])
    t_max = _t_max(s.gap, lam_max, error_target)
    levels = min(max(int(math.ceil(math.log2(max(t_max * max(lam_max, s.gap), 4.0)))) + 1, 4), 60)
    upper = math.sqrt(t_max)
    bounds = [0.0] + [upper * 2.0 ** (k - levels + 1) for k in range(levels)]
    # Imported here: numpy.polynomial would otherwise load at every start-up.
    from numpy.polynomial.legendre import leggauss
    xs, ws = leggauss(_GAUSS_NODES)
    vals = np.zeros_like(v0)
    count = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        for x, w in zip(xs, ws):
            t = (mid + half * x) ** 2
            vals += (w * half * 2.0) * s.apply_function(lambda lam: np.exp(-t * lam), v0)
            count += 1
    vals /= math.sqrt(math.pi)
    tail = (math.exp(-s.gap * t_max) / (s.gap * math.sqrt(t_max))
            / math.sqrt(math.pi) * s.norm2(v0))
    return QuadratureResult(Cochain(s.degree, vals), tail, t_max, count, error_target)


@dataclass
class DecompositionResult:
    """Splitting omega = d omega1 + delta omega2 + omega3.

    omega1 / omega2 are the potentials one degree below / above (None at
    the boundary degrees); omega3 is harmonic.  component_norms maps each
    requested p to the weighted p-norms of the pieces, and c_p to the
    largest ratio against |omega|_p.  ``omega`` is the input cochain, kept
    for ``verify_uniqueness`` and not emitted.
    """

    degree: int
    omega1: Cochain | None
    omega2: Cochain | None
    omega3: Cochain
    exact_part: Cochain
    coexact_part: Cochain
    residual: float
    harmonic_defect: float
    orthogonality: dict
    component_norms: dict
    c_p: dict
    omega: Cochain = field(repr=False)


def _hodge_split(K: SimplicialComplex, ell: int, g: np.ndarray):
    """(omega1, exact, omega2, coexact) of a Green potential g.

    omega1 = delta g, exact = d omega1, omega2 = d g and coexact =
    delta omega2, each applied through the face tables; a potential is
    None and its part 0 at a boundary degree.
    """
    omega1 = omega2 = None
    exact = np.zeros_like(g)
    coexact = np.zeros_like(g)
    if ell >= 1:
        omega1 = _codifferential_apply(K, ell, g)
        exact = _coboundary_apply(K, ell - 1, omega1)
    if ell < K.max_degree:
        omega2 = _coboundary_apply(K, ell, g)
        coexact = _codifferential_apply(K, ell + 1, omega2)
    return omega1, exact, omega2, coexact


def decompose(K: SimplicialComplex, omega: Cochain, p_list=()) -> DecompositionResult:
    """Split a cochain into exact, coexact, and harmonic parts (route A).

    Reads K's spectrum at the degree of omega.  omega3 = H omega; the
    potentials come from the Green operator applied to the non-harmonic
    part: omega1 = delta G (1-H) omega and omega2 = d G (1-H) omega, so
    d omega1 + delta omega2 + omega3 reconstructs omega.  The split runs
    on omega scaled by a power of two, its largest |entry| in [0.5, 1),
    which leaves every bit of the parts as it is: ``residual`` and
    ``harmonic_defect`` are formed there, so they do not depend on the
    scale, and the parts and potentials are scaled back.
    """
    K.check_cochain(omega)
    ell = omega.degree
    s = laplacian_spectrum(K, ell)
    unit, e = _unit_scaled(omega.values)
    h = harmonic_part(s, unit)
    g = s.apply_function(_inv_on_support, unit - h)
    o1, exact, o2, coexact = _hodge_split(K, ell, g)
    residual = s.norm2(unit - exact - coexact - h) / (s.norm2(unit) or 1.0)

    h_norm = s.norm2(h)
    if h_norm == 0.0:
        harmonic_defect = 0.0
    else:
        harmonic_defect = s.norm2(s.apply_function(lambda lam: lam, h)) / h_norm

    ortho = {}
    # Each part scaled by its own power of two: neither <a, b> nor |a| |b|
    # overflows or underflows, and the ratios' bits stay as they are.
    units = {name: Cochain(ell, _unit_scaled(x)[0])
             for name, x in (("exact", exact), ("coexact", coexact), ("harmonic", h))}
    for (na, a), (nb, b) in itertools.combinations(units.items(), 2):
        denom = max(s.norm2(a.values) * s.norm2(b.values), 1e-300)
        ortho[f"{na}|{nb}"] = abs(inner_product(K, a, b)) / denom

    with np.errstate(over="ignore"):  # an overflow is checked for below
        parts = {"exact": Cochain(ell, np.ldexp(exact, e)),
                 "coexact": Cochain(ell, np.ldexp(coexact, e)),
                 "harmonic": Cochain(ell, np.ldexp(h, e))}
        omega1 = None if o1 is None else Cochain(ell - 1, np.ldexp(o1, e))
        omega2 = None if o2 is None else Cochain(ell + 1, np.ldexp(o2, e))
    named = dict(parts, omega1=omega1, omega2=omega2)
    named = {name: c for name, c in named.items() if c is not None}
    for name, c in named.items():
        bad = np.flatnonzero(~np.isfinite(c.values))
        if bad.size:
            what = f"{name} part" if name in parts else f"potential {name}"
            raise ValueError(f"the {what} passes the largest double on simplex "
                             f"{K.simplices[c.degree][bad[0]]}; the cochain must be scaled down")
    named["omega"] = omega
    component_norms = {}
    c_p = {}
    for p in p_list:
        table = {name: lp_norm(K, c, p) for name, c in named.items()}
        component_norms[float(p)] = ratios = table
        if not all(n == 0.0 or 2.0 ** -1022 <= n < math.inf for n in table.values()):
            # A norm past the double range: the ratios of the cochains scaled
            # by one power of two, which leaves them as they are.
            top = max(_unit_scaled(c.values)[1] for c in named.values())
            ratios = {name: lp_norm(K, Cochain(c.degree, np.ldexp(c.values, -top)), p)
                      for name, c in named.items()}
        denom = ratios["omega"]
        c_p[float(p)] = 0.0 if denom == 0.0 else max(
            val / denom for name, val in ratios.items() if name != "omega")

    return DecompositionResult(
        degree=ell,
        omega1=omega1,
        omega2=omega2,
        omega3=parts["harmonic"],
        exact_part=parts["exact"],
        coexact_part=parts["coexact"],
        residual=residual,
        harmonic_defect=harmonic_defect,
        orthogonality=ortho,
        component_norms=component_norms,
        c_p=c_p,
        omega=omega,
    )


@dataclass
class HarmonicRepresentative:
    cochain: Cochain
    exactness_residual: float
    coexact_norm_rel: float


_CLOSED_TOL = 1e-8  # largest |d omega| / |omega| of a closed input
_UNIQUENESS_TOL = 1e-6  # largest relative gap between the two routes' parts


def harmonic_representative(K: SimplicialComplex, omega: Cochain) -> HarmonicRepresentative:
    """Harmonic representative of a closed cochain of K.

    Rejects inputs that are not closed, up to ``_CLOSED_TOL``.  Certifies
    that omega minus the representative is exact and that the coexact
    component vanishes (the cohomology-class argument, reproduced
    numerically).  Every ratio is formed on omega and its parts scaled by
    one power of two, so none depends on the scale of omega.
    """
    dec = decompose(K, omega)
    ell = omega.degree
    s = laplacian_spectrum(K, ell)
    unit, e = _unit_scaled(omega.values)
    norm = s.norm2(unit)
    if ell < K.max_degree and norm > 0:
        d_norm = lp_norm(K, Cochain(ell + 1, _coboundary_apply(K, ell, unit)), 2)
        if d_norm > _CLOSED_TOL * norm:
            raise ValueError(f"input is not closed: |d omega| = {d_norm / norm:g} |omega| "
                             f"exceeds {_CLOSED_TOL:g} |omega|")
    scale = norm or 1.0
    exact, coexact, h = (np.ldexp(c.values, -e)
                         for c in (dec.exact_part, dec.coexact_part, dec.omega3))
    return HarmonicRepresentative(dec.omega3, s.norm2(unit - h - exact) / scale,
                                  s.norm2(coexact) / scale)


@dataclass
class UniquenessReport:
    """Agreement of the spectral and heat-semigroup decomposition routes.

    ``quadrature`` is route B's result, its bounds scaled back to omega's,
    or {} when the gap is infinite and route B does not run.
    """

    component_diffs: dict
    max_rel_diff: float
    tol: float
    passed: bool
    kernel_perturbations: list = field(repr=False)
    perturbation_detected: bool
    quadrature: QuadratureResult | dict


def verify_uniqueness(K: SimplicialComplex, dec: DecompositionResult,
                      error_target: float = 1e-8) -> UniquenessReport:
    """Decompose ``dec.omega`` by route B and compare it with route A's ``dec``.

    ``dec`` is the result of ``decompose(K, omega)``: route A, the closed
    spectral form of the Green operator.  Route B never touches the
    eigenbasis: it reads the Laplacian that K holds, which the eigensolver
    or the lift checked, and of K's spectrum only the gap, the largest
    eigenvalue and the weights.
    Its harmonic part is the heat semigroup at a certified time and its
    Green term the semigroup integral, two coefficient rows of one
    Chebyshev recurrence in the Laplacian; ``quadrature`` reports its
    truncation bound and matvec count next to the tail bound.
    Additionally, perturbing the harmonic component along any kernel
    direction is shown to leave a detectable harmonic residue in the
    remaining parts.  The routes agree when no component differs by more
    than ``_UNIQUENESS_TOL`` relative to |omega|.  Route B, the
    differences and the perturbations run on omega scaled by a power of
    two, its largest |entry| in [0.5, 1), and route A's parts scaled
    alike, so no product overflows and no figure depends on the scale;
    each ``kernel_perturbations`` entry is of that scaled omega.  The
    quadrature's two absolute bounds are scaled back to omega's.
    """
    if not 0 < error_target < 1:
        raise ValueError(f"error_target must lie in (0, 1), got {error_target}")
    K.check_cochain(dec.omega)
    ell = dec.degree
    s = laplacian_spectrum(K, ell)
    unit, e = _unit_scaled(dec.omega.values)
    h_a = np.ldexp(dec.omega3.values, -e)

    quadrature = {}
    if math.isinf(s.gap):
        h_b, g_b = unit, np.zeros_like(unit)
    else:
        h_b, res = _route_b(hodge_laplacian(K, ell), s, Cochain(ell, unit), error_target)
        g_b = res.cochain.values
        with np.errstate(over="ignore"):
            quadrature = replace(res, tail_bound=float(np.ldexp(res.tail_bound, e)),
                                 truncation_bound=float(np.ldexp(res.truncation_bound, e)))

    o1, exact, o2, coexact = _hodge_split(K, ell, g_b)
    scale = s.norm2(unit) or 1.0
    diffs = {"harmonic": s.norm2(h_a - h_b)}
    if ell >= 1:
        diffs["omega1"] = lp_norm(K, Cochain(ell - 1, np.ldexp(dec.omega1.values, -e) - o1), 2)
        diffs["exact"] = s.norm2(np.ldexp(dec.exact_part.values, -e) - exact)
    if ell < K.max_degree:
        diffs["omega2"] = lp_norm(K, Cochain(ell + 1, np.ldexp(dec.omega2.values, -e) - o2), 2)
        diffs["coexact"] = s.norm2(np.ldexp(dec.coexact_part.values, -e) - coexact)
    diffs = {name: diff / scale for name, diff in diffs.items()}
    max_diff = max(diffs.values())

    # Any kernel-direction shift of omega3 leaves a harmonic residue of the
    # same size in omega - omega3, breaking the orthogonality that pins the
    # decomposition down.
    eps = 1e-3 * max(scale, 1.0)
    kernel = s.kernel_basis()
    perturbations = []
    detected = True
    for i in range(s.kernel_dim):
        k_dir = kernel[:, i]
        residue = abs(float(np.sum(s.weights * (unit - (h_a + eps * k_dir)) * k_dir)))
        perturbations.append({"kernel_index": i, "perturbation": eps, "residue": residue})
        detected = detected and residue >= 0.5 * eps

    return UniquenessReport(
        component_diffs=diffs,
        max_rel_diff=max_diff,
        tol=_UNIQUENESS_TOL,
        passed=max_diff <= _UNIQUENESS_TOL,
        kernel_perturbations=perturbations,
        perturbation_detected=detected,
        quadrature=quadrature,
    )


def _green_after_heat(t_h: float, t_max: float, b: float) -> np.ndarray:
    """Chebyshev row of G_t_max - G_(t_h + t_max) + G_t_h = G_t_max (1 - P_t_h) on
    [0, b], G_t = int_0^t P_u du: (1 - exp(-t_h lam)) (1 - exp(-t_max lam)) / lam."""
    parts = (_green_series(t_max, b), -_green_series(t_h + t_max, b), _green_series(t_h, b))
    row = np.zeros(max(c.size for c in parts))
    for c in parts:
        row[: c.size] += c
    return row


def _route_b(laplacian, s: SpectralData, omega: Cochain, error_target: float):
    """Route B's harmonic part and Green term, for a finite gap.

    Reads the complex's held Laplacian, whose row slots and bound are kept,
    and, of the spectrum, only the gap, the largest eigenvalue (for t_max)
    and the weights.  At the time t_h below, exp(-gap t_h) = error_target *
    min(1, gap), so both |h_b - H omega|_W and |G (h_b - H omega)|_W are
    at most error_target * |omega|_W, up to the truncation bound.  The
    heat limit P_t_h omega and the Green term G_t_max (1 - P_t_h) omega
    are two rows of one Chebyshev recurrence.  Its products grow to about
    b |omega|, so ``verify_uniqueness`` passes omega scaled by a power of
    two.
    """
    t_h = (math.log(1.0 / error_target) + max(0.0, math.log(1.0 / s.gap))) / s.gap
    t_max = _t_max(s.gap, float(s.eigenvalues[-1]), error_target)
    b = laplacian.bound
    heat, heat_dropped = _cut_series(_heat_series(t_h, b))
    green, green_dropped = _cut_series(_green_after_heat(t_h, t_max, b))
    h, g = _chebyshev_sum(laplacian, b, [heat, green], omega.values)
    tail = math.exp(-s.gap * t_max) / s.gap * s.norm2(omega.values - h)
    return h, QuadratureResult(Cochain(s.degree, g), tail, t_max,
                               max(heat.size, green.size) - 1, error_target,
                               (heat_dropped + green_dropped) * s.norm2(omega.values))
