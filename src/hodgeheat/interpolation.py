"""Weighted operator p-norms, measured growth/decay rates, and the
admissible-exponent calculus.

Induced p->p norms between weighted spaces are exact at p in {1, 2, inf}
and bracketed elsewhere: a nonlinear power iteration gives a certified
lower bound, interpolation between the exact endpoints gives the upper
bound.  From the measured 1->1 growth rate alpha and the 2->2 decay rate
tau (the spectral gap) the module derives the critical exponents, the
admissible interval (p1, p2) around 2, and the decay rate gamma(p) of the
semigroup on the complement of the harmonic space.
"""

import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    Cochain,
    SimplicialComplex,
    _coboundary_apply,
    _codifferential_apply,
    _vertex_ranks,
    lp_norm,
)
from .spectral import (
    _UNIT_ROUNDOFF,
    SpectralData,
    harmonic_part,
    laplacian_spectrum,
)


def _weight_pair(A, w_dom, w_cod):
    w_dom = np.ones(A.shape[1]) if w_dom is None else np.asarray(w_dom, dtype=float)
    w_cod = np.ones(A.shape[0]) if w_cod is None else np.asarray(w_cod, dtype=float)
    return w_dom, w_cod


def opnorm_exact_extremes(T, p, w_dom=None, w_cod=None) -> float:
    """Exact induced norm between weighted l^p spaces at p = 1 or p = inf.

    p = 1 is the largest weighted column sum of W_cod T W_dom^-1; p = inf
    is the largest absolute row sum (weights drop out of sup norms).  The
    two are exactly dual under the weighted adjoint, so a W-self-adjoint T
    has one number at both.
    """
    A = np.asarray(T, dtype=float)
    w_dom, w_cod = _weight_pair(A, w_dom, w_cod)
    if min(A.shape) == 0:
        return 0.0
    p = float(p)
    if p == 1.0:
        B = np.abs(A)
        B *= w_cod[:, None]
        B /= w_dom[None, :]
        return float(B.sum(axis=0).max())
    if math.isinf(p):
        return float(np.abs(A).sum(axis=1).max())
    raise ValueError(f"exact extremes cover p in {{1, inf}} only, got {p}; use the power method")


def _pnorm(x: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(x))) if x.size else 0.0
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _dual_vector(y: np.ndarray, p: float, norm: float) -> np.ndarray:
    """Unit-q-norm vector pairing to |y|_p = norm (q the conjugate of p)."""
    if norm == 0.0:
        return np.zeros_like(y)
    return np.sign(y) * (np.abs(y) / norm) ** (p - 1.0)


class _Factored:
    """The operator left @ right.T, applied through its two factors.

    A rank-k operator on n-vectors costs O(nk) per product this way,
    against O(n^2) for its dense matrix.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right = left, right

    @property
    def shape(self):
        return self.left.shape[0], self.right.shape[0]

    @property
    def T(self):
        return _Factored(self.right, self.left)

    def __matmul__(self, x):
        return self.left @ (self.right.T @ x)


def opnorm_power_method(T, p, w_dom=None, w_cod=None, iters: int = 64,
                        seed: int = 0) -> float:
    """Certified lower bound on the weighted p->p norm, 1 < p < inf.

    Nonlinear power iteration on the p-norm functional of the similarity
    transform W_cod^(1/p) T W_dom^(-1/p).  Every iterate evaluates
    |Bx|_p / |x|_p, so the running maximum is a valid lower bound that is
    nondecreasing in the iteration budget and deterministic for a seed.
    T may be a ``_Factored`` operator; the weights then scale its factors.
    """
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"power method needs 1 < p < inf, got {p}")
    A = T if isinstance(T, _Factored) else np.asarray(T, dtype=float)
    w_dom, w_cod = _weight_pair(A, w_dom, w_cod)
    if min(A.shape) == 0:
        return 0.0
    rows, cols = w_cod ** (1.0 / p), w_dom ** (1.0 / p)
    if isinstance(A, _Factored):
        B = _Factored(A.left * rows[:, None], A.right / cols[:, None])
    else:
        B = (A * rows[:, None]) / cols[None, :]
    q = p / (p - 1.0)

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=B.shape[1])
    if _pnorm(x, p) == 0.0:
        x = np.ones(B.shape[1])
    x /= _pnorm(x, p)

    best = 0.0
    for _ in range(iters):
        y = B @ x
        norm = _pnorm(y, p)
        best = max(best, norm)
        if best == 0.0:
            break
        z = B.T @ _dual_vector(y, p, norm)
        norm = _pnorm(z, q)
        if norm <= float(z @ x) * (1.0 + 1e-12):
            break
        x = _dual_vector(z, q, norm)
    return best


def opnorm_bracket(T, p, w_dom=None, w_cod=None, iters: int = 64,
                   seed: int = 0) -> tuple[float, float]:
    """(lower, upper) bracket on the weighted p->p norm.

    Exact at p in {1, 2, inf}; otherwise the power method supplies the
    lower bound and interpolation from the exact endpoints {1, 2} or
    {2, inf} the upper bound.  Only the endpoints p needs are computed.
    """
    A = np.asarray(T, dtype=float)
    w_dom, w_cod = _weight_pair(A, w_dom, w_cod)
    p = float(p)
    if p == 2.0:
        return (_opnorm2(A, w_dom, w_cod),) * 2
    if p == 1.0 or math.isinf(p):
        return (opnorm_exact_extremes(A, p, w_dom, w_cod),) * 2
    lower = opnorm_power_method(A, p, w_dom, w_cod, iters=iters, seed=seed)
    end = opnorm_exact_extremes(A, 1.0 if p < 2.0 else math.inf, w_dom, w_cod)
    return lower, _riesz_thorin(p, end, _opnorm2(A, w_dom, w_cod))


def _riesz_thorin(p: float, end: float, norm2: float) -> float:
    """Upper bound on a p->p norm, 1 < p < inf, p != 2, interpolated between
    its 2->2 norm and ``end``, its exact 1->1 norm below 2, inf->inf above."""
    # theta solves 1/p = (1-theta)/1 + theta/2 below 2, 1/p = (1-theta)/2 above.
    m0, m1, theta = (end, norm2, 2.0 - 2.0 / p) if p < 2.0 else (norm2, end, 1.0 - 2.0 / p)
    return 0.0 if m0 == 0.0 or m1 == 0.0 else m0 ** (1 - theta) * m1 ** theta


def _opnorm2(A: np.ndarray, w_dom: np.ndarray, w_cod: np.ndarray) -> float:
    if min(A.shape) == 0:
        return 0.0
    B = (A * np.sqrt(w_cod)[:, None]) / np.sqrt(w_dom)[None, :]
    return float(np.linalg.svd(B, compute_uv=False)[0])


# exp(-x) is 0.0 in double precision from x = 745.14 on.
_EXP_ZERO = 746.0


@dataclass
class AlphaFit:
    """Log-linear fit of the exact 1->1 heat norms over a time grid.

    ``alpha`` is the least-squares slope clamped at 0, ``c1`` the fitted
    intercept, and ``envelope_c1`` the smallest constant whose envelope
    c * exp(alpha t) dominates every measured norm on the grid.
    """

    alpha: float
    c1: float
    envelope_c1: float
    residual: float
    t_grid: tuple
    norms: tuple


def _one_norm(s: SpectralData, f: np.ndarray) -> float:
    """max_j sum_i w_i |S_ij|, the 1->1 and inf->inf norm of S W for the S of
    ``row_blocks(f)``: each upper row block adds its rows' share to the column
    sums and, mirrored, its columns' share to its own diagonal block's columns."""
    w = s.weights
    col = np.zeros(s.dim)
    for i0, i1, B in s.row_blocks(f):
        np.abs(B, out=B)
        col[i0:] += w[i0:i1] @ B
        col[i0:i1] += B[:, i1 - i0:] @ w[i1:]
    return float(col.max(initial=0.0))


def measure_alpha(s: SpectralData, t_grid) -> AlphaFit:
    """Growth rate of the heat semigroup on the weighted l^1 space of s.

    Evaluates the exact 1->1 norm of P_t on the grid and fits log-norm
    against t.  P_t = S W with S = V diag(exp(-t lambda)) V^T, so the norm,
    the largest weighted column sum of |P_t| W^-1, is max(w @ |S|): the
    weights of the columns cancel; ``_one_norm`` reads it.  The fit runs
    on the times scaled by a power of two into [1/2, 1), which keeps t^2
    finite for every finite time and, where t^2 was finite and normal
    before, gives the same slope to the bit.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 3 or not np.all(np.isfinite(t) & (t > 0)) or np.any(np.diff(t) <= 0):
        raise ValueError(f"degenerate t_grid {tuple(map(float, t))}: "
                         "need >= 3 finite, positive, increasing times")
    norms = []
    for ti in t:
        # Capping t * lambda at _EXP_ZERO keeps it finite and changes no
        # factor; below t = 1 the product cannot overflow.
        f = np.exp(-ti * np.minimum(s.eigenvalues, _EXP_ZERO / ti if ti > 1.0 else np.inf))
        norms.append(_one_norm(s, f))
    norms = np.asarray(norms)
    logs = np.log(np.maximum(norms, 1e-300))
    scale = math.frexp(t[-1])[1]
    slope, intercept = np.polyfit(np.ldexp(t, -scale), logs, 1)
    slope = np.ldexp(slope, -scale)
    residual = float(np.sqrt(np.mean((logs - (slope * t + intercept)) ** 2)))
    # Clamp at 0 from below and snap slopes inside double-precision
    # measurement noise to an exact 0.
    alpha = float(slope) if slope > 1e-12 else 0.0
    envelope = float(np.max(norms * np.exp(-alpha * t)))
    return AlphaFit(alpha, float(np.exp(intercept)), envelope, residual,
                    tuple(map(float, t)), tuple(map(float, norms)))


def admissible_interval(alpha, tau, epsilon=0):
    """Admissible exponent interval (p1, p2) around 2.

    p1 = 2(alpha + tau + epsilon) / (alpha + 2 tau) and p2 is its
    conjugate; epsilon = 0 gives the critical exponent q0.  Requires
    epsilon < tau so that p1 stays below 2.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if not 0 <= epsilon < tau:
        raise ValueError("epsilon must satisfy 0 <= epsilon < tau")
    p1 = 2 * (alpha + tau + epsilon) / (alpha + 2 * tau)
    p2 = math.inf if p1 == 1 else p1 / (p1 - 1)
    return p1, p2


def decay_rate(alpha, tau, p):
    """Decay rate gamma(p) of the semigroup on the harmonic complement.

    theta = 2/p' below 2 and 2/p above (the complement semigroup is
    self-adjoint, so the two sides mirror); gamma(p) = theta tau -
    (1-theta) alpha is positive exactly inside the epsilon = 0 interval
    and equals tau at p = 2.
    """
    if not 1 < p < math.inf:
        raise ValueError(f"decay rate needs 1 < p < inf, got {p}")
    theta = 2 * (1 - 1 / p) if p <= 2 else 2 / p
    return theta * tau - alpha * (1 - theta)


def projector_norm_profile(s: SpectralData, p_grid, seed: int = 0) -> list[dict]:
    """Brackets on the p->p norms of the harmonic projector of s.

    H = V_k V_k^T W, k the kernel dimension, is a W-orthogonal projector:
    its 2->2 norm is 1 (0 on a trivial kernel), and, W-self-adjoint, its
    1->1 and inf->inf norms are one number, read once by ``_one_norm`` in
    k-wide row blocks.  The power method runs through H's factors.
    """
    Vk, w = s.kernel_basis(), s.weights
    H = _Factored(Vk, Vk * w[:, None])
    end, norm2 = _one_norm(s, np.ones(s.kernel_dim)), 1.0 if s.kernel_dim else 0.0
    rows = []
    for p in map(float, p_grid):
        if p in (1.0, 2.0) or math.isinf(p):
            lower = upper = norm2 if p == 2.0 else end
        else:
            lower, upper = opnorm_power_method(H, p, w, w, seed=seed), _riesz_thorin(p, end, norm2)
        rows.append({"p": p, "lower": lower, "upper": upper})
    return rows


_BFS_PAIRS = 1 << 18  # (source, edge end) pairs one step of _hop_distances expands


def _hop_distances(K: SimplicialComplex):
    """Component labels and 1-skeleton hop distances of the vertices.

    Rows follow the vertex order of ``K.simplices[0]``.  Vertices in
    different components are at distance ``K.vertex_count``, one more than
    any path can have; components are numbered by their first vertex.
    A breadth-first search runs from every vertex at once over the flat
    (source, vertex) keys of its frontier, so its work is the number of
    (source, edge end) pairs, as for one search per source.
    """
    n = K.vertex_count
    edges = _vertex_ranks(K, 1) if K.max_degree >= 1 else np.empty((0, 2), dtype=int)
    ends = np.concatenate([edges, edges[:, ::-1]])
    ends = ends[np.argsort(ends[:, 0], kind="stable")]
    neighbour, degree = ends[:, 1], np.bincount(ends[:, 0], minlength=n)
    first = np.cumsum(degree) - degree  # where each vertex's neighbours start

    hops = np.full(n * n, n, dtype=np.int32)
    key = np.arange(n) * (n + 1)  # source * n + vertex
    hops[key] = 0
    level = 0
    while key.size:
        level += 1
        found = []  # drops the last level's pieces, now in key
        # About _BFS_PAIRS pairs at a time: a hub that every source reaches
        # at once would otherwise expand n times its degree keys together.
        stop = degree[key % n]
        np.cumsum(stop, out=stop)
        bounds = [0, *np.searchsorted(stop, np.arange(_BFS_PAIRS, stop[-1], _BFS_PAIRS)), key.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            vertex = key[lo:hi] % n
            count = degree[vertex]
            slot = np.repeat(first[vertex] - np.cumsum(count) + count, count)
            slot += np.arange(slot.size)
            new = np.repeat(key[lo:hi] - vertex, count) + neighbour[slot]
            new = new[hops[new] == n]
            # One write to each repeated key survives; keep the entry that made it.
            mark = -1 - np.arange(new.size, dtype=np.int32)
            hops[new] = mark
            new = new[hops[new] == mark]
            hops[new] = level
            found.append(new)
        key = np.concatenate(found)
    hops = hops.reshape(n, n)
    # The first vertex at a finite distance is the smallest of the component.
    _, labels = np.unique(np.argmax(hops < n, axis=1), return_inverse=True)
    return labels.astype(np.int32), hops


@dataclass
class KernelDecayFit:
    """Off-diagonal decay of Laplacian * P_(t0/4) against graph distance."""

    rho: float | None
    residual: float | None
    t0: float
    degenerate: bool
    component_fits: list
    bins: list  # (distance, max |entry|) over the whole complex


def _simplex_distances(K: SimplicialComplex, ell: int):
    """(labels, hops, near) of K at degree ell, read by the kernel-decay and
    volume fits.

    ``labels`` and ``hops`` are the vertex components and hop distances of
    ``_hop_distances``.  ``near[v, j]`` is the hop distance from vertex v
    to ell-simplex j, the smallest over j's vertices (the vertex count nv
    across components); ``_distance_keys`` reads the pairs of simplices
    off it a block of rows at a time.  K holds them, read-only, as it holds
    its spectra: the hop search runs once per complex, held at degree 0,
    whose ``near`` is ``hops``, and ``near`` is built once per degree.
    """
    held = K._distances
    if ell not in held:
        labels, hops = _simplex_distances(K, 0)[:2] if ell else _hop_distances(K)
        verts = _vertex_ranks(K, ell)
        near = hops[:, verts[:, 0]] if ell else hops
        for b in range(1, ell + 1):
            np.minimum(near, hops[:, verts[:, b]], out=near)
        for a in (labels, hops, near):
            a.flags.writeable = False
        held.setdefault(ell, (labels, hops, near))
    return held[ell]


def _distance_keys(labels, near, verts, i0: int, i1: int) -> np.ndarray:
    """Keys of the simplex pairs (i, j), i in i0:i1 and j in i0:n.

    A key is the distance between the two simplices, the smallest hop
    distance between their vertex sets (nv across components), offset by
    (nv + 1) times the component of i, so one reduction bins every
    component.  ``verts`` holds the vertex ranks of each simplex.
    """
    key = near[verts[i0:i1, 0], i0:].astype(np.intp)
    for a in range(1, verts.shape[1]):
        np.minimum(key, near[verts[i0:i1, a], i0:], out=key)
    key += (near.shape[0] + 1) * labels[verts[i0:i1, 0], None].astype(np.intp)
    return key


def kernel_decay_fit(K: SimplicialComplex, ell: int, t0: float) -> KernelDecayFit:
    """Fit exp(-2 rho / t0 * distance) to the entries of Laplacian P_(t0/4).

    Reads K's spectrum and simplex distances at the degree ell of the fit.
    Distance between two ell-simplices is the smallest 1-skeleton hop
    distance between their vertex sets.  Disconnected complexes are fitted
    per component (entries across components vanish identically); the
    reported rho is the most conservative component value.  A bin whose
    largest entry is at or below n * u * max|entry| (n simplices, u the
    unit roundoff), the rounding floor of the matrix's dot products, is
    not fitted.

    The matrix is S W with S = V diag(f) V^T symmetric, read in the upper
    row blocks of S.  An entry S_ij stands for the pair max(|S_ij| w_j,
    |S_ij| w_i) = |S_ij| max(w_i, w_j), whose two keys agree within a
    component; across components both fall at distance nv, which is not
    binned.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    s = laplacian_spectrum(K, ell)
    labels, hops, near = _simplex_distances(K, ell)
    verts = _vertex_ranks(K, ell)
    nv, w = hops.shape[0], s.weights
    table = np.full((labels.max() + 1, nv + 1), -1.0)  # -1: the distance does not occur
    top = 0.0
    for i0, i1, B in s.row_blocks(s.eigenvalues * np.exp(-s.eigenvalues * t0 / 4.0)):
        np.abs(B, out=B)
        B *= np.maximum(w[i0:i1, None], w[None, i0:])
        top = max(top, B.max())
        np.maximum.at(table.reshape(-1), _distance_keys(labels, near, verts, i0, i1).ravel(),
                      B.ravel())
    table = table[:, :nv]

    floor = max(s.dim * _UNIT_ROUNDOFF * top, 1e-250)
    fits = []
    for cid in np.flatnonzero((table >= 0).any(axis=1)):
        usable = [(d, m) for d, m in enumerate(table[cid]) if m > floor]
        if len(usable) < 2:
            continue
        ds = np.array([d for d, _ in usable], dtype=float)
        logs = np.log([m for _, m in usable])
        slope, intercept = np.polyfit(ds, logs, 1)
        residual = float(np.sqrt(np.mean((logs - (slope * ds + intercept)) ** 2)))
        fits.append({
            "component": int(cid),
            "rho": float(-slope * t0 / 2.0),
            "residual": residual,
            "bins": [(int(d), float(m)) for d, m in usable],
        })

    top = table.max(axis=0)
    bins_sorted = [(int(d), float(top[d])) for d in np.flatnonzero(top >= 0)]

    if not fits:
        return KernelDecayFit(None, None, t0, True, [], bins_sorted)
    best = min(fits, key=lambda f: f["rho"])
    return KernelDecayFit(best["rho"], best["residual"], t0, False, fits, bins_sorted)


@dataclass
class VolumeGrowthFit:
    """Smallest gamma with ball volumes <= c * exp(gamma * r) everywhere."""

    gamma_vol: float
    c: float
    max_radius: int


def volume_growth_fit(K: SimplicialComplex) -> VolumeGrowthFit:
    """Exponential envelope of vertex-ball volumes in the 1-skeleton.

    Ball volume is the sum of vertex weights within 1-skeleton hop
    distance r, the hop distances K holds (see ``_simplex_distances``).  The
    constant c is pinned to the largest r = 0 ball, and gamma_vol is the
    smallest rate whose envelope dominates every center and every radius
    up to the center's eccentricity in its own component.  One
    ``np.bincount`` over (center, distance) pairs gives the weight at each
    exact distance; a cumulative sum along the distance axis gives every
    ball volume at once.
    """
    hops = _simplex_distances(K, 0)[1]
    w0 = K.weight_vector(0)
    c = float(np.max(w0))
    nv = hops.shape[0]
    # Other components sit at distance nv, past every radius counted below.
    radius = np.where(hops < nv, hops, 0).max(axis=1)
    pairs = np.arange(nv)[:, None] * (nv + 1) + hops
    shells = np.bincount(pairs.ravel(), np.tile(w0, nv), minlength=nv * (nv + 1))
    volumes = np.cumsum(shells.reshape(nv, nv + 1), axis=1)[:, 1:nv]
    r = np.arange(1, nv)
    rates = np.log(volumes / c) / r
    gamma = float(np.max(rates, where=r <= radius[:, None], initial=0.0))
    return VolumeGrowthFit(gamma, c, int(radius.max()))


def select_t0(rho: float, gamma_vol: float) -> float:
    """Pick t0 with (gamma_vol / 2 rho) * t0 = 1/2 < 1 (or 1 when flat)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if gamma_vol < 0:
        raise ValueError("gamma_vol must be nonnegative")
    return rho / gamma_vol if gamma_vol > 0 else 1.0


@dataclass
class GaffneyReport:
    max_ratio: float
    upper_bound_2: float
    p: float
    gamma_shift: float
    n_samples: int


def gaffney_constant(K: SimplicialComplex, ell: int, gamma_shift: float,
                     p=2, n_samples: int = 50, seed: int = 0) -> GaffneyReport:
    """Sampled constant in |d w|_p + |delta w|_p <= c |(Lap+gamma)^(1/2) w|_p.

    Returns the largest observed ratio over seeded random ell-cochains,
    read through K's degree-ell spectrum.  At p = 2 the Pythagorean identity
    |dw|^2 + |delta w|^2 = <Lap w, w> gives the exact spectral bound
    sqrt(2 lam_max / (lam_max + gamma)) <= sqrt 2, reported alongside.
    """
    if gamma_shift <= 0:
        raise ValueError("shift must be positive")
    s = laplacian_spectrum(K, ell)
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for _ in range(n_samples):
        v = rng.uniform(-1.0, 1.0, size=K.n_simplices(ell))
        num = 0.0
        if ell < K.max_degree:
            num += lp_norm(K, Cochain(ell + 1, _coboundary_apply(K, ell, v)), p)
        if ell >= 1:
            num += lp_norm(K, Cochain(ell - 1, _codifferential_apply(K, ell, v)), p)
        den_vals = s.apply_function(lambda lam: np.sqrt(lam + gamma_shift), v)
        den = lp_norm(K, Cochain(ell, den_vals), p)
        if den > 0:
            max_ratio = max(max_ratio, num / den)
    lam_max = float(s.eigenvalues[-1]) if s.dim else 0.0
    bound = math.sqrt(2.0 * lam_max / (lam_max + gamma_shift)) if lam_max > 0 else 0.0
    return GaffneyReport(max_ratio, bound, float(p), gamma_shift, n_samples)


def dimension_consistency(K: SimplicialComplex, betti) -> list[dict]:
    """Spectral kernel dimension vs. the Betti numbers ``betti`` of K
    (``betti_numbers(K)``), per degree.

    Reads K's spectrum at every degree, and checks that the harmonic
    projection returns every kernel basis cochain unchanged.  A basis
    column far from W-unit overflows the projection; its defect is then
    inf or NaN, and either one fails the row.
    """
    rows = []
    for ell in range(K.max_degree + 1):
        s = laplacian_spectrum(K, ell)
        with np.errstate(over="ignore", invalid="ignore"):
            defects = [s.norm2(harmonic_part(s, v) - v) / max(s.norm2(v), 1e-300)
                       for v in s.kernel_basis().T]
        projector_residual = float(np.max(defects, initial=0.0))  # NaN propagates
        equal = s.kernel_dim == betti[ell]
        rows.append({
            "degree": ell,
            "spectral_dim": s.kernel_dim,
            "betti": betti[ell],
            "equal": equal,
            "projector_residual": projector_residual,
            "ok": equal and projector_residual <= 1e-8,
        })
    return rows


@dataclass
class InterpolationReport:
    """Measured rates and the derived exponent calculus for one degree."""

    degree: int
    alpha: float
    c1: float
    alpha_residual: float
    tau: float
    epsilon: float
    q0: float
    q_eps: float
    p1: float
    p2: float
    gamma_of_p: list
    profile: list  # rows (p, projector lower, projector upper, gamma)
    rho: float | None
    gamma_vol: float
    t0: float | None
    levelset_condition: float | None


_DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
_P_SAMPLES = (1.25, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0)


def admissible_exponents(p_values, p1: float, p2: float) -> list:
    """The p of p_values, in their order, that lie in (p1, p2) or equal 2."""
    return [p for p in p_values if p1 < p < p2 or p == 2.0]


def interpolation_report(K: SimplicialComplex, ell: int, epsilon: float | None = None,
                         t_grid=_DEFAULT_T_GRID, seed: int = 0) -> InterpolationReport:
    """Measure (alpha, tau, rho, gamma_vol) and derive the exponent calculus.

    Reads K's spectrum at the degree ell of the report.  epsilon defaults to
    tau/20; it must be finite and lie in [0, tau).  When the whole degree
    is harmonic (gap +inf) the interval degenerates to (1, inf), epsilon
    defaults to 0 and gamma(p) is +inf.  rho is refitted at the t0 that the
    fit at t0 = 1 selects, unless the refit gives no positive rate.
    """
    s = laplacian_spectrum(K, ell)
    tau = s.gap
    if epsilon is not None and not (0 <= epsilon < tau and math.isfinite(epsilon)):
        raise ValueError(f"epsilon = {epsilon} must be finite and lie in [0, tau) "
                         f"for tau = {tau}, the spectral gap")
    fit = measure_alpha(s, t_grid)

    if math.isinf(tau):
        eps = 0.0 if epsilon is None else float(epsilon)
        q0, p1, p2 = 1.0, 1.0, math.inf
    else:
        eps = tau / 20.0 if epsilon is None else float(epsilon)
        q0, _ = admissible_interval(fit.alpha, tau, 0.0)
        p1, p2 = admissible_interval(fit.alpha, tau, eps)

    profile = projector_norm_profile(s, admissible_exponents(_P_SAMPLES, p1, p2), seed=seed)
    for row in profile:
        # alpha is 0 where tau is +inf, so gamma(p) reads +inf there.
        row["gamma"] = float(decay_rate(fit.alpha, tau, row["p"]))
    gammas = [(row["p"], row["gamma"]) for row in profile]

    vol = volume_growth_fit(K)
    rho = t0 = condition = None
    provisional = kernel_decay_fit(K, ell, 1.0).rho
    if provisional is not None and provisional > 0:
        refit = kernel_decay_fit(K, ell, select_t0(provisional, vol.gamma_vol)).rho
        rho = refit if refit is not None and refit > 0 else provisional
        t0 = select_t0(rho, vol.gamma_vol)
        condition = (vol.gamma_vol / (2.0 * rho)) * t0

    return InterpolationReport(
        degree=ell,
        alpha=fit.alpha,
        c1=fit.c1,
        alpha_residual=fit.residual,
        tau=tau,
        epsilon=eps,
        q0=float(q0),
        q_eps=float(p1),
        p1=float(p1),
        p2=float(p2),
        gamma_of_p=gammas,
        profile=profile,
        rho=rho,
        gamma_vol=vol.gamma_vol,
        t0=t0,
        levelset_condition=condition,
    )
