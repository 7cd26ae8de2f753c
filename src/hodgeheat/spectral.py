"""Spectral calculus on Hodge Laplacians.

Eigendecomposition in the weighted inner product, the heat semigroup
P_t = exp(-t * Laplacian) computed two independent ways (spectral sum, and
one eigenbasis-free Chebyshev action), and the harmonic projector as a
spectral projection.

Degree 1 of a graph or a 2-complex runs no eigendecomposition of its own:
its exact eigencochains are d_0 u / sqrt(mu) for the eigenpairs (mu, u) of
degree 0, its coexact ones delta_2 z / sqrt(nu) for those (nu, z) of
degree 2, and its kernel is their W-complement.  Where its
lambda_max / gap passes LIFT_MAX_SPREAD, lifted columns would lose
W-orthogonality, and it is decomposed by ``eigendecompose`` instead.

The Chebyshev action expands a function of the Laplacian L in T_k(Y),
Y = (2/b) L - I, where b >= lambda_max is read off the matrix.  The
coefficients are closed form in the scaled modified Bessel values
e^(-z) I_k(z), computed here by Miller's backward recurrence.  Since L
is W-self-adjoint with spectrum in [0, b], |T_k(Y)|_W <= 1, so the sum
of the dropped |coefficients| bounds the truncation error in the W-norm.
"""

import json
import math
import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .complexes import (
    Cochain,
    SimplicialComplex,
    _coboundary_apply,
    _codifferential_apply,
    _scaled_sum,
    _SparseOperator,
    hodge_laplacian,
)

# Relative threshold separating exact-zero eigenvalues from double-precision
# noise.  Single source of truth for "harmonic" across the package.
RANK_TOL = 1e-10


# Rows of S = V diag(f) V^T that ``SpectralData.row_blocks`` evaluates at
# once.  A block of 128 rows is 1.2 MB at n = 1,200, a tenth of one n x n
# buffer, and its product is still wide enough for BLAS to run it at full
# GEMM speed, as fast as the whole-matrix SYRK it replaces.
_ROW_BLOCK = 128
_BELOW = np.tri(_ROW_BLOCK, k=-1, dtype=bool)  # where row_blocks mirrors a block


@dataclass
class SpectralData:
    """Eigenvalues and W-orthonormal eigencochains of a Hodge Laplacian.

    Eigenvalues are ascending; the ``kernel_dim`` smallest are snapped to
    exactly 0 (they fall below RANK_TOL relative to the largest eigenvalue).
    ``gap`` is the smallest nonzero eigenvalue, or +inf when the whole
    spectrum is {0}.
    """

    degree: int
    eigenvalues: np.ndarray
    eigencochains: np.ndarray  # columns, W-orthonormal
    weights: np.ndarray
    kernel_dim: int
    gap: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Expansion coefficients <omega, v_i>_W in the eigenbasis."""
        return self.eigencochains.T @ (self.weights * values)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.eigencochains @ coeffs

    def kernel_basis(self) -> np.ndarray:
        return self.eigencochains[:, : self.kernel_dim]

    def apply_function(self, func, values: np.ndarray) -> np.ndarray:
        """Apply f(Laplacian) to a value vector through the eigenbasis."""
        return self.synthesize(func(self.eigenvalues) * self.coefficients(values))

    def row_blocks(self, f: np.ndarray):
        """The upper row blocks (i0, i1, B) of S = V diag(f) V^T, one at a time.

        V is the first ``f.size`` eigencochains; the kernel's come first, so
        a length-k f reads S = V_k V_k^T in k-wide products.  B = S[i0:i1, i0:]
        is one product (V[i0:i1] * f) @ V[i0:]^T in a buffer of its own, its
        leading square block mirrored from its upper triangle, so S is read
        exactly symmetric.  The blocks cover its upper triangle once.
        """
        V = self.eigencochains[:, : f.size]
        for i0 in range(0, self.dim, _ROW_BLOCK):
            i1 = min(i0 + _ROW_BLOCK, self.dim)
            B = (V[i0:i1] * f) @ V[i0:].T
            D = B[:, : i1 - i0]
            np.copyto(D, D.T, where=_BELOW[: i1 - i0, : i1 - i0])
            yield i0, i1, B

    def function_matrix(self, func) -> np.ndarray:
        """Dense matrix of f(Laplacian) = V diag(f(lambda)) V^T W, for f >= 0.

        f must be >= 0 on the spectrum (a ValueError otherwise).  The
        symmetric core S = V diag(f) V^T is assembled from ``row_blocks``,
        each block written with its mirror, so it has the bits that the
        interval stage reads block by block.
        """
        f = np.asarray(func(self.eigenvalues), dtype=float)
        if not np.all(f >= 0.0):
            raise ValueError("function_matrix needs a function >= 0 on the spectrum")
        M = np.empty((self.dim, self.dim))
        for i0, i1, B in self.row_blocks(f):
            M[i0:i1, i0:] = B
            M[i1:, i0:i1] = B[:, i1 - i0:].T
        M *= self.weights[None, :]
        return M

    def norm2(self, values: np.ndarray) -> float:
        return _scaled_sum(lambda x: self.weights * x * x, np.sqrt, values)

    def check_cochain(self, omega: Cochain) -> None:
        """Raise ValueError unless omega has this spectrum's degree and size."""
        if (omega.degree, omega.values.size) != (self.degree, self.dim):
            raise ValueError(f"cochain of degree {omega.degree} on {omega.values.size} "
                             f"simplices does not match the spectrum of degree "
                             f"{self.degree} on {self.dim} simplices")


def eigendecompose(delta, weights=None, degree: int | None = None) -> SpectralData:
    """Full eigendecomposition of a W-self-adjoint PSD operator.

    ``delta`` is a square array or a ``_SparseOperator``; the spectrum's
    degree is ``degree``, else the operator's own, else 0.  Works on the
    symmetrized form W^(1/2) A W^(-1/2), built from the nonzeros of
    ``_SparseOperator.of(delta)``; rejects input whose symmetrized residual
    exceeds 1e-8 relative.  Eigenvalues within RANK_TOL of zero, relative
    to the largest, are clamped to exactly 0.
    ``delta`` is read, never written.  A dense matrix with few zeros has
    about n^2 nonzeros, and their rows, columns, values and transposes
    take the traced peak to about 12 n^2 doubles (34 MB at n = 600).
    """
    if degree is None:
        degree = delta.degree if isinstance(delta, _SparseOperator) else 0
    shape = np.shape(delta)
    w = np.asarray(np.ones(shape[:1]) if weights is None else weights, dtype=float)
    if shape != (w.size, w.size):
        raise ValueError("operator and weights have mismatched shapes")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be positive and finite")
    sqrt_w = np.sqrt(w)
    evals, V = np.linalg.eigh(_SparseOperator.of(delta, degree).symmetrized_lower(sqrt_w))
    if not np.isfinite(evals).all():
        raise ValueError(f"degree {degree}: the weights overflow the spectrum of the "
                         "W^(1/2)-symmetrized operator (it has a non-finite eigenvalue)")

    lam_max = float(evals[-1]) if evals.size else 0.0
    if lam_max < 0 and abs(lam_max) <= RANK_TOL:
        lam_max = 0.0
    threshold = RANK_TOL * max(lam_max, 0.0)
    if evals.size and evals[0] < -max(threshold, 1e-8 * max(lam_max, 1.0)):
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {evals[0]})")
    evals = np.maximum(evals, 0.0)

    if lam_max <= 0.0:
        kernel_dim = evals.size
    else:
        kernel_dim = int(np.count_nonzero(evals < threshold))
    evals[:kernel_dim] = 0.0
    gap = float(evals[kernel_dim]) if kernel_dim < evals.size else math.inf

    V /= sqrt_w[:, None]
    return SpectralData(
        degree=int(degree),
        eigenvalues=evals,
        eigencochains=V,
        weights=w,
        kernel_dim=kernel_dim,
        gap=gap,
    )


def lifted_from(K: SimplicialComplex, ell: int) -> tuple[int, ...]:
    """The degrees whose spectra ``laplacian_spectrum`` lifts to degree ell's:
    (0,) on a graph, (0, 2) on a 2-complex at degree 1, () elsewhere."""
    return tuple(range(0, K.max_degree + 1, 2)) if ell == 1 and K.max_degree <= 2 else ()


def laplacian_spectrum(K: SimplicialComplex, ell: int) -> SpectralData:
    """The spectrum of the degree-ell Hodge Laplacian of K in K's weights.

    Built once per degree and held by K, its arrays read-only.  Degree 1
    of a graph or a 2-complex is lifted (see ``_lift``) from the spectra of
    degrees 0 and 2, built after degree 1's own operator has passed the
    nonzero-level checks of ``eigendecompose``, so both paths reject the
    same input with the same message.  Where the lift could lose accuracy,
    and at every other degree, the spectrum is ``eigendecompose`` of the
    Laplacian, which is its nonzeros (see ``hodge_laplacian``), so only
    the buffer ``np.linalg.eigh`` reads is n x n.
    """
    if ell not in K._spectra:
        L, w = hodge_laplacian(K, ell), K.weight_vector(ell)
        sources, s = lifted_from(K, ell), None
        if sources:
            L.symmetrized_average(np.sqrt(w))
            s = _lift(K, *(laplacian_spectrum(K, d) for d in sources))
        _hold(K, ell, eigendecompose(L, w) if s is None else s)
    return K._spectra[ell]


def _hold(K: SimplicialComplex, ell: int, s: SpectralData) -> SpectralData:
    """Hold s as K's degree-ell spectrum, its arrays read-only, unless K
    holds one already; return the one K holds."""
    for a in (s.eigenvalues, s.eigencochains, s.weights):
        a.flags.writeable = False
    return K._spectra.setdefault(ell, s)


# The lift runs only where degree 1's own lambda_max / gap is at most this.
# A lifted column d u / sqrt(mu) loses W-orthogonality by about
# u lambda_max / gap, u the unit roundoff.  The largest W-orthonormality
# defect of the lifted eigencochains, by band of lambda_max / gap, over the
# test corpus at unit weights and log_uniform_weights seeds 0, 3 and 4, and
# 6x6 tori with weights 10^U(-s, s) (eigh: at most 4e-15 on all of them):
#
#     lambda_max / gap    largest defect
#     <= 1e4              4.3e-13
#     1e4 .. 1.2e5        2.1e-12
#     1.6e6 .. 4.1e6      3.2e-11   (s = 2)
#     5.7e7 .. 1.6e8      9.6e-10   (s = 2.5)
#
# At s = 2, seed 0, lifted, ``decompose --degree 1`` reads a residual of
# 1.6e-8 (eigh 6.1e-11) and fails its 1e-8 check.  The benchmark tori read
# 99 (12x12) and 273 (20x20), the 48x3 strip 1,576.  Below the bound the
# RANK_TOL cut lies far from every eigenvalue, so both paths count the
# same kernel.
LIFT_MAX_SPREAD = 1e4

# Eigencochains lifted at a time: the temporaries stay a few
# _LIFT_BLOCK x n blocks beside the n x n result.  The codifferential's
# product holds one such block per coface slot (two on a surface), so at
# 64 the 20x20 torus's peak resident set rose by 0.7 MB; at 32 it does not.
_LIFT_BLOCK = 32


def _lift(K: SimplicialComplex, exact: SpectralData, coexact: SpectralData | None = None):
    """Degree 1's spectrum from degree 0's and, on a 2-complex, degree 2's;
    None where the lift could lose accuracy.

    L_1 = d_0 delta_1 + delta_2 d_1 has no spectrum beyond its neighbours'
    and its kernel: for an eigenpair (mu, u) of L_0 with mu > 0, d_0 u /
    sqrt(mu) is a W-unit eigencochain of L_1 at mu (exact), and so is
    delta_2 z / sqrt(nu) for an eigenpair (nu, z) of L_2 (coexact).  The
    kernel is the W-complement of these, n_1 - rank_0 - rank_2 columns,
    from a seeded Gaussian block projected out twice and orthonormalized
    by QR.  Eigenvalues ascend, merged by a stable sort with the kernel
    first at exactly 0.  None unless lambda_max / gap <= LIFT_MAX_SPREAD,
    every lifted entry is finite and the complement block has full rank.
    """
    blocks = [(exact, partial(_coboundary_apply, K, 0))]
    if coexact is not None:
        blocks.append((coexact, partial(_codifferential_apply, K, 2)))
    w = K.weight_vector(1)
    n = w.size
    values = np.concatenate([s.eigenvalues[s.kernel_dim:] for s, _ in blocks])
    kernel_dim = n - values.size
    if kernel_dim < 0 or not 0 < values.max(initial=0.0) <= LIFT_MAX_SPREAD * values.min():
        return None
    order = np.argsort(values, kind="stable")
    evals = np.zeros(n)
    evals[kernel_dim:] = values[order]
    column = np.empty(values.size, dtype=np.intp)  # output column of each pair, by block
    column[order] = np.arange(kernel_dim, n)
    V = np.empty((n, n), order="F")  # V.T[i], eigencochain i, is contiguous
    done = 0
    for s, apply in blocks:
        for start in range(s.kernel_dim, s.dim, _LIFT_BLOCK):
            stop = min(start + _LIFT_BLOCK, s.dim)
            block = apply(s.eigencochains[:, start:stop].T)
            block /= np.sqrt(s.eigenvalues[start:stop])[:, None]
            if not np.isfinite(block).all():
                return None
            V.T[column[done:done + stop - start]] = block
            done += stop - start
    if kernel_dim:
        sqrt_w, lifted = np.sqrt(w)[:, None], V[:, kernel_dim:]
        Y = np.random.default_rng(0).standard_normal((n, kernel_dim))
        for _ in range(2):
            Y -= lifted @ (lifted.T @ (w[:, None] * Y))
        Q, R = np.linalg.qr(sqrt_w * Y)
        diagonal = np.abs(np.diagonal(R))
        if not diagonal.min() > RANK_TOL * diagonal.max():
            return None
        np.divide(Q, sqrt_w, out=V[:, :kernel_dim])
    return SpectralData(degree=1, eigenvalues=evals, eigencochains=V, weights=w,
                        kernel_dim=kernel_dim, gap=float(evals[kernel_dim]))


# Miller's recurrence starts where e^(-z) I_k(z) has fallen below
# e^(-_MILLER_DEPTH), far below what a double-precision sum can hold.
_MILLER_DEPTH = 90.0
_UNIT_ROUNDOFF = 2.0 ** -53


def _scaled_bessel_i(z: float) -> np.ndarray:
    """e^(-z) I_k(z) for k = 0, 1, ..., N, with N about sqrt(2 z D) + D, D = 90.

    Miller's backward recurrence I_(k-1) = (2k/z) I_k + I_(k+1), started
    from I_(N+1) = 0, is run on the ratios I_k / I_(k-1) so that nothing
    overflows, and normalized by I_0 + 2 sum_k I_k = e^z.  z = 0 gives
    exactly (1, 0, 0, ...).
    """
    top = int(math.ceil(math.sqrt(2.0 * z * _MILLER_DEPTH) + _MILLER_DEPTH))
    ratios = np.empty(top + 1)
    ratios[0] = 1.0
    rho = 0.0
    for k in range(top, 0, -1):
        rho = z / (2.0 * k + z * rho)
        ratios[k] = rho
    values = np.cumprod(ratios)
    return values / (values[0] + 2.0 * values[1:].sum())


def _heat_series(t: float, b: float) -> np.ndarray:
    """Chebyshev coefficients of exp(-t lam) on [0, b], c_0 halved.

    c_k = 2 (-1)^k e^(-z) I_k(z) with z = t b / 2, from the generating
    function exp(z cos theta) = I_0(z) + 2 sum_k I_k(z) cos(k theta).
    """
    f = _scaled_bessel_i(t * b / 2.0)
    c = 2.0 * f
    c[0] = f[0]
    c[1::2] *= -1.0
    return c


def _green_series(t: float, b: float) -> np.ndarray:
    """Chebyshev coefficients of int_0^t exp(-s lam) ds on [0, b], a_0 halved.

    a_k = (4/b) (-1)^k J_k with J_k = int_0^Z e^(-z) I_k(z) dz, Z = t b / 2.
    In closed form J_0 = Z e^(-Z) (I_0(Z) + I_1(Z)) and, for k >= 1,
    J_k = 2 sum_(j>k) (j-k) e^(-Z) I_j(Z), which is summed as two tail
    sums of positive terms.  A zero Laplacian (b = 0) integrates to t.
    """
    if b == 0.0:
        return np.array([t])
    z = t * b / 2.0
    f = _scaled_bessel_i(z)
    tails = np.cumsum(f[::-1])[::-1]  # tails[i] = sum_(j>=i) f_j
    J = np.zeros_like(f)
    J[:-1] = 2.0 * np.cumsum(tails[::-1])[::-1][1:]
    J[0] = z * (f[0] + f[1])
    a = (4.0 / b) * J
    a[0] /= 2.0
    a[1::2] *= -1.0
    return a


def _cut_series(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """(kept, dropped): coeffs cut at the lowest degree whose dropped |coefficients|
    sum to at most the unit roundoff times the sum of all of them, and that sum,
    which times |x|_W bounds the truncation error on spectrum [0, b]."""
    tails = np.append(np.cumsum(np.abs(coeffs[::-1]))[::-1], 0.0)
    degree = max(int(np.argmax(tails <= _UNIT_ROUNDOFF * tails[0])) - 1, 0)
    return coeffs[: degree + 1], float(tails[degree + 1])


def _chebyshev_sum(A, b: float, rows, x: np.ndarray) -> list:
    """[sum_k c_k T_k(Y) x for each row c], Y = (2/b) A - I, on one recurrence.

    T_(k+1)(Y) x = 2 Y T_k(Y) x - T_(k-1)(Y) x, with Y applied as
    (2/b) (A @ v) - v, so Y is never formed; each step works in the
    product's own buffer.  A row's bits do not depend on the other rows.
    Uses max(len(c)) - 1 matvecs.
    """
    outs = [c[0] * x for c in rows]
    prev, cur, term = x, x, np.empty_like(x)
    for k in range(1, max(c.size for c in rows)):
        step = A @ cur
        step *= 2.0 / b
        step -= cur
        if k > 1:
            step *= 2.0
            step -= prev
        prev, cur = cur, step
        for c, out in zip(rows, outs):
            if k < c.size:
                np.multiply(c[k], cur, out=term)
                out += term
    return outs


def harmonic_projector(s: SpectralData) -> np.ndarray:
    """W-orthogonal projector V_k V_k^T W onto the kernel of the Laplacian."""
    Vk = s.kernel_basis()
    return Vk @ (Vk.T * s.weights)


def harmonic_part(s: SpectralData, values: np.ndarray) -> np.ndarray:
    return s.apply_function(lambda lam: (lam == 0.0).astype(float), values)


# ---------------------------------------------------------------------------
# Spectral cache keyed by a content hash of (complex, degree, weights, RANK_TOL).

def complex_content_hash(K: SimplicialComplex, degree: int) -> str:
    import hashlib  # imported here: it would otherwise load at every start-up
    doc = {
        "degree": int(degree),
        "tol": repr(RANK_TOL),  # once an argument; kept so cache file names stay
        "simplices": [[list(s) for s in level] for level in K.simplices],
        "weights": [w.tobytes().hex() for w in K.weights],
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def save_spectral_data(s: SpectralData, path: str) -> None:
    """Write s to path through a temporary file in its directory, renamed into
    place, so a writer killed midway leaves no partial entry at path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{f.name: getattr(s, f.name) for f in fields(s)})
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_spectral_data(path: str) -> SpectralData:
    """Inverse of ``save_spectral_data``; entries that are not fields are ignored."""
    with np.load(path) as data:
        values = {f.name: data[f.name] for f in fields(SpectralData)}
    return SpectralData(**{k: v if v.ndim else v.item() for k, v in values.items()})


def cached_laplacian_spectrum(K: SimplicialComplex, ell: int, cache_dir: str) -> SpectralData:
    """laplacian_spectrum with a content-addressed on-disk cache.

    A degree that K holds already is returned as held: its entry is not
    read, and is written only where there is none.  A hit is held in K as
    ``laplacian_spectrum`` holds what it builds, so later calls of either
    return it.  An entry that does not load, or that is not a degree-ell
    spectrum on K's n simplices in K's weights (n finite eigenvalues, the
    first k = kernel_dim zero, the gap eigenvalue k or +inf at k = n, n x n
    finite eigencochains, an int k in 0..n), is a miss, overwritten with
    K's ``laplacian_spectrum``.  An entry keeps the bits it was written
    with: eigh's degree-1 entries from before the lift still hit.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, complex_content_hash(K, ell) + ".npz")
    if ell in K._spectra:
        if not os.path.exists(path):
            save_spectral_data(K._spectra[ell], path)
        return K._spectra[ell]
    n = K.n_simplices(ell)
    try:
        s = load_spectral_data(path)
        k, lam = s.kernel_dim, s.eigenvalues
        hit = (s.degree == ell and np.shape(lam) == (n,) and np.shape(s.eigencochains) == (n, n)
               and type(k) is int and 0 <= k <= n and np.array_equal(s.weights, K.weights[ell])
               and np.isfinite(lam).all() and np.isfinite(s.eigencochains).all()
               and not lam[:k].any() and s.gap == (lam[k] if k < n else math.inf))
    except Exception:  # missing, empty, truncated or of other types: numpy raises many kinds
        hit = False
    if hit:
        return _hold(K, ell, s)
    s = laplacian_spectrum(K, ell)
    save_spectral_data(s, path)
    return s
