"""Spectral calculus on Hodge Laplacians.

Eigendecomposition in the weighted inner product, the heat semigroup
P_t = exp(-t * Laplacian) computed two independent ways (spectral sum, and
one eigenbasis-free exponential action), spectral-gap classification, and
the harmonic projector as a spectral projection.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .complexes import (
    RANK_TOL,
    Cochain,
    OperatorMatrix,
    SimplicialComplex,
    hodge_laplacian,
)


@dataclass
class SpectralData:
    """Eigenvalues and W-orthonormal eigencochains of a Hodge Laplacian.

    Eigenvalues are ascending; the ``kernel_dim`` smallest are snapped to
    exactly 0 (they fall below ``tol`` relative to the largest eigenvalue).
    ``gap`` is the smallest nonzero eigenvalue, or +inf when the whole
    spectrum is {0}.
    """

    degree: int
    eigenvalues: np.ndarray
    eigencochains: np.ndarray  # columns, W-orthonormal
    weights: np.ndarray
    kernel_dim: int
    gap: float
    tol: float

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

    def function_matrix(self, func) -> np.ndarray:
        """Dense matrix of f(Laplacian) = V diag(f(lambda)) V^T W."""
        V = self.eigencochains
        return (V * func(self.eigenvalues)[None, :]) @ (V.T * self.weights[None, :])

    def laplacian_matrix(self) -> np.ndarray:
        return self.function_matrix(lambda lam: lam)

    def norm2(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights * values * values)))


@dataclass
class ZeroSpectrumReport:
    zero_in_spectrum: bool
    isolated: bool
    gap: float


def eigendecompose(delta, weights=None, degree: int | None = None,
                   tol: float = RANK_TOL) -> SpectralData:
    """Full eigendecomposition of a W-self-adjoint PSD operator.

    Works on the symmetrized form W^(1/2) A W^(-1/2); rejects input whose
    symmetrized residual exceeds 1e-8 relative.  Eigenvalues within the
    relative tolerance of zero are clamped to exactly 0.
    """
    if isinstance(delta, OperatorMatrix):
        if delta.domain_degree != delta.codomain_degree:
            raise ValueError("eigendecomposition needs equal domain/codomain degrees")
        if degree is None:
            degree = delta.domain_degree
        A = delta.entries
    else:
        A = np.asarray(delta, dtype=float)
        if degree is None:
            degree = 0
    if weights is None:
        weights = np.ones(A.shape[0])
    w = np.asarray(weights, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != w.size:
        raise ValueError("operator and weights have mismatched shapes")

    sqrt_w = np.sqrt(w)
    S = (A * sqrt_w[:, None]) / sqrt_w[None, :]
    scale = np.linalg.norm(S)
    if np.linalg.norm(S - S.T) > 1e-8 * max(scale, 1e-300):
        raise ValueError("operator is not self-adjoint in the weighted inner product")
    evals, U = np.linalg.eigh((S + S.T) / 2.0)

    lam_max = float(evals[-1]) if evals.size else 0.0
    if lam_max < 0 and abs(lam_max) <= tol:
        lam_max = 0.0
    threshold = tol * max(lam_max, 0.0)
    if evals.size and evals[0] < -max(threshold, 1e-8 * max(lam_max, 1.0)):
        raise ValueError(f"operator is not positive semidefinite (min eigenvalue {evals[0]})")
    evals = np.maximum(evals, 0.0)

    if lam_max <= 0.0:
        kernel_dim = evals.size
    else:
        kernel_dim = int(np.count_nonzero(evals < threshold))
    evals[:kernel_dim] = 0.0
    gap = float(evals[kernel_dim]) if kernel_dim < evals.size else math.inf

    V = U / sqrt_w[:, None]
    return SpectralData(
        degree=int(degree),
        eigenvalues=evals,
        eigencochains=V,
        weights=w,
        kernel_dim=kernel_dim,
        gap=gap,
        tol=tol,
    )


def laplacian_spectrum(K: SimplicialComplex, ell: int, tol: float = RANK_TOL) -> SpectralData:
    """Eigendecomposition of the degree-ell Hodge Laplacian of K."""
    return eigendecompose(hodge_laplacian(K, ell), K.weight_vector(ell), tol=tol)


def classify_zero(s: SpectralData) -> ZeroSpectrumReport:
    """Report whether 0 lies in the spectrum and the size of the gap above it.

    In finite dimension 0 is always either absent or isolated, so the
    quantitative content is the gap magnitude.
    """
    return ZeroSpectrumReport(
        zero_in_spectrum=s.kernel_dim > 0,
        isolated=True,
        gap=s.gap,
    )


def heat_operator(s: SpectralData, t: float) -> OperatorMatrix:
    """Dense matrix of P_t = exp(-t * Laplacian)."""
    if t < 0:
        raise ValueError("heat semigroup requires t >= 0")
    M = s.function_matrix(lambda lam: np.exp(-t * lam))
    return OperatorMatrix(M, s.degree, s.degree, symmetric=True)


def _heat_action(A, t: float, x: np.ndarray) -> np.ndarray:
    """exp(-t A) x without an eigenbasis.

    The truncated-Taylor action of Al-Mohy & Higham (SIAM J. Sci. Comput.
    2011) on a CSR copy of A: a number of sparse matvecs that grows
    linearly in t |A|_1, and no dense matrix exponential.

    For stiff t |A|_1 scipy picks its Taylor degree and step count from
    norm estimates whose probe vectors come from numpy's global random
    state, and a different choice moves the result in its last digits.
    The state is pinned for the call, so equal inputs give equal bytes,
    and the caller's state is restored afterwards.
    """
    caller_state = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(-t * sparse.csr_matrix(A), x)
    finally:
        np.random.set_state(caller_state)


def heat_apply(source, t: float, omega: Cochain) -> Cochain:
    """Apply the heat semigroup P_t to a cochain.

    For SpectralData ``source`` this is the spectral sum
    exp(-t lambda_i) <omega, v_i> v_i; for a Laplacian (OperatorMatrix or
    array) it is the eigenbasis-free exponential action.  The two agree
    to 1e-8 relative.
    """
    if t < 0:
        raise ValueError("heat semigroup requires t >= 0")
    if isinstance(source, SpectralData):
        if omega.degree != source.degree:
            raise ValueError("cochain degree does not match spectral data")
        return Cochain(source.degree,
                       source.apply_function(lambda lam: np.exp(-t * lam), omega.values))
    A = source
    if isinstance(source, OperatorMatrix):
        if omega.degree != source.domain_degree:
            raise ValueError("cochain degree does not match the Laplacian")
        A = source.entries
    return Cochain(omega.degree, _heat_action(A, t, omega.values))


def heat_derivative(s: SpectralData, t: float, omega: Cochain) -> Cochain:
    """d/dt P_t omega = -Laplacian P_t omega, as a spectral sum."""
    if t <= 0:
        raise ValueError("heat derivative requires t > 0")
    if omega.degree != s.degree:
        raise ValueError("cochain degree does not match spectral data")
    vals = s.apply_function(lambda lam: -lam * np.exp(-t * lam), omega.values)
    return Cochain(s.degree, vals)


def harmonic_projector(s: SpectralData) -> OperatorMatrix:
    """W-orthogonal projector onto the kernel of the Laplacian."""
    M = s.function_matrix(lambda lam: (lam == 0.0).astype(float))
    return OperatorMatrix(M, s.degree, s.degree, symmetric=True)


def harmonic_part(s: SpectralData, values: np.ndarray) -> np.ndarray:
    return s.apply_function(lambda lam: (lam == 0.0).astype(float), values)


# ---------------------------------------------------------------------------
# Spectral cache keyed by a content hash of (complex, degree, weights, tol).

def complex_content_hash(K: SimplicialComplex, degree: int, tol: float = RANK_TOL) -> str:
    doc = {
        "degree": int(degree),
        "tol": repr(float(tol)),
        "simplices": [[list(s) for s in level] for level in K.simplices],
        "weights": [w.tobytes().hex() for w in K.weights],
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def save_spectral_data(s: SpectralData, path: str) -> None:
    np.savez(
        path,
        degree=s.degree,
        eigenvalues=s.eigenvalues,
        eigencochains=s.eigencochains,
        weights=s.weights,
        kernel_dim=s.kernel_dim,
        gap=s.gap,
        tol=s.tol,
    )


def load_spectral_data(path: str) -> SpectralData:
    with np.load(path) as data:
        return SpectralData(
            degree=int(data["degree"]),
            eigenvalues=data["eigenvalues"],
            eigencochains=data["eigencochains"],
            weights=data["weights"],
            kernel_dim=int(data["kernel_dim"]),
            gap=float(data["gap"]),
            tol=float(data["tol"]),
        )


def cached_laplacian_spectrum(K: SimplicialComplex, ell: int, cache_dir: str,
                              tol: float = RANK_TOL) -> SpectralData:
    """laplacian_spectrum with a content-addressed on-disk cache."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, complex_content_hash(K, ell, tol) + ".npz")
    if os.path.exists(path):
        return load_spectral_data(path)
    s = laplacian_spectrum(K, ell, tol=tol)
    save_spectral_data(s, path)
    return s
