"""Hodge decomposition on weighted simplicial complexes via the heat semigroup.

Builds the discrete operators d, delta, and the Hodge Laplacian on
weighted cochain complexes, computes harmonic projectors and Green
operators both spectrally and through certified heat-semigroup integrals,
splits arbitrary cochains into exact + coexact + harmonic parts with
measured weighted p-norm bounds, and derives the admissible exponent
interval from measured growth and decay rates.

Thread cap: HODGEHEAT_NUM_THREADS=n caps the BLAS thread pools (OMP /
OpenBLAS / MKL / numexpr) at n.  The cap is applied here, at package
import and before numpy is first imported, because the BLAS libraries read
their thread count once, when they load.  So the variable must be in the
environment before the interpreter starts, and it only takes effect when
hodgeheat is imported before numpy (as it is by ``python -m hodgeheat.cli``
and the ``hodgeheat`` script); otherwise the import emits a RuntimeWarning.
A per-library variable that is set explicitly (OPENBLAS_NUM_THREADS and
the others) takes precedence.
"""

import os as _os
import sys as _sys
import warnings as _warnings

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_threads = _os.environ.get("HODGEHEAT_NUM_THREADS")
if _threads:
    if "numpy" in _sys.modules:
        _warnings.warn(
            "HODGEHEAT_NUM_THREADS was not applied: numpy was imported before "
            "hodgeheat and its BLAS thread pools are already sized",
            RuntimeWarning, stacklevel=2)
    for _var in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, _threads)

from .complexes import (
    Cochain,
    SimplicialComplex,
    betti_numbers,
    build_complex,
    coboundary,
    hodge_laplacian,
    inner_product,
    lp_norm,
)
from .decomposition import (
    DecompositionResult,
    QuadratureResult,
    decompose,
    green_spectral,
    harmonic_representative,
    inv_sqrt_spectral,
    inv_sqrt_subordinated,
    verify_uniqueness,
)
from .interpolation import (
    AlphaFit,
    InterpolationReport,
    admissible_interval,
    decay_rate,
    dimension_consistency,
    gaffney_constant,
    interpolation_report,
    kernel_decay_fit,
    measure_alpha,
    opnorm_bracket,
    opnorm_exact_extremes,
    opnorm_power_method,
    projector_norm_profile,
    volume_growth_fit,
)
from .spectral import (
    SpectralData,
    eigendecompose,
    harmonic_projector,
    laplacian_spectrum,
)

__version__ = "0.1.0"
