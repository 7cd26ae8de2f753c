"""Shared corpus of test complexes, work counters and the dense oracles of
the operators the package applies without forming."""

import os
import tracemalloc
from pathlib import Path

import pytest

import hodgeheat
from hodgeheat import SimplicialComplex, coboundary
from hodgeheat import library as lib
from hodgeheat.complexes import _SparseOperator
from hodgeheat.spectral import _chebyshev_sum, _cut_series, _heat_series

# After hodgeheat, whose import applies HODGEHEAT_NUM_THREADS before numpy loads.
import numpy as np  # noqa: E402,I001

RANDOM_SEEDS = tuple(range(101, 121))  # 20 seeded random 2-complexes


def _build_corpus():
    items = [
        ("interval", lib.interval()),
        ("P5", lib.path_complex(5)),
        ("C3", lib.cycle_complex(3)),
        ("C12", lib.cycle_complex(12)),
        ("filled_triangle", lib.filled_triangle()),
        ("tetra_boundary", lib.simplex_boundary(3)),
        ("torus_6x6", lib.flat_torus(6, 6)),
    ]
    items += [(f"random_{seed}", lib.random_two_complex(seed)) for seed in RANDOM_SEEDS]
    return items


CORPUS = _build_corpus()
NAMED = CORPUS[:7]
CORPUS_IDS = [name for name, _ in CORPUS]
NAMED_IDS = [name for name, _ in NAMED]

def all_degrees(K):
    return range(K.max_degree + 1)


def log_uniform_weights(K, seed):
    """K with seeded weights exp(U(-3, 3)) on every simplex."""
    rng = np.random.default_rng(seed)
    return SimplicialComplex(K.simplices,
                             [np.exp(rng.uniform(-3.0, 3.0, len(level))) for level in K.simplices])


def log10_uniform_weights(K, spread, seed):
    """K with weights 10^U(-spread, spread) on every simplex, drawn degree by
    degree from one np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return SimplicialComplex(K.simplices, [10.0 ** rng.uniform(-spread, spread, len(level))
                                           for level in K.simplices])


def general_product(s, func):
    """f(Laplacian) = V diag(f) V^T W as one general product, for any f."""
    V = s.eigencochains
    return (V * func(s.eigenvalues)[None, :]) @ (V.T * s.weights[None, :])


def weighted_adjoint(A, w_dom, w_cod):
    """Adjoint of A: (C^dom, W_dom) -> (C^cod, W_cod)."""
    return (A.T * np.asarray(w_cod)[None, :]) / np.asarray(w_dom)[:, None]


def codifferential(K, ell):
    """Oracle: the dense delta_ell = W_(ell-1)^-1 d_(ell-1)^T W_ell, C^ell -> C^(ell-1)."""
    if not 1 <= ell <= K.max_degree:
        raise ValueError(f"codifferential degree {ell} out of range [1, {K.max_degree}]")
    return weighted_adjoint(coboundary(K, ell - 1), K.weight_vector(ell - 1),
                            K.weight_vector(ell))


def entries(operator):
    """Oracle: the dense matrix of a ``_SparseOperator``, scattered from its nonzeros."""
    A = np.zeros(operator.shape)
    A[operator.rows, operator.cols] = operator.vals
    return A


def chebyshev_heat(laplacian, t, values):
    """exp(-t L) values without the eigenbasis: route B's heat row, the cut
    Chebyshev series of exp(-t lam) on [0, b], summed on L's recurrence.
    ``laplacian`` is anything ``_SparseOperator.of`` takes."""
    L = _SparseOperator.of(laplacian, 0)
    kept, _ = _cut_series(_heat_series(t, L.bound))
    return _chebyshev_sum(L, L.bound, [kept], values)[0]


def count_calls(monkeypatch, name, *modules):
    """Wrap ``name`` in each module by one counter.

    Returns its list of calls, each the tuple of positional arguments.
    """
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def count_assemblies(monkeypatch):
    """Record the degree of every ``_SparseOperator`` built: one per
    Laplacian assembly, per transposed incidence ``_codifferential_apply``
    holds, or per dense operator ``eigendecompose`` scans."""
    degrees = []
    original = _SparseOperator.__init__

    def counting(self, keys, vals, shape, degree):
        degrees.append(degree)
        original(self, keys, vals, shape, degree)

    monkeypatch.setattr(_SparseOperator, "__init__", counting)
    return degrees


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes above the start).

    numpy's array buffers are traced; memory that LAPACK takes for itself,
    such as the workspace and input copy of ``np.linalg.eigh``, is not.
    """
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not outer:
            tracemalloc.stop()
    return result, peak - start


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


def child_env(threads):
    """Environment for a child Python that imports hodgeheat at `threads` BLAS threads.

    PYTHONPATH starts with the absolute directory holding the imported
    package, so the child finds it from any working directory, with the
    inherited entries kept after it.  Inherited per-library thread
    variables are dropped: they take precedence over HODGEHEAT_NUM_THREADS
    and would make the child run at a count other than `threads`.
    """
    env = {k: v for k, v in os.environ.items() if k not in hodgeheat._BLAS_THREAD_VARS}
    pkg_root = str(Path(hodgeheat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env["HODGEHEAT_NUM_THREADS"] = threads
    return env
