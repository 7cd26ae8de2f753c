"""Weighted simplicial complexes and the basic calculus on their cochains.

A complex stores, for every degree, the list of simplices as tuples of
vertex ids in increasing order (the reference orientation), sorted
lexicographically so indexing is deterministic.  Every simplex carries a
strictly positive weight; the weights are the masses of the inner product

    <u, v>_W = sum_sigma w_sigma * u_sigma * v_sigma

on degree-ell cochains, and of the corresponding weighted p-norms.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_PRIME = 2 ** 31 - 1  # the field of betti_numbers' exact ranks

_DEGREE_NAMES = {"vertices": 0, "edges": 1, "triangles": 2, "tetrahedra": 3}


@dataclass
class Cochain:
    """Real-valued function on the oriented ell-simplices of a complex."""

    degree: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("cochain values must be a 1-d array")


class SimplicialComplex:
    """Oriented weighted simplicial complex, closed under taking faces.

    Immutable: tuples of simplices and of read-only weight copies, and
    read-only face tables.  So it holds what is derived from it, built on
    first use: transposed incidences (``_codifferential_apply``), Laplacians
    (``hodge_laplacian``), spectra, built by ``laplacian_spectrum`` or
    loaded by ``cached_laplacian_spectrum``, and hop distances
    (``interpolation._simplex_distances``).  Every routine that takes a
    complex reads the spectra and distances it needs from there.
    """

    def __init__(self, simplices, weights):
        if not simplices or not simplices[0]:
            raise ValueError("empty complex: at least one vertex is required")
        self.simplices: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
            tuple(tuple(int(v) for v in s) for s in level) for level in simplices
        )
        self.weights: tuple[np.ndarray, ...] = tuple(np.array(w, dtype=float) for w in weights)
        if len(self.weights) != len(self.simplices):
            raise ValueError("weights and simplices must cover the same degrees")
        for ell, (level, w) in enumerate(zip(self.simplices, self.weights)):
            if len(level) != len(w):
                raise ValueError(f"degree {ell}: {len(level)} simplices, {len(w)} weights")
            bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
            if bad.size:
                raise ValueError(f"weight {w[bad[0]]} on simplex {level[bad[0]]} "
                                 "is not a positive finite number")
            for s in level:
                if len(s) != ell + 1 or list(s) != sorted(set(s)):
                    raise ValueError(f"invalid degree-{ell} simplex {s}")
            if len(set(level)) != len(level):
                raise ValueError(f"duplicate simplices in degree {ell}")
            w.flags.writeable = False
        self._index = [
            {s: i for i, s in enumerate(level)} for level in self.simplices
        ]
        # _faces[ell][j, i]: the index in degree ell - 1 of the face of
        # simplex j that drops its i-th vertex, for ell >= 1.
        self._faces = {}
        for ell in range(1, len(self.simplices)):
            lower, faces = self._index[ell - 1], []
            for s in self.simplices[ell]:
                # combinations drops the last vertex first, the first one last.
                for face in itertools.combinations(s, ell):
                    i = lower.get(face)
                    if i is None:
                        raise ValueError(f"simplex {s} has a face {face} missing from "
                                         f"degree {ell - 1}: the complex is not closed "
                                         "under taking faces")
                    faces.append(i)
            table = np.array(faces, dtype=np.intp).reshape(-1, ell + 1)[:, ::-1]
            table.flags.writeable = False
            self._faces[ell] = table
        self._transposed = {}  # filled by _codifferential_apply
        self._laplacians = {}  # filled by hodge_laplacian
        self._spectra = {}  # filled by spectral.laplacian_spectrum
        self._distances = {}  # filled by interpolation._simplex_distances

    @property
    def max_degree(self) -> int:
        return len(self.simplices) - 1

    @property
    def vertex_count(self) -> int:
        return len(self.simplices[0])

    def n_simplices(self, ell: int) -> int:
        self._check_degree(ell)
        return len(self.simplices[ell])

    def weight_vector(self, ell: int) -> np.ndarray:
        self._check_degree(ell)
        return self.weights[ell]

    def total_weight(self, ell: int) -> float:
        return float(self.weight_vector(ell).sum())

    def index_of(self, ell: int, simplex) -> int:
        self._check_degree(ell)
        return self._index[ell][tuple(simplex)]

    def check_cochain(self, omega: Cochain) -> None:
        self._check_degree(omega.degree)
        n = self.n_simplices(omega.degree)
        if omega.values.shape != (n,):
            raise ValueError(
                f"cochain of degree {omega.degree} must have {n} values, "
                f"got {omega.values.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(omega.values))
        if bad.size:
            raise ValueError(f"non-finite cochain value {omega.values[bad[0]]} on simplex "
                             f"{self.simplices[omega.degree][bad[0]]}")

    def _check_degree(self, ell: int) -> None:
        if not 0 <= ell <= self.max_degree:
            raise ValueError(f"degree {ell} out of range [0, {self.max_degree}]")


def build_complex(spec) -> SimplicialComplex:
    """Build a complex from a description mapping.

    Simplices are listed by degree, either under named keys (``vertices``,
    ``edges``, ``triangles``, ``tetrahedra``) or under integer / string
    degree keys.  ``weights`` maps a listed degree to a list of weights
    aligned with the listing order; unlisted simplices created by the face
    closure get weight 1.0, listed ones default to ``weights_default`` (1.0).
    """
    listed: dict[int, list[tuple[int, ...]]] = {}
    for key, value in spec.items():
        if key in ("weights", "weights_default"):
            continue
        ell = _degree_key(key)
        level = listed.setdefault(ell, [])
        for raw in value:
            raw = (raw,) if isinstance(raw, int) else tuple(int(v) for v in raw)
            s = tuple(sorted(raw))
            if len(s) != ell + 1:
                raise ValueError(f"simplex {raw} does not have degree {ell}")
            if len(set(s)) != len(s):
                raise ValueError(f"simplex {raw} repeats a vertex")
            level.append(s)
    if not listed:
        raise ValueError("empty complex description")

    default = float(spec.get("weights_default", 1.0))
    weight_spec = {}
    for key, given in spec.get("weights", {}).items():
        if (ell := _degree_key(key)) not in listed:
            raise ValueError(f"weights[{key!r}]: degree {ell} lists no simplices to weigh")
        weight_spec[ell] = given

    weighted: dict[int, dict[tuple[int, ...], float]] = {}
    for ell, level in listed.items():
        given = weight_spec.get(ell)
        if given is not None and len(given) != len(level):
            raise ValueError(
                f"degree {ell}: {len(level)} simplices but {len(given)} weights"
            )
        table: dict[tuple[int, ...], float] = {}
        for i, s in enumerate(level):
            if s in table:
                raise ValueError(f"duplicate simplex {s} in degree {ell}")
            table[s] = float(given[i]) if given is not None else default
        weighted[ell] = table

    max_degree = max(weighted)
    levels = [weighted.get(ell, {}) for ell in range(max_degree + 1)]
    # Close under taking faces; faces added here carry weight 1.0.
    for ell in range(max_degree, 0, -1):
        for s in levels[ell]:
            for face in itertools.combinations(s, ell):
                levels[ell - 1].setdefault(face, 1.0)

    simplices, weights = [], []
    for table in levels:
        order = sorted(table)
        simplices.append(order)
        weights.append([table[s] for s in order])
    return SimplicialComplex(simplices, weights)


def _degree_key(key) -> int:
    if isinstance(key, str) and key in _DEGREE_NAMES:
        return _DEGREE_NAMES[key]
    try:
        ell = int(key)
    except (TypeError, ValueError):
        raise ValueError(f"unknown degree key {key!r}") from None
    if ell < 0:
        raise ValueError(f"negative degree key {key!r}")
    return ell


def coboundary(K: SimplicialComplex, ell: int) -> np.ndarray:
    """Signed incidence matrix d_ell: C^ell -> C^(ell+1).

    The entry for an (ell+1)-simplex and its i-th face (the sorted simplex
    with the i-th vertex removed) is (-1)^i; all other entries vanish.
    """
    rows, cols, signs = _incidence(K, ell)
    D = np.zeros((K.n_simplices(ell + 1), K.n_simplices(ell)))
    D[rows, cols] = signs
    return D


def _incidence(K: SimplicialComplex, ell: int):
    """Nonzeros (rows, cols, signs) of d_ell, face position by face position.

    Read off the face table of degree ell + 1: the face that drops vertex
    i of a simplex is its column, with sign (-1)^i.
    """
    if not 0 <= ell < K.max_degree:
        raise ValueError(f"coboundary degree {ell} out of range [0, {K.max_degree - 1}]")
    faces = K._faces[ell + 1]
    rows = np.tile(np.arange(len(faces)), ell + 2)
    signs = np.repeat((-1.0) ** np.arange(ell + 2), len(faces))
    return rows, faces.T.ravel(), signs


def _vertex_ranks(K: SimplicialComplex, k: int) -> np.ndarray:
    """Rows in degree 0 of the vertices of every degree-k simplex, shape (n_k, k + 1).

    Read off the face tables: the first k vertices of a k-simplex are those
    of the face that drops its last vertex, and its last vertex is the last
    one of the face that drops its first.
    """
    K._check_degree(k)
    ranks = np.arange(K.vertex_count)[:, None]
    for ell in range(1, k + 1):
        faces = K._faces[ell]
        ranks = np.column_stack([ranks[faces[:, ell]], ranks[faces[:, 0], -1]])
    return ranks


def _coboundary_apply(K: SimplicialComplex, ell: int, u: np.ndarray) -> np.ndarray:
    """d_ell u, gathered through the face table of degree ell + 1.  ``u`` is a
    cochain's values or a block of them, one cochain per row."""
    return np.take(u, K._faces[ell + 1], axis=-1) @ (-1.0) ** np.arange(ell + 2)


def _codifferential_apply(K: SimplicialComplex, ell: int, v: np.ndarray) -> np.ndarray:
    """delta_ell v = W_(ell-1)^-1 d_(ell-1)^T W_ell v.  ``v`` is a cochain's
    values or a block of them, one cochain per row.

    d_(ell-1)^T is a ``_SparseOperator`` of its +-1 nonzeros, built once per
    complex.  So each entry is 0.0 plus its signed, weighted cofaces in
    ascending order, then divided by its weight: the sums of one
    ``np.bincount`` over the face table.
    """
    if ell not in K._transposed:
        rows, cols, signs = _incidence(K, ell - 1)
        keys = cols * K.n_simplices(ell) + rows
        order = np.argsort(keys)
        K._transposed[ell] = _SparseOperator(keys[order], signs[order],
                                             (K.n_simplices(ell - 1), K.n_simplices(ell)), ell - 1)
    out = K._transposed[ell] @ (v * K.weight_vector(ell))
    out /= K.weight_vector(ell - 1)
    return out


def _group_pairs(group, member, left, right):
    """(member_a, member_b, left_a * right_b) over the pairs a, b of each group.

    Pairs run group by group in ascending order, and within a group in the
    order the entries are given, first index first.
    """
    order = np.argsort(group, kind="stable")
    group, member, left, right = group[order], member[order], left[order], right[order]
    size = np.bincount(group)[group]
    a = np.repeat(np.arange(group.size), size)
    first = np.searchsorted(group, group)  # where each entry's group starts
    b = np.arange(a.size) + np.repeat(first - np.cumsum(size) + size, size)
    return member[a], member[b], left[a] * right[b]


def hodge_laplacian(K: SimplicialComplex, ell: int) -> "_SparseOperator":
    """Hodge Laplacian d delta + delta d on degree ell (boundary terms dropped).

    A ``_SparseOperator``, assembled as its nonzeros off the face tables;
    no dense matrix is built.  The down term pairs the ell-simplices of
    each common face, the up term the faces of each common coface.  An
    off-diagonal entry has at most one product in each term; one
    ``np.bincount`` adds the down product and then the up one.  The
    diagonal sums each term apart, in ascending face or coface order, and
    then adds the two.  So every entry is summed in the order of a
    compressed-row product of the incidence matrices.  Exact zeros are
    dropped, as ``np.nonzero`` drops them.  A non-finite entry is a
    ValueError.  W-self-adjointness is checked where the spectrum is
    built, by ``_SparseOperator.symmetrized_average``.  Each degree is
    assembled once per complex: K holds the operator, and later calls
    return it, as ``spectral.laplacian_spectrum`` its spectrum.
    """
    K._check_degree(ell)
    if ell in K._laplacians:
        return K._laplacians[ell]
    n = K.n_simplices(ell)
    w = K.weight_vector(ell)
    terms = []  # (group, member, left, right): d_(group, member) and its adjoint
    keys, values, diagonal = [], [], np.zeros(n)
    # Overflow gives inf or nan, which the finiteness check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        if ell >= 1:
            rows, cols, signs = _incidence(K, ell - 1)
            terms.append((cols, rows, signs, signs * w[rows] / K.weight_vector(ell - 1)[cols]))
        if ell < K.max_degree:
            rows, cols, signs = _incidence(K, ell)
            terms.append((rows, cols, signs * K.weight_vector(ell + 1)[rows] / w[cols], signs))
        for term in terms:
            i, j, products = _group_pairs(*term)
            same = i == j
            keys.append(i[~same] * n + j[~same])
            values.append(products[~same])
            diagonal += np.bincount(i[same], products[same], minlength=n)
    # The diagonal keys come once each, so their sums are 0.0 + diagonal.
    keys, slot = np.unique(np.concatenate([*keys, np.arange(n) * (n + 1)]), return_inverse=True)
    vals = np.bincount(slot, np.concatenate([*values, diagonal]), minlength=keys.size)
    kept = vals != 0.0
    keys, vals = keys[kept], vals[kept]
    if not np.isfinite(vals).all():
        raise ValueError(f"degree {ell}: the weights overflow the Laplacian "
                         "(it has a non-finite entry)")
    return K._laplacians.setdefault(ell, _SparseOperator(keys, vals, (n, n), ell))


class _SparseOperator:
    """An operator into degree-``degree`` cochains, held as its nonzeros
    in compressed-row order: row by row, columns ascending.

    Only its methods read this format.  ``A @ x`` multiplies through padded
    row slots (ELLPACK), built on first use: slot k of row i holds the
    row's k-th nonzero, 0.0 and column 0 past its end.  The products are
    reduced along the slots from 0.0, so each row adds them in column
    order, as a compressed-row matvec does, signed zeros included.  A row
    longer than twice the mean (a cone's apex) keeps the rest in a spill
    that ``np.add.at`` adds afterwards.
    """

    def __init__(self, keys: np.ndarray, vals: np.ndarray, shape: tuple[int, int], degree: int):
        """From the ascending row-major keys i * shape[1] + j of the nonzeros."""
        self.rows, self.cols = np.divmod(keys, max(shape[1], 1))
        self.vals, self.shape, self.degree = vals, shape, degree

    @classmethod
    def of(cls, operator, degree: int) -> "_SparseOperator":
        """``operator`` itself when it is one, else the nonzeros of its dense
        matrix, of degree ``degree``, found by one scan of all n^2 entries.
        ``eigendecompose`` is the one routine that takes an operator in
        either form; route B reads the operator that K holds."""
        if isinstance(operator, cls):
            return operator
        A = np.asarray(operator, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        keys = np.flatnonzero(A)
        return cls(keys, A.ravel()[keys], A.shape, degree)

    @cached_property
    def transpose(self) -> np.ndarray:
        """``transpose[k]``: the position of entry (cols[k], rows[k]), or -1
        when that entry is zero.  Read only by the square ``symmetrized_*``."""
        n = self.shape[1]
        keys, mirror = self.rows * n + self.cols, self.cols * n + self.rows
        at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        return np.where(keys[at] == mirror, at, -1)

    def symmetrized_average(self, sqrt_w: np.ndarray) -> np.ndarray:
        """(S_ij + S_ji) / 2 at each nonzero (i, j), S = W^(1/2) A W^(-1/2).

        A ValueError unless these are finite (S and each sum S_ij + S_ji)
        and |S - S^T| <= 1e-8 |S|, with |S - S^T| summed over each nonzero
        and its transpose.  Each entry takes the operations of the dense
        formula, A_ij sqrt(w_i) / sqrt(w_j) then (S_ij + S_ji) / 2.
        """
        rows, cols = self.rows, self.cols
        has_mirror = self.transpose >= 0
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            S = self.vals * sqrt_w[rows]
            S /= sqrt_w[cols]
            mirror = np.where(has_mirror, S[self.transpose], 0.0)  # S_ji, 0 where A_ji is
            average = S + mirror  # not finite when S is not
        if not np.isfinite(average).all():
            raise ValueError(f"degree {self.degree}: the weights overflow the W^(1/2)-"
                             "symmetrized operator (it has a non-finite entry)")
        # Every entry is divided by the largest |S_ij| before it is squared, so
        # |S - S^T| <= 1e-8 |S| is tested at any scale of S.
        scale = float(np.abs(S).max(initial=0.0)) or 1.0
        scaled = S / scale
        diff = scaled - mirror / scale
        lone = scaled[~has_mirror]  # S_ij - S_ji again, at (j, i)
        asymmetry = math.sqrt(np.dot(diff, diff) + np.dot(lone, lone))
        if not asymmetry <= 1e-8 * max(math.sqrt(np.dot(scaled, scaled)), 1e-300):
            raise ValueError("operator is not self-adjoint in the weighted inner product")
        average /= 2.0
        return average

    def symmetrized_lower(self, sqrt_w: np.ndarray) -> np.ndarray:
        """The lower triangle of (S + S^T) / 2, S = W^(1/2) A W^(-1/2); zeros
        above the diagonal.

        Checked by ``symmetrized_average``, whose entries give
        ``np.linalg.eigh`` the bits of ``np.tril((S + S^T) / 2)``.  Its
        temporaries are freed on return, before ``eigh`` allocates.
        """
        rows, cols = self.rows, self.cols
        average = self.symmetrized_average(sqrt_w)
        # Each position on or below the diagonal once: from its own nonzero,
        # or from the transposed one when its own entry is zero.
        pick = (rows >= cols) | (self.transpose < 0)
        lower = np.zeros(self.shape)
        lower[np.maximum(rows, cols)[pick], np.minimum(rows, cols)[pick]] = average[pick]
        return lower

    @cached_property
    def bound(self) -> float:
        """b >= lambda_max: the smaller of the row-sum and column-sum norms,
        each summed in the order of a compressed-row matrix's own sums."""
        magnitudes = np.abs(self.vals)
        if not magnitudes.size:
            return 0.0
        runs = np.flatnonzero(np.diff(self.rows, prepend=-1))
        b = min(float(np.add.reduceat(magnitudes, runs).max()),
                float(np.bincount(self.cols, magnitudes).max()))
        if not math.isfinite(b):
            raise ValueError("Laplacian has non-finite entries")
        return b

    @cached_property
    def _slots(self):
        """(vals, cols, spill): the row slots, and the spill as (rows, cols, vals)."""
        n, rows, cols, vals = self.shape[0], self.rows, self.cols, self.vals
        lengths = np.bincount(rows, minlength=n)
        width = min(int(lengths.max(initial=0)), 2 * math.ceil(rows.size / max(n, 1)))
        slot = np.arange(rows.size) - (np.cumsum(lengths) - lengths)[rows]
        fits = slot < width
        slot_vals = np.zeros((width, n))
        slot_cols = np.zeros((width, n), dtype=np.intp)
        slot_vals[slot[fits], rows[fits]] = vals[fits]
        slot_cols[slot[fits], rows[fits]] = cols[fits]
        return slot_vals, slot_cols, (rows[~fits], cols[~fits], vals[~fits])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a cochain's values, or with a block of them, one
        cochain per row."""
        vals, cols, (spill_rows, spill_cols, spill_vals) = self._slots
        products = x.take(cols, axis=-1)
        products *= vals
        y = np.add.reduce(products, axis=-2, initial=0.0)
        if spill_rows.size:
            np.add.at(y.T, spill_rows, (spill_vals * x.take(spill_cols, axis=-1)).T)
        return y


def inner_product(K: SimplicialComplex, u: Cochain, v: Cochain) -> float:
    if u.degree != v.degree:
        raise ValueError("inner product needs cochains of equal degree")
    K.check_cochain(u)
    K.check_cochain(v)
    w = K.weight_vector(u.degree)
    return _scaled_sum(lambda x, y: w * x * y, lambda total: total, u.values, v.values)


def lp_norm(K: SimplicialComplex, omega: Cochain, p) -> float:
    """Weighted p-norm (sum_sigma w_sigma |omega_sigma|^p)^(1/p); sup-norm at p=inf."""
    K.check_cochain(omega)
    p = float(p)
    if math.isinf(p):
        return float(np.max(np.abs(omega.values))) if omega.values.size else 0.0
    if not p >= 1:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    w = K.weight_vector(omega.degree)
    return _scaled_sum(lambda x: w * np.abs(x) ** p, lambda total: total ** (1.0 / p),
                       omega.values)


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x / 2^e, e), with the power of two e that brings the largest |entry|
    into [0.5, 1); e = 0 for a zero array."""
    e = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
    return np.ldexp(x, -e), e


def _scaled_sum(terms, root, *vectors) -> float:
    """root(sum of terms(*vectors)), summed as written when that sum is a
    finite normal number.  Otherwise the vectors are ``_unit_scaled`` first
    and the result scaled back, so it overflows or underflows only when its
    value does; root(sum) must scale by 2^-(e_1 + e_2 + ...) then."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(terms(*vectors))
        if 2.0 ** -1022 <= abs(total) < math.inf:  # a normal number
            return float(root(total))
        scaled, exponents = zip(*map(_unit_scaled, vectors))
        return float(np.ldexp(root(np.sum(terms(*scaled))), sum(exponents)))


def betti_numbers(K: SimplicialComplex) -> list[int]:
    """Cohomology dimensions b_ell = n_ell - rank d_ell - rank d_(ell-1).

    Each rank is exact over F_p, p = _PRIME: the boundary columns are read
    off the face table and reduced by lowest pivot, from the top degree
    down.  Clearing skips each simplex that was a pivot row one degree up.
    p-torsion in the integral homology can only make a Betti number larger.
    """
    ranks, pivots = [0] * (K.max_degree + 2), set()  # ranks[ell] = rank d_(ell-1)
    for ell in range(K.max_degree, 0, -1):
        pivots = _pivot_rows({f: (-1) ** i for i, f in enumerate(faces)} for j, faces
                             in enumerate(K._faces[ell].tolist()) if j not in pivots)
        ranks[ell] = len(pivots)
    return [K.n_simplices(ell) - ranks[ell] - ranks[ell + 1] for ell in range(K.max_degree + 1)]


def _pivot_rows(columns) -> set[int]:
    """Pivot rows, as many as the rank, of {row: int} columns reduced over F_p."""
    p, reduced = _PRIME, {}  # pivot row -> its reduced column, 1 at the pivot
    for column in columns:
        column = {r: c % p for r, c in column.items() if c % p}
        while column and (low := max(column)) in reduced:
            factor = column[low]
            for r, c in reduced[low].items():
                column[r] = (column.get(r, 0) - factor * c) % p
                if not column[r]:
                    del column[r]
        if column:
            scale = pow(column[low], -1, p)
            reduced[low] = {r: c * scale % p for r, c in column.items()}
    return set(reduced)
