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


@dataclass
class OperatorMatrix:
    """Linear map between cochain spaces, tagged with its degrees."""

    entries: np.ndarray
    domain_degree: int
    codomain_degree: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2:
            raise ValueError("operator entries must be a matrix")

    @property
    def shape(self):
        return self.entries.shape

    def apply(self, omega: Cochain) -> Cochain:
        if omega.degree != self.domain_degree:
            raise ValueError(
                f"operator expects degree {self.domain_degree}, got {omega.degree}"
            )
        return Cochain(self.codomain_degree, self.entries @ omega.values)


class SimplicialComplex:
    """Oriented weighted simplicial complex, closed under taking faces."""

    def __init__(self, simplices, weights):
        if not simplices or not simplices[0]:
            raise ValueError("empty complex: at least one vertex is required")
        self.simplices: list[tuple[tuple[int, ...], ...]] = [
            tuple(tuple(int(v) for v in s) for s in level) for level in simplices
        ]
        self.weights: list[np.ndarray] = [
            np.asarray(w, dtype=float) for w in weights
        ]
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
        self._coface_slots = {}  # filled by _coface_slots

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

    def check_spectrum(self, s) -> None:
        """Raise ValueError unless s is this complex's spectrum at degree s.degree.

        Compares what a ``SpectralData`` records of its complex: the degree,
        the number of simplices and their weights.
        """
        ell = s.degree
        if ell not in range(self.max_degree + 1):
            problem = f"its degrees run 0..{self.max_degree}"
        elif s.dim != self.n_simplices(ell):
            problem = f"it has {self.n_simplices(ell)} simplices of degree {ell}"
        elif not np.array_equal(s.weights, self.weights[ell]):
            problem = f"it has other weights on its degree-{ell} simplices"
        else:
            return
        raise ValueError(f"the spectrum of degree {ell} on {s.dim} simplices is not that of "
                         f"{self!r}: {problem}")

    def _check_degree(self, ell: int) -> None:
        if not 0 <= ell <= self.max_degree:
            raise ValueError(f"degree {ell} out of range [0, {self.max_degree}]")

    def __repr__(self):
        counts = ", ".join(str(len(s)) for s in self.simplices)
        return f"SimplicialComplex(counts=[{counts}])"


def build_complex(spec) -> SimplicialComplex:
    """Build a complex from a description mapping.

    Simplices are listed by degree, either under named keys (``vertices``,
    ``edges``, ``triangles``, ``tetrahedra``) or under integer / string
    degree keys.  ``weights`` maps a degree to a list of weights aligned
    with the listing order; unlisted simplices created by the face closure
    get weight 1.0, listed ones default to ``weights_default`` (1.0).
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
    weight_spec = {_degree_key(k): v for k, v in spec.get("weights", {}).items()}

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


def coboundary(K: SimplicialComplex, ell: int) -> OperatorMatrix:
    """Signed incidence matrix d_ell: C^ell -> C^(ell+1).

    The entry for an (ell+1)-simplex and its i-th face (the sorted simplex
    with the i-th vertex removed) is (-1)^i; all other entries vanish.
    """
    rows, cols, signs = _incidence(K, ell)
    D = np.zeros((K.n_simplices(ell + 1), K.n_simplices(ell)))
    D[rows, cols] = signs
    return OperatorMatrix(D, domain_degree=ell, codomain_degree=ell + 1)


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
    """delta_ell v = W_(ell-1)^-1 d_(ell-1)^T W_ell v, gathered through the
    coface slots of degree ell - 1 (see ``_coface_slots``).  ``v`` is a
    cochain's values or a block of them, one cochain per row.

    Each entry is 0.0 plus its signed, weighted cofaces in ascending order,
    then divided by its weight: the sums of one ``np.bincount`` over the
    face table.
    """
    cofaces, signs, (spill, spill_cofaces, spill_signs) = _coface_slots(K, ell)
    weighted = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))  # a zero past the end
    np.multiply(v, K.weight_vector(ell), out=weighted[..., :-1])
    out = np.zeros(v.shape[:-1] + cofaces.shape[1:])
    term = np.empty_like(out)
    for slot_cofaces, slot_signs in zip(cofaces, signs):
        np.take(weighted, slot_cofaces, axis=-1, out=term)
        term *= slot_signs
        out += term
    np.add.at(out.T, spill, (weighted[..., spill_cofaces] * spill_signs).T)
    out /= K.weight_vector(ell - 1)
    return out


def _coface_slots(K: SimplicialComplex, ell: int):
    """(cofaces, signs, spill) of d_(ell-1)^T, built once per complex.

    Slot k of an (ell-1)-simplex holds its k-th coface in ascending order
    and the sign of the face in it, or n_ell (past the end) and 0.0 past
    its last.  There are as many slots as the most cofaces of one simplex,
    but at most twice the mean; the rest spill, as (simplex, coface, sign)
    in the same order, to one ``np.add.at``.
    """
    if ell not in K._coface_slots:
        faces, n = K._faces[ell], K.n_simplices(ell - 1)
        order = np.argsort(faces.ravel(), kind="stable")
        coface, member = order // (ell + 1), faces.ravel()[order]
        sign = (-1.0) ** (order % (ell + 1))
        counts = np.bincount(member, minlength=n)
        slot = np.arange(order.size) - (np.cumsum(counts) - counts)[member]
        width = min(int(counts.max(initial=0)), 2 * math.ceil(order.size / max(n, 1)))
        fits = slot < width
        cofaces = np.full((width, n), len(faces))
        cofaces[slot[fits], member[fits]] = coface[fits]
        signs = np.zeros((width, n))
        signs[slot[fits], member[fits]] = sign[fits]
        K._coface_slots[ell] = cofaces, signs, (member[~fits], coface[~fits], sign[~fits])
    return K._coface_slots[ell]


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


def hodge_laplacian(K: SimplicialComplex, ell: int) -> OperatorMatrix:
    """Hodge Laplacian d delta + delta d on degree ell (boundary terms dropped).

    A ``_SparseOperator``, assembled as its nonzeros off the face tables;
    the dense matrix is built only when ``entries`` is read.  The down
    term pairs the ell-simplices of each common face, the up term the
    faces of each common coface.  An off-diagonal entry has at most one
    product in each term; one ``np.bincount`` adds the down product and
    then the up one.  The diagonal sums each term apart, in ascending face
    or coface order, and then adds the two.  So every entry is summed in
    the order of a compressed-row product of the incidence matrices.
    Exact zeros are dropped, as ``np.nonzero`` drops them.  A non-finite
    entry is a ValueError; the nonzeros are checked to be W-self-adjoint.
    """
    K._check_degree(ell)
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
    L = _SparseOperator(keys, vals, n, ell)
    if not L.is_weighted_self_adjoint(w):
        raise AssertionError("assembled Laplacian is not W-self-adjoint")
    return L


class _SparseOperator(OperatorMatrix):
    """A square operator held as its nonzeros in compressed-row order.

    Row by row, columns ascending; ``transpose[k]`` is the position of
    entry (cols[k], rows[k]), or -1 when that entry is zero.  Only its
    methods read this format; ``entries`` scatters it anew on each read.
    ``A @ x``, and ``apply`` through it, multiply through padded row slots
    (ELLPACK), built on first use: slot k of row i holds the row's k-th
    nonzero, 0.0 and column 0 past its end.  The products are reduced
    along the slots from 0.0, so each row adds them in column order, as a
    compressed-row matvec does, signed zeros included.  A row longer than
    twice the mean (a cone's apex) keeps the rest in a spill that
    ``np.add.at`` adds afterwards.
    """

    def __init__(self, keys: np.ndarray, vals: np.ndarray, n: int, degree: int):
        """From the ascending row-major keys i * n + j of the nonzeros."""
        self.rows, self.cols = np.divmod(keys, max(n, 1))
        mirror = self.cols * n + self.rows
        at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        self.vals, self.transpose = vals, np.where(keys[at] == mirror, at, -1)
        self.domain_degree = self.codomain_degree = degree
        self._n = n

    @classmethod
    def of(cls, operator, degree: int) -> "_SparseOperator":
        """``operator`` itself when it is one, else the nonzeros of its dense
        matrix, found by one scan of all n^2 entries.  An array has no
        degree and gets ``degree``; an OperatorMatrix keeps its own.
        ``eigendecompose`` is the one routine that takes an operator in any
        of these forms; route B reads what ``hodge_laplacian`` returns."""
        if isinstance(operator, cls):
            return operator
        if isinstance(operator, OperatorMatrix):
            operator, degree = operator.entries, operator.domain_degree
        A = np.asarray(operator, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        keys = np.flatnonzero(A)
        return cls(keys, A.ravel()[keys], A.shape[0], degree)

    @property
    def shape(self):
        return (self._n, self._n)

    @property
    def entries(self) -> np.ndarray:
        A = np.zeros(self.shape)
        A[self.rows, self.cols] = self.vals
        return A

    def is_weighted_self_adjoint(self, w: np.ndarray, tol: float = 1e-12) -> bool:
        """|A - W^-1 A^T W| <= tol |A| in the Frobenius norm, over the nonzeros.

        Every entry is divided by the largest |entry| before it is squared,
        so the test holds at any scale.  A nonzero whose mirror is zero adds
        both positions.
        """
        if not self.vals.size:
            return True
        rows, cols, vals = self.rows, self.cols, self.vals
        top = np.abs(vals).max()
        has_mirror = self.transpose >= 0
        mirror = np.where(has_mirror, vals[self.transpose], 0.0)
        lone = ~has_mirror
        v = vals / top
        defect = np.append(v - _ratio(mirror, w[cols], w[rows], top),
                           _ratio(vals[lone], w[rows[lone]], w[cols[lone]], top))
        return math.sqrt(np.dot(defect, defect)) <= tol * math.sqrt(np.dot(v, v))

    def symmetrized_average(self, sqrt_w: np.ndarray, degree: int) -> np.ndarray:
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
            raise ValueError(f"degree {degree}: the weights overflow the W^(1/2)-"
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

    def symmetrized_lower(self, sqrt_w: np.ndarray, degree: int) -> np.ndarray:
        """The lower triangle of (S + S^T) / 2, S = W^(1/2) A W^(-1/2); zeros
        above the diagonal.

        Checked by ``symmetrized_average``, whose entries give
        ``np.linalg.eigh`` the bits of ``np.tril((S + S^T) / 2)``.  Its
        temporaries are freed on return, before ``eigh`` allocates.
        """
        rows, cols = self.rows, self.cols
        average = self.symmetrized_average(sqrt_w, degree)
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
        n, rows, cols, vals = self._n, self.rows, self.cols, self.vals
        lengths = np.bincount(rows, minlength=n)
        width = min(int(lengths.max(initial=0)), 2 * math.ceil(rows.size / max(n, 1)))
        slot = np.arange(rows.size) - (np.cumsum(lengths) - lengths)[rows]
        fits = slot < width
        slot_vals = np.zeros((width, n))
        slot_cols = np.zeros((width, n), dtype=np.intp)
        slot_vals[slot[fits], rows[fits]] = vals[fits]
        slot_cols[slot[fits], rows[fits]] = cols[fits]
        return slot_vals, slot_cols, (rows[~fits], cols[~fits], vals[~fits])

    def apply(self, omega: Cochain) -> Cochain:
        """``self @ omega.values`` as a cochain: no dense matrix is built."""
        if omega.degree != self.domain_degree:
            raise ValueError(
                f"operator expects degree {self.domain_degree}, got {omega.degree}"
            )
        if omega.values.size != self._n:
            raise ValueError(f"operator acts on {self._n} values, got a cochain "
                             f"of {omega.values.size}")
        return Cochain(self.codomain_degree, self @ omega.values)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        vals, cols, (spill_rows, spill_cols, spill_vals) = self._slots
        products = x.take(cols)
        products *= vals
        y = np.add.reduce(products, axis=0, initial=0.0)
        if spill_rows.size:
            np.add.at(y, spill_rows, spill_vals * x.take(spill_cols))
        return y


def _ratio(x, a, b, c) -> np.ndarray:
    """x a / b / c, formed from mantissas and exponents so that it overflows
    or underflows only when its value does."""
    (mx, ex), (ma, ea), (mb, eb), (mc, ec) = map(np.frexp, (x, a, b, c))
    return np.ldexp(mx * ma / mb / mc, ex + ea - eb - ec)


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
