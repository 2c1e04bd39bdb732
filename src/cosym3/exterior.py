"""Sparse exterior algebra with exact polynomial coefficients.

Forms, vector fields, endomorphism fields, and metrics on a single chart of
dimension ``m``.  A form keys the monomial dx_I by the ``int`` bitmask
sum_{i in I} 2^i, so bit i stands for index i; ``monomial_key`` and
``monomial_indices`` convert between keys and increasing index tuples, which
appear only where forms are built from or shown to the outside.  An index
tuple handed to the ``KForm`` constructor may be in any order: it is
normalized, with the permutation sign absorbed into the coefficient.  On
keys, dx_A ^ dx_B is zero when ``A & B`` and otherwise has key ``A | B`` and
sign (-1)^(the number of pairs a in A, b in B with a > b).  Values are
immutable after construction and every operation is a pure function, so
concurrent use needs no coordination; a ``HodgeOperator``'s memo of raised
monomials only ever gains fixed values.

Conventions fixed here and used everywhere else:

* wedge is the determinant convention, ``(dx^i ^ dx^j)(X, Y) = X^i Y^j - X^j Y^i``;
* the volume form orders coordinates by increasing index;
* the Hodge star is defined by ``alpha ^ *beta = <alpha, beta> vol`` with the
  inner product on k-forms given by Gram determinants of the inverse metric.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Mapping, Sequence

from . import linalg
from .poly import Poly, _accumulate, _collect, _poly, as_poly, dot

IndexTuple = tuple[int, ...]


def sort_with_sign(indices) -> tuple[IndexTuple, int]:
    """Sort an index tuple, returning the permutation sign (0 on repeats)."""
    lst = list(indices)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return tuple(lst), 0
    return tuple(lst), sign


def monomial_key(indices) -> int:
    """The key of dx_I for an increasing index tuple I: bit i for index i."""
    key = 0
    for i in indices:
        key |= 1 << i
    return key


def monomial_indices(key: int) -> IndexTuple:
    """The increasing index tuple of a monomial key."""
    return tuple(i for i in range(key.bit_length()) if key >> i & 1)


def monomial_keys(m: int, k: int) -> list[int]:
    """The keys of the degree-k monomials on an m-dimensional chart, increasing."""
    return sorted(map(monomial_key, combinations(range(m), k)))


def _inversion_mask(key: int, left: bool) -> int:
    """Bit i holds the parity of the indices of ``key`` above i if ``left``,
    below i otherwise.

    So dx_A ^ dx_B has sign (-1)^popcount(B & _inversion_mask(A, True)), and
    equally (-1)^popcount(A & _inversion_mask(B, False)): both count the
    pairs a in A, b in B with a > b.
    """
    mask = 0
    while key:
        low = key & -key
        # low - 1 has every bit below the index set, -(low << 1) every bit above.
        mask ^= low - 1 if left else -(low << 1)
        key ^= low
    return mask


class KForm:
    """Differential k-form with Poly coefficients on an m-dimensional chart.

    ``terms`` maps monomial keys to nonzero Polys; degree 0 is stored as a
    single term keyed by 0, the empty monomial.  The constructor takes index
    tuples.  Degrees above ``m`` are permitted only for the zero form (wedge
    products may overflow the top degree and must still carry their formal
    degree).
    """

    __slots__ = ("m", "degree", "terms")

    def __init__(self, m: int, degree: int, terms: Mapping | None = None):
        if m < 0 or degree < 0:
            raise ValueError("chart dimension and degree must be non-negative")
        signed = []
        for key, value in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"index tuple {key} has length != degree {degree}")
            if any(not 0 <= i < m for i in key):
                raise ValueError(f"index out of range in {key}")
            sorted_key, sign = sort_with_sign(key)
            if sign == 0:
                continue
            p = as_poly(value, m) if not isinstance(value, Poly) else value
            if p.nvars != m:
                raise ValueError("coefficient over wrong variable count")
            signed.append((monomial_key(sorted_key), p if sign > 0 else -p))
        clean = linalg.sparse_sum(signed)
        if degree > m and clean:
            raise ValueError(f"non-zero form of degree {degree} > dimension {m}")
        self.m = m
        self.degree = degree
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, m: int, value) -> "KForm":
        """Degree-0 form with a constant coefficient."""
        return cls(m, 0, {(): Poly.const(m, value)})

    @classmethod
    def function(cls, m: int, p: Poly) -> "KForm":
        return cls(m, 0, {(): p})

    @classmethod
    def coordinate(cls, m: int, index: int) -> "KForm":
        """The coordinate differential dx^index."""
        return cls(m, 1, {(index,): 1})

    @classmethod
    def monomial(cls, m: int, indices, value=1) -> "KForm":
        indices = tuple(indices)
        return cls(m, len(indices), {indices: value})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.terms.values())

    def coefficient(self, indices) -> Poly:
        key, sign = sort_with_sign(tuple(indices))
        p = self.terms.get(monomial_key(key)) if sign else None
        if p is None:
            return Poly.zero(self.m)
        return p if sign > 0 else -p

    def __add__(self, other: "KForm") -> "KForm":
        self._check_compatible(other)
        terms = linalg.sparse_sum(chain(self.terms.items(), other.terms.items()))
        return _form(self.m, self.degree, terms)

    def __neg__(self) -> "KForm":
        return _form(self.m, self.degree, {key: -p for key, p in self.terms.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def scaled(self, factor) -> "KForm":
        f = factor if isinstance(factor, Poly) else Poly.const(self.m, factor)
        return _form(self.m, self.degree, {key: q for key, p in self.terms.items() if (q := f * p)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, KForm):
            return NotImplemented
        return (
            self.m == other.m
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.m, self.degree, frozenset(self.terms.items())))

    def _check_compatible(self, other: "KForm"):
        if self.m != other.m:
            raise ValueError("forms on charts of different dimension")
        if self.degree != other.degree:
            raise ValueError("forms of different degree")

    def render(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.m)]
        parts = []
        # No two terms share an index tuple, so no Poly is ever compared.
        for key, p in sorted((monomial_indices(key), p) for key, p in self.terms.items()):
            basis = "^".join(f"d{names[i]}" for i in key) if key else "1"
            coeff = p.render(names)
            if coeff == "1" and key:
                parts.append(basis)
            elif coeff == "-1" and key:
                parts.append(f"-{basis}")
            elif p.is_constant() or not key:
                parts.append(f"{coeff}*{basis}" if key else coeff)
            else:
                parts.append(f"({coeff})*{basis}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"KForm({self.render()})"


def _form(m: int, degree: int, terms: dict) -> KForm:
    """A KForm over terms already valid: monomial keys, nonzero Polys in m variables."""
    out = KForm.__new__(KForm)
    out.m, out.degree, out.terms = m, degree, terms
    return out


class VectorField:
    """Vector field given by one Poly component per coordinate."""

    __slots__ = ("m", "components")

    def __init__(self, components: Sequence):
        comps = tuple(
            c if isinstance(c, Poly) else as_poly(c, len(components))
            for c in components
        )
        m = len(comps)
        for c in comps:
            if c.nvars != m:
                raise ValueError("component count must equal the chart dimension")
        self.m = m
        self.components = comps

    @classmethod
    def coordinate(cls, m: int, index: int) -> "VectorField":
        return cls([Poly.const(m, 1 if i == index else 0) for i in range(m)])

    def is_zero(self) -> bool:
        return not any(self.components)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.m != other.m:
            raise ValueError("vector fields on different charts")
        return _vector_field(self.m, (a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        if self.m != other.m:
            raise ValueError("vector fields on different charts")
        return _vector_field(self.m, (a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return _vector_field(self.m, (-a for a in self.components))

    def scaled(self, factor) -> "VectorField":
        f = factor if isinstance(factor, Poly) else Poly.const(self.m, factor)
        return _vector_field(self.m, (f * a for a in self.components))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.m == other.m and self.components == other.components

    def __hash__(self):
        return hash((self.m, self.components))

    def render(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i + 1}" for i in range(self.m)]
        parts = [
            f"({c.render(names)})*e_{names[i]}"
            for i, c in enumerate(self.components)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"VectorField({self.render()})"


def _vector_field(m: int, comps) -> VectorField:
    """A VectorField over m components already Polys in m variables."""
    out = VectorField.__new__(VectorField)
    out.m, out.components = m, tuple(comps)
    return out


class EndField:
    """Field of endomorphisms: an m x m matrix of Poly acting on components.

    Stored row-sparse: ``rows[i]`` maps each column with a nonzero entry in
    row i to that entry, in increasing column order.  ``entries`` is the
    dense view, built on each access.
    """

    __slots__ = ("m", "rows")

    def __init__(self, entries: Sequence[Sequence]):
        m = len(entries)
        if any(len(row) != m for row in entries):
            raise ValueError("endomorphism matrix must be square")
        rows = []
        for row in entries:
            sparse = {}
            for j, c in enumerate(row):
                p = c if isinstance(c, Poly) else as_poly(c, m)
                if p.nvars != m:
                    raise ValueError("entry over wrong variable count")
                if p.terms:
                    sparse[j] = p
            rows.append(sparse)
        self.m = m
        self.rows = tuple(rows)

    @property
    def entries(self) -> tuple[tuple[Poly, ...], ...]:
        """The dense matrix; every zero entry is one shared zero Poly."""
        zero = Poly.zero(self.m)
        return tuple(tuple(row.get(j, zero) for j in range(self.m)) for row in self.rows)

    @classmethod
    def identity(cls, m: int) -> "EndField":
        return _end_field(cls, m, [{i: Poly.const(m, 1)} for i in range(m)])

    @classmethod
    def zero(cls, m: int) -> "EndField":
        return _end_field(cls, m, [{} for _ in range(m)])

    @classmethod
    def from_fractions(cls, mat: Sequence[Sequence]) -> "EndField":
        m = len(mat)
        return cls([[Poly.const(m, x) for x in row] for row in mat])

    @classmethod
    def block_diag(cls, *blocks: "EndField") -> "EndField":
        m = sum(b.m for b in blocks)
        rows = []
        offset = 0
        for b in blocks:
            pad = (0,) * offset, (0,) * (m - offset - b.m)
            for row in b.rows:
                rows.append(
                    {
                        offset + j: p if b.m == m
                        else _poly(m, {pad[0] + e + pad[1]: c for e, c in p.terms.items()})
                        for j, p in row.items()
                    }
                )
            offset += b.m
        return _end_field(cls, m, rows)

    def is_constant(self) -> bool:
        return all(p.is_constant() for row in self.rows for p in row.values())

    def to_fractions(self) -> linalg.Matrix:
        """The constant entries as a dense matrix, ``int`` where integral."""
        if not self.is_constant():
            raise ValueError("endomorphism field is not constant")
        out = [[0] * self.m for _ in range(self.m)]
        for i, row in enumerate(self.rows):
            for j, p in row.items():
                out[i][j] = p.constant_value()
        return out

    def __mul__(self, other: "EndField") -> "EndField":
        """Gustavson's row-by-row product: each output row sums, per column,
        the products of its nonzero entries with the rows they select."""
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        m = self.m
        result = []
        for row in self.rows:
            sums: dict[int, dict] = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    _accumulate(sums.setdefault(j, {}), a.terms, b.terms)
            collected = ((j, _collect(m, sums[j])) for j in sorted(sums))
            result.append({j: p for j, p in collected if p.terms})
        return _end_field(EndField, m, result)

    def _combine(self, other: "EndField", negate: bool) -> "EndField":
        """self + other, or self - other, merged row by row."""
        result = []
        for r, s in zip(self.rows, other.rows):
            out = dict(r)
            grew = False
            for j, q in s.items():
                p = out.get(j)
                if p is None:
                    out[j] = -q if negate else q
                    grew = True
                    continue
                total = p - q if negate else p + q
                if total.terms:
                    out[j] = total
                else:
                    del out[j]
            result.append(dict(sorted(out.items())) if grew else out)
        return _end_field(EndField, self.m, result)

    def __add__(self, other: "EndField") -> "EndField":
        return self._combine(other, False)

    def __sub__(self, other: "EndField") -> "EndField":
        return self._combine(other, True)

    def __neg__(self) -> "EndField":
        return _end_field(EndField, self.m, [{j: -p for j, p in row.items()} for row in self.rows])

    def scaled(self, factor) -> "EndField":
        f = factor if isinstance(factor, Poly) else Poly.const(self.m, factor)
        rows = [{j: q for j, p in row.items() if (q := f * p)} for row in self.rows]
        return _end_field(EndField, self.m, rows)

    def transpose(self) -> "EndField":
        cols: list[dict[int, Poly]] = [{} for _ in range(self.m)]
        for i, row in enumerate(self.rows):
            for j, p in row.items():
                cols[j][i] = p
        return _end_field(EndField, self.m, cols)

    def apply(self, v: VectorField) -> VectorField:
        if self.m != v.m:
            raise ValueError("dimension mismatch")
        comps = v.components
        return _vector_field(
            self.m, (dot(self.m, ((p, comps[j]) for j, p in row.items())) for row in self.rows)
        )

    def first_asymmetry(self, sign: int = 1) -> tuple[int, int] | None:
        """The first (i, j), i <= j in row-major order, whose entry differs
        from ``sign`` times entry (j, i); None when there is none."""
        rows = self.rows
        found = [
            (min(i, j), max(i, j))
            for i, row in enumerate(rows)
            for j, p in row.items()
            if (q := rows[j].get(i)) is None or q != (p if sign > 0 else -p)
        ]
        return min(found, default=None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndField):
            return NotImplemented
        return self.m == other.m and self.rows == other.rows

    def __hash__(self):
        return hash((self.m, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m})"


def _end_field(cls, m: int, rows) -> EndField:
    """A ``cls`` over m sparse rows: nonzero Polys in m variables, increasing columns."""
    out = cls.__new__(cls)
    out.m = m
    out.rows = tuple(rows)
    return out


class Metric(EndField):
    """Symmetric endomorphism field read as a 2-tensor.

    Symmetry is enforced at construction.  Positive definiteness is a
    semantic property checked by the structure verifier (the inertia of g
    for constant metrics, of g at sample points otherwise), so that
    deliberately broken inputs can still be represented and diagnosed.
    """

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence]):
        super().__init__(entries)
        pair = self.first_asymmetry()
        if pair is not None:
            raise ValueError(f"metric not symmetric at entry {pair}")

    def evaluate(self, point: Sequence) -> linalg.Matrix:
        if len(point) != self.m:
            raise ValueError("point dimension mismatch")
        out = [[0] * self.m for _ in range(self.m)]
        for i, row in enumerate(self.rows):
            for j, p in row.items():
                out[i][j] = p.evaluate(point)
        return out

    def is_positive_definite_at(self, point: Sequence) -> bool:
        return linalg.signature(self.evaluate(point))[0] == self.m

    def is_positive_definite(self) -> bool:
        """The inertia of g is (m, 0, 0); constant metrics only."""
        return linalg.signature(self.to_fractions())[0] == self.m


# -- core operations --------------------------------------------------------


def _wedge(factor: list, v: dict) -> dict:
    """a ^ v for forms kept as dicts from monomial keys to nonzero
    coefficients, each an entry or a Poly, with the fixed factor a given as
    (key, coefficient, inversion mask) triples; with the masks of
    ``_inversion_mask(key, False)`` it is v ^ a.  Above the top degree every
    pair of keys shares an index, so the result is empty."""
    out: dict = {}
    for ka, x, mask in factor:
        for kv, y in v.items():
            if ka & kv:
                continue
            c = x * y
            if (kv & mask).bit_count() & 1:
                c = -c
            key = ka | kv
            z = out.get(key)
            out[key] = c if z is None else z + c
    return {key: c for key, c in out.items() if c}


def wedge_images(a: dict, vectors):
    """a ^ v for each v of ``vectors``, with a's inversion masks built once."""
    factor = [(key, x, _inversion_mask(key, True)) for key, x in a.items()]
    return (_wedge(factor, v) for v in vectors)


def sparse_wedge(a: dict, b: dict) -> dict:
    """a ^ b, with the inversion masks of the smaller factor's keys."""
    left = len(a) <= len(b)
    outer, inner = (a, b) if left else (b, a)
    return _wedge([(key, x, _inversion_mask(key, left)) for key, x in outer.items()], inner)


def _contract(comps: list, v: dict) -> dict:
    """i_X v for a form kept as in ``_wedge``, with X given as (2^i, 2^i - 1,
    component) for each index i of a nonzero component, an entry or a Poly.
    Contracting dx_K at index i gives the key K ^ 2^i and the sign
    (-1)^popcount(K & (2^i - 1))."""
    out: dict = {}
    for key, x in v.items():
        for bit, below, c in comps:
            if key & bit:
                y = -c * x if (key & below).bit_count() & 1 else c * x
                z = out.get(key ^ bit)
                out[key ^ bit] = y if z is None else z + y
    return {key: y for key, y in out.items() if y}


def contract_images(xi: dict, vectors):
    """i_X v for each v of ``vectors``; X maps each index to its nonzero
    component, and its bits are built once."""
    comps = [(1 << i, (1 << i) - 1, c) for i, c in xi.items()]
    return (_contract(comps, v) for v in vectors)


def sparse_contract(xi: dict, v: dict) -> dict:
    """i_X v, as in ``contract_images``."""
    return _contract([(1 << i, (1 << i) - 1, c) for i, c in xi.items()], v)


def wedge(alpha: KForm, beta: KForm) -> KForm:
    """Exterior product; graded-commutative and bilinear."""
    if alpha.m != beta.m:
        raise ValueError("forms on charts of different dimension")
    return _form(alpha.m, alpha.degree + beta.degree, sparse_wedge(alpha.terms, beta.terms))


def exterior_derivative(omega: KForm) -> KForm:
    """d on polynomial-coefficient forms: linear, d(d(.)) = 0, graded Leibniz.

    dx_j ^ dx_K has key K | 2^j and passes dx_j over the indices of K below j.
    """
    terms = (
        (key | 1 << j, -dp if (key & ((1 << j) - 1)).bit_count() & 1 else dp)
        for key, p in omega.terms.items()
        for j in range(omega.m)
        if not key >> j & 1 and (dp := p.diff(j))
    )
    return _form(omega.m, omega.degree + 1, linalg.sparse_sum(terms))


def interior_product(x: VectorField, omega: KForm) -> KForm:
    """Contraction i_X(omega); antiderivation of degree -1."""
    if x.m != omega.m:
        raise ValueError("vector field and form on different charts")
    if omega.degree == 0:
        raise ValueError("cannot contract a degree-0 form")
    xi = {i: c for i, c in enumerate(x.components) if c}
    return _form(omega.m, omega.degree - 1, sparse_contract(xi, omega.terms))


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i)."""
    if x.m != y.m:
        raise ValueError("vector fields on different charts")
    m = x.m
    comps = [
        dot(m, ((xj, yi.diff(j)) for j, xj in enumerate(x.components)))
        - dot(m, ((yj, xi.diff(j)) for j, yj in enumerate(y.components)))
        for xi, yi in zip(x.components, y.components)
    ]
    return _vector_field(m, comps)


# -- constant forms as sparse vectors -----------------------------------------


def form_vector(omega: KForm) -> linalg.SparseVector:
    """The constant form ``omega`` as a sparse vector over the monomial keys."""
    if not omega.is_constant():
        raise ValueError("only constant forms can be coordinatized")
    return {key: p.constant_value() for key, p in omega.terms.items()}


def vector_form(m: int, degree: int, v: linalg.SparseVector) -> KForm:
    """The constant degree-k form of a sparse vector over the monomial keys."""
    return _form(m, degree, {key: Poly.const(m, x) for key, x in v.items()})


class _Pullback:
    """A* on constant forms for a constant matrix A whose row i is A* dx_i.

    A* dx_K is memoized as the image of K without its highest index i wedged
    with row i, one wedge per new monomial, with the inversion masks of each
    row built once.  Entries are only ever added, each a fixed function of
    its key, so callers may share one instance freely.
    """

    def __init__(self, mat: linalg.Matrix):
        self.rows = [[(1 << j, x, _inversion_mask(1 << j, False)) for j, x in enumerate(row) if x] for row in mat]
        self.images: dict[int, linalg.SparseVector] = {0: {0: 1}}

    def image(self, key: int) -> linalg.SparseVector:
        found = self.images.get(key)
        if found is None:
            top = key.bit_length() - 1
            found = self.images[key] = _wedge(self.rows[top], self.image(key ^ 1 << top))
        return found

    def __call__(self, v: linalg.SparseVector) -> linalg.SparseVector:
        return linalg.sparse_sum(
            (key, c * x) for monomial, c in v.items() for key, x in self.image(monomial).items()
        )


def monomial_images(mat: linalg.Matrix, monomials) -> dict[int, linalg.SparseVector]:
    """A* dx_I for each monomial key I, as the wedge of the row images A* dx_i.

    Row i of ``mat`` is A* dx_i, so the coefficient of A* dx_I at dx_J is the
    minor det(A[I, J]).
    """
    pull = _Pullback(mat)
    return {key: pull.image(key) for key in monomials}


def _pulled_back(mat: linalg.Matrix, v: linalg.SparseVector) -> linalg.SparseVector:
    """A* v for a constant form given as a sparse vector."""
    return _Pullback(mat)(v)


def pullback(a: EndField, omega: KForm) -> KForm:
    """Slotwise pullback (A* w)(v1..vk) = w(A v1, .., A vk); constant data only.

    On a monomial dx_I this is the sum over increasing J of det(A[I, J]) dx_J.
    """
    if a.m != omega.m:
        raise ValueError("dimension mismatch")
    if not a.is_constant():
        raise ValueError("pullback requires a constant endomorphism field")
    if not omega.is_constant():
        raise ValueError("pullback requires constant coefficients")
    return vector_form(a.m, omega.degree, _pulled_back(a.to_fractions(), form_vector(omega)))


def _sqrt_fraction(value: linalg.Entry) -> linalg.Entry | None:
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return linalg.quotient(rn, rd)


class MetricError(ValueError):
    """The metric admits no exact Hodge star."""


class HodgeOperator:
    """Hodge star for a constant positive-definite metric.

    Defined by ``alpha ^ *(beta) = <alpha, beta> vol``, with the chart
    oriented by increasing coordinate order.  Requires det(g) to be the
    square of a rational so that the volume normalization stays exact.
    """

    def __init__(self, g: Metric):
        self.m = g.m
        if not g.is_positive_definite():
            raise MetricError("metric is degenerate or not positive definite")
        mat = g.to_fractions()
        sqrt_det = _sqrt_fraction(linalg.det(mat))
        if sqrt_det is None:
            raise MetricError(
                "det(g) is not a rational square; exact Hodge star unavailable"
            )
        self.inverse = linalg.inverse(mat)
        self._raise = _Pullback(self.inverse)
        self.sqrt_det = sqrt_det

    def volume(self) -> KForm:
        return KForm.monomial(self.m, tuple(range(self.m)), self.sqrt_det)

    def __call__(self, omega: KForm | linalg.SparseVector) -> KForm | linalg.SparseVector:
        """Raise omega once by G^-1, then send each dx_J to its signed complement.

        G^-1 is symmetric, so the coefficient det(G^-1[I, J]) of its pullback
        is the Gram determinant <dx_J, dx_I>.  The complement of J has key
        ``full ^ J``, and its sign is that of dx_J ^ dx_(full ^ J).  Takes
        and returns either a sparse vector or a constant KForm.
        """
        is_form = isinstance(omega, KForm)
        if is_form:
            if omega.m != self.m:
                raise ValueError("dimension mismatch")
            if not omega.is_constant():
                raise ValueError("Hodge star requires constant coefficients")
        scale = self.sqrt_det
        full = (1 << self.m) - 1
        starred = linalg.sparse_sum(
            (comp, -c * scale if (comp & _inversion_mask(key, True)).bit_count() & 1 else c * scale)
            for key, c in self._raise(form_vector(omega) if is_form else omega).items()
            for comp in (full ^ key,)
        )
        return vector_form(self.m, self.m - omega.degree, starred) if is_form else starred


def hodge_star(g: Metric, omega: KForm) -> KForm:
    return HodgeOperator(g)(omega)


def form_inner_product(g: Metric, alpha: KForm, beta: KForm) -> linalg.Entry:
    """Pointwise inner product of constant forms of equal degree."""
    if alpha.degree != beta.degree or alpha.m != beta.m:
        raise ValueError("forms of different type")
    if not g.is_positive_definite():
        raise MetricError("metric is degenerate or not positive definite")
    raised = _pulled_back(linalg.inverse(g.to_fractions()), form_vector(alpha))
    b = form_vector(beta)
    return sum(x * b[key] for key, x in raised.items() if key in b)


def volume_form(g: Metric) -> KForm:
    return HodgeOperator(g).volume()
