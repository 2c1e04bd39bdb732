"""Exact linear algebra over the rationals.

An entry is an exact rational: an ``int`` when it is integral and a
``Fraction`` otherwise (sums of ``Fraction``s may leave a ``Fraction`` with
denominator 1, which compares and hashes equal to its ``int``).  This module
keeps that rule: ``parse_rational`` reads every rational string, every
division goes through ``quotient``, so no ``float`` can appear, and every
sparse vector it returns holds an ``int`` wherever the value is integral.
Sparse vectors are dicts from ordered keys to nonzero entries, and sparse
matrices are sparse vectors keyed by (row, column) pairs.  One Gauss-Jordan
elimination, ``sparse_rref``, serves everything: the dense ``rref``,
``kernel_basis`` and ``inverse`` on lists of lists of entries are views of
it.  Everything here is deterministic: pivots are chosen by
position, never by magnitude, and kernel and row-space bases are
reduced-echelon vectors taken in column order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, combinations

Entry = int | Fraction
Matrix = list[list[Entry]]
Vector = list[Entry]
SparseVector = dict  # key -> nonzero entry; keys are ordered columns
SparseMatrix = dict  # (row, column) -> nonzero entry; a SparseVector


def exact(x) -> Entry:
    """An exact rational as an entry: the ``int`` when it is integral."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def quotient(x: Entry, y: Entry) -> Entry:
    """x / y exactly: an ``int`` when the quotient is whole, else a ``Fraction``."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return exact(x / y)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Entry:
    """``p`` or ``p/q`` in ASCII digits as an entry; unlike ``Fraction``, no
    spaces, decimals or exponents, so ``"1e100000000"`` is refused before it
    is expanded."""
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise ValueError(f"not a rational p/q: {text!r}")
    return quotient(int(match[1]), int(match[2] or 1))


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def _sparse_rows(a: Matrix):
    return ({j: x for j, x in enumerate(row) if x} for row in a)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns: the rows of
    ``sparse_rref`` laid out densely, padded with zero rows to ``len(a)``."""
    cols = len(a[0]) if a else 0
    rows = sparse_rref(_sparse_rows(a))
    red = [[row.get(j, 0) for j in range(cols)] for row in rows]
    return red + zeros(len(a) - len(rows), cols), [min(row) for row in rows]


def kernel_basis(a: Matrix) -> list[Vector]:
    """Canonical basis of the null space, one vector per free column: the
    vectors of ``sparse_kernel`` laid out densely."""
    cols = len(a[0]) if a else 0
    return [[v.get(j, 0) for j in range(cols)] for v in sparse_kernel(_sparse_rows(a), cols)]


def add_scaled(v: SparseVector, c: Entry, w: SparseVector) -> None:
    """v += c * w in place, dropping entries that cancel."""
    for key, x in w.items():
        y = v.get(key, 0) + c * x
        if y:
            v[key] = y
        else:
            v.pop(key, None)


def sparse_sum(terms) -> SparseVector:
    """The sum of (key, value) pairs as a sparse vector.

    A value may be an entry or a ``Poly``: both are false exactly when zero,
    so the sums that cancel are dropped either way.  The first value of a
    key is kept as it is, not copied by adding it to ``0``.
    """
    out: SparseVector = {}
    for key, x in terms:
        y = out.get(key)
        out[key] = x if y is None else y + x
    return {key: x.numerator if type(x) is Fraction and x.denominator == 1 else x for key, x in out.items() if x}


def _rows(b: SparseMatrix) -> dict:
    """The nonzero rows of a sparse matrix, each a list of (column, entry)."""
    rows: dict = {}
    for (r, c), y in b.items():
        rows.setdefault(r, []).append((c, y))
    return rows


def _product_terms(a: SparseMatrix, rows: dict, sign: int = 1):
    """The terms sign * a[r, k] * b[k, c] of sign * ab, keyed (r, c), for b
    given by its ``_rows``."""
    return (((r, c), sign * x * y) for (r, k), x in a.items() for c, y in rows.get(k, ()))


def sparse_product(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """ab, summing products of nonzero entries only."""
    return sparse_sum(_product_terms(a, _rows(b)))


def sparse_commutators(mats) -> dict[tuple[int, int], SparseMatrix]:
    """[a_i, a_j] = a_i a_j - a_j a_i for every i < j, keyed (i, j), summing
    products of nonzero entries only; each matrix's rows are grouped once."""
    mats = list(mats)
    rows = [_rows(a) for a in mats]
    return {
        (i, j): sparse_sum(chain(_product_terms(mats[i], rows[j]), _product_terms(mats[j], rows[i], -1)))
        for i, j in combinations(range(len(mats)), 2)
    }


def sparse_commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """ab - ba, as in ``sparse_commutators``."""
    return sparse_commutators((a, b))[0, 1]


def sparse_rref(vectors) -> list[SparseVector]:
    """Canonical (reduced echelon) basis of the span of sparse vectors.

    The pivot of a basis vector is its smallest key, where it has entry 1;
    every other basis vector is 0 there.  Vectors come out in pivot order, so
    the result is the nonzero rows of ``rref`` of the dense rows.
    """
    rows: dict = {}
    for vec in vectors:
        v = {key: x for key, x in vec.items() if x}
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                c = v[p]
                rows[p] = {key: quotient(x, c) for key, x in v.items()}
                break
            add_scaled(v, -v[p], row)
    # Back substitution, largest pivot first: a row that is already reduced
    # is 0 at every other pivot, so subtracting it disturbs no other pivot.
    for p in sorted(rows, reverse=True):
        row = rows[p]
        for q in [key for key in row if key != p and key in rows]:
            add_scaled(row, -row[q], rows[q])
        rows[p] = {key: x.numerator if type(x) is Fraction and x.denominator == 1 else x for key, x in row.items()}
    return [rows[p] for p in sorted(rows)]


def sparse_kernel(rows, cols: int) -> list[SparseVector]:
    """Canonical basis of the null space of the matrix with the given sparse
    rows over columns 0..cols-1: one vector per free column f, 1 at f, 0 at
    every other free column and -r[f] at the pivot of each reduced row r.

    A reduced row is 0 at every other pivot, so each of its entries off its
    pivot lands in the vector of a free column: every entry is read once.
    """
    reduced = {min(row): row for row in sparse_rref(rows)}
    basis = {f: {f: 1} for f in range(cols) if f not in reduced}
    for p, row in reduced.items():
        for key, x in row.items():
            if key != p:
                basis[key][p] = -x
    return list(basis.values())


def inverse(a: Matrix) -> Matrix:
    """a^-1 as the right half of the reduced echelon form of [a | I]."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    rows = sparse_rref({**row, n + i: 1} for i, row in enumerate(_sparse_rows(a)))
    if [min(row) for row in rows] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, 0) for j in range(n)] for row in rows]


class EchelonBasis:
    """A reduced echelon basis (as from ``sparse_rref``) and its pivot index.

    Every basis vector is 1 at its own pivot and 0 at all others, so the
    coordinates of a vector in the span are its entries at the pivots.
    """

    __slots__ = ("vectors", "index")

    def __init__(self, vectors: list[SparseVector]):
        self.vectors = tuple(vectors)
        self.index = {min(v): i for i, v in enumerate(self.vectors)}

    def __len__(self) -> int:
        return len(self.vectors)

    def coordinates(self, vec: SparseVector) -> dict[int, Entry] | None:
        """Coordinates of the sparse vector ``vec``, verified exactly; None
        outside the span."""
        mat = self.columns((vec,))
        return None if type(mat) is int else {i: c for (i, _), c in mat.items()}

    def columns(self, images) -> SparseMatrix | int:
        """The matrix, keyed (row, col), whose column j holds the coordinates
        of the j-th of the sparse vectors ``images``, each verified exactly
        by subtracting its combination of the basis; or the index of the
        first image outside the span, where the images stop being read."""
        index, vectors = self.index, self.vectors
        out: SparseMatrix = {}
        for j, vec in enumerate(images):
            rest = dict(vec)
            for key, c in vec.items():
                i = index.get(key)
                if i is None:
                    continue
                out[i, j] = c.numerator if type(c) is Fraction and c.denominator == 1 else c
                for k, x in vectors[i].items():
                    y = rest.get(k, 0) - c * x
                    if y:
                        rest[k] = y
                    else:
                        rest.pop(k, None)
            if rest:
                return j
        return out


def det(a: Matrix) -> Entry:
    n = len(a)
    m = copy_matrix(a)
    result = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        p = m[c][c]
        result *= p
        for i in range(c + 1, n):
            if m[i][c]:
                f = quotient(m[i][c], p)
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[c])]
    return exact(result)


def signature(a: Matrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    Diagonalization by congruence with exact pivots, each step replacing the
    remaining block by its Schur complement; when that block has a zero
    diagonal, adding one row and column to another creates a usable pivot.
    By Sylvester's law of inertia this decides positive definiteness (all
    n positive) and the rank (positive + negative) in one elimination.
    """
    n = len(a)
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    m = copy_matrix(a)
    pos = neg = 0
    live = list(range(n))
    while live:
        k = next((i for i in live if m[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in live for j in live if m[i][j]), None)
            if pair is None:
                break
            # x_i -> x_i + x_j makes entry (i, i) equal to 2 m[i][j] != 0.
            k, j = pair
            for c in live:
                m[k][c] += m[j][c]
            for r in live:
                m[r][k] += m[r][j]
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        live.remove(k)
        pivot_row = m[k]
        for i in live:
            if m[i][k]:
                f = quotient(m[i][k], p)
                row = m[i]
                for j in live:
                    row[j] -= f * pivot_row[j]
    return pos, neg, n - pos - neg


def matrix_order(a: Matrix, bound: int) -> int | None:
    """Smallest r <= bound with a^r = I, or None if there is none; a power with
    |trace| > n ends the search (finite order makes every eigenvalue a root of unity)."""
    mat = {(i, j): x for i, row in enumerate(_sparse_rows(a)) for j, x in row.items()}
    ident = {(i, i): 1 for i in range(len(a))}
    acc = mat
    for r in range(1, bound + 1):
        if acc == ident:
            return r
        if abs(sum(acc.get(key, 0) for key in ident)) > len(a):
            return None
        acc = sparse_product(acc, mat)
    return 1 if not a else None
