"""Exact linear algebra over the rationals.

Small dense matrices as lists of lists of ``Fraction``.  Everything here is
deterministic: pivots are chosen by position, never by magnitude, and kernel
and row-space bases are reduced-echelon vectors taken in column order.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        orow = out[i]
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    y = brow[j]
                    if y:
                        orow[j] += x * y
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        total = Fraction(0)
        for x, y in zip(row, v):
            if x and y:
                total += x * y
        out.append(total)
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]


def mat_scale(a: Matrix, c: Fraction) -> Matrix:
    return [[c * x for x in row] for row in a]


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy_matrix(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def row_space_basis(a: Matrix) -> list[Vector]:
    """Canonical (reduced echelon) basis of the row space."""
    red, pivots = rref(a)
    return [red[i] for i in range(len(pivots))]


def kernel_basis(a: Matrix) -> list[Vector]:
    """Canonical basis of the null space, one vector per free column."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    red, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve_many(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve ``a @ x = b`` column by column; None if any column is inconsistent.

    When the system is underdetermined the canonical solution with zero free
    variables is returned, so results are reproducible.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    nrhs = len(b[0]) if b else 0
    if len(b) != rows:
        raise ValueError("right-hand side has wrong number of rows")
    aug = [a[i][:] + b[i][:] for i in range(rows)] if rows else []
    red, pivots = rref(aug) if rows else ([], [])
    for r in range(len(pivots)):
        if pivots[r] >= cols:
            return None
    for r in range(len(pivots), rows):
        if any(red[r][cols:]):
            return None
    x = zeros(cols, nrhs)
    for r, pc in enumerate(pivots):
        for j in range(nrhs):
            x[pc][j] = red[r][cols + j]
    return x


def solve(a: Matrix, b: Vector) -> Vector | None:
    res = solve_many(a, [[v] for v in b])
    if res is None:
        return None
    return [row[0] for row in res]


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    res = solve_many(a, identity(n))
    if res is None or rank(a) != n:
        raise ValueError("matrix is singular")
    return res


def det(a: Matrix) -> Fraction:
    n = len(a)
    if n == 0:
        return Fraction(1)
    m = copy_matrix(a)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[c])]
    return result * sign


def signature(a: Matrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    Diagonalization by congruence with exact pivots; when the remaining block
    has a zero diagonal, a row/column addition creates a usable pivot.
    """
    n = len(a)
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    m = copy_matrix(a)
    pos = neg = zero = 0
    live = list(range(n))
    while live:
        k = next((i for i in live if m[i][i]), None)
        if k is None:
            pair = None
            for i in live:
                for j in live:
                    if i != j and m[i][j]:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(live)
                break
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            k = i
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        live.remove(k)
        for i in live:
            if m[i][k]:
                f = m[i][k] / p
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
    return pos, neg, zero


def matrix_order(a: Matrix, bound: int) -> int | None:
    """Smallest r <= bound with a^r = I, or None if no such power exists."""
    n = len(a)
    ident = identity(n)
    acc = copy_matrix(a) if n else []
    for r in range(1, bound + 1):
        if acc == ident:
            return r
        acc = mat_mul(acc, a)
    return 1 if n == 0 else None
