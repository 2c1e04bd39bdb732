"""Independent oracles used by the tests.

Nothing here calls the package's own higher-level machinery: quaternion
arithmetic is expanded from the defining relations, the so(4,1)
reference realization gets its structure constants, Killing form, and
signature from a separate small implementation, the Jacobi identity and
Killing invariance are dense loops over every triple of a constant table
(``jacobi_holds``, ``killing_invariant``), dense matrices are reduced
by a separate Gauss-Jordan elimination (``rref``), and constant forms are
pulled back and starred by one determinant per pair of index tuples.

The exception is the last section: ``invariant_forms_per_monomial`` and
``harmonic_by_wedges`` run on the package's sparse kernels (``linalg`` and
``exterior``) to pin the cohomology layer's invariant and harmonic bases to
the per-monomial orbit sums and the wedge-then-eliminate assembly, entry for
entry.  ``projector_components`` takes the harmonic bases and the e_alpha
blocks as given and splits them by products of projectors in plain dict
arithmetic, with its own elimination.  ``first_inconsistency`` replays, on
``small_operators`` and that split, every identity ``decompose`` once checked
in turn, and names the first that fails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from cosym3 import linalg
from cosym3.cohomology import BASIC, EPS_ORDER, CohomologyError, eps_label, harmonic_space, small_operators
from cosym3.exterior import form_vector, monomial_images, monomial_key, monomial_keys, sparse_wedge

# Quaternions as coefficient 4-tuples over the basis (1, i, j, k), with the
# products expanded from i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j.
_BASIS_PRODUCTS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quat_mul(x, y):
    out = [Fraction(0)] * 4
    for a in range(4):
        if not x[a]:
            continue
        for b in range(4):
            if not y[b]:
                continue
            sign, unit = _BASIS_PRODUCTS[(a, b)]
            out[unit] += sign * x[a] * y[b]
    return tuple(out)


def unit(name: str):
    idx = {"1": 0, "i": 1, "j": 2, "k": 3}[name.lstrip("-")]
    sign = -1 if name.startswith("-") else 1
    return tuple(Fraction(sign if a == idx else 0) for a in range(4))


def right_mult_matrix(u: str):
    """Column a of the matrix is (basis_a) * u, expanded by quat_mul."""
    cols = [quat_mul(unit(b), unit(u)) for b in ("1", "i", "j", "k")]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def left_mult_matrix(u: str):
    cols = [quat_mul(unit(u), unit(b)) for b in ("1", "i", "j", "k")]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def matrix_power_order(mat, bound=24):
    n = len(mat)
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    acc = [row[:] for row in mat]
    for r in range(1, bound + 1):
        if acc == ident:
            return r
        acc = [
            [sum(acc[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return None


# -- so(4,1) reference realization --------------------------------------------


def so41_generators():
    """The ten 5x5 generators E_ab eta_bb - E_ba eta_aa for eta = diag(1,1,1,1,-1)."""
    eta = [1, 1, 1, 1, -1]
    gens = []
    for a in range(5):
        for b in range(a + 1, 5):
            mat = [[Fraction(0)] * 5 for _ in range(5)]
            mat[a][b] = Fraction(eta[b])
            mat[b][a] = Fraction(-eta[a])
            gens.append(mat)
    return gens


def rref(mat):
    """Reduced row echelon form over Fractions and the pivot columns, by
    Gauss-Jordan elimination with first-nonzero pivoting on dense rows.
    Independent of the package's linalg module."""
    a = [[Fraction(x) for x in row] for row in mat]
    cols = len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pivot = a[r][c]
        a[r] = [x / pivot for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def kernel_basis(mat):
    """One null vector per free column: 1 there, 0 at the other free columns."""
    cols = len(mat[0]) if mat else 0
    red, pivots = rref(mat)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(cols)]
        for row, c in zip(red, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def _solve_exact(a, b):
    """The solution of a x = b that is 0 at the free columns; None if
    inconsistent."""
    cols = len(a[0]) if a else 0
    red, pivots = rref([list(row) + [y] for row, y in zip(a, b)])
    if cols in pivots:
        return None
    sol = [Fraction(0)] * cols
    for row, c in zip(red, pivots):
        sol[c] = row[cols]
    return sol


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def sparse_matrix(blocks, shift=0):
    """An operator given by dense blocks, one per degree, as a sparse matrix:
    entry (i, j) of block k gets the key ((k + shift, i), (k, j)).  A plain
    square matrix is ``{0: matrix}``."""
    return {
        ((k + shift, i), (k, j)): x
        for k, block in blocks.items()
        for i, row in enumerate(block)
        for j, x in enumerate(row)
        if x
    }


def structure_constants(gens):
    """c with [X_i, X_j] = sum_k c[i][j][k] X_k, solved independently."""
    count = len(gens)
    size = len(gens[0])
    cols = [
        [gens[g][r][c] for g in range(count)]
        for r in range(size)
        for c in range(size)
    ]
    consts = [[None] * count for _ in range(count)]
    for i in range(count):
        for j in range(count):
            br = [
                [
                    sum(gens[i][r][k] * gens[j][k][c] for k in range(size))
                    - sum(gens[j][r][k] * gens[i][k][c] for k in range(size))
                    for c in range(size)
                ]
                for r in range(size)
            ]
            vec = [br[r][c] for r in range(size) for c in range(size)]
            sol = _solve_exact(cols, vec)
            assert sol is not None, "reference algebra failed to close"
            consts[i][j] = sol
    return consts


def killing_matrix(consts):
    count = len(consts)
    ad = []
    for i in range(count):
        mat = [[Fraction(0)] * count for _ in range(count)]
        for j in range(count):
            for k in range(count):
                mat[k][j] = consts[i][j][k]
        ad.append(mat)
    return [
        [
            sum(
                sum(ad[i][r][k] * ad[j][k][r] for k in range(count))
                for r in range(count)
            )
            for j in range(count)
        ]
        for i in range(count)
    ]


def jacobi_holds(consts):
    """[x_i, [x_j, x_l]] + [x_j, [x_l, x_i]] + [x_l, [x_i, x_j]] = 0 for every
    triple (i, j, l), each double bracket expanded in the constants."""
    count = len(consts)

    def double(a, b, c, p):
        # Coordinate p of [x_a, [x_b, x_c]].
        return sum(consts[b][c][m] * consts[a][m][p] for m in range(count))

    return not any(
        double(i, j, l, p) + double(j, l, i, p) + double(l, i, j, p)
        for i in range(count)
        for j in range(count)
        for l in range(count)
        for p in range(count)
    )


def killing_invariant(consts):
    """K([x_i, x_j], x_l) + K(x_j, [x_i, x_l]) = 0 for every triple (i, j, l),
    with K from ``killing_matrix``."""
    count = len(consts)
    kill = killing_matrix(consts)
    return not any(
        sum(consts[i][j][m] * kill[m][l] + consts[i][l][m] * kill[j][m] for m in range(count))
        for i in range(count)
        for j in range(count)
        for l in range(count)
    )


def symmetric_signature(mat):
    """Inertia by repeated completion of squares; independent implementation."""
    n = len(mat)
    m = [row[:] for row in mat]
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        pivot = next((i for i in active if m[i][i]), None)
        if pivot is None:
            found = None
            for i in active:
                for j in active:
                    if i < j and m[i][j]:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                zero += len(active)
                break
            i, j = found
            for c in range(n):
                m[i][c] = m[i][c] + m[j][c]
            for r in range(n):
                m[r][i] = m[r][i] + m[r][j]
            pivot = i
        d = m[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            if m[i][pivot]:
                factor = m[i][pivot] / d
                for c in range(n):
                    m[i][c] = m[i][c] - factor * m[pivot][c]
                for r in range(n):
                    m[r][i] = m[r][i] - factor * m[r][pivot]
    return pos, neg, zero


def so41_killing_signature():
    consts = structure_constants(so41_generators())
    kill = killing_matrix(consts)
    return symmetric_signature(kill), kill


# -- constant forms by minor and Gram determinants ----------------------------
#
# A constant k-form is a dict from increasing index tuples to Fractions.


def det(mat):
    """Determinant by exact Gaussian elimination; 1 for the empty matrix."""
    a = [[Fraction(x) for x in row] for row in mat]
    out = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def minor_pullback(mat, form):
    """A* of a constant form: dx_I goes to the sum over J of det(A[I, J]) dx_J."""
    out = {}
    for key, c in form.items():
        for target in combinations(range(len(mat)), len(key)):
            d = det([[mat[i][j] for j in target] for i in key])
            out[target] = out.get(target, Fraction(0)) + c * d
    return {key: x for key, x in out.items() if x}


def _inverse(mat):
    """The right half of the reduced echelon form of [mat | I]; mat must be
    invertible."""
    n = len(mat)
    red, _ = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)])
    return [row[n:] for row in red]


def pullback_matrix(mat, q):
    """Dense matrix of A* on constant q-forms, column t the minors of A* dx_t."""
    tuples = list(combinations(range(len(mat)), q))
    images = {t: minor_pullback(mat, {t: Fraction(1)}) for t in tuples}
    return [[images[t].get(s, Fraction(0)) for t in tuples] for s in tuples]


def _gram(inv, left, right):
    return det([[inv[i][j] for j in right] for i in left])


def gram_inner(g, alpha, beta):
    """<alpha, beta> with <dx_I, dx_J> = det(G^-1[I, J])."""
    inv = _inverse(g)
    return sum(
        (a * b * _gram(inv, ka, kb) for ka, a in alpha.items() for kb, b in beta.items()),
        Fraction(0),
    )


def perm_sign(seq):
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def gram_star(g, form):
    """*form from alpha ^ *beta = <alpha, beta> vol, one Gram determinant per pair.

    *dx_I = sqrt(det g) sum_J <dx_J, dx_I> sign(J, J^c) dx_{J^c}.
    """
    m = len(g)
    d = det(g)
    root = Fraction(math.isqrt(d.numerator), math.isqrt(d.denominator))
    assert root * root == d, "det(g) is not a rational square"
    inv = _inverse(g)
    out = {}
    for key, c in form.items():
        for other in combinations(range(m), len(key)):
            comp = tuple(i for i in range(m) if i not in other)
            inner = _gram(inv, other, key)
            out[comp] = out.get(comp, Fraction(0)) + c * inner * root * perm_sign(other + comp)
    return {key: x for key, x in out.items() if x}


# Polynomials as term dicts {exponent tuple: Fraction}, every coefficient a
# Fraction: the arithmetic of the Fraction-only Poly, kept as the reference
# for the int-when-integral coefficients.


def poly_mul(t1, t2):
    """Product of two term dicts."""
    prod = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            total = prod.get(expo, Fraction(0)) + Fraction(c1) * Fraction(c2)
            if total:
                prod[expo] = total
            elif expo in prod:
                del prod[expo]
    return prod


def poly_dot(pairs):
    """Sum of ``poly_mul(a, b)`` over the pairs of term dicts."""
    acc = {}
    for a, b in pairs:
        for expo, c in poly_mul(a, b).items():
            acc[expo] = acc.get(expo, Fraction(0)) + c
    return {expo: c for expo, c in acc.items() if c}


def poly_add(t1, t2, sign=1):
    """t1 + sign * t2 of two term dicts."""
    total = {expo: Fraction(c) for expo, c in t1.items()}
    for expo, c in t2.items():
        total[expo] = total.get(expo, Fraction(0)) + sign * Fraction(c)
    return {expo: c for expo, c in total.items() if c}


def poly_diff(t, index):
    """Partial derivative of a term dict by variable ``index``."""
    out = {}
    for expo, c in t.items():
        if expo[index]:
            lowered = expo[:index] + (expo[index] - 1,) + expo[index + 1 :]
            out[lowered] = Fraction(c) * expo[index]
    return out


def leading_minors_positive(mat):
    """Sylvester's criterion the long way: every leading minor, each its own det."""
    return all(det([row[:k] for row in mat[:k]]) > 0 for k in range(1, len(mat) + 1))


# Endomorphism fields as dense m x m lists of term dicts, every entry stored,
# zeros as empty dicts.


def dense_mul(a, b):
    """ab for dense matrices whose entries are all term dicts or all rationals."""
    terms = bool(a and a[0]) and isinstance(a[0][0], dict)

    def dot(pairs):
        return poly_dot(pairs) if terms else sum((x * y for x, y in pairs), Fraction(0))

    return [[dot((row[k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]) if b else 0)] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def dense_add(a, b, sign=1):
    return [[poly_add(x, y, sign) for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_transpose(a):
    return [list(col) for col in zip(*a)]


def dense_apply(a, v):
    return [poly_dot(zip(row, v)) for row in a]


def first_asymmetric_pair(a):
    """The first (i, j), i < j, in row-major order with a[i][j] != a[j][i]."""
    m = len(a)
    return next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j] != a[j][i]), None)


# Polynomial forms as dicts {increasing index tuple: term dict}: the per-term
# loops that built KForm results before they called the shared sparse
# kernels.  Each product is added into its key as it is made, and the key is
# dropped when its sum cancels.


def _add_into(out, key, sign, terms):
    """out[key] += sign * terms, dropping the key when the sum cancels."""
    total = poly_add(out.get(key, {}), terms, sign)
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def _sorted_sign(key):
    """The sorted index tuple and its permutation sign, 0 on a repeated index."""
    return tuple(sorted(key)), perm_sign(key) if len(set(key)) == len(key) else 0


def form_normalize(pairs):
    """The form of (index tuple, term dict) pairs given in any index order."""
    out = {}
    for key, terms in pairs:
        key, sign = _sorted_sign(key)
        if sign:
            _add_into(out, key, sign, terms)
    return out


def form_add(a, b, sign=1):
    """a + sign * b."""
    out = dict(a)
    for key, terms in b.items():
        _add_into(out, key, sign, terms)
    return out


def form_scale(a, factor):
    return {key: p for key, terms in a.items() if (p := poly_mul(factor, terms))}


def form_wedge(a, b):
    out = {}
    for ka, ta in a.items():
        for kb, tb in b.items():
            key, sign = _sorted_sign(ka + kb)
            if sign:
                _add_into(out, key, sign, poly_mul(ta, tb))
    return out


def form_d(a, m):
    """d a = sum over j of dx_j ^ (d_j a)."""
    out = {}
    for key, terms in a.items():
        for j in range(m):
            new_key, sign = _sorted_sign((j,) + key)
            if sign:
                _add_into(out, new_key, sign, poly_diff(terms, j))
    return out


def form_contract(x, a):
    """i_X a for X given as a list of term dicts, one per coordinate."""
    out = {}
    for key, terms in a.items():
        for pos, idx in enumerate(key):
            sign = -1 if pos % 2 else 1
            _add_into(out, key[:pos] + key[pos + 1 :], sign, poly_mul(x[idx], terms))
    return out


def lie_bracket(x, y):
    """[X, Y]^i = sum_j (X^j d_j Y^i - Y^j d_j X^i) for lists of term dicts."""
    out = []
    for xi, yi in zip(x, y):
        total = {}
        for j, (xj, yj) in enumerate(zip(x, y)):
            total = poly_add(total, poly_mul(xj, poly_diff(yi, j)))
            total = poly_add(total, poly_mul(yj, poly_diff(xi, j)), -1)
        out.append(total)
    return out


# -- per-monomial references for the cohomology layer -------------------------


def invariant_forms_per_monomial(a, q, order):
    """Reduced echelon basis of the a*-invariant constant q-forms, for a
    constant ``EndField`` a of the given order: one orbit sum of dx_I per
    degree-q monomial I, then one elimination of all the sums."""
    images = monomial_images(a.to_fractions(), monomial_keys(a.m, q))
    columns = []
    for t in images:
        orbit = [{t: 1}]
        for _ in range(order - 1):
            orbit.append(linalg.sparse_sum(
                (key, c * x) for s, c in orbit[-1].items() for key, x in images[s].items()
            ))
        columns.append(linalg.sparse_sum(term for v in orbit for term in v.items()))
    return linalg.sparse_rref(columns)


def harmonic_by_wedges(fibers, d, k):
    """Reduced echelon basis of the harmonic k-forms of a mapping torus with
    fiber dimension d: every dt_S ^ w with w in ``fibers[k - |S|]``, the
    t-indices d..d+2, wedged and then eliminated."""
    forms = []
    for p in range(4):
        q = k - p
        if 0 <= q <= d:
            for t_set in combinations(range(d, d + 3), p):
                forms.extend(sparse_wedge({monomial_key(t_set): 1}, w) for w in fibers[q])
    return linalg.sparse_rref(forms)


def _dict_product(a, b):
    """ab for matrices given as dicts keyed (row, column)."""
    rows = {}
    for (r, c), y in b.items():
        rows.setdefault(r, []).append((c, y))
    out = {}
    for (r, k), x in a.items():
        for c, y in rows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + x * y
    return {key: x for key, x in out.items() if x}


def _dict_rref(vectors):
    """Reduced echelon basis of the span of dict vectors, in pivot order: each
    vector is 1 at its smallest key and every other one is 0 there."""
    rows = {}
    for vec in vectors:
        v = {key: Fraction(x) for key, x in vec.items() if x}
        while v:
            p = min(v)
            if p not in rows:
                rows[p] = {key: x / v[p] for key, x in v.items()}
                break
            f = v[p]
            for key, x in rows[p].items():
                y = v.get(key, 0) - f * x
                if y:
                    v[key] = y
                else:
                    del v[key]
    for p in sorted(rows, reverse=True):
        row = rows[p]
        for q in [key for key in row if key != p and key in rows]:
            f = row[q]
            for key, x in rows[q].items():
                y = row.get(key, 0) - f * x
                if y:
                    row[key] = y
                else:
                    del row[key]
    return [rows[p] for p in sorted(rows)]


def projector_components(bases, e):
    """The eightfold split of the harmonic spaces as projector images.

    ``bases[k]`` is the reduced echelon basis of the harmonic k-forms and
    ``e[alpha][k]`` the matrix of e_(alpha+1) on it, keyed (row, column).
    The component (k, eps) is the reduced echelon basis of the image of
    prod_alpha (eps_alpha e_alpha + (1 - eps_alpha)(1 - e_alpha)), found in
    coordinates and mapped back to forms; the basis vectors are 1 at their
    own pivots and 0 at the others, so this keeps the forms reduced.
    """
    out = {}
    for k, basis in enumerate(bases):
        parts = {(): {(i, i): 1 for i in range(len(basis))}}
        for blocks in e:
            split = {}
            for eps, part in parts.items():
                on = _dict_product(blocks.get(k, {}), part)
                off = dict(part)
                for key, x in on.items():
                    off[key] = off.get(key, 0) - x
                split[eps + (1,)] = on
                split[eps + (0,)] = {key: x for key, x in off.items() if x}
            parts = split
        for eps, part in parts.items():
            columns = {}
            for (r, c), x in part.items():
                columns.setdefault(c, {})[r] = x
            forms = []
            for coords in _dict_rref(columns[c] for c in sorted(columns)):
                form = {}
                for i, c in coords.items():
                    for key, x in basis[i].items():
                        form[key] = form.get(key, 0) + c * x
                forms.append({key: x for key, x in form.items() if x})
            out[k, eps] = forms
    return out


def first_inconsistency(space, t):
    """The first failed identity of a constant compact model, in the order
    ``decompose`` once checked them all, or None when every one holds.

    In order: ``cohomology.small_operators`` (l_alpha and lambda_alpha keep the
    harmonic forms); at each degree, every e_alpha idempotent and every pair
    commuting; eta_beta(xi_alpha) = delta_alpha_beta; and on the components of
    ``projector_components``, the dimensions summing to b_k and each matching
    the basic Betti number that its weight shifts to.  The messages are the
    ones ``decompose`` raises.
    """
    m = t.m
    try:
        ops = small_operators(space, t)
    except CohomologyError as exc:
        return str(exc)
    e = [ops[f"e{alpha}"].sparse_blocks for alpha in (1, 2, 3)]
    for k in range(m + 1):
        for a in range(3):
            if _dict_product(e[a][k], e[a][k]) != e[a][k]:
                return f"e{a + 1} is not idempotent on degree {k}"
            for b in range(a + 1, 3):
                if _dict_product(e[a][k], e[b][k]) != _dict_product(e[b][k], e[a][k]):
                    return f"e{a + 1} and e{b + 1} do not commute on degree {k}"
    for alpha in (1, 2, 3):
        xi = t.structure(alpha).xi.components
        for beta in (1, 2, 3):
            eta = form_vector(t.structure(beta).eta)
            value = sum(eta.get(1 << i, 0) * p.constant_value() for i, p in enumerate(xi))
            if value != (alpha == beta):
                return f"eta{beta}(xi{alpha}) = {value}, expected {int(alpha == beta)}"
    bases = [harmonic_space(space, t, k) for k in range(m + 1)]
    parts = projector_components(bases, e)
    bh = [len(parts[k, BASIC]) for k in range(m + 1)]
    for k in range(m + 1):
        total = sum(len(parts[k, eps]) for eps in EPS_ORDER)
        if total != len(bases[k]):
            return f"eigenspace dimensions at degree {k} sum to {total}, expected {len(bases[k])}"
        for eps in EPS_ORDER:
            j = k - sum(eps)
            expected = bh[j] if 0 <= j <= m else 0
            if len(parts[k, eps]) != expected:
                return f"dim of component {eps_label(eps)} at degree {k} is {len(parts[k, eps])}, expected {expected}"
    return None
