import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cosym3 import linalg

import oracles
import randgen


def F(x, y=1):
    return Fraction(x, y)


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert linalg.rref(oracles.identity(4))[1] == [0, 1, 2, 3]


def test_kernel_basis():
    m = [[F(1), F(2), F(3)]]
    basis = linalg.kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert oracles.mat_vec(m, v) == [F(0)]
    # canonical: one unit per free column
    assert basis[0][1] == 1 and basis[1][2] == 1
    assert basis == oracles.kernel_basis(m)


def test_solve_and_inverse():
    a = [[F(2), F(1)], [F(1), F(3)]]
    inv = linalg.inverse(a)
    assert inv == oracles._inverse(a)
    assert oracles.dense_mul(a, inv) == oracles.identity(2)
    x = [row[0] for row in oracles.dense_mul(inv, [[F(5)], [F(10)]])]
    assert x == oracles._solve_exact(a, [F(5), F(10)])
    assert oracles.mat_vec(a, x) == [F(5), F(10)]
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])
    for shape in ([[F(0)], [F(0)]], [[F(1), F(2)]]):
        with pytest.raises(ValueError, match="not square"):
            linalg.inverse(shape)


def test_det():
    assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert linalg.det([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert linalg.det([]) == 1


def test_signature():
    assert linalg.signature([[F(2), F(0)], [F(0), F(-3)]]) == (1, 1, 0)
    assert linalg.signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert linalg.signature(linalg.zeros(3, 3)) == (0, 0, 3)
    # Killing form of so(3) is -2I
    assert linalg.signature([[F(-2) if i == j else F(0) for j in range(3)] for i in range(3)]) == (0, 3, 0)
    with pytest.raises(ValueError):
        linalg.signature([[F(0), F(1)], [F(2), F(0)]])


def test_signature_of_zero_diagonal_matrices():
    # With a zero diagonal the first pivot comes from the pair step, which
    # adds one row and column to another; later blocks may need it again.
    a = [[0, 0, 0, 0, 2], [0, 0, -1, 2, 1], [0, -1, 0, 0, 1], [0, 2, 0, 0, 0], [2, 1, 1, 0, 0]]
    assert linalg.signature(a) == (2, 2, 1)
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.choice([0, 0, 1, -1, 2])
        pos, neg, zero = linalg.signature(a)
        assert (pos, neg, zero) == oracles.symmetric_signature([[F(x) for x in row] for row in a])
        assert pos + neg == len(oracles.rref(a)[1])


def test_matrix_order():
    rot = [[F(0), F(-1)], [F(1), F(0)]]
    assert linalg.matrix_order(rot, 10) == 4
    assert linalg.matrix_order(oracles.identity(3), 10) == 1
    shear = [[F(1), F(1)], [F(0), F(1)]]
    assert linalg.matrix_order(shear, 30) is None
    assert linalg.matrix_order([], 5) == 1


def test_trace_guard_never_rejects_a_finite_order_matrix():
    # Every power of a finite-order matrix has |trace| <= n, so the guard that
    # ends the order search must let each one through to its order: seeded
    # conjugates of signed permutations and rotations, and the orders 3 and 6
    # of the rotations by 120 and 60 degrees, whose traces are negative or 1.
    rng = random.Random(60)
    mats = [randgen.finite_order_matrix(rng).to_fractions() for _ in range(200)]
    mats += [[[F(0), F(-1)], [F(1), F(-1)]], [[F(1), F(-1)], [F(1), F(0)]]]
    for a in mats:
        order = oracles.matrix_power_order(a)
        assert order is not None
        assert linalg.matrix_order(a, 60) == order


@st.composite
def matrices(draw, rows=3, cols=3):
    return [
        [Fraction(draw(st.integers(-3, 3))) for _ in range(cols)]
        for _ in range(rows)
    ]


@given(matrices())
def test_kernel_vectors_annihilate(a):
    for v in linalg.kernel_basis(a):
        assert oracles.mat_vec(a, v) == [Fraction(0)] * len(a)
    assert len(oracles.rref(a)[1]) + len(linalg.kernel_basis(a)) == 3


@given(matrices())
def test_signature_of_symmetrization(a):
    sym = [[a[i][j] + a[j][i] for j in range(3)] for i in range(3)]
    pos, neg, zero = linalg.signature(sym)
    assert pos + neg + zero == 3
    assert pos + neg == len(oracles.rref(sym)[1])


def _random_rows(rng, rows, cols, density=0.4):
    """Dense rational rows, mostly zeros, with a few repeated and zero rows."""
    out = [
        [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) if rng.random() < density else F(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]
    if out and rng.random() < 0.5:
        out.append(list(out[0]))
        out.append([F(0)] * cols)
    return out


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _dense(vec, cols):
    return [vec.get(j, F(0)) for j in range(cols)]


def test_sparse_rref_matches_dense_reference():
    rng = random.Random(61)
    for trial in range(200):
        rows, cols = rng.randint(0, 7), rng.randint(1, 8)
        a = _random_rows(rng, rows, cols)
        basis = linalg.sparse_rref(_sparse(r) for r in a)
        red, pivots = oracles.rref(a)
        assert [_dense(v, cols) for v in basis] == red[: len(pivots)]
        if a:
            # Rank-nullity against the dense kernel of the transposed system.
            assert len(a) - len(basis) == len(oracles.kernel_basis(oracles.dense_transpose(a)))
    assert linalg.sparse_rref([]) == []
    assert linalg.sparse_rref([{}, {3: F(0)}]) == []


def test_pivot_coordinates_match_exact_solve():
    rng = random.Random(62)
    outside = 0
    for trial in range(200):
        cols = rng.randint(1, 8)
        basis = linalg.EchelonBasis(
            linalg.sparse_rref(_sparse(r) for r in _random_rows(rng, rng.randint(0, 5), cols))
        )
        images = []
        for _ in range(rng.randint(0, 4)):
            combo = {}
            for v in basis.vectors:
                linalg.add_scaled(combo, F(rng.randint(-2, 2)), v)
            if rng.random() < 0.3:  # usually leaves the span
                j = rng.randrange(cols)
                combo[j] = combo.get(j, F(0)) + F(rng.randint(1, 3))
            images.append({j: x for j, x in combo.items() if x})
        # The destination basis as the columns of a dense system, solved for
        # each image independently of linalg.
        dmat = [[v.get(r, F(0)) for v in basis.vectors] for r in range(cols)]
        solutions = [oracles._solve_exact(dmat, _dense(im, cols)) for im in images]
        expected = solutions.index(None) if None in solutions else {
            (i, j): x for j, sol in enumerate(solutions) for i, x in enumerate(sol) if x
        }
        assert basis.columns(images) == expected
        for im, sol in zip(images, solutions):
            assert basis.coordinates(im) == (None if sol is None else {i: x for i, x in enumerate(sol) if x})
        outside += None in solutions
    assert outside > 20
    empty = linalg.EchelonBasis([])
    assert empty.coordinates({}) == {}
    assert empty.coordinates({(0, 1): F(1)}) is None
    assert empty.columns([{}, {}]) == {}
    assert empty.columns([{}, {(0,): F(2)}, {}]) == 1


def test_columns_match_a_per_image_coordinates_loop():
    # Random sparse echelon bases and images made as combinations of the
    # basis, with Fraction coefficients, some nudged off the span: the
    # batched columns are the per-image coordinates, the first image off the
    # span is reported by its index, and the images after it are not read.
    rng = random.Random(64)
    integral = fractional = outside = 0
    for trial in range(300):
        cols = rng.randint(1, 9)
        basis = linalg.EchelonBasis(
            linalg.sparse_rref(_sparse(r) for r in _random_rows(rng, rng.randint(0, 6), cols))
        )
        images = []
        for _ in range(rng.randint(0, 6)):
            combo = {}
            for v in basis.vectors:
                linalg.add_scaled(combo, F(rng.randint(-4, 4), rng.choice((1, 2, 3))), v)
            if rng.random() < 0.15:
                j = rng.randrange(cols)
                combo[j] = combo.get(j, 0) + F(rng.randint(1, 3), rng.choice((1, 2)))
            images.append({j: x for j, x in combo.items() if x})
        per_image = [basis.coordinates(im) for im in images]
        got = basis.columns(iter(images))
        if None in per_image:
            assert got == per_image.index(None)
            read = []
            assert basis.columns(read.append(im) or im for im in images) == got
            assert len(read) == got + 1
            outside += 1
            continue
        assert got == {(i, j): x for j, col in enumerate(per_image) for i, x in col.items()}
        assert not [x for x in got.values() if type(x) is Fraction and x.denominator == 1]
        integral += any(type(x) is int for x in got.values())
        fractional += any(type(x) is Fraction for x in got.values())
    assert min(integral, fractional, outside) > 20


def test_sparse_commutator_matches_dense_reference():
    # Graded operators as sparse matrices against the same operators laid
    # out as one dense matrix over all degrees.
    rng = random.Random(63)
    for trial in range(100):
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        offsets = [sum(dims[:k]) for k in range(len(dims))]
        total = sum(dims)
        keys = [(k, i) for k, d in enumerate(dims) for i in range(d)]
        ops = []
        for _ in range(2):
            shift = rng.randint(-1, 1)
            blocks = {
                k: _random_rows(rng, dims[k + shift], dims[k], density=0.6)[: dims[k + shift]]
                for k in range(len(dims))
                if 0 <= k + shift < len(dims) and dims[k + shift] and dims[k]
            }
            big = [[F(0)] * total for _ in range(total)]
            for k, block in blocks.items():
                for i, row in enumerate(block):
                    for j, x in enumerate(row):
                        big[offsets[k + shift] + i][offsets[k] + j] = x
            ops.append((oracles.sparse_matrix(blocks, shift), big))
        (a, big_a), (b, big_b) = ops
        ab, ba = oracles.dense_mul(big_a, big_b), oracles.dense_mul(big_b, big_a)
        expected = {
            (r, c): ab[i][j] - ba[i][j]
            for i, r in enumerate(keys)
            for j, c in enumerate(keys)
            if ab[i][j] != ba[i][j]
        }
        assert linalg.sparse_commutator(a, b) == expected


def _leaves(x):
    """Every scalar in nested lists, tuples and dict values."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _leaves(y)
    else:
        yield x


def _exact_entries(x) -> bool:
    return all(type(v) in (int, Fraction) for v in _leaves(x))


def test_quotient_is_int_when_whole():
    assert linalg.quotient(6, 3) == 2 and type(linalg.quotient(6, 3)) is int
    assert linalg.quotient(-1, 2) == F(-1, 2)
    assert type(linalg.quotient(F(3, 2), F(1, 2))) is int
    assert linalg.quotient(3, F(3, 2)) == 2 and type(linalg.quotient(3, F(3, 2))) is int
    assert linalg.exact(F(4, 2)) == 2 and type(linalg.exact(F(4, 2))) is int
    assert linalg.exact(F(1, 3)) == F(1, 3)


def test_dense_routines_stay_exact_on_int_entries():
    # Dividing two ints with / gives a float, so every dense routine must
    # give the same exact result on int entries as on Fraction entries, and
    # that of the independent oracle on Fraction entries.
    any_shape = [
        (linalg.rref, oracles.rref),
        (linalg.kernel_basis, oracles.kernel_basis),
    ]
    invertible_symmetric = any_shape + [
        (linalg.det, oracles.det),
        (linalg.inverse, oracles._inverse),
        (linalg.signature, oracles.symmetric_signature),
    ]
    cases = [
        (invertible_symmetric, [[[2, 1], [1, 1]], [[2, 1], [1, 3]], [[0, 2, 1], [2, 0, 3], [1, 3, 5]]]),
        (any_shape, [[[2, 4, 1], [1, 3, 0]], [[3, 1], [6, 2]], [[0, 5], [3, 2]]]),
    ]
    for routines, matrices in cases:
        for a in matrices:
            fa = [[F(x) for x in row] for row in a]
            for fn, oracle in routines:
                result = fn(a)
                assert result == fn(fa) == oracle(fa)
                assert _exact_entries(result), (fn, a, result)
    assert linalg.inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert type(linalg.det([[2, 1], [1, 3]])) is int
    basis = linalg.sparse_rref([{0: 2, 1: 1}])
    assert basis == [{0: 1, 1: F(1, 2)}] and _exact_entries(basis)


_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(2, 5)),
)


_MIXED_MATRICES = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols), max_size=6)
)


@given(_MIXED_MATRICES)
def test_sparse_rref_matches_dense_rref_on_mixed_entries(a):
    basis = linalg.sparse_rref(_sparse(row) for row in a)
    red, pivots = oracles.rref(a)
    assert [_sparse(row) for row in red[: len(pivots)]] == basis
    assert _exact_entries(basis)
    # Each pivot is an int 1; an integral entry is never left a float.
    assert all(type(v[min(v)]) is int and v[min(v)] == 1 for v in basis)


@st.composite
def square_matrices(draw):
    """A rational n x n matrix, 1 <= n <= 5; about half of them the product of
    an n x r and an r x n matrix with r < n, so of rank below n."""
    n = draw(st.integers(1, 5))

    def block(rows, cols):
        return [[draw(_ENTRIES) for _ in range(cols)] for _ in range(rows)]

    if n > 1 and draw(st.booleans()):
        r = draw(st.integers(1, n - 1))
        left, right = block(n, r), block(r, n)
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    return block(n, n)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_inverse_raises_exactly_on_zero_determinant(a):
    if oracles.det(a) == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.inverse(a)
    else:
        assert oracles.dense_mul(a, linalg.inverse(a)) == oracles.identity(len(a))


def _int_where_integral(x) -> bool:
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in _leaves(x))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_MIXED_MATRICES, square_matrices()))
@example([[1, F(1, 2), F(1, 2)], [0, 1, -1]])
def test_dense_views_match_oracle_on_mixed_entries(a):
    # rref, kernel_basis and inverse are views of sparse_rref; each
    # must equal the independent dense elimination and give an int for
    # every integral value.  In the example, back substitution leaves the
    # sparse entry 1/2 + 1/2 as Fraction(1, 1).
    red, pivots = oracles.rref(a)
    results = [linalg.rref(a), linalg.kernel_basis(a)]
    assert results == [(red, pivots), oracles.kernel_basis(a)]
    if a and len(a) == len(a[0]):
        if len(pivots) < len(a):
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse(a)
        else:
            results.append(linalg.inverse(a))
            assert results[-1] == oracles._inverse(a)
    assert _int_where_integral(results)


def test_sparse_results_are_int_where_integral():
    # Halves often sum, multiply or eliminate to whole values; linalg returns
    # those as ints, so no caller normalizes what it returns.
    assert type(linalg.sparse_sum([(0, F(1, 2)), (0, F(1, 2))])[0]) is int
    rng = random.Random(64)
    values = [1, -1, 2, F(1, 2), F(-1, 2), F(3, 2)]

    def sparse(n):
        return {(rng.randrange(3), rng.randrange(3)): rng.choice(values) for _ in range(n)}

    for trial in range(300):
        a, b = sparse(5), sparse(5)
        terms = [(rng.randrange(3), rng.choice(values)) for _ in range(6)]
        rows = [{j: rng.choice(values) for j in rng.sample(range(4), 3)} for _ in range(3)]
        results = [
            linalg.sparse_sum(terms),
            linalg.sparse_product(a, b),
            linalg.sparse_commutator(a, b),
            linalg.sparse_rref(rows),
        ]
        assert _int_where_integral(results), results


def test_sparse_kernel_matches_oracle_on_seeded_rows():
    # Sparse rows with int or Fraction entries, zero rows, no rows at all and
    # all-zero columns: one kernel vector per free column, equal to the
    # independent dense kernel, with an int for every integral value.
    rng = random.Random(66)
    seen = set()
    for trial in range(400):
        ints = trial % 2 == 0
        rows, cols = rng.randint(0, 7), rng.randint(0, 8)
        zero_col = rng.randrange(cols) if cols and rng.random() < 0.5 else None

        def entry(j):
            if j == zero_col or rng.random() >= 0.4:
                return 0
            x = rng.randint(-3, 3)
            return x if ints else F(x, rng.choice((1, 2, 3)))

        a = [[entry(j) for j in range(cols)] for _ in range(rows)]
        if a and rng.random() < 0.3:
            a.append([0] * cols)
        basis = linalg.sparse_kernel((_sparse(row) for row in a), cols)
        assert [_dense(v, cols) for v in basis] == oracles.kernel_basis(a or [[0] * cols])
        assert all(x for v in basis for x in v.values())
        assert _int_where_integral(basis)
        flags = {
            "ints": ints,
            "fractions": not ints,
            "no rows": not a,
            "zero row": any(not any(row) for row in a),
            "zero column": bool(a) and any(not any(row[j] for row in a) for j in range(cols)),
            "fractional result": any(type(x) is Fraction for v in basis for x in v.values()),
        }
        seen.update(name for name, on in flags.items() if on)
    assert seen == {"ints", "fractions", "no rows", "zero row", "zero column", "fractional result"}
    assert linalg.sparse_kernel([], 0) == []
    assert linalg.sparse_kernel([{}], 2) == [{0: 1}, {1: 1}]
