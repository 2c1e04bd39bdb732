import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cosym3 import linalg


def F(x, y=1):
    return Fraction(x, y)


def test_rref_and_rank():
    m = [[F(1), F(2)], [F(2), F(4)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red[0] == [F(1), F(2)]
    assert linalg.rank(m) == 1
    assert linalg.rank(linalg.identity(4)) == 4


def test_kernel_basis():
    m = [[F(1), F(2), F(3)]]
    basis = linalg.kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert linalg.mat_vec(m, v) == [F(0)]
    # canonical: one unit per free column
    assert basis[0][1] == 1 and basis[1][2] == 1


def test_solve_and_inverse():
    a = [[F(2), F(1)], [F(1), F(3)]]
    x = linalg.solve(a, [F(5), F(10)])
    assert linalg.mat_vec(a, x) == [F(5), F(10)]
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    assert linalg.solve([[F(0)], [F(0)]], [F(1), F(0)]) is None
    with pytest.raises(ValueError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_det():
    assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert linalg.det([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert linalg.det([]) == 1


def test_signature():
    assert linalg.signature([[F(2), F(0)], [F(0), F(-3)]]) == (1, 1, 0)
    assert linalg.signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert linalg.signature(linalg.zeros(3, 3)) == (0, 0, 3)
    # Killing form of so(3) is -2I
    assert linalg.signature(linalg.mat_scale(linalg.identity(3), F(-2))) == (0, 3, 0)
    with pytest.raises(ValueError):
        linalg.signature([[F(0), F(1)], [F(2), F(0)]])


def test_matrix_order():
    rot = [[F(0), F(-1)], [F(1), F(0)]]
    assert linalg.matrix_order(rot, 10) == 4
    assert linalg.matrix_order(linalg.identity(3), 10) == 1
    shear = [[F(1), F(1)], [F(0), F(1)]]
    assert linalg.matrix_order(shear, 30) is None
    assert linalg.matrix_order([], 5) == 1


@st.composite
def matrices(draw, rows=3, cols=3):
    return [
        [Fraction(draw(st.integers(-3, 3))) for _ in range(cols)]
        for _ in range(rows)
    ]


@given(matrices())
def test_kernel_vectors_annihilate(a):
    for v in linalg.kernel_basis(a):
        assert linalg.mat_vec(a, v) == [Fraction(0)] * len(a)
    assert linalg.rank(a) + len(linalg.kernel_basis(a)) == 3


@given(matrices())
def test_signature_of_symmetrization(a):
    sym = [[a[i][j] + a[j][i] for j in range(3)] for i in range(3)]
    pos, neg, zero = linalg.signature(sym)
    assert pos + neg + zero == 3
    assert pos + neg == linalg.rank(sym)


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
        assert [_dense(v, cols) for v in basis] == (linalg.row_space_basis(a) if a else [])
        if a:
            # Rank-nullity against the dense kernel of the transposed system.
            assert len(a) - len(basis) == len(linalg.kernel_basis(linalg.transpose(a)))
    assert linalg.sparse_rref([]) == []
    assert linalg.sparse_rref([{}, {3: F(0)}]) == []


def test_pivot_coordinates_match_solve_many():
    from cosym3.cohomology import operator_matrix

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
        # Columns of the destination basis and of the images, as dense systems.
        dmat = [[v.get(r, F(0)) for v in basis.vectors] for r in range(cols)]
        vmat = [[im.get(r, F(0)) for im in images] for r in range(cols)]
        expected = linalg.solve_many(dmat, vmat) if images else [[] for _ in basis.vectors]
        assert operator_matrix(images, basis) == expected
        for im, col in zip(images, linalg.transpose(expected or [])):
            assert basis.coordinates(im) == {i: x for i, x in enumerate(col) if x}
        outside += expected is None
    assert outside > 20
    empty = linalg.EchelonBasis([])
    assert empty.coordinates({}) == {}
    assert empty.coordinates({(0, 1): F(1)}) is None
    assert operator_matrix([{}, {}], empty) == []
    assert operator_matrix([{(0,): F(2)}], empty) is None
