import math
import random

import pytest

from cosym3 import (
    EndField,
    KForm,
    betti_checks,
    harmonic_space,
    invariant_forms,
    is_basic,
    quaternion_module,
    quaternion_right_mult,
    small_operators,
    verify_ladder,
    wedge,
)
from cosym3.cohomology import (
    EPS_ORDER,
    NonCompactError,
    form_vector,
    monomial_tuples,
    pullback_matrix,
)
from cosym3 import linalg
from cosym3.poly import Poly

import randgen


def kernel_dim_oracle(a: EndField, q: int) -> int:
    """Independent route: dim ker(A* - I) on constant q-forms."""
    mat = pullback_matrix(a, q)
    n = len(mat)
    diff = [[mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return len(linalg.kernel_basis(diff))


def test_invariant_forms_identity():
    ident = EndField.identity(4)
    for q in range(5):
        basis = invariant_forms(ident, q)
        assert len(basis) == math.comb(4, q)


def test_invariant_forms_right_mult_i():
    r_i = quaternion_right_mult("i")
    dims = [len(invariant_forms(r_i, q)) for q in range(5)]
    assert dims == [1, 0, 4, 0, 1]
    for q in range(5):
        assert dims[q] == kernel_dim_oracle(r_i, q)
    # The invariant 2-forms span {dx12, dx34, dx13 - dx24, dx14 + dx23}.
    basis = invariant_forms(r_i, 2)
    tuples = monomial_tuples(4, 2)
    got = [[f.get(t, 0) for t in tuples] for f in basis]
    expected_forms = [
        KForm(4, 2, {(0, 1): 1}),
        KForm(4, 2, {(2, 3): 1}),
        KForm(4, 2, {(0, 2): 1, (1, 3): -1}),
        KForm(4, 2, {(0, 3): 1, (1, 2): 1}),
    ]
    expected = [[form_vector(f).get(t, 0) for t in tuples] for f in expected_forms]
    assert linalg.row_space_basis(got) == linalg.row_space_basis(expected)


def test_invariant_forms_random_matrices_trace_cross_check():
    rng = random.Random(31)
    for _ in range(40):
        a = randgen.finite_order_matrix(rng)
        q = rng.randint(0, a.m)
        basis = invariant_forms(a, q)
        assert len(basis) == kernel_dim_oracle(a, q)


def test_decompose_builds_each_fiber_degree_once(m7f_model, monkeypatch):
    from collections import Counter

    from cosym3 import cohomology, decompose

    calls = Counter()
    original = cohomology.invariant_forms

    def counting(a, q, *args, **kwargs):
        calls[q] += 1
        return original(a, q, *args, **kwargs)

    monkeypatch.setattr(cohomology, "invariant_forms", counting)
    table = decompose(*m7f_model)
    assert table.b == (1, 3, 7, 13, 13, 7, 3, 1)
    assert calls == Counter(range(5))


def test_harmonic_space_dimensions(torus7, m7f_model, standard7):
    space, t = torus7
    assert len(harmonic_space(space, t, 1)) == 7
    assert len(harmonic_space(space, t, 3)) == 35
    space, t = m7f_model
    basis1 = harmonic_space(space, t, 1)
    assert len(basis1) == 3
    assert basis1 == [form_vector(KForm.monomial(7, (i,))) for i in (4, 5, 6)]
    assert len(harmonic_space(space, t, 0)) == 1
    space, t = standard7
    with pytest.raises(NonCompactError):
        harmonic_space(space, t, 1)


def test_is_basic(torus7):
    space, t = torus7
    m = 7
    assert is_basic(space, t, KForm.monomial(m, (0,)))
    assert not is_basic(space, t, KForm.monomial(m, (4,)))
    assert not is_basic(space, t, KForm.monomial(m, (0, 5)))
    assert is_basic(space, t, KForm.constant(m, 1))
    # Non-constant form on the euclidean chart: i_xi(d omega) can fail alone.
    poly_form = KForm(m, 1, {(0,): Poly.variable(m, 4)})  # t1 dx1
    assert not is_basic(space, t, poly_form)


def test_small_operators_examples(torus7):
    space, t = torus7
    ops = small_operators(space, t)
    m = 7
    eta1 = t.structure(1).eta
    from cosym3 import interior_product

    # e1(eta1) = eta1, e1(dx1) = 0, e1(Phi1) = 0.
    from cosym3 import fundamental_form

    s1 = t.structure(1)

    def e1(omega):
        if omega.degree == 0:
            return KForm(m, 0)
        return wedge(eta1, interior_product(s1.xi, omega))

    assert e1(eta1) == eta1
    assert e1(KForm.monomial(m, (0,))).is_zero()
    assert e1(fundamental_form(s1)).is_zero()
    # Matrix shapes are consistent with the degree shifts.
    assert ops["l1"].degree_shift == 1
    assert ops["lambda1"].degree_shift == -1
    block = ops["l1"].block(0)
    assert len(block) == 7 and len(block[0]) == 1


def test_decompose_tables(torus7_table, m7f_table):
    # Dimensions of the eightfold split at k = 2, plus dimension bookkeeping.
    t7 = torus7_table
    assert t7.b == (1, 7, 21, 35, 35, 21, 7, 1)
    assert t7.bh == (1, 4, 6, 4, 1, 0, 0, 0)
    row = t7.dims_row(2)
    assert row == {
        "000": 6, "100": 4, "010": 4, "001": 4,
        "110": 1, "101": 1, "011": 1, "111": 0,
    }
    mf = m7f_table
    assert mf.b == (1, 3, 7, 13, 13, 7, 3, 1)
    assert mf.bh == (1, 0, 4, 0, 1, 0, 0, 0)
    row = mf.dims_row(2)
    assert row == {
        "000": 4, "100": 0, "010": 0, "001": 0,
        "110": 1, "101": 1, "011": 1, "111": 0,
    }
    for table in (t7, mf):
        row0 = table.dims_row(0)
        assert row0["000"] == 1 and sum(row0.values()) == 1
        for k in range(8):
            assert sum(table.dims_row(k).values()) == table.b[k]


def test_decompose_component_forms_are_basic(torus7, torus7_table):
    space, t = torus7
    for k in range(8):
        for f in torus7_table.component(k, (0, 0, 0)):
            assert is_basic(space, t, f)
        for eps in EPS_ORDER[1:]:
            for f in torus7_table.component(k, eps):
                assert not is_basic(space, t, f) or f.is_zero()


def test_betti_convolution_oracle(m7f_model, m7f_table):
    # b_k = sum_p C(3, p) * dim (Lambda^{k-p})^{f*}, computed independently.
    space, _ = m7f_model
    r_i = space.topology.monodromy
    inv = [kernel_dim_oracle(r_i, q) for q in range(5)]
    assert inv == [1, 0, 4, 0, 1]
    for k in range(8):
        expected = sum(
            math.comb(3, p) * (inv[k - p] if 0 <= k - p <= 4 else 0)
            for p in range(4)
        )
        assert m7f_table.b[k] == expected


def test_verify_ladder(torus7, torus7_table, m7f_model, m7f_table):
    space, t = torus7
    report = verify_ladder(space, t, torus7_table)
    assert report.passed
    assert report.item("ladder[k=1].l1.000->100").passed
    assert len(torus7_table.component(1, (0, 0, 0))) == 4
    assert len(torus7_table.component(2, (1, 0, 0))) == 4
    space, t = m7f_model
    report = verify_ladder(space, t, m7f_table)
    assert report.passed
    assert report.item("ladder[k=0].l2.000->010").passed
    assert len(m7f_table.component(0, (0, 0, 0))) == 1
    assert len(m7f_table.component(1, (0, 1, 0))) == 1


def test_l_squared_zero(torus7):
    space, t = torus7
    eta1 = t.structure(1).eta
    for k in range(6):
        for f in harmonic_space(space, t, k):
            assert wedge(eta1, wedge(eta1, KForm(7, k, f))).is_zero()


def test_betti_checks(torus7_table, m7f_table):
    for table in (torus7_table, m7f_table):
        report = betti_checks(table, 1)
        assert report.passed, [i.name for i in report.failures()]
    # Spot values: the formula at k = 2 and the bounds on m7f.
    report = betti_checks(m7f_table, 1)
    assert report.item("betti_formula[k=2]").passed
    for k, (bk, bound) in enumerate(((1, 1), (3, 3), (7, 6), (13, 10))):
        item = report.item(f"betti_lower_bound[k={k}]")
        assert item.passed
        assert f"b_{k} = {bk}" in item.witness
    with pytest.raises(ValueError):
        betti_checks(m7f_table, 2)


def test_quaternion_module(torus7, torus7_table, m7f_model, m7f_table):
    space, t = torus7
    for k in (1, 3):
        report = quaternion_module(space, t, k, torus7_table)
        assert report.passed, [i.name for i in report.failures()]
        assert len(torus7_table.component(k, (0, 0, 0))) == 4
    space, t = m7f_model
    report = quaternion_module(space, t, 1, m7f_table)
    assert report.passed
    assert len(m7f_table.component(1, (0, 0, 0))) == 0
    with pytest.raises(ValueError):
        quaternion_module(space, t, 2, m7f_table)


def test_e_operators_idempotent_on_matrices(torus7, m7f_model):
    for space, t in (torus7, m7f_model):
        ops = small_operators(space, t)
        for k in range(8):
            mats = [ops[f"e{alpha}"].block(k) for alpha in (1, 2, 3)]
            for e in mats:
                assert linalg.mat_mul(e, e) == e
            for a in range(3):
                for b in range(a + 1, 3):
                    assert linalg.mat_mul(mats[a], mats[b]) == linalg.mat_mul(
                        mats[b], mats[a]
                    )
