import math
import random
import re
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cosym3 import (
    EndField,
    HodgeOperator,
    KForm,
    Metric,
    VectorField,
    exterior_derivative,
    form_inner_product,
    hodge_star,
    interior_product,
    lie_bracket,
    pullback,
    volume_form,
    wedge,
)
from cosym3 import linalg
from cosym3.exterior import (
    MetricError,
    form_vector,
    monomial_images,
    monomial_indices,
    monomial_key,
    monomial_keys,
    sort_with_sign,
    sparse_contract,
    sparse_wedge,
)
from cosym3.poly import Poly

import oracles
import randgen


def dx(m, i):
    return KForm.coordinate(m, i)


def keyed(v: dict) -> dict:
    """A dict over increasing index tuples, rekeyed by monomial keys."""
    return {monomial_key(t): x for t, x in v.items()}


def tupled(v: dict) -> dict:
    """A dict over monomial keys, rekeyed by increasing index tuples."""
    return {monomial_indices(key): x for key, x in v.items()}


def test_wedge_antisymmetry_unit_nilpotence():
    m = 3
    a, b = dx(m, 0), dx(m, 1)
    assert wedge(a, b) == -wedge(b, a)
    one = KForm.constant(m, 1)
    omega = KForm(m, 2, {(0, 2): Poly.variable(m, 1)})
    assert wedge(omega, one) == omega
    assert wedge(one, omega) == omega
    assert wedge(a, a).is_zero()
    with pytest.raises(ValueError):
        wedge(dx(3, 0), dx(4, 0))


def test_wedge_normalizes_unordered_keys():
    # (1, 0) normalizes to (0, 1) with the sign absorbed.
    assert KForm(3, 2, {(1, 0): 1}) == KForm(3, 2, {(0, 1): -1})
    assert KForm(3, 2, {(1, 1): 5}).is_zero()


def test_render_lists_terms_in_lexicographic_index_order():
    # (0, 3) comes before (1, 2) lexicographically but after it in colex order.
    form = KForm(4, 2, {(1, 2): 1, (0, 3): 2})
    assert form.render() == "2*dx1^dx4 + dx2^dx3"
    assert repr(form) == "KForm(2*dx1^dx4 + dx2^dx3)"
    poly_form = KForm(4, 2, {(2, 1): Poly.variable(4, 0), (0, 3): -1})
    assert poly_form.render(list("abcd")) == "-da^dd + (-a)*db^dc"


def test_exterior_derivative_examples():
    m = 3
    x1 = Poly.variable(m, 0)
    omega = KForm(m, 1, {(1,): x1})  # x1 dx2
    assert exterior_derivative(omega) == wedge(dx(m, 0), dx(m, 1))
    const = KForm(m, 2, {(0, 1): Fraction(7, 3)})
    assert exterior_derivative(const).is_zero()
    f = KForm.function(m, x1 * Poly.variable(m, 1))
    assert exterior_derivative(exterior_derivative(f)).is_zero()


def test_interior_product_examples():
    m = 3
    e1 = VectorField.coordinate(m, 0)
    e3 = VectorField.coordinate(m, 2)
    omega = wedge(dx(m, 0), dx(m, 1))
    assert interior_product(e1, omega) == dx(m, 1)
    assert interior_product(e3, omega).is_zero()
    top = wedge(wedge(dx(m, 0), dx(m, 1)), dx(m, 2))
    assert interior_product(e1, interior_product(e1, top)).is_zero()
    with pytest.raises(ValueError):
        interior_product(e1, KForm.constant(m, 1))


def test_lie_bracket_examples():
    m = 3
    e1 = VectorField.coordinate(m, 0)
    e2 = VectorField.coordinate(m, 1)
    assert lie_bracket(e1, e2).is_zero()
    x1e2 = VectorField([Poly.zero(m), Poly.variable(m, 0), Poly.zero(m)])
    assert lie_bracket(x1e2, e1) == -e2
    x = randgen.vector_field(__import__("random").Random(5), m)
    assert lie_bracket(x, x).is_zero()


def test_pullback_examples():
    m = 4
    ident = EndField.identity(m)
    omega = KForm(m, 2, {(0, 1): 2, (2, 3): -1})
    assert pullback(ident, omega) == omega
    diag = EndField.from_fractions(
        [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert pullback(diag, dx(m, 0)) == dx(m, 0).scaled(2)
    # Right multiplication by i, built from the quaternion table oracle.
    r_i = EndField.from_fractions(oracles.right_mult_matrix("i"))
    da_db = wedge(dx(m, 0), dx(m, 1))
    assert pullback(r_i, da_db) == da_db
    with pytest.raises(ValueError):
        pullback(EndField([[Poly.variable(1, 0)]]), KForm.constant(1, 1))


def test_pullback_functoriality_and_wedge():
    rng = __import__("random").Random(11)
    m = 3
    for _ in range(25):
        a = EndField.from_fractions(
            [[randgen.fraction(rng) for _ in range(m)] for _ in range(m)]
        )
        b = EndField.from_fractions(
            [[randgen.fraction(rng) for _ in range(m)] for _ in range(m)]
        )
        alpha = randgen.form(rng, m, 1, constant=True)
        beta = randgen.form(rng, m, 1, constant=True)
        assert pullback(a * b, alpha) == pullback(b, pullback(a, alpha))
        assert pullback(a, wedge(alpha, beta)) == wedge(
            pullback(a, alpha), pullback(a, beta)
        )


TORUS7_COORDS = ("x1", "x2", "x3", "x4", "t1", "t2", "t3")


def test_hodge_star_t7_examples():
    m = 7
    g = Metric.identity(m)
    star = HodgeOperator(g)
    vol = star(KForm.constant(m, 1))
    assert vol == KForm.monomial(m, tuple(range(7)))
    assert volume_form(g) == vol
    # *dt1 = dx1^dx2^dx3^dx4^dt2^dt3
    assert star(dx(m, 4)) == KForm.monomial(m, (0, 1, 2, 3, 5, 6))
    # ** = id on a few mixed forms
    omega = KForm(m, 3, {(0, 2, 5): 2, (1, 4, 6): Fraction(-1, 3)})
    assert star(star(omega)) == omega


def test_hodge_star_errors():
    with pytest.raises(ValueError):
        HodgeOperator(Metric.from_fractions([[2, 0], [0, 1]]))  # det not a square
    with pytest.raises(ValueError):
        HodgeOperator(Metric.from_fractions([[1, 1], [1, 1]]))  # degenerate
    with pytest.raises(ValueError):
        HodgeOperator(Metric.from_fractions([[-1, 0], [0, -1]]))
    g = Metric.identity(2)
    with pytest.raises(ValueError):
        hodge_star(g, KForm(2, 1, {(0,): Poly.variable(2, 0)}))
    poly_metric = Metric(
        [
            [Poly.const(2, 1) + Poly.variable(2, 0), Poly.zero(2)],
            [Poly.zero(2), Poly.const(2, 1)],
        ]
    )
    with pytest.raises(ValueError):
        HodgeOperator(poly_metric)


def test_remaining_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        lie_bracket(VectorField.coordinate(2, 0), VectorField.coordinate(3, 0))
    with pytest.raises(ValueError):
        interior_product(VectorField.coordinate(2, 0), KForm.coordinate(3, 1))
    with pytest.raises(ValueError):
        pullback(
            EndField.identity(2), KForm(2, 1, {(0,): Poly.variable(2, 1)})
        )  # non-constant form


def test_inner_product_symmetric_and_star_isometry():
    rng = __import__("random").Random(23)
    m = 4
    for _ in range(20):
        g = randgen.spd_metric_square_det(rng, m, dense=rng.random() < 0.5)
        k = rng.randint(0, m)
        a = randgen.form(rng, m, k, constant=True)
        b = randgen.form(rng, m, k, constant=True)
        assert form_inner_product(g, a, b) == form_inner_product(g, b, a)
        star = HodgeOperator(g)
        assert form_inner_product(g, star(a), star(b)) == form_inner_product(g, a, b)


def test_inner_product_needs_no_square_det():
    # <dx_I, dx_J> needs only G^-1, so a metric whose determinant is not a
    # rational square has an exact inner product, though no exact star.
    diag = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    g = Metric.from_fractions(diag)
    assert form_inner_product(g, dx(3, 0), dx(3, 0)) == Fraction(1, 2)
    with pytest.raises(MetricError, match="not a rational square"):
        HodgeOperator(g)
    rng = random.Random(24)
    for mat in (diag, [[3, 0, 0, 0], [0, 5, 0, 0], [0, 0, Fraction(1, 2), 0], [0, 0, 0, 7]]):
        g, m = Metric.from_fractions(mat), len(mat)
        for k in range(m + 1):
            a, b = (randgen.form(rng, m, k, constant=True) for _ in range(2))
            assert form_inner_product(g, a, b) == oracles.gram_inner(
                mat, tupled(form_vector(a)), tupled(form_vector(b))
            )
    for bad in ([[1, 1], [1, 1]], [[-1, 0], [0, -1]]):
        with pytest.raises(MetricError, match="not positive definite"):
            form_inner_product(Metric.from_fractions(bad), dx(2, 0), dx(2, 0))


def test_hodge_defining_equation():
    # alpha ^ *beta = <alpha, beta> vol, including a dense metric case.
    rng = __import__("random").Random(7)
    for _ in range(15):
        m = 4
        g = randgen.spd_metric_square_det(rng, m, dense=True)
        k = rng.randint(0, m)
        a = randgen.form(rng, m, k, constant=True)
        b = randgen.form(rng, m, k, constant=True)
        star = HodgeOperator(g)
        lhs = wedge(a, star(b))
        rhs = star.volume().scaled(form_inner_product(g, a, b))
        assert lhs == rhs


def _square_det_metric(rng, m):
    """Dense G = L D L^T: L unit lower triangular, D a diagonal of rational squares."""
    lower = [
        [Fraction(rng.choice((-2, -1, 1, 2))) if j < i else Fraction(int(i == j)) for j in range(m)]
        for i in range(m)
    ]
    diag = [randgen.fraction(rng, False) ** 2 for _ in range(m)]
    return [
        [sum(lower[i][k] * diag[k] * lower[j][k] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_constant_forms_match_determinant_oracles(m):
    # pullback, monomial_images, the star on forms and on sparse vectors,
    # and the inner product against one minor or Gram determinant per pair
    # of index tuples.
    rng = random.Random(900 + m)
    mat = [[randgen.fraction(rng, False) for _ in range(m)] for _ in range(m)]
    a = EndField.from_fractions(mat)
    g_mat = _square_det_metric(rng, m)
    g = Metric.from_fractions(g_mat)
    # The seeded alpha and beta below are drawn after this coordinate shuffle.
    rng.shuffle(list(range(m)))
    for k in range(m + 1):
        tuples = list(combinations(range(m), k))
        images = {t: oracles.minor_pullback(mat, {t: Fraction(1)}) for t in tuples}
        assert monomial_images(mat, map(monomial_key, tuples)) == {
            monomial_key(t): keyed(image) for t, image in images.items()
        }
        alpha, beta = (
            {t: randgen.fraction(rng, False) for t in rng.sample(tuples, min(4, len(tuples)))}
            for _ in range(2)
        )
        form = KForm(m, k, alpha)
        assert pullback(a, form) == KForm(m, k, oracles.minor_pullback(mat, alpha))
        assert hodge_star(g, form) == KForm(m, m - k, oracles.gram_star(g_mat, alpha))
        assert HodgeOperator(g)(keyed(alpha)) == keyed(oracles.gram_star(g_mat, alpha))
        assert form_inner_product(g, form, KForm(m, k, beta)) == oracles.gram_inner(
            g_mat, alpha, beta
        )


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric([[Poly.const(2, 1), Poly.const(2, 2)], [Poly.const(2, 3), Poly.const(2, 1)]])
    with pytest.raises(ValueError, match="not symmetric"):
        Metric([[1, Poly.variable(2, 0)], [0, 1]])
    g = Metric.from_fractions([[2, 1], [1, 2]])
    assert g.is_positive_definite()
    assert not Metric.from_fractions([[1, 2], [2, 1]]).is_positive_definite()
    poly_g = Metric(
        [
            [Poly.const(2, 1) + Poly.variable(2, 0), Poly.zero(2)],
            [Poly.zero(2), Poly.const(2, 1)],
        ]
    )
    assert not poly_g.is_constant()
    assert poly_g.is_positive_definite_at([0, 0])
    assert not poly_g.is_positive_definite_at([-2, 0])


def _sparse_end_field(rng: random.Random, m: int) -> EndField:
    return EndField(
        [[randgen.poly(rng, m, max_terms=2) if rng.random() < 0.4 else 0 for _ in range(m)]
         for _ in range(m)]
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4))
def test_endfield_results_match_checked_reference(seed, m):
    rng = random.Random(seed)
    a, b = _sparse_end_field(rng, m), _sparse_end_field(rng, m)
    x, y = a.entries, b.entries

    def reference(entry):
        """The dense result, built entry by entry through the checked constructor."""
        return EndField([[entry(i, j) for j in range(m)] for i in range(m)])

    cases = [
        (a * b, reference(lambda i, j: sum((x[i][k] * y[k][j] for k in range(m)), Poly.zero(m)))),
        (a + b, reference(lambda i, j: x[i][j] + y[i][j])),
        (a - b, reference(lambda i, j: x[i][j] - y[i][j])),
        (-a, reference(lambda i, j: -x[i][j])),
        (a.transpose(), reference(lambda i, j: x[j][i])),
    ]
    for result, expected in cases:
        assert type(result) is EndField and result.m == m
        assert result == expected
        assert type(result.entries) is tuple
        assert all(type(row) is tuple and len(row) == m for row in result.entries)
        assert all(type(p) is Poly and p.nvars == m for row in result.entries for p in row)


def test_public_endfield_still_validates():
    with pytest.raises(ValueError, match="square"):
        EndField([[1, 0], [0]])
    with pytest.raises(ValueError, match="variable count"):
        EndField([[Poly.variable(3, 0), 0], [0, 1]])


def test_endfield_block_diag_and_apply():
    a = EndField.from_fractions([[0, -1], [1, 0]])
    b = EndField.from_fractions([[2]])
    big = EndField.block_diag(a, b)
    assert big.m == 3
    v = VectorField([Poly.const(3, 1), Poly.const(3, 0), Poly.const(3, 5)])
    out = big.apply(v)
    assert [c.constant_value() for c in out.components] == [0, 1, 10]


def _dense(f: EndField):
    """The oracles' view of a field: an m x m list of term dicts."""
    return [[dict(p.terms) for p in row] for row in f.entries]


def _assert_rows_canonical(f: EndField):
    """No row stores a zero Poly, and every row's columns increase."""
    assert len(f.rows) == f.m
    for row in f.rows:
        assert list(row) == sorted(row)
        assert all(type(p) is Poly and p.terms and p.nvars == f.m for p in row.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 11))
def test_sparse_endfield_matches_dense_oracle(seed, m):
    rng = random.Random(seed)
    a, b = _sparse_end_field(rng, m), _sparse_end_field(rng, m)
    factor = randgen.poly(rng, m)
    v = randgen.vector_field(rng, m)
    x, y = _dense(a), _dense(b)
    cases = [
        (a * b, oracles.dense_mul(x, y)),
        (a + b, oracles.dense_add(x, y)),
        (a - b, oracles.dense_add(x, y, -1)),
        (-a, oracles.dense_add([[{}] * m] * m, x, -1)),
        (a.transpose(), oracles.dense_transpose(x)),
        (a.scaled(factor), [[oracles.poly_mul(factor.terms, p) for p in row] for row in x]),
    ]
    for result, expected in cases:
        assert type(result) is EndField
        _assert_rows_canonical(result)
        assert _dense(result) == expected
    comps = [dict(c.terms) for c in v.components]
    assert [dict(c.terms) for c in a.apply(v).components] == oracles.dense_apply(x, comps)
    constant = EndField([[p if p.is_constant() else 0 for p in row] for row in a.entries])
    zero = (0,) * m
    assert constant.to_fractions() == [[p.terms.get(zero, 0) for p in row] for row in constant.entries]
    assert all(type(c) in (int, Fraction) for row in constant.to_fractions() for c in row)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 11))
def test_sparse_endfield_equality_hash_and_entries_round_trip(seed, m):
    rng = random.Random(seed)
    a, b = _sparse_end_field(rng, m), _sparse_end_field(rng, m)
    _assert_rows_canonical(a)
    same = [
        EndField(a.entries),
        (a + b) - b,
        -(b - (a + b)),
        a.transpose().transpose(),
        a * EndField.identity(m),
        EndField.identity(m) * a,
        a.scaled(1),
    ]
    for other in same:
        _assert_rows_canonical(other)
        assert other == a and hash(other) == hash(a)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert a.entries == EndField(a.entries).entries
    assert all(type(row) is tuple and len(row) == m for row in a.entries)
    assert (a == b) == (_dense(a) == _dense(b))


def test_metric_constructors_keep_the_metric_type():
    blocks = (Metric.identity(4), Metric.zero(2), Metric.from_fractions([[2, 1], [1, 2]]))
    assert all(type(g) is Metric for g in blocks)
    big = Metric.block_diag(*blocks)
    assert type(big) is Metric and big.m == 8
    assert big.to_fractions()[6][7] == 1 and big.to_fractions()[5][5] == 0
    assert type(EndField.identity(3)) is EndField and type(EndField.zero(3)) is EndField


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 11))
def test_metric_asymmetry_error_names_the_first_dense_pair(seed, m):
    rng = random.Random(seed)
    sym = _sparse_end_field(rng, m)
    entries = [list(row) for row in (sym + sym.transpose()).entries]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(m), rng.randrange(m)
        entries[i][j] = entries[i][j] + randgen.poly(rng, m)
    pair = oracles.first_asymmetric_pair([[dict(p.terms) for p in row] for row in entries])
    if pair is None:
        assert Metric(entries) == EndField(entries)
    else:
        with pytest.raises(ValueError, match=re.escape(f"not symmetric at entry {pair}")):
            Metric(entries)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices: arbitrary ones, and L D L^T with a unit
    lower L, whose pivots are D, so that zero, negative and positive pivots,
    singular matrices and zero corners all come up."""
    m = draw(st.integers(1, 6))
    values = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
    kind = draw(st.sampled_from(["arbitrary", "ldl", "positive"]))
    if kind == "arbitrary":
        upper = {(i, j): draw(values) for i in range(m) for j in range(i, m)}
        return [[upper[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]
    pivots = [draw(values.filter(lambda d: d > 0) if kind == "positive" else values) for _ in range(m)]
    lower = [[Fraction(1) if i == j else draw(values) if j < i else 0 for j in range(m)] for i in range(m)]
    return [
        [sum(lower[i][k] * pivots[k] * lower[j][k] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_positive_definiteness_matches_all_minors_oracle(mat):
    expected = oracles.leading_minors_positive(mat)
    g = Metric.from_fractions(mat)
    assert g.is_positive_definite() is expected
    assert g.is_positive_definite_at([0] * g.m) is expected


coeffs = st.integers(-3, 3)


@st.composite
def constant_forms(draw, m=4, degree=None):
    k = degree if degree is not None else draw(st.integers(0, m))
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        key = tuple(sorted(draw(st.permutations(range(m)))[:k]))
        terms[key] = Fraction(draw(coeffs))
    return KForm(m, k, terms)


@given(constant_forms(), constant_forms())
def test_wedge_graded_commutative(a, b):
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    if (a.degree * b.degree) % 2:
        rhs = -rhs
    assert lhs == rhs


@given(st.data())
@settings(max_examples=60)
def test_dd_zero_random_polynomials(data):
    rng = __import__("random").Random(data.draw(st.integers(0, 10**6)))
    m = rng.randint(1, 4)
    k = rng.randint(0, m - 1)
    omega = randgen.form(rng, m, k)
    assert exterior_derivative(exterior_derivative(omega)).is_zero()


@st.composite
def key_kernel_cases(draw):
    """A chart dimension m <= 15, two degrees, a tuple-keyed constant form
    of each degree with a few terms, and a vector field's support."""
    m = draw(st.integers(1, 15))
    coefficient = st.fractions(-3, 3, max_denominator=3).filter(bool)

    def form(degree):
        monomials = st.permutations(range(m)).map(lambda p: tuple(sorted(p[:degree])))
        return draw(st.dictionaries(monomials, coefficient, min_size=1, max_size=3))

    a, b = form(draw(st.integers(0, m))), form(draw(st.integers(0, m)))
    xi = draw(st.dictionaries(st.integers(0, m - 1), coefficient, max_size=3))
    return m, a, b, xi


def _entries(v: dict) -> dict:
    """Entries as the oracles' term dicts of polynomials in no variables."""
    return {key: {(): Fraction(c)} for key, c in v.items()}


@settings(max_examples=150, deadline=None)
@given(key_kernel_cases(), st.integers(0, 2**32))
def test_int_key_kernel_matches_tuple_references(case, seed):
    # Keys against index tuples: the wedge key and sign, contraction, d and
    # the Hodge complement, each against sort_with_sign and the tuple-keyed
    # oracles, with the two boundary helpers round-tripped on the way.
    m, a, b, xi = case
    for t in (*a, *b):
        assert monomial_indices(monomial_key(t)) == t
    for ta in a:
        for tb in b:
            merged, sign = sort_with_sign(ta + tb)
            expected = {monomial_key(merged): sign} if sign else {}
            assert sparse_wedge({monomial_key(ta): 1}, {monomial_key(tb): 1}) == expected
    # Two- and three-term factors put either side in the outer loop.
    for left, right in ((a, b), (b, a)):
        product = sparse_wedge(keyed(left), keyed(right))
        assert _entries(tupled(product)) == oracles.form_wedge(_entries(left), _entries(right))
    comps = [{(): Fraction(xi[i])} if i in xi else {} for i in range(m)]
    for v in (a, b):
        if any(v):
            assert _entries(tupled(sparse_contract(xi, keyed(v)))) == oracles.form_contract(comps, _entries(v))
    degree = len(next(iter(a)))
    rng = random.Random(seed)
    form = KForm(m, degree, {t: randgen.poly(rng, m) * c for t, c in a.items()})
    assert _terms(exterior_derivative(form)) == oracles.form_d(_terms(form), m)
    star = HodgeOperator(Metric.identity(m))
    for t, c in a.items():
        comp = tuple(i for i in range(m) if i not in t)
        assert star({monomial_key(t): c}) == {monomial_key(comp): c * sort_with_sign(t + comp)[1]}
    if m <= 6:
        g_mat = _square_det_metric(rng, m)
        assert HodgeOperator(Metric.from_fractions(g_mat))(keyed(a)) == keyed(oracles.gram_star(g_mat, a))
        mat = [[randgen.fraction(rng, False) for _ in range(m)] for _ in range(m)]
        images = monomial_images(mat, map(monomial_key, a))
        assert images == {monomial_key(t): keyed(oracles.minor_pullback(mat, {t: 1})) for t in a}


increasing_tuples = st.sets(st.integers(0, 14), max_size=8).map(lambda s: tuple(sorted(s)))


@given(increasing_tuples, increasing_tuples)
def test_merge_matches_sort_with_sign(ka, kb):
    # The key and sign of dx_A ^ dx_B, overlapping tuples included, where
    # the product is 0.  A second term dx_15 on the left makes dx_B the
    # kernel's outer factor.
    def expected(*terms):
        out = {}
        for t in terms:
            merged, sign = sort_with_sign(t + kb)
            if sign:
                out[monomial_key(merged)] = sign
        return out

    a, b = {monomial_key(ka): 1}, {monomial_key(kb): 1}
    assert sparse_wedge(a, b) == expected(ka)
    assert sparse_wedge({**a, 1 << 15: 1}, b) == expected(ka, (15,))


def test_complement_sign_matches_sort_with_sign():
    for m in range(10):
        star = HodgeOperator(Metric.identity(m))
        for k in range(m + 1):
            for key in combinations(range(m), k):
                comp = tuple(i for i in range(m) if i not in key)
                assert star({monomial_key(key): 1}) == {monomial_key(comp): sort_with_sign(key + comp)[1]}


def test_monomial_keys_are_the_increasing_keys_of_each_degree():
    for m in range(8):
        for k in range(m + 1):
            keys = monomial_keys(m, k)
            assert len(keys) == math.comb(m, k) and keys == sorted(set(keys))
            assert all(key.bit_count() == k and key < 1 << m for key in keys)


@pytest.mark.parametrize("m", [4, 6])
def test_monomial_images_without_prefixes_match_minors(m):
    # Only even degrees are requested, unsorted, so every monomial's
    # odd-length prefixes are missing and get built on the way.
    rng = random.Random(40 + m)
    mat = [[randgen.fraction(rng, False) for _ in range(m)] for _ in range(m)]
    wanted = [key for k in range(0, m + 1, 2) for key in monomial_keys(m, k)]
    rng.shuffle(wanted)
    images = monomial_images(mat, wanted)
    assert list(images) == wanted
    for key in wanted:
        assert images[key] == keyed(oracles.minor_pullback(mat, {monomial_indices(key): Fraction(1)}))


def _star_requests(rng, m):
    keys = [key for k in range(m + 1) for key in monomial_keys(m, k)]
    return [
        {key: randgen.fraction(rng, False) for key in rng.sample(keys, 3)}
        for _ in range(12)
    ]


def test_one_hodge_operator_matches_fresh_ones_in_any_order():
    rng = random.Random(71)
    m = 5
    g = Metric.from_fractions(_square_det_metric(rng, m))
    requests = _star_requests(rng, m)
    fresh = [HodgeOperator(g)(v) for v in requests]
    for _ in range(3):
        order = list(range(len(requests)))
        rng.shuffle(order)
        star = HodgeOperator(g)
        assert {i: star(requests[i]) for i in order} == dict(enumerate(fresh))


def test_threads_sharing_one_hodge_operator_get_serial_results():
    rng = random.Random(72)
    m = 6
    g = Metric.from_fractions(_square_det_metric(rng, m))
    requests = _star_requests(rng, m)
    serial = [HodgeOperator(g)(v) for v in requests]
    star = HodgeOperator(g)
    results = [None, None]

    def run(slot, order):
        results[slot] = {i: star(requests[i]) for i in order}

    order = list(range(len(requests)))
    threads = [
        threading.Thread(target=run, args=(0, order)),
        threading.Thread(target=run, args=(1, order[::-1])),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [dict(enumerate(serial))] * 2


# -- forms against the per-term loops of oracles.py ----------------------------


def _terms(form: KForm) -> dict:
    """The oracles' view of a form: {index tuple: term dict}."""
    return {monomial_indices(key): dict(p.terms) for key, p in form.terms.items()}


def _assert_form_canonical(form: KForm, m: int, degree: int):
    """Int keys of ``degree`` indices below m, no zero Poly, coefficients int
    when integral."""
    assert type(form) is KForm and (form.m, form.degree) == (m, degree)
    for key, p in form.terms.items():
        assert type(key) is int and key.bit_count() == degree and key < 1 << m
        assert type(p) is Poly and p.nvars == m and p.terms
        assert all(
            type(c) is int or (type(c) is Fraction and c.denominator > 1)
            for c in p.terms.values()
        )


def _raw_form_terms(rng: random.Random, m: int, degree: int, n: int) -> dict:
    """Up to n coefficients keyed by index tuples in any order.

    Some keys repeat an index (every key does above degree m), some
    coefficients are plain fractions, and some keys permute an earlier key
    with a coefficient that cancels it.
    """
    terms = {}
    for _ in range(rng.randint(0, n)):
        if degree > m:
            key = [rng.randrange(m) for _ in range(degree)]
        else:
            key = rng.sample(range(m), degree)
        if degree > 1 and rng.random() < 0.2:
            key[0] = key[-1]
        p = randgen.fraction(rng) if rng.random() < 0.2 else randgen.poly(rng, m)
        terms[tuple(key)] = p
        if len(set(key)) == degree > 1 and rng.random() < 0.4:
            twin = key[:]
            while twin == key:
                rng.shuffle(twin)
            terms[tuple(twin)] = -p * oracles.perm_sign(key) * oracles.perm_sign(twin)
    return terms


def _as_terms(value, m: int) -> dict:
    if isinstance(value, Poly):
        return dict(value.terms)
    return {(0,) * m: Fraction(value)} if value else {}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_kform_constructor_matches_per_term_oracle(seed, m):
    rng = random.Random(seed)
    degree = rng.randint(0, m + 1)
    raw = _raw_form_terms(rng, m, degree, 5)
    form = KForm(m, degree, raw)
    _assert_form_canonical(form, m, degree)
    assert _terms(form) == oracles.form_normalize((k, _as_terms(v, m)) for k, v in raw.items())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_wedge_and_d_match_per_term_oracle(seed, m):
    rng = random.Random(seed)
    da, db = rng.randint(0, m), rng.randint(0, m)
    a = KForm(m, da, _raw_form_terms(rng, m, da, 3))
    b = KForm(m, db, _raw_form_terms(rng, m, db, 3))
    ta, tb = _terms(a), _terms(b)
    cases = [
        (wedge(a, b), oracles.form_wedge(ta, tb), da + db),
        # a ^ a cancels pairwise for odd degree, and so does d(d a).
        (wedge(a, a), oracles.form_wedge(ta, ta), 2 * da),
        (exterior_derivative(a), oracles.form_d(ta, m), da + 1),
        (exterior_derivative(exterior_derivative(a)), {}, da + 2),
    ]
    for result, expected, degree in cases:
        _assert_form_canonical(result, m, degree)
        assert _terms(result) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_interior_product_matches_per_term_oracle(seed, m):
    rng = random.Random(seed)
    degree = rng.randint(1, m)
    a = KForm(m, degree, _raw_form_terms(rng, m, degree, 4))
    x = randgen.vector_field(rng, m)
    comps = [dict(c.terms) for c in x.components]
    once = interior_product(x, a)
    _assert_form_canonical(once, m, degree - 1)
    assert _terms(once) == oracles.form_contract(comps, _terms(a))
    if degree > 1:
        twice = interior_product(x, once)
        _assert_form_canonical(twice, m, degree - 2)
        assert _terms(twice) == oracles.form_contract(comps, _terms(once)) == {}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_sparse_kernels_on_entries_match_per_term_oracle(seed, m):
    # Constant forms: entries in place of Polys, each entry c read by the
    # oracle as the term dict {(): c} of a polynomial in no variables.
    rng = random.Random(seed)
    da, db = rng.randint(1, m), rng.randint(0, m)
    a = {k: p.constant_value() for k, p in randgen.form(rng, m, da, 4, constant=True).terms.items()}
    b = {k: p.constant_value() for k, p in randgen.form(rng, m, db, 4, constant=True).terms.items()}
    xi = {i: c for i in range(m) if (c := randgen.fraction(rng))}

    def entries(d):
        return _entries(tupled(d))

    assert entries(sparse_wedge(a, b)) == oracles.form_wedge(entries(a), entries(b))
    expected = oracles.form_contract([{(): Fraction(xi[i])} if i in xi else {} for i in range(m)], entries(a))
    assert entries(sparse_contract(xi, a)) == expected
    assert all(sparse_wedge(a, b).values()) and all(sparse_contract(xi, a).values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_sum_difference_and_scaled_match_per_term_oracle(seed, m):
    rng = random.Random(seed)
    degree = rng.randint(0, m)
    a = KForm(m, degree, _raw_form_terms(rng, m, degree, 4))
    # b repeats a's keys, half of them with a's coefficient negated, so that
    # a + b cancels there.
    shared = {
        monomial_indices(k): -p if rng.random() < 0.5 else randgen.poly(rng, m)
        for k, p in a.terms.items()
    }
    b = KForm(m, degree, {**_raw_form_terms(rng, m, degree, 2), **shared})
    factor = randgen.poly(rng, m)
    ta, tb = _terms(a), _terms(b)
    cases = [
        (a + b, oracles.form_add(ta, tb)),
        (a - b, oracles.form_add(ta, tb, -1)),
        (a - a, {}),
        (-a, oracles.form_add({}, ta, -1)),
        (a.scaled(factor), oracles.form_scale(ta, dict(factor.terms))),
        (a.scaled(Fraction(-2, 3)), oracles.form_scale(ta, {(0,) * m: Fraction(-2, 3)})),
    ]
    for result, expected in cases:
        _assert_form_canonical(result, m, degree)
        assert _terms(result) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_lie_bracket_matches_per_term_oracle(seed, m):
    rng = random.Random(seed)
    x, y = randgen.vector_field(rng, m), randgen.vector_field(rng, m)
    tx, ty = ([dict(c.terms) for c in v.components] for v in (x, y))
    for result, expected in [(lie_bracket(x, y), oracles.lie_bracket(tx, ty)), (lie_bracket(x, x), [{}] * m)]:
        assert type(result) is VectorField and result.m == m and type(result.components) is tuple
        assert all(type(c) is Poly and c.nvars == m for c in result.components)
        assert [dict(c.terms) for c in result.components] == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_poly_is_true_exactly_when_nonzero(seed, m):
    rng = random.Random(seed)
    p = randgen.poly(rng, m)
    for q in (p, p - p, p * 0, p + 1, -p, Poly.zero(m), Poly.const(m, Fraction(1, 2))):
        assert bool(q) == (not q.is_zero())
    assert not (p - p) and not Poly.zero(0) and Poly.const(0, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7))
def test_sparse_sum_keeps_a_lone_value_and_adds_the_rest(seed, m):
    # The first value of a key is stored as it is, not copied by 0 + p.
    rng = random.Random(seed)
    p, q = randgen.poly(rng, m), randgen.poly(rng, m)
    one_term = Poly(m, {(1,) * m: Fraction(3, 2)})
    total = linalg.sparse_sum([("a", one_term), ("b", p), ("b", q), ("c", p), ("c", -p)])
    assert total["a"] is one_term
    assert total.get("b") == (p + q or None) and "c" not in total
