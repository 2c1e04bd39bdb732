"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import functools
import random
import time
from fractions import Fraction

from cosym3 import (
    HodgeOperator,
    KForm,
    betti_checks,
    check_three_cosymplectic,
    d_homothetic_deform,
    decompose,
    exterior_derivative,
    flat_torus,
    interior_product,
    invariant_forms,
    lie_bracket,
    lie_report,
    m7f,
    euclidean_space,
    monodromy_invariance,
    verify_ladder,
    wedge,
)
from cosym3.cohomology import EPS_ORDER
from cosym3.liealg import GENERATORS, analyze_operator_span

import oracles
import randgen


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return run

    return wrap


@criterion(1, "full 3-cosymplectic check on builtins; 50 mutants all detected; < 5 s")
def test_criterion_1_checks_and_mutants():
    start = time.perf_counter()
    for build in (euclidean_space, flat_torus):
        space, t = build(1)
        report = check_three_cosymplectic(t)
        assert report.passed, [i.name for i in report.failures()]
        names = [i.name for i in report]
        assert sum(1 for n in names if n.startswith("quaternionic")) == 18
        assert all(f"closed_eta[{a}]" in names for a in (1, 2, 3))
        assert all(f"closed_Phi[{a}]" in names for a in (1, 2, 3))
        assert all(f"normality_tensor_zero[{a}]" in names for a in (1, 2, 3))
        assert all(f"compatible[{a}]" in names for a in (1, 2, 3))
    space, t = m7f()
    assert check_three_cosymplectic(t).passed
    assert monodromy_invariance(space, t).passed

    rng = random.Random(20240917)
    models = [flat_torus(1)[1], m7f()[1]]
    for i in range(50):
        mutant, desc = randgen.mutate_structure(rng, models[i % 2])
        report = check_three_cosymplectic(mutant)
        assert not report.passed, f"undetected mutant: {desc}"
        assert report.failures()[0].name, desc
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"criterion 1 took {elapsed:.2f}s"


@criterion(2, "exact Betti tables: torus7 and m7f, b2(m7f) = 7 < 21 < 25; < 5 s")
def test_criterion_2_betti_tables():
    start = time.perf_counter()
    space, t = flat_torus(1)
    table7 = decompose(space, t)
    assert table7.b == (1, 7, 21, 35, 35, 21, 7, 1)
    space, t = m7f()
    table_f = decompose(space, t)
    assert table_f.b == (1, 3, 7, 13, 13, 7, 3, 1)
    assert table_f.b[2] == 7
    b2_t4_x_t3 = 21  # quoted: b2 of T4 x T3
    b2_k3_x_t3 = 25  # quoted: b2 of K3 x T3 (b2(K3) = 22 plus 3)
    assert table_f.b[2] < b2_t4_x_t3 < b2_k3_x_t3
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"criterion 2 took {elapsed:.2f}s"


@criterion(3, "Betti formula, decomposition dims, and ladder bijections exact")
def test_criterion_3_formula_and_ladder(torus7, torus7_table, m7f_model, m7f_table):
    for (space, t), table in ((torus7, torus7_table), (m7f_model, m7f_table)):
        m = table.m
        b, bh = table.b, table.bh

        def bh_at(j):
            return bh[j] if 0 <= j <= m else 0

        for k in range(m + 1):
            assert b[k] == bh_at(k) + 3 * bh_at(k - 1) + 3 * bh_at(k - 2) + bh_at(k - 3)
            total = 0
            for eps in EPS_ORDER:
                dim = len(table.component(k, eps))
                assert dim == bh_at(k - sum(eps))
                total += dim
            assert total == b[k]
        ladder = verify_ladder(space, t, table)
        assert ladder.passed, [i.name for i in ladder.failures()]


@criterion(4, "divisibility by 4 and binomial lower bounds (1,3,7,13 vs 1,3,6,10)")
def test_criterion_4_arithmetic(torus7_table, m7f_table):
    for table in (torus7_table, m7f_table):
        m = table.m
        for k in range(1, m + 1, 2):
            assert table.bh[k] % 4 == 0
            assert (table.b[k - 1] + table.b[k]) % 4 == 0
        report = betti_checks(table)
        assert report.passed, [i.name for i in report.failures()]
    for k, bound in ((0, 1), (1, 3), (2, 6), (3, 10)):
        assert m7f_table.b[k] >= bound
    assert [m7f_table.b[k] for k in range(4)] == [1, 3, 7, 13]


@criterion(5, "so(4,1) certificate: span 10, [L,Lam] = -H, Killing (4,6); < 10 s")
def test_criterion_5_so41():
    start = time.perf_counter()
    oracle_sig, _ = oracles.so41_killing_signature()
    assert oracle_sig == (4, 6, 0)
    reference = analyze_operator_span(
        [oracles.sparse_matrix({0: g}) for g in oracles.so41_generators()]
    )
    assert reference.span_dim == 10
    assert reference.signature == oracle_sig
    for build in (flat_torus, None):
        space, t = flat_torus(1) if build else m7f()
        table = decompose(space, t)
        rep = lie_report(space, t, table)
        assert rep.independent and rep.closed
        assert rep.span_dim == 10
        minus_h = tuple(
            Fraction(-1) if name == "H" else Fraction(0) for name in GENERATORS
        )
        for alpha in (1, 2, 3):
            assert rep.bracket(f"L{alpha}", f"Lam{alpha}") == minus_h
        assert rep.killing_rank == 10
        assert rep.signature == oracle_sig
        assert rep.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"criterion 5 took {elapsed:.2f}s"


@criterion(6, "D_a deformations for a in {1, 2, 1/2, 7/3}: checks and composition law")
def test_criterion_6_deformation(torus7):
    space, t = torus7
    for a in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7, 3)):
        deformed = d_homothetic_deform(t, a)
        assert check_three_cosymplectic(deformed).passed, f"a = {a}"
        for b in (Fraction(2), Fraction(7, 3)):
            lhs = d_homothetic_deform(deformed, b)
            rhs = d_homothetic_deform(t, a * b)
            for alpha in (1, 2, 3):
                assert lhs.structure(alpha).phi == rhs.structure(alpha).phi
                assert lhs.structure(alpha).xi == rhs.structure(alpha).xi
                assert lhs.structure(alpha).eta == rhs.structure(alpha).eta
            assert lhs.g == rhs.g
    same = d_homothetic_deform(t, 1)
    assert same.g == t.g
    for alpha in (1, 2, 3):
        assert same.structure(alpha).phi == t.structure(alpha).phi
        assert same.structure(alpha).xi == t.structure(alpha).xi
        assert same.structure(alpha).eta == t.structure(alpha).eta


# -- criterion 7: randomized property suites, >= 500 cases each ---------------

CASES = 500


def _suite_d_squared(rng):
    for _ in range(CASES):
        m = rng.randint(1, 4)
        k = rng.randint(0, m - 1)
        omega = randgen.form(rng, m, k)
        assert exterior_derivative(exterior_derivative(omega)).is_zero()


def _suite_leibniz(rng):
    for _ in range(CASES):
        m = rng.randint(2, 4)
        ka = rng.randint(0, m)
        kb = rng.randint(0, m)
        a = randgen.form(rng, m, ka, max_terms=2)
        b = randgen.form(rng, m, kb, max_terms=2)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b)
        tail = wedge(a, exterior_derivative(b))
        rhs = rhs + (tail if ka % 2 == 0 else -tail)
        assert lhs == rhs


def _suite_interior_antiderivation(rng):
    for _ in range(CASES):
        m = rng.randint(2, 4)
        ka = rng.randint(1, m)
        kb = rng.randint(1, m)
        a = randgen.form(rng, m, ka, max_terms=2)
        b = randgen.form(rng, m, kb, max_terms=2)
        x = randgen.vector_field(rng, m)
        lhs = interior_product(x, wedge(a, b))
        rhs = wedge(interior_product(x, a), b)
        tail = wedge(a, interior_product(x, b))
        rhs = rhs + (tail if ka % 2 == 0 else -tail)
        assert lhs == rhs


def _suite_jacobi(rng):
    for _ in range(CASES):
        m = rng.randint(2, 3)
        x = randgen.vector_field(rng, m)
        y = randgen.vector_field(rng, m)
        z = randgen.vector_field(rng, m)
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()


def _suite_double_star_dim7(rng):
    for _ in range(CASES):
        dense = rng.random() < 0.06
        g = randgen.spd_metric_square_det(rng, 7, dense=dense)
        star = HodgeOperator(g)
        k = rng.randint(0, 3) if dense else rng.randint(0, 7)
        omega = randgen.form(rng, 7, k, max_terms=1 if dense else 3, constant=True)
        assert star(star(omega)) == omega


def _suite_e_idempotent(rng, t7, tf):
    structures = [t7, tf]
    for i in range(CASES):
        t = structures[i % 2]
        m = t.m
        k = rng.randint(1, m)
        omega = randgen.form(rng, m, k, max_terms=2, constant=True)

        def e(alpha, w):
            if w.degree == 0:
                return KForm(m, 0)
            s = t.structure(alpha)
            return wedge(s.eta, interior_product(s.xi, w))

        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        assert e(a, e(a, omega)) == e(a, omega)
        assert e(a, e(b, omega)) == e(b, e(a, omega))


def _suite_projector_trace(rng):
    for _ in range(CASES):
        a = randgen.finite_order_matrix(rng)
        q = rng.randint(0, a.m)
        order = oracles.matrix_power_order(a.to_fractions())
        basis = invariant_forms(a, q, order)  # trace cross-check runs inside
        mat = oracles.pullback_matrix(a.to_fractions(), q)
        n = len(mat)
        diff = [
            [mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        assert len(basis) == len(oracles.kernel_basis(diff))


@criterion(7, "seven randomized property suites, 500 cases each")
def test_criterion_7_property_suites(torus7, m7f_model):
    _suite_d_squared(random.Random(101))
    _suite_leibniz(random.Random(102))
    _suite_interior_antiderivation(random.Random(103))
    _suite_jacobi(random.Random(104))
    _suite_double_star_dim7(random.Random(105))
    _suite_e_idempotent(random.Random(106), torus7[1], m7f_model[1])
    _suite_projector_trace(random.Random(107))
