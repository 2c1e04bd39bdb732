"""Exact verdicts of every checker, failing ones included, on inputs built by hand.

The golden reports reach only the verdicts of ``check_three_cosymplectic``
and of the pinned CLI runs, which all pass their monodromy, ladder and Betti
checks.  These tests pin the ``CheckItem.to_dict()`` of the other verdicts:
the monodromy checks, the ladder, the quaternionic module, the Betti
arithmetic and both kinds of positive-definiteness witness, each on a
monodromy, structure or harmonic table that fails on purpose.
"""

import dataclasses
from fractions import Fraction

from cosym3 import (
    AlmostContactMetricStructure,
    EndField,
    KForm,
    Metric,
    ThreeStructure,
    VectorField,
    check_three_cosymplectic,
    linalg,
)
from cosym3.cohomology import BASIC, HarmonicTable, betti_checks, quaternion_module, verify_ladder
from cosym3.exterior import monomial_key
from cosym3.models import (
    check_hyper_kahler_isometry,
    hyper_kahler_blocks,
    monodromy_invariance,
    quaternion_left_mult,
)
from cosym3.poly import Poly

import cases


def fail(name, witness):
    return {"name": name, "passed": False, "witness": witness}


def ok(name, witness=None):
    return {"name": name, "passed": True} | ({} if witness is None else {"witness": witness})


def dicts(report):
    return [item.to_dict() for item in report]


def scalar(m, c):
    return EndField.from_fractions([[c if i == j else 0 for j in range(m)] for i in range(m)])


def with_monodromy(space, f):
    """``space`` with its monodromy replaced by ``f``, which no check vets."""
    return dataclasses.replace(space, topology=dataclasses.replace(space.topology, monodromy=f))


def test_hyper_kahler_isometry_witnesses():
    data = hyper_kahler_blocks(1)
    half = check_hyper_kahler_isometry(scalar(4, Fraction(1, 2)), data)
    assert dicts(half) == [
        fail("monodromy_integer_entries", "non-integer entry"),
        fail("monodromy_unimodular", "det = 1/16"),
        fail("monodromy_isometry", "f^T G f != G"),
        ok("monodromy_commutes_J1"),
        ok("monodromy_commutes_J2"),
        ok("monodromy_commutes_J3"),
    ]
    doubled = check_hyper_kahler_isometry(scalar(4, 2), data)
    assert dicts(doubled)[1] == fail("monodromy_unimodular", "det = 16")
    # Left multiplication by j anticommutes with J1 = L_i and J3 = L_k.
    left_j = check_hyper_kahler_isometry(quaternion_left_mult("j"), data)
    assert dicts(left_j) == [
        ok("monodromy_integer_entries"),
        ok("monodromy_unimodular"),
        ok("monodromy_isometry"),
        fail("monodromy_commutes_J1", "f J1 != J1 f"),
        ok("monodromy_commutes_J2"),
        fail("monodromy_commutes_J3", "f J3 != J3 f"),
    ]


def test_monodromy_invariance_witnesses(m7f_model):
    space, t = m7f_model
    # F = 2 I (+) I_3 scales g and every Phi on the fiber.
    assert dicts(monodromy_invariance(with_monodromy(space, scalar(4, 2)), t)) == [
        fail("monodromy_fixes_metric", "F^T g F != g"),
        *(
            item
            for alpha in (1, 2, 3)
            for item in (
                ok(f"monodromy_fixes_eta[{alpha}]"),
                fail(f"monodromy_fixes_Phi[{alpha}]", "F* Phi != Phi"),
                ok(f"monodromy_fixes_phi[{alpha}]"),
                ok(f"monodromy_fixes_xi[{alpha}]"),
            )
        ),
    ]
    # F = L_j (+) I_3 commutes with phi_2 only; eta_1 and xi_1 gain a fiber part.
    s = t.structure(1)
    moved = AlmostContactMetricStructure(
        s.phi, s.xi + VectorField.coordinate(7, 0), s.eta + KForm.coordinate(7, 0), s.g
    )
    t1 = ThreeStructure([moved, t.structure(2), t.structure(3)])
    assert dicts(monodromy_invariance(with_monodromy(space, quaternion_left_mult("j")), t1)) == [
        ok("monodromy_fixes_metric"),
        fail("monodromy_fixes_eta[1]", "F* eta != eta"),
        fail("monodromy_fixes_Phi[1]", "F* Phi != Phi"),
        fail("monodromy_fixes_phi[1]", "F phi != phi F"),
        fail("monodromy_fixes_xi[1]", "F xi != xi"),
        ok("monodromy_fixes_eta[2]"),
        ok("monodromy_fixes_Phi[2]"),
        ok("monodromy_fixes_phi[2]"),
        ok("monodromy_fixes_xi[2]"),
        ok("monodromy_fixes_eta[3]"),
        fail("monodromy_fixes_Phi[3]", "F* Phi != Phi"),
        fail("monodromy_fixes_phi[3]", "F phi != phi F"),
        ok("monodromy_fixes_xi[3]"),
    ]
    # g = diag(2, 1, ..., 1): no fundamental form is antisymmetric.
    g = Metric.from_fractions([[(2 if i == 0 else 1) if i == j else 0 for j in range(7)] for i in range(7)])
    t2 = ThreeStructure([AlmostContactMetricStructure(x.phi, x.xi, x.eta, g) for x in t.structures])
    items = dicts(monodromy_invariance(space, t2))
    assert items[0] == fail("monodromy_fixes_metric", "F^T g F != g")
    assert [items[2], items[6], items[10]] == [
        fail(f"monodromy_fixes_Phi[{alpha}]", f"fundamental form not antisymmetric at entry (1,{alpha + 1})")
        for alpha in (1, 2, 3)
    ]


def test_structure_witnesses_of_a_nonclosed_eta():
    report = check_three_cosymplectic(cases.nonclosed_eta7())
    assert report.item("almost_contact[1].eta_xi_one").to_dict() == fail(
        "almost_contact[1].eta_xi_one", "eta(xi) - 1 = x6^2"
    )
    assert report.item("reeb_metric_dual[1]").to_dict() == fail(
        "reeb_metric_dual[1]", "g(xi) - eta component 3: -x1*x2"
    )


def test_positive_definite_witnesses(torus7):
    _, t = torus7
    # A constant g with leading minors 1 and -3.
    rows = [[int(i == j) for j in range(7)] for i in range(7)]
    rows[0][1] = rows[1][0] = 2
    g = Metric.from_fractions(rows)
    bad = ThreeStructure([AlmostContactMetricStructure(s.phi, s.xi, s.eta, g) for s in t.structures])
    assert check_three_cosymplectic(bad).item("metric_positive_definite").to_dict() == fail(
        "metric_positive_definite", "a leading principal minor is <= 0"
    )
    assert check_three_cosymplectic(t).item("metric_positive_definite").to_dict() == ok(
        "metric_positive_definite"
    )
    # A non-constant metric is checked at the origin: g_11 = 1 - x1 is
    # positive there, and g_11 = x1 - 1 is not.
    for sign, expected in (
        (1, ok("metric_positive_definite", "non-constant metric checked at 1 sample point(s)")),
        (-1, fail("metric_positive_definite", "leading principal minor <= 0 at sample point (0, 0, 0, 0, 0, 0, 0)")),
    ):
        rows = [list(row) for row in t.g.entries]
        rows[0][0] = (rows[0][0] - Poly.variable(7, 0)) * sign
        g = Metric(rows)
        poly = ThreeStructure([AlmostContactMetricStructure(s.phi, s.xi, s.eta, g) for s in t.structures])
        assert check_three_cosymplectic(poly).item("metric_positive_definite").to_dict() == expected


def test_ladder_witnesses(torus7, torus7_table):
    space, t = torus7
    table = torus7_table
    spans = dict(table.spans)
    # dt1 in place of dt2 at (1, 010): l1 kills it, l2 of 1 leaves it.
    spans[(1, (0, 1, 0))] = linalg.EchelonBasis([{monomial_key((4,)): 1}])
    spans[(3, (1, 1, 1))] = linalg.EchelonBasis([])
    report = verify_ladder(space, t, HarmonicTable(table.m, spans, table.b, table.bh))
    assert len(report) == 60
    assert [item.to_dict() for item in report.failures()] == [
        fail("ladder[k=0].l1.010->110", "restriction is not injective"),
        fail("ladder[k=0].l1.011->111", "dims 1 -> 0"),
        fail("ladder[k=0].l2.000->010", "image leaves the target component"),
        fail("ladder[k=0].l2.101->111", "dims 1 -> 0"),
        fail("ladder[k=0].l3.010->011", "image leaves the target component"),
        fail("ladder[k=0].l3.110->111", "dims 1 -> 0"),
    ]


def test_ladder_witnesses_of_a_rank_deficient_image(torus7, torus7_table):
    space, t = torus7
    table = torus7_table
    spans = dict(table.spans)
    # dx2, dx3, dx4 and dt1 at (1, 000): l1 = dt1 ^ maps them onto a rank-3
    # subspace of (2, 100), and l2 and l3 take dt1 out of their targets.
    spans[(1, BASIC)] = linalg.EchelonBasis([{monomial_key((i,)): 1} for i in (1, 2, 3, 4)])
    report = verify_ladder(space, t, HarmonicTable(table.m, spans, table.b, table.bh))
    assert len(report) == 60
    assert [item.to_dict() for item in report.failures()] == [
        fail("ladder[k=1].l1.000->100", "restriction is not injective"),
        fail("ladder[k=1].l2.000->010", "image leaves the target component"),
        fail("ladder[k=1].l3.000->001", "image leaves the target component"),
    ]


def test_quaternion_module_witnesses(torus7, torus7_table):
    space, t = torus7
    table = torus7_table
    spans = dict(table.spans)
    spans[(1, BASIC)] = linalg.EchelonBasis([{monomial_key((0,)): 1}])
    lone = quaternion_module(space, t, 1, HarmonicTable(table.m, spans, table.b, table.bh))
    assert dicts(lone) == [
        fail("hmodule_preserved[1]", "pullback leaves the component"),
        fail("hmodule_preserved[2]", "pullback leaves the component"),
        fail("hmodule_preserved[3]", "pullback leaves the component"),
        fail("hmodule_dim_div4[k=1]", "dim = 1 not divisible by 4"),
    ]
    # phi_1 = I pulls back to the identity.
    flat = quaternion_module(space, cases.replace_structure(t, 1, phi=EndField.identity(7)), 1, table)
    assert dicts(flat) == [
        ok("hmodule_preserved[1]"),
        ok("hmodule_preserved[2]"),
        ok("hmodule_preserved[3]"),
        fail("hmodule_I1_squared_minus_id", "I^2 != -id"),
        ok("hmodule_I2_squared_minus_id"),
        ok("hmodule_I3_squared_minus_id"),
        fail("hmodule_I1I2_eq_minus_I3", "quaternion relation fails"),
        fail("hmodule_I2I3_eq_minus_I1", "quaternion relation fails"),
        fail("hmodule_I3I1_eq_minus_I2", "quaternion relation fails"),
        ok("hmodule_dim_div4[k=1]", "dim = 4"),
    ]


def test_betti_check_witnesses():
    report = betti_checks(HarmonicTable(7, {}, (1, 1, 0, 0, 0, 0, 0, 2), (1, 1, 0, 0, 0, 0, 0, 0)))
    assert dicts(report) == [
        ok("betti_formula[k=0]"),
        fail("betti_formula[k=1]", "b_1 = 1, formula gives 4"),
        fail("betti_formula[k=2]", "b_2 = 0, formula gives 6"),
        fail("betti_formula[k=3]", "b_3 = 0, formula gives 4"),
        fail("betti_formula[k=4]", "b_4 = 0, formula gives 1"),
        ok("betti_formula[k=5]"),
        ok("betti_formula[k=6]"),
        fail("betti_formula[k=7]", "b_7 = 2, formula gives 0"),
        fail("basic_betti_div4[k=1]", "bh_1 = 1"),
        fail("betti_sum_div4[k=1]", "b_0 + b_1 = 2"),
        ok("basic_betti_div4[k=3]"),
        ok("betti_sum_div4[k=3]"),
        ok("basic_betti_div4[k=5]"),
        ok("betti_sum_div4[k=5]"),
        ok("basic_betti_div4[k=7]"),
        fail("betti_sum_div4[k=7]", "b_6 + b_7 = 2"),
        ok("betti_lower_bound[k=0]", "b_0 = 1 >= C(0+2,2) = 1"),
        fail("betti_lower_bound[k=1]", "b_1 = 1 < 3"),
        fail("betti_lower_bound[k=2]", "b_2 = 0 < 6"),
        fail("betti_lower_bound[k=3]", "b_3 = 0 < 10"),
        ok("wakakuwa_bound[k=0]", "b_0 = 1 >= 1 (weaker even-degree bound)"),
        fail("wakakuwa_bound[k=1]", "b_2 = 0 < 3 (weaker even-degree bound)"),
        fail("poincare_duality[k=0]", "b_0 = 1 != b_7 = 2"),
        fail("poincare_duality[k=1]", "b_1 = 1 != b_6 = 0"),
        ok("poincare_duality[k=2]"),
        ok("poincare_duality[k=3]"),
        ok("poincare_duality[k=4]"),
        ok("poincare_duality[k=5]"),
        fail("poincare_duality[k=6]", "b_6 = 0 != b_1 = 1"),
        fail("poincare_duality[k=7]", "b_7 = 2 != b_0 = 1"),
        fail("euler_characteristic_zero", "chi = -2"),
    ]
