import itertools
import random
from fractions import Fraction

import pytest

from cosym3 import (
    HodgeOperator,
    KForm,
    decompose,
    exterior_derivative,
    flat_torus,
    form_inner_product,
    harmonic_space,
    interior_product,
    lie_report,
    small_operators,
    wedge,
    xi_form,
)
from cosym3.liealg import (
    GENERATORS,
    DegenerateAlgebraError,
    _certify,
    analyze_operator_span,
    big_operators,
    render_bracket_entry,
)
from cosym3 import linalg

import cases
import oracles
import randgen


def test_xi_form_values(torus7):
    space, t = torus7
    m = 7
    assert xi_form(t, 1) == KForm(m, 2, {(0, 1): -1, (2, 3): -1})
    assert xi_form(t, 2) == KForm(m, 2, {(0, 2): -1, (1, 3): 1})
    assert xi_form(t, 3) == KForm(m, 2, {(0, 3): -1, (1, 2): -1})


def test_xi_form_horizontal_and_closed(torus7, m7f_model):
    for space, t in (torus7, m7f_model):
        for alpha in (1, 2, 3):
            xi2 = xi_form(t, alpha)
            assert exterior_derivative(xi2).is_zero()
            for beta in (1, 2, 3):
                assert interior_product(t.structure(beta).xi, xi2).is_zero()


def test_xi_form_contraction_from_definition(torus7):
    # i_{xi_2} of the summands: the eta_2^eta_3 part gives eta_3, and the
    # Reeb part of Phi_1 gives -eta_3; the horizontal total is 0.
    space, t = torus7
    from cosym3 import fundamental_form

    phi1 = fundamental_form(t.structure(1))
    eta23 = wedge(t.structure(2).eta, t.structure(3).eta)
    xi2 = t.structure(2).xi
    assert interior_product(xi2, eta23) == t.structure(3).eta
    assert interior_product(xi2, phi1) == -t.structure(3).eta
    assert interior_product(xi2, phi1 + eta23).is_zero()


def test_h_operator_scalars(torus7, torus7_table):
    # One basis of all basic forms, in increasing degree: dims 1, 4, 6, 4, 1.
    space, t = torus7
    ops = big_operators(space, t, torus7_table)
    assert torus7_table.bh == (1, 4, 6, 4, 1, 0, 0, 0)
    degrees = [k for k, d in enumerate(torus7_table.bh) for _ in range(d)]
    assert ops["H"] == {(i, i): 2 - k for i, k in enumerate(degrees) if k != 2}
    assert all(type(r) is int and type(c) is int for op in ops.values() for r, c in op)


def test_l_lambda_commutator_on_constants(torus7):
    # [L1, Lambda1] applied to the constant 1 equals -2 = -(2n - 0) for n = 1.
    space, t = torus7
    star = HodgeOperator(t.g)
    xi1 = xi_form(t, 1)
    one = KForm.constant(7, 1)

    def L(w):
        return wedge(xi1, w)

    def Lam(w):
        return star(L(star(w)))

    # Lam(1) lives below degree 0, so only the -Lam(L(1)) term contributes:
    # Lam(Xi_1) = <Xi_1, Xi_1> = 2, hence [L1, Lam1](1) = -2.
    assert Lam(L(one)) == KForm.constant(7, 2)
    assert form_inner_product(t.g, xi1, xi1) == 2


def test_l_vanishes_on_top_basic_degree(torus7, torus7_table):
    space, t = torus7
    top = torus7_table.component(4, (0, 0, 0))
    assert len(top) == 1
    for alpha in (1, 2, 3):
        assert wedge(xi_form(t, alpha), top[0]).is_zero()


def test_lie_report_torus7(torus7, torus7_table):
    space, t = torus7
    rep = lie_report(space, t, torus7_table)
    assert rep.independent
    assert rep.closed
    assert rep.span_dim == 10
    assert rep.killing_rank == 10
    assert rep.signature == (4, 6, 0)
    assert rep.h_commutator_sign == -1 and rep.h_commutator_uniform
    assert rep.jacobi_ok and rep.killing_invariance_ok
    assert rep.passed
    # [L_a, Lam_a] = -H for every alpha, as coefficient vectors.
    minus_h = tuple(
        Fraction(-1) if name == "H" else Fraction(0) for name in GENERATORS
    )
    for alpha in (1, 2, 3):
        assert rep.bracket(f"L{alpha}", f"Lam{alpha}") == minus_h
    assert render_bracket_entry(GENERATORS, minus_h) == "-H"


def test_lie_report_m7f(m7f_model, m7f_table):
    space, t = m7f_model
    rep = lie_report(space, t, m7f_table)
    assert rep.span_dim == 10
    assert rep.killing_rank == 10
    assert rep.signature == (4, 6, 0)
    assert rep.h_commutator_sign == -1
    assert rep.passed


def test_signature_matches_reference_realization(torus7, torus7_table):
    # Independent 5x5 so(4,1) realization: same Killing signature and rank.
    (oracle_sig, oracle_killing) = oracles.so41_killing_signature()
    assert oracle_sig == (4, 6, 0)
    space, t = torus7
    rep = lie_report(space, t, torus7_table)
    assert rep.signature == oracle_sig
    # And our span analysis agrees with the oracle on the reference algebra,
    # also after a seeded change of basis that makes every generator dense.
    gens = oracles.so41_generators()
    res = analyze_operator_span([oracles.sparse_matrix({0: g}) for g in gens])
    assert res.closed and res.span_dim == 10
    assert res.signature == oracle_sig
    assert res.killing_rank == 10
    p = randgen.unimodular(random.Random(5), 5, shears=20)
    p_inv = linalg.inverse(p)
    dense = [oracles.dense_mul(p, oracles.dense_mul(g, p_inv)) for g in gens]
    assert all(sum(1 for row in g for x in row if x) >= 23 for g in dense)
    conj = analyze_operator_span([oracles.sparse_matrix({0: g}) for g in dense])
    assert conj.bracket_coeffs == res.bracket_coeffs
    assert conj.killing_rank == 10 and conj.signature == oracle_sig


def _dense_consts(coeffs, count):
    """consts[i][j][k] of an upper-triangle bracket table, made antisymmetric."""
    consts = [[[0] * count for _ in range(count)] for _ in range(count)]
    for (i, j), c in coeffs.items():
        for k, x in c.items():
            consts[i][j][k], consts[j][i][k] = x, -x
    return consts


def test_certificate_matches_dense_oracles(torus7, torus7_table, m7f_model, m7f_table):
    # Killing form, Jacobi and invariance against the dense loops of the
    # oracles, on the two builtins and on the reference so(4,1) realization
    # before and after a seeded dense conjugation.
    gens = oracles.so41_generators()
    p = randgen.unimodular(random.Random(5), 5, shears=20)
    p_inv = linalg.inverse(p)
    dense = [oracles.dense_mul(p, oracles.dense_mul(g, p_inv)) for g in gens]
    spans = [
        lie_report(space, t, table)
        for (space, t), table in ((torus7, torus7_table), (m7f_model, m7f_table))
    ] + [
        analyze_operator_span([oracles.sparse_matrix({0: g}) for g in mats])
        for mats in (gens, dense)
    ]
    for span in spans:
        consts = _dense_consts(span.bracket_coeffs, 10)
        assert span.killing == oracles.killing_matrix(consts)
        assert span.jacobi_ok is oracles.jacobi_holds(consts) is True
        assert span.killing_invariance_ok is oracles.killing_invariant(consts) is True
    assert _dense_consts(spans[2].bracket_coeffs, 10) == oracles.structure_constants(gens)


@pytest.mark.parametrize(
    "coeffs, count, verdicts",
    [
        # J(0, 1, 2) = [x2, [x0, x1]] = -x1, and K([x2, x0], x1) + K(x0, [x2, x1])
        # = K(x1, x1) = 1.
        ({(0, 1): {0: -1}, (0, 2): {1: -1}}, 3, (False, False)),
        # J(0, 1, 2) = [x0, [x1, x2]] = x1; K = -(E02 + E20) is invariant.
        ({(0, 3): {1: 1}, (1, 2): {3: 1}}, 4, (False, True)),
    ],
    ids=["both-fail", "jacobi-fails-invariance-holds"],
)
def test_certificate_failing_verdicts(coeffs, count, verdicts):
    killing, jacobi_ok, invariance_ok = _certify(coeffs, count)
    consts = _dense_consts(coeffs, count)
    assert killing == oracles.killing_matrix(consts)
    assert (jacobi_ok, invariance_ok) == verdicts
    assert verdicts == (oracles.jacobi_holds(consts), oracles.killing_invariant(consts))


def test_certificate_matches_oracles_on_random_tables():
    # Antisymmetric tables of dimension 2 to 5 with a seeded density; most
    # break Jacobi, and a few of those still have an invariant Killing form.
    rng = random.Random(21)
    values = (-2, -1, 1, 2, Fraction(1, 2))
    seen = set()
    for _ in range(300):
        count = rng.randint(2, 5)
        density = rng.random()
        coeffs = {}
        for i, j in itertools.combinations(range(count), 2):
            c = {k: rng.choice(values) for k in range(count) if rng.random() < density}
            if c:
                coeffs[i, j] = c
        killing, jacobi_ok, invariance_ok = _certify(coeffs, count)
        consts = _dense_consts(coeffs, count)
        assert killing == oracles.killing_matrix(consts)
        assert jacobi_ok is oracles.jacobi_holds(consts)
        assert invariance_ok is oracles.killing_invariant(consts)
        seen.add((jacobi_ok, invariance_ok))
    assert seen == {(True, True), (False, False), (False, True)}


def test_adjointness_of_l_and_lambda(torus7, torus7_table, m7f_model, m7f_table):
    # <L_a x, y> = <x, Lam_a y> for basic harmonic x, y (Hodge pairing).
    for (space, t), table in ((torus7, torus7_table), (m7f_model, m7f_table)):
        star = HodgeOperator(t.g)
        for alpha in (1, 2, 3):
            xi2 = xi_form(t, alpha)
            for k in range(0, 3):
                for x in table.component(k, (0, 0, 0)):
                    for y in table.component(k + 2, (0, 0, 0)):
                        lhs = form_inner_product(t.g, wedge(xi2, x), y)
                        rhs = form_inner_product(t.g, x, star(wedge(xi2, star(y))))
                        assert lhs == rhs


def test_degenerate_for_n_zero():
    space, t = flat_torus(0)
    with pytest.raises(DegenerateAlgebraError):
        big_operators(space, t)
    with pytest.raises(DegenerateAlgebraError):
        lie_report(space, t)


def test_span_analysis_detects_non_closure():
    # {E12, E21} in gl(2) brackets into diag(1, -1): not closed, and the
    # saturated span is the 3-dimensional sl(2).  The same holds for E
    # raising degree 0 to 1 and F lowering it back, as graded operators.
    z, o = Fraction(0), Fraction(1)
    p = [[z, o], [z, z]]
    q = [[z, z], [o, z]]
    plain = [oracles.sparse_matrix({0: p}), oracles.sparse_matrix({0: q})]
    graded = [oracles.sparse_matrix({0: [[o]]}, 1), oracles.sparse_matrix({1: [[o]]}, -1)]
    for ops in (plain, graded):
        res = analyze_operator_span(ops)
        assert res.independent
        assert not res.closed
        assert res.span_dim == 3
        assert res.killing is None


def test_dependent_operators_take_the_closure_path():
    # [A, 2A, B] spans the same space as [A, B], whose bracket H = [A, B]
    # lies outside it: dependent, not closed, and the closure is sl(2).
    # [A, 2A] alone is dependent and closed.
    z, o = Fraction(0), Fraction(1)
    a = oracles.sparse_matrix({0: [[z, o], [z, z]]})
    b = oracles.sparse_matrix({0: [[z, z], [o, z]]})
    a2 = {key: 2 * x for key, x in a.items()}
    res = analyze_operator_span([a, a2, b])
    assert not res.independent and not res.closed
    assert res.span_dim == 3
    assert res.bracket_coeffs is res.killing is res.signature is None
    res = analyze_operator_span([a, a2])
    assert not res.independent and res.closed
    assert res.span_dim == 1
    assert res.bracket_coeffs is None


def test_bracket_matching_at_the_pivots_is_not_closed():
    # X = E12 and Y = E23 have their pivots at (0, 1) and (1, 2), where
    # [X, Y] = E13 is 0 like the combination 0 X + 0 Y; it differs from it
    # at (0, 2), so the span is not closed and closes to the Heisenberg
    # algebra span{E12, E23, E13}.
    z, o = Fraction(0), Fraction(1)

    def unit(r, c):
        return oracles.sparse_matrix({0: [[o if (i, j) == (r, c) else z for j in range(3)] for i in range(3)]})

    res = analyze_operator_span([unit(0, 1), unit(1, 2)])
    assert res.independent and not res.closed
    assert res.span_dim == 3
    assert res.bracket_coeffs is None


def test_bracket_coeffs_match_structure_constants_on_dense_conjugates():
    # Three more seeded changes of basis of the reference so(4,1)
    # realization: the coefficients are solved from pivot entries, and the
    # oracle solves every bracket over all 25 entries.
    gens = oracles.so41_generators()
    for seed in (21, 22, 23):
        p = randgen.unimodular(random.Random(seed), 5, shears=20)
        p_inv = linalg.inverse(p)
        dense = [oracles.dense_mul(p, oracles.dense_mul(g, p_inv)) for g in gens]
        res = analyze_operator_span([oracles.sparse_matrix({0: g}) for g in dense])
        consts = oracles.structure_constants(dense)
        expected = {
            (i, j): {k: x for k, x in enumerate(consts[i][j]) if x}
            for i, j in itertools.combinations(range(10), 2)
        }
        assert res.bracket_coeffs == expected, seed
        assert res.signature == (4, 6, 0) and res.jacobi_ok and res.killing_invariance_ok


def test_span_analysis_keys_keep_target_degree():
    # A keeps degree 0 and B maps it to degree 1 with the same block: they
    # differ only in the target degree, and [A, B] = -B.
    one = [[Fraction(1)]]
    res = analyze_operator_span(
        [oracles.sparse_matrix({0: one}, 0), oracles.sparse_matrix({0: one}, 1)]
    )
    assert res.independent
    assert res.closed and res.span_dim == 2
    assert res.bracket_coeffs == {(0, 1): {1: Fraction(-1)}}


def test_lie_report_on_deformed_structure(torus7):
    # The operator algebra certificate also holds after a D_a deformation
    # (a genuinely different compatible metric enters the Hodge star).
    from cosym3 import d_homothetic_deform, decompose

    space, t = torus7
    deformed = d_homothetic_deform(t, Fraction(2))
    rep = lie_report(space, deformed, decompose(space, deformed))
    assert rep.passed
    assert rep.signature == (4, 6, 0)
    assert rep.h_commutator_sign == -1


def test_bracket_table_antisymmetry(torus7, torus7_table):
    space, t = torus7
    rep = lie_report(space, t, torus7_table)
    for left in GENERATORS:
        for right in GENERATORS:
            forward = rep.bracket(left, right)
            backward = rep.bracket(right, left)
            assert forward == tuple(-c for c in backward)


def test_attributes_the_bench_tracer_patches(torus7, torus7_table, monkeypatch):
    # bench/tracing.py times layers by replacing these module attributes, so a
    # refactor that renames one, or stops reaching the star through
    # liealg.HodgeOperator, would silently zero a per-layer metric.
    from cosym3 import cli, cohomology, liealg, structures

    for module, names in (
        (cli, ("_load_model", "check_three_cosymplectic", "monodromy_invariance",
               "d_homothetic_deform", "verify_ladder", "lie_report", "decompose")),
        (structures, ("nijenhuis_tensor", "check_quaternionic")),
        (cohomology, ("harmonic_space", "small_operators")),
        (linalg, ("rref", "kernel_basis")),
        (liealg, ("big_operators", "analyze_operator_span", "decompose", "HodgeOperator")),
    ):
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    calls = []

    class CountingHodge(liealg.HodgeOperator):
        def __call__(self, omega):
            calls.append(omega)
            return super().__call__(omega)

    monkeypatch.setattr(liealg, "HodgeOperator", CountingHodge)
    space, t = torus7
    assert liealg.lie_report(space, t, torus7_table).passed
    assert calls
    ops = cohomology.small_operators(space, t)
    assert all(isinstance(op.blocks, dict) for op in ops.values())


def _pipeline_entries(space, t, table):
    """Every entry of the harmonic and component bases, of the small and big
    operator blocks, and of the bracket coefficients and the Killing form."""
    harmonic = [harmonic_space(space, t, k) for k in range(t.m + 1)]
    components = [span.vectors for span in table.spans.values()]
    rep = lie_report(space, t, table)
    small = small_operators(space, t).values()
    yield from (x for vectors in harmonic + components for v in vectors for x in v.values())
    yield from (x for op in small for block in op.sparse_blocks.values() for x in block.values())
    yield from (x for op in rep.operators.values() for x in op.values())
    yield from (x for coeffs in rep.bracket_coeffs.values() for x in coeffs.values())
    yield from (x for row in rep.killing for x in row)


def test_no_integral_fraction_in_spans_or_big_operators():
    # Sums of Fraction products can be integral; where spans and operator
    # blocks are made such a sum must become its int.
    space, t = cases.gl7_torus7()
    table = decompose(space, t)
    spans = [x for span in table.spans.values() for v in span.vectors for x in v.values()]
    ops = big_operators(space, t, table).values()
    blocks = [x for op in ops for x in op.values()]
    for entries in (spans, blocks):
        assert not [x for x in entries if type(x) is Fraction and x.denominator == 1]
        assert any(type(x) is Fraction for x in entries)


@pytest.mark.parametrize("name", ["torus7", "m7f", "gl7_torus7"])
def test_pipeline_entries_are_ints_or_fractions(name, torus7, torus7_table, m7f_model, m7f_table):
    space, t = {"torus7": torus7, "m7f": m7f_model, "gl7_torus7": cases.gl7_torus7()}[name]
    table = {"torus7": torus7_table, "m7f": m7f_table}.get(name) or decompose(space, t)
    kinds = {type(x) for x in _pipeline_entries(space, t, table)}
    if name == "gl7_torus7":
        # Its bases have denominators up to 8, so both kinds occur.
        assert kinds == {int, Fraction}
    else:
        # Integral data stays int end to end; no Fraction is made for it.
        assert kinds == {int}


class _DtStar(HodgeOperator):
    """The Hodge star with dx5 (key 1 << 4) added to every 1-form it returns."""

    def __call__(self, omega):
        out = super().__call__(omega)
        if out and min(out).bit_count() == 1:
            out = linalg.sparse_sum([*out.items(), (1 << 4, 1)])
        return out


@pytest.mark.parametrize(
    "extra_alpha, message",
    [
        (None, "Lambda1 does not preserve the basic harmonic forms at degree 3"),
        (2, "Lambda1 does not preserve the basic harmonic forms at degree 3"),
        (1, "L1 does not preserve the basic harmonic forms at degree 0"),
    ],
    ids=["lambda1", "alpha-1-before-L2", "lower-degree-first"],
)
def test_big_operator_failure_order(torus7, torus7_table, monkeypatch, extra_alpha, message):
    # The first failure is reported: alpha = 1, 2, 3 in turn, then the lowest
    # source degree, then L before Lambda.  Only Lambda leaves the basic forms
    # through the patched star (at degree 3, whose Lambda image is a 1-form),
    # and eta_2 ^ eta_3 added to one Xi_alpha makes that L fail at degree 0.
    from cosym3 import liealg

    space, t = torus7
    xi = liealg.xi_form

    def patched_xi(t, alpha):
        extra = wedge(t.structure(2).eta, t.structure(3).eta)
        return xi(t, alpha) + extra if alpha == extra_alpha else xi(t, alpha)

    monkeypatch.setattr(liealg, "HodgeOperator", _DtStar)
    monkeypatch.setattr(liealg, "xi_form", patched_xi)
    with pytest.raises(liealg.CohomologyError) as err:
        lie_report(space, t, torus7_table)
    assert str(err.value) == message
