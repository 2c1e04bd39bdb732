import random
import time
from fractions import Fraction

import pytest
import sympy

from cosym3 import (
    AlmostContactMetricStructure,
    EndField,
    KForm,
    Metric,
    ThreeStructure,
    VectorField,
    check_almost_contact,
    check_compatible,
    check_quaternionic,
    check_three_cosymplectic,
    d_homothetic_deform,
    euclidean_space,
    exterior_derivative,
    fundamental_form,
    nijenhuis_tensor,
)
from cosym3.poly import Poly, as_fraction
from cosym3.structures import DimensionError, StructureError

import cases
import randgen


def test_standard_models_pass(standard7, torus7):
    for space, t in (standard7, torus7):
        report = check_three_cosymplectic(t)
        assert report.passed, [i.name for i in report.failures()]


def test_fundamental_form_oracle(standard7):
    space, t = standard7
    s = t.structure(1)
    # Independent entrywise assembly of g(e_i, phi e_j) with plain Fractions.
    g = s.g.to_fractions()
    phi = s.phi.to_fractions()
    m = t.m
    b = [[sum(g[i][k] * phi[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            assert b[i][j] == -b[j][i]
    expected = KForm(m, 2, {(i, j): b[i][j] for i in range(m) for j in range(i + 1, m) if b[i][j]})
    assert fundamental_form(s) == expected
    # Frozen value from the oracle: Phi_1 = -(dx1^dx2 + dx3^dx4 + dt2^dt3).
    assert expected == KForm(m, 2, {(0, 1): -1, (2, 3): -1, (5, 6): -1})


def test_fundamental_form_degenerate_and_reeb_contraction(standard7):
    m = 7
    zero_phi = EndField.zero(m)
    zero_eta = KForm(m, 1)
    s = AlmostContactMetricStructure(
        zero_phi, VectorField.coordinate(m, 4), zero_eta, Metric.identity(m)
    )
    assert fundamental_form(s).is_zero()
    space, t = standard7
    for alpha in (1, 2, 3):
        sa = t.structure(alpha)
        phi_form = fundamental_form(sa)
        from cosym3 import interior_product

        assert interior_product(sa.xi, phi_form).is_zero()


def test_fundamental_form_antisymmetry_failure():
    m = 3
    phi = EndField.identity(m)
    s = AlmostContactMetricStructure(
        phi, VectorField.coordinate(m, 0), KForm.coordinate(m, 0), Metric.identity(m)
    )
    with pytest.raises(StructureError):
        fundamental_form(s)


def test_almost_contact_sign_insensitivity(torus7):
    space, t = torus7
    s = t.structure(1)
    report = check_almost_contact(s)
    assert report.passed
    flipped = AlmostContactMetricStructure(-s.phi, s.xi, s.eta, s.g)
    report = check_almost_contact(flipped)
    assert report.item("almost_contact.phi_squared").passed
    assert report.item("almost_contact.eta_phi_zero").passed
    doubled = AlmostContactMetricStructure(s.phi, s.xi.scaled(2), s.eta, s.g)
    report = check_almost_contact(doubled)
    assert not report.item("almost_contact.eta_xi_one").passed
    assert not report.item("almost_contact.phi_squared").passed


def test_compatibility(torus7):
    space, t = torus7
    s = t.structure(1)
    assert check_compatible(s).passed
    doubled_g = Metric([[p * 2 for p in row] for row in s.g.entries])
    bad = AlmostContactMetricStructure(s.phi, s.xi, s.eta, doubled_g)
    assert not check_compatible(bad).passed
    for a in (2, Fraction(1, 2), Fraction(7, 3)):
        deformed = d_homothetic_deform(t, a)
        for alpha in (1, 2, 3):
            assert check_compatible(deformed.structure(alpha)).passed


def test_nijenhuis_constant_phi_vanishes(torus7):
    space, t = torus7
    for alpha in (1, 2, 3):
        s = t.structure(alpha)
        result = nijenhuis_tensor(s.phi, s.eta, s.xi)
        assert result.phi_tensor_vanishes
        assert result.normality_tensor_vanishes


def _sympy_nijenhuis(phi_rows, xs):
    m = len(xs)
    phi = sympy.Matrix(phi_rows)

    def bracket(x_comp, y_comp):
        return [
            sum(
                x_comp[l] * sympy.diff(y_comp[k], xs[l])
                - y_comp[l] * sympy.diff(x_comp[k], xs[l])
                for l in range(m)
            )
            for k in range(m)
        ]

    def apply(vec):
        return [sum(phi[k, l] * vec[l] for l in range(m)) for k in range(m)]

    cols = [[phi[k, i] for k in range(m)] for i in range(m)]
    basis = [[1 if k == i else 0 for k in range(m)] for i in range(m)]
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            t1 = bracket(cols[i], cols[j])
            t2 = apply(bracket(cols[i], basis[j]))
            t3 = apply(bracket(basis[i], cols[j]))
            out[(i, j)] = [sympy.expand(t1[k] - t2[k] - t3[k]) for k in range(m)]
    return out


def _to_sympy(p, xs):
    return sum(
        (
            sympy.Rational(c) * sympy.prod([xs[v] ** e for v, e in enumerate(expo)])
            for expo, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def _sympy_curl_term(phi_rows, xs):
    """The sum over l of phi^k_l (d_i phi^l_j - d_j phi^l_i), per pair and k."""
    m = len(xs)
    return {
        (i, j): [
            sympy.expand(
                sum(
                    phi_rows[k][l]
                    * (sympy.diff(phi_rows[l][j], xs[i]) - sympy.diff(phi_rows[l][i], xs[j]))
                    for l in range(m)
                )
            )
            for k in range(m)
        ]
        for i in range(m)
        for j in range(i + 1, m)
    }


def _assert_matches_oracle(ours, oracle, xs):
    for (i, j), vec in oracle.items():
        mine = ours.get((i, j))
        if mine is None:
            assert all(v == 0 for v in vec), (i, j)
            continue
        for k, expected in enumerate(vec):
            assert sympy.expand(_to_sympy(mine.components[k], xs) - expected) == 0, (i, j, k)


def _seeded_structure(n, alpha, seed, count):
    space, t = euclidean_space(n)
    s = t.structure(alpha)
    phi = cases.seeded_phi(s.phi, seed, count)
    return AlmostContactMetricStructure(phi, s.xi, s.eta, s.g)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: cases.polynomial_phi7().structure(1), id="dim7-x1"),
        pytest.param(lambda: _seeded_structure(0, 1, 11, 3), id="dim3-seed11"),
        pytest.param(lambda: _seeded_structure(0, 2, 12, 5), id="dim3-seed12"),
        pytest.param(lambda: _seeded_structure(1, 1, 13, 6), id="dim7-seed13"),
        pytest.param(lambda: _seeded_structure(1, 3, 14, 10), id="dim7-seed14"),
    ],
)
def test_nijenhuis_polynomial_oracle(build):
    # Compare the raw tensor of a polynomial phi against an independent
    # symbolic expansion of the four-bracket formula.  Each phi keeps zero
    # entries, and each has a nonzero curl term phi(d_i phi_j - d_j phi_i).
    s = build()
    m = s.m
    result = nijenhuis_tensor(s.phi, s.eta, s.xi)
    assert not result.phi_tensor_vanishes
    assert any(p.is_zero() for row in s.phi.entries for p in row)

    xs = sympy.symbols(f"x0:{m}")
    phi_sym = [[_to_sympy(p, xs) for p in row] for row in s.phi.entries]
    curl = _sympy_curl_term(phi_sym, xs)
    assert any(v != 0 for vec in curl.values() for v in vec)
    _assert_matches_oracle(result.n_phi, _sympy_nijenhuis(phi_sym, xs), xs)


def test_nijenhuis_oracle_with_polynomials_in_two_rows():
    # Only rows 1 and 4 of phi carry polynomials.  For pairs (i, j) with no
    # curl term, component k has a chain only when row k does, so the tensor
    # mixes computed and skipped components within one pair; on (1, 2) the
    # chain runs through column j and on (2, 3) through column i (0-based).
    _, t = euclidean_space(1)
    s = t.structure(1)
    m = s.m
    x = [Poly.variable(m, v) for v in range(m)]
    entries = [list(row) for row in s.phi.entries]
    entries[0][2] = entries[0][2] + x[0] * x[0] + x[2]
    entries[3][5] = entries[3][5] + x[1] * x[4]
    result = nijenhuis_tensor(EndField(entries), s.eta, s.xi)

    xs = sympy.symbols(f"x0:{m}")
    phi_sym = [[_to_sympy(p, xs) for p in row] for row in entries]

    def has_chain(k, i, j):
        return any(sympy.diff(phi_sym[k][c], v) != 0 for c in (i, j) for v in xs)

    def has_curl(i, j):
        return any(
            sympy.diff(phi_sym[l][j], xs[i]) != 0 or sympy.diff(phi_sym[l][i], xs[j]) != 0
            for l in range(m)
        )

    oracle = _sympy_nijenhuis(phi_sym, xs)
    mixed = [
        (i, j)
        for (i, j), vec in oracle.items()
        if not has_curl(i, j)
        and len({has_chain(k, i, j) for k in range(m)}) == 2
        and any(v != 0 for v in vec)
    ]
    assert {(1, 2), (2, 3)} <= set(mixed)
    _assert_matches_oracle(result.n_phi, oracle, xs)
    assert result.n_one == result.n_phi


@pytest.mark.parametrize("seeded_phi", [False, True], ids=["constant-phi", "seeded-phi"])
def test_normality_tensor_nonclosed_eta_oracle(seeded_phi):
    # eta_1 of standard7 plus polynomial terms, so d(eta_1) != 0 and the
    # normality tensor differs from N_phi by 2 d(eta)(d_i, d_j) xi.
    s = cases.nonclosed_eta7().structure(1)
    if seeded_phi:
        s = AlmostContactMetricStructure(cases.seeded_phi(s.phi, 15, 6), s.xi, s.eta, s.g)
    m = s.m
    result = nijenhuis_tensor(s.phi, s.eta, s.xi)
    assert result.n_one != result.n_phi

    xs = sympy.symbols(f"x0:{m}")
    phi_sym = [[_to_sympy(p, xs) for p in row] for row in s.phi.entries]
    eta_sym = [_to_sympy(p, xs) for p in s.eta_components()]
    xi_sym = [_to_sympy(p, xs) for p in s.xi.components]
    n_phi = _sympy_nijenhuis(phi_sym, xs)
    _assert_matches_oracle(result.n_phi, n_phi, xs)
    n_one = {}
    for (i, j), vec in n_phi.items():
        d_eta = sympy.diff(eta_sym[j], xs[i]) - sympy.diff(eta_sym[i], xs[j])
        n_one[(i, j)] = [sympy.expand(vec[k] + 2 * d_eta * xi_sym[k]) for k in range(m)]
    _assert_matches_oracle(result.n_one, n_one, xs)


def test_quaternionic_identities(torus7, m7f_model):
    for space, t in (torus7, m7f_model):
        report = check_quaternionic(t)
        assert report.passed
        assert len(report) == 18
    space, t = torus7
    s3 = t.structure(3)
    flipped = ThreeStructure(
        [
            t.structure(1),
            t.structure(2),
            AlmostContactMetricStructure(-s3.phi, s3.xi, s3.eta, s3.g),
        ]
    )
    report = check_quaternionic(flipped)
    assert not report.item("quaternionic[123].phi_c_eq_phi_a_phi_b").passed


def test_check_three_cosymplectic_counterexample(standard7):
    space, t = standard7
    m = t.m
    entries = [list(row) for row in t.g.entries]
    entries[0][0] = entries[0][0] + Poly.variable(m, 0)
    bad_g = Metric(entries)
    structures = [
        AlmostContactMetricStructure(s.phi, s.xi, s.eta, bad_g) for s in t.structures
    ]
    report = check_three_cosymplectic(ThreeStructure(structures))
    assert not report.passed
    failing = report.item("compatible[1]")
    assert not failing.passed
    assert "entry" in failing.witness


def test_form_witness_names_the_lexicographically_first_term(standard7):
    # d(eta_1) has terms (0, 3) and (1, 2): lexicographic order puts (0, 3)
    # first and colex order (1, 2), so the witness pins the order it uses.
    space, t = standard7
    m = t.m
    extra = KForm(m, 1, {(0,): Poly.variable(m, 3) * 2, (1,): Poly.variable(m, 2)})
    bent = cases.replace_structure(t, 1, eta=t.structure(1).eta + extra)
    assert exterior_derivative(bent.structure(1).eta) == KForm(m, 2, {(0, 3): -2, (1, 2): -1})
    item = check_three_cosymplectic(bent).item("closed_eta[1]")
    assert (item.passed, item.witness) == (False, "residual term (0, 3): -2")


def test_dimension_hard_error():
    m = 6
    s = AlmostContactMetricStructure(
        EndField.zero(m),
        VectorField.coordinate(m, 0),
        KForm.coordinate(m, 0),
        Metric.identity(m),
    )
    t = ThreeStructure([s, s, s])
    assert not t.dimension_ok
    with pytest.raises(DimensionError):
        check_three_cosymplectic(t)


def test_deform_identity_and_normalizations(torus7):
    space, t = torus7
    same = d_homothetic_deform(t, 1)
    for alpha in (1, 2, 3):
        assert same.structure(alpha).phi == t.structure(alpha).phi
        assert same.structure(alpha).xi == t.structure(alpha).xi
        assert same.structure(alpha).eta == t.structure(alpha).eta
    assert same.g == t.g
    m = t.m
    for a in (2, Fraction(1, 2), Fraction(7, 3)):
        deformed = d_homothetic_deform(t, a)
        for alpha in (1, 2, 3):
            s = deformed.structure(alpha)
            eta = s.eta_components()
            pairing = sum(
                (eta[i] * s.xi.components[i] for i in range(m)), Poly.zero(m)
            )
            assert pairing == Poly.const(m, 1)
            g_xx = sum(
                (
                    s.xi.components[i] * deformed.g.entries[i][j] * s.xi.components[j]
                    for i in range(m)
                    for j in range(m)
                ),
                Poly.zero(m),
            )
            assert g_xx == Poly.const(m, 1)


def test_deform_full_check_and_composition(torus7):
    space, t = torus7
    deformed = d_homothetic_deform(t, 2)
    assert check_three_cosymplectic(deformed).passed
    a, b = Fraction(7, 3), Fraction(3, 2)
    lhs = d_homothetic_deform(d_homothetic_deform(t, a), b)
    rhs = d_homothetic_deform(t, a * b)
    for alpha in (1, 2, 3):
        assert lhs.structure(alpha).phi == rhs.structure(alpha).phi
        assert lhs.structure(alpha).xi == rhs.structure(alpha).xi
        assert lhs.structure(alpha).eta == rhs.structure(alpha).eta
    assert lhs.g == rhs.g
    with pytest.raises(ValueError):
        d_homothetic_deform(t, 0)
    with pytest.raises(ValueError):
        d_homothetic_deform(t, -1)


@pytest.mark.parametrize("text", ["0.5", " 1/2 ", "1e100000000"])
def test_rational_strings_take_the_structure_file_grammar(torus7, text):
    # One grammar for every rational string: p or p/q in ASCII digits, as in
    # a structure file or --a.  An exponent is refused before it is expanded.
    space, t = torus7
    for read in (as_fraction, lambda s: Poly.const(3, s), lambda s: d_homothetic_deform(t, s)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not a rational p/q"):
            read(text)
        assert time.perf_counter() - start < 0.1
    assert as_fraction("7/3") == Fraction(7, 3)
    assert as_fraction("-2") == -2 and type(as_fraction("-2")) is int
    assert Poly.const(3, "7/3") == Poly.const(3, Fraction(7, 3))
    assert Poly.const(3, "-2").constant_value() == -2
    assert d_homothetic_deform(t, "7/3").g == d_homothetic_deform(t, Fraction(7, 3)).g
    with pytest.raises(ValueError, match="must be positive"):
        d_homothetic_deform(t, "-2")


def test_deform_random_parameters(torus7):
    space, t = torus7
    rng = random.Random(99)
    for _ in range(8):
        a = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        deformed = d_homothetic_deform(t, a)
        assert check_three_cosymplectic(deformed).passed


def test_mutation_coverage(torus7):
    space, t = torus7
    rng = random.Random(2024)
    for _ in range(20):
        mutant, desc = randgen.mutate_structure(rng, t)
        report = check_three_cosymplectic(mutant)
        assert not report.passed, f"undetected mutation: {desc}"


def test_reeb_orthonormality_identities(torus7, m7f_model):
    # eta_a(xi_b) = delta_ab and g(xi_a, xi_b) = delta_ab as exact polynomial
    # identities, for the builtins and for a deformed structure.
    for space, t in (torus7, m7f_model):
        for candidate in (t, d_homothetic_deform(t, Fraction(7, 3))):
            m = candidate.m
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    sa, sb = candidate.structure(a), candidate.structure(b)
                    delta = Poly.const(m, 1 if a == b else 0)
                    eta = sa.eta_components()
                    pairing = sum(
                        (eta[i] * sb.xi.components[i] for i in range(m)),
                        Poly.zero(m),
                    )
                    assert pairing == delta
                    g_ab = sum(
                        (
                            sa.xi.components[i]
                            * candidate.g.entries[i][j]
                            * sb.xi.components[j]
                            for i in range(m)
                            for j in range(m)
                        ),
                        Poly.zero(m),
                    )
                    assert g_ab == delta
