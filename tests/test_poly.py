import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cosym3.poly import Poly, as_fraction, dot

import oracles
import randgen


def test_zero_coefficients_dropped():
    p = Poly(2, {(1, 0): 0, (0, 1): Fraction(3)})
    assert list(p.terms) == [(0, 1)]
    assert (p - p).is_zero()


def test_constant_and_variable():
    c = Poly.const(3, Fraction(5, 2))
    assert c.is_constant() and c.constant_value() == Fraction(5, 2)
    x = Poly.variable(3, 1)
    assert x.evaluate([0, 7, 0]) == 7
    assert Poly.const(3, 0).is_zero()


def test_arithmetic():
    x = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    square = (x + one) * (x + one)
    assert square == x * x + 2 * x + one
    assert square.evaluate([Fraction(1, 2)]) == Fraction(9, 4)
    assert (x**3).terms == {(3,): Fraction(1)}


def test_diff():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x * y + 3 * y
    assert p.diff(0) == 2 * x * y
    assert p.diff(1) == x * x + Poly.const(2, 3)
    assert Poly.const(2, 9).diff(0).is_zero()


def test_mismatched_nvars_rejected():
    with pytest.raises(ValueError):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})


def test_as_fraction():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_render():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert (x * x - y).render(["u", "v"]) == "-v + u^2"
    assert (2 * x * y).render(["u", "v"]) == "2*u*v"
    assert Poly.zero(2).render() == "0"


small = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw, nvars=2):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[expo] = Fraction(draw(small), draw(st.integers(1, 3)))
    return Poly(nvars, terms)


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@given(polys(), polys())
def test_leibniz_rule_for_diff(p, q):
    lhs = (p * q).diff(0)
    assert lhs == p.diff(0) * q + p * q.diff(0)


def _exact_coefficients(p: Poly) -> bool:
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.terms.values()
    )


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_coefficients_are_int_when_integral(seed, nvars):
    rng = random.Random(seed)
    p, q = randgen.poly(rng, nvars, max_terms=4), randgen.poly(rng, nvars, max_terms=4)
    pairs = [(randgen.poly(rng, nvars), randgen.poly(rng, nvars)) for _ in range(rng.randint(0, 6))]
    scalar = randgen.fraction(rng)
    const = {(0,) * nvars: scalar} if scalar else {}
    index = rng.randrange(nvars)
    cases = [
        (Poly(nvars, {e: Fraction(c) for e, c in p.terms.items()}), p.terms),
        (Poly.const(nvars, scalar), const),
        (p + q, oracles.poly_add(p.terms, q.terms)),
        (p - q, oracles.poly_add(p.terms, q.terms, -1)),
        (scalar - p, oracles.poly_add(const, p.terms, -1)),
        (p * q, oracles.poly_mul(p.terms, q.terms)),
        (p * scalar, oracles.poly_mul(p.terms, const)),
        (dot(nvars, pairs), oracles.poly_dot((a.terms, b.terms) for a, b in pairs)),
        (p.diff(index), oracles.poly_diff(p.terms, index)),
    ]
    for result, reference in cases:
        assert result.nvars == nvars
        assert result.terms == reference
        assert _exact_coefficients(result), result.terms
