"""Metamorphic invariance at dim 7: a GL(7, Z) pullback and a D_a deformation
of a compact builtin are again 3-cosymplectic structures on the same space,
so every basis-free result must be the one of the builtin."""

from fractions import Fraction

import pytest

from cosym3 import betti_checks, d_homothetic_deform, decompose, lie_report, verify_ladder

import cases


def _results(space, t):
    """Every basis-free result of betti and liealg on one structure."""
    table = decompose(space, t)
    rep = lie_report(space, t, table)
    betti_passed = betti_checks(table).passed and verify_ladder(space, t, table).passed
    return {
        "b": table.b,
        "bh": table.bh,
        "rows": [table.dims_row(k) for k in range(table.m + 1)],
        "basic_dims": rep.dims,
        "bracket_coeffs": rep.bracket_coeffs,
        "killing": rep.killing,
        "signature": rep.signature,
        "passed": (betti_passed, rep.passed),
    }


@pytest.fixture(scope="module")
def builtin_results(torus7, m7f_model):
    return {"torus7": _results(*torus7), "m7f": _results(*m7f_model)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gl7_pullback_of_torus7(seed, builtin_results):
    assert _results(*cases.sheared_torus(1, 8, seed)) == builtin_results["torus7"]


@pytest.mark.parametrize("a", [Fraction(2), Fraction(1, 2), Fraction(7, 3)], ids=str)
@pytest.mark.parametrize("name", ["torus7", "m7f"])
def test_d_homothetic_deformation(name, a, builtin_results, torus7, m7f_model):
    space, t = {"torus7": torus7, "m7f": m7f_model}[name]
    assert _results(space, d_homothetic_deform(t, a)) == builtin_results[name]
