"""Named structures for the golden check reports and the Nijenhuis oracles.

``python tests/cases.py`` rewrites ``tests/golden/check_reports.json`` from
the current code.  Do that only when a report is meant to change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from cosym3 import (
    AlmostContactMetricStructure,
    EndField,
    KForm,
    ThreeStructure,
    check_three_cosymplectic,
    euclidean_space,
    m7f,
)
from cosym3.poly import Poly

import randgen

GOLDEN_PATH = Path(__file__).parent / "golden" / "check_reports.json"


def replace_structure(t: ThreeStructure, alpha: int, phi=None, eta=None) -> ThreeStructure:
    """``t`` with phi_alpha and/or eta_alpha swapped out; everything else kept."""
    s = t.structure(alpha)
    new = AlmostContactMetricStructure(
        s.phi if phi is None else phi, s.xi, s.eta if eta is None else eta, s.g
    )
    return ThreeStructure([new if a == alpha else t.structure(a) for a in (1, 2, 3)])


def polynomial_phi7() -> ThreeStructure:
    """standard7 with x1 added to entry (1,3) of phi_1: N_phi_1 != 0."""
    _, t = euclidean_space(1)
    m = t.m
    entries = [list(row) for row in t.structure(1).phi.entries]
    entries[0][2] = entries[0][2] + Poly.variable(m, 0)
    return replace_structure(t, 1, phi=EndField(entries))


def seeded_phi(phi: EndField, seed: int, count: int) -> EndField:
    """``phi`` with ``count`` seeded entries shifted by random polynomials."""
    rng = random.Random(seed)
    m = phi.m
    entries = [list(row) for row in phi.entries]
    for _ in range(count):
        a, b = rng.randrange(m), rng.randrange(m)
        entries[a][b] = entries[a][b] + randgen.poly(rng, m)
    return EndField(entries)


def seeded_phi7() -> ThreeStructure:
    """standard7 with six entries of phi_1 shifted by seeded polynomials."""
    _, t = euclidean_space(1)
    return replace_structure(t, 1, phi=seeded_phi(t.structure(1).phi, 7, 6))


def nonclosed_eta7() -> ThreeStructure:
    """standard7 with eta_1 = dx5 + x1*x2 dx3 + x6^2 dx5, so d(eta_1) != 0."""
    _, t = euclidean_space(1)
    m = t.m
    extra = KForm(
        m,
        1,
        {
            (2,): Poly(m, {(1, 1, 0, 0, 0, 0, 0): 1}),
            (4,): Poly(m, {(0, 0, 0, 0, 0, 2, 0): 1}),
        },
    )
    return replace_structure(t, 1, eta=t.structure(1).eta + extra)


CASES = {
    "standard7": lambda: euclidean_space(1)[1],
    "m7f": lambda: m7f()[1],
    "standard11": lambda: euclidean_space(2)[1],
    "polynomial_phi7": polynomial_phi7,
    "seeded_phi7": seeded_phi7,
    "nonclosed_eta7": nonclosed_eta7,
}


def check_reports() -> dict:
    return {name: check_three_cosymplectic(build()).to_dict() for name, build in CASES.items()}


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(check_reports(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
