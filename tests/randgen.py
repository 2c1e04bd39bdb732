"""Seeded random generators for the property suites.

Everything takes an explicit ``random.Random`` so test runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cosym3 import EndField, KForm, Metric, VectorField
from cosym3.poly import Poly

NONZERO = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-3, 4),
    Fraction(5),
]


def fraction(rng: random.Random, allow_zero: bool = True) -> Fraction:
    if allow_zero and rng.random() < 0.25:
        return Fraction(0)
    return rng.choice(NONZERO)


def poly(rng: random.Random, nvars: int, max_degree: int = 2, max_terms: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = terms.get(tuple(expo), Fraction(0)) + fraction(rng, False)
    return Poly(nvars, terms)


def form(
    rng: random.Random,
    m: int,
    degree: int,
    max_terms: int = 3,
    constant: bool = False,
) -> KForm:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = tuple(sorted(rng.sample(range(m), degree)))
        coeff = (
            Poly.const(m, fraction(rng, False))
            if constant
            else poly(rng, m, max_degree=2, max_terms=2)
        )
        terms[key] = coeff if key not in terms else terms[key] + coeff
    return KForm(m, degree, terms)


def vector_field(rng: random.Random, m: int, constant: bool = False) -> VectorField:
    comps = []
    for _ in range(m):
        comps.append(
            Poly.const(m, fraction(rng))
            if constant
            else poly(rng, m, max_degree=2, max_terms=2)
        )
    return VectorField(comps)


def spd_metric_square_det(rng: random.Random, m: int, dense: bool = False) -> Metric:
    """Random SPD rational metric whose determinant is a rational square."""
    if not dense:
        diag = [rng.choice(NONZERO) ** 2 for _ in range(m)]
        return Metric.from_fractions(
            [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
        )
    lower = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        lower[i][i] = Fraction(1)
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
    entries = [
        [
            sum(lower[i][k] * lower[j][k] for k in range(m))
            for j in range(m)
        ]
        for i in range(m)
    ]
    return Metric.from_fractions(entries)


def unimodular(rng: random.Random, d: int, shears: int = 3):
    mat = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(shears):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for col in range(d):
            mat[i][col] += c * mat[j][col]
    return mat


def finite_order_matrix(rng: random.Random) -> EndField:
    """Random integer matrix of finite order: a signed-permutation/rotation
    block form conjugated by a random unimodular integer matrix."""
    blocks = []
    d = 0
    while d < 4:
        kind = rng.choice(["one", "minus", "rot", "perm2"])
        if kind in ("one", "minus") or d == 3:
            blocks.append([[Fraction(1 if kind == "one" else -1)]])
            d += 1
        elif kind == "rot":
            blocks.append([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
            d += 2
        else:
            blocks.append([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
            d += 2
    big = [[Fraction(0)] * d for _ in range(d)]
    at = 0
    for blk in blocks:
        for i in range(len(blk)):
            for j in range(len(blk)):
                big[at + i][at + j] = blk[i][j]
        at += len(blk)
    u = unimodular(rng, d)
    from cosym3.linalg import inverse

    import oracles

    conj = oracles.dense_mul(oracles.dense_mul(inverse(u), big), u)
    return EndField.from_fractions(conj)


def mutate_structure(rng: random.Random, t):
    """Return (mutant, description): one tensor entry changed by a nonzero delta.

    Metric mutations are applied symmetrically so the mutant is representable;
    everything else touches a single entry.
    """
    from cosym3 import AlmostContactMetricStructure, Metric as MetricCls, ThreeStructure
    from cosym3.poly import Poly as PolyCls

    m = t.m
    delta = rng.choice(NONZERO)
    kind = rng.choice(["phi", "xi", "eta", "g"])
    alpha = rng.randint(1, 3)
    if kind == "g":
        i, j = rng.randrange(m), rng.randrange(m)
        entries = [list(row) for row in t.g.entries]
        entries[i][j] = entries[i][j] + PolyCls.const(m, delta)
        if i != j:
            entries[j][i] = entries[j][i] + PolyCls.const(m, delta)
        new_g = MetricCls(entries)
        structures = [
            AlmostContactMetricStructure(s.phi, s.xi, s.eta, new_g)
            for s in t.structures
        ]
        desc = f"g[{i}][{j}] += {delta}"
        return ThreeStructure(structures), desc
    s = t.structure(alpha)
    if kind == "phi":
        i, j = rng.randrange(m), rng.randrange(m)
        entries = [list(row) for row in s.phi.entries]
        entries[i][j] = entries[i][j] + PolyCls.const(m, delta)
        new = AlmostContactMetricStructure(
            type(s.phi)(entries), s.xi, s.eta, s.g
        )
        desc = f"phi{alpha}[{i}][{j}] += {delta}"
    elif kind == "xi":
        i = rng.randrange(m)
        comps = list(s.xi.components)
        comps[i] = comps[i] + PolyCls.const(m, delta)
        new = AlmostContactMetricStructure(
            s.phi, type(s.xi)(comps), s.eta, s.g
        )
        desc = f"xi{alpha}[{i}] += {delta}"
    else:
        i = rng.randrange(m)
        eta = s.eta + KForm(m, 1, {(i,): delta})
        new = AlmostContactMetricStructure(s.phi, s.xi, eta, s.g)
        desc = f"eta{alpha}[{i}] += {delta}"
    structures = [
        new if idx == alpha - 1 else t.structures[idx] for idx in range(3)
    ]
    return ThreeStructure(structures), desc


def mutate_eta_xi(rng: random.Random, t):
    """Return (mutant, description): one eta_alpha or xi_alpha with a
    coordinate covector or vector added, or scaled, or one structure's
    (eta, xi) copied into another's."""
    from cosym3 import AlmostContactMetricStructure, ThreeStructure

    m = t.m
    alpha = rng.randint(1, 3)
    s = t.structure(alpha)
    xi, eta = s.xi, s.eta
    kind = rng.choice(["add", "scale", "copy"])
    part = rng.choice(["eta", "xi"])
    if kind == "add":
        i, c = rng.randrange(m), rng.choice(NONZERO)
        if part == "xi":
            xi = xi + VectorField.coordinate(m, i).scaled(c)
        else:
            eta = eta + KForm.coordinate(m, i).scaled(c)
        desc = f"{part}{alpha} += {c} e_{i}"
    elif kind == "scale":
        c = rng.choice([Fraction(0), *NONZERO[1:]])
        xi, eta = (xi.scaled(c), eta) if part == "xi" else (xi, eta.scaled(c))
        desc = f"{part}{alpha} *= {c}"
    else:
        beta = rng.choice([b for b in (1, 2, 3) if b != alpha])
        xi, eta = t.structure(beta).xi, t.structure(beta).eta
        desc = f"(eta{alpha}, xi{alpha}) := (eta{beta}, xi{beta})"
    new = AlmostContactMetricStructure(s.phi, xi, eta, s.g)
    return ThreeStructure([new if idx == alpha else t.structure(idx) for idx in (1, 2, 3)]), desc
