"""Seeded structure files for the benchmark, built without cosym3.

Everything here is plain Python over ``Fraction``: polynomials are dicts from
exponent tuples to nonzero coefficients, tensors are nested lists of them.
The writer emits the structure-file format the README documents, so the
program under test only ever sees the generated JSON files.

The model construction mirrors the paper's flat examples: a block sum of
quaternionic planes with the left-multiplication complex structures, three
Reeb directions t1, t2, t3 last, the product metric, and a monodromy built
from right quaternion multiplications (which commute with every J_alpha).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

EVEN_PERMS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

UNITS = ("1", "i", "j", "k")
_QMUL = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


# -- sparse polynomials -------------------------------------------------------


def const(m: int, c) -> dict:
    c = Fraction(c)
    return {(0,) * m: c} if c else {}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pscale(a: dict, c) -> dict:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pdiff(a: dict, i: int) -> dict:
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def peval(a: dict, point) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x**k
        total += term
    return total


def matmul(a, b, m: int):
    """Product of two m x m polynomial matrices."""
    out = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for k in range(m):
            if not a[i][k]:
                continue
            for j in range(m):
                if b[k][j]:
                    out[i][j] = padd(out[i][j], pmul(a[i][k], b[k][j]))
    return out


def matvec(a, v, m: int):
    out = [{} for _ in range(m)]
    for i in range(m):
        for k in range(m):
            if a[i][k] and v[k]:
                out[i] = padd(out[i], pmul(a[i][k], v[k]))
    return out


def vecmat(v, a, m: int):
    out = [{} for _ in range(m)]
    for j in range(m):
        for k in range(m):
            if v[k] and a[k][j]:
                out[j] = padd(out[j], pmul(v[k], a[k][j]))
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def const_matrix(mat, m: int):
    return [[const(m, x) for x in row] for row in mat]


# -- quaternion blocks --------------------------------------------------------


def quaternion_mult(sign: int, unit: str, side: str) -> list[list[int]]:
    """Matrix of x -> x*u (side 'right') or u*x (side 'left') on H = R^4."""
    mat = [[0] * 4 for _ in range(4)]
    for col, b in enumerate(UNITS):
        s, w = _QMUL[(b, unit)] if side == "right" else _QMUL[(unit, b)]
        mat[UNITS.index(w)][col] = s * sign
    return mat


def block_diag(*blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def block_swap(upper, lower) -> list[list[int]]:
    """[[0, upper], [lower, 0]] for two 4x4 blocks."""
    out = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for j in range(4):
            out[i][4 + j] = upper[i][j]
            out[4 + i][j] = lower[i][j]
    return out


# -- models -------------------------------------------------------------------


@dataclass
class Model:
    """Polynomial tensors of a candidate 3-structure plus its topology."""

    m: int
    phi: list  # three m x m polynomial matrices
    xi: list  # three polynomial vectors
    eta: list  # three polynomial row vectors
    g: list  # m x m polynomial matrix
    topology: dict = field(default_factory=lambda: {"type": "euclidean"})


def standard_model(n: int, topology: dict | None = None) -> Model:
    """The standard structure on R^{4n+3}: J_alpha on each quaternionic
    plane, xi_beta -> eps_{alpha beta gamma} xi_gamma on the Reeb block."""
    d = 4 * n
    m = d + 3
    phis, xis, etas = [], [], []
    for alpha, unit in ((1, "i"), (2, "j"), (3, "k")):
        reeb = [[0] * 3 for _ in range(3)]
        for a, b, c in EVEN_PERMS:
            if a == alpha:
                reeb[c - 1][b - 1] = 1
                reeb[b - 1][c - 1] = -1
        left = quaternion_mult(1, unit, "left")
        phis.append(const_matrix(block_diag(*([left] * n), reeb), m))
        xis.append([const(m, int(i == d + alpha - 1)) for i in range(m)])
        etas.append([const(m, int(i == d + alpha - 1)) for i in range(m)])
    ident = [[int(i == j) for j in range(m)] for i in range(m)]
    return Model(m, phis, xis, etas, const_matrix(ident, m), topology or {"type": "euclidean"})


def mapping_torus_model(monodromy: list[list[int]]) -> Model:
    n = len(monodromy) // 4
    topo = {"type": "mapping_torus", "fiber_dim": 4 * n, "monodromy": monodromy}
    return standard_model(n, topo)


def shear_pullback(base: Model, shear: dict[int, dict]) -> Model:
    """Pull a constant-coefficient model back by F(x) = x + s(x).

    ``shear`` maps a coordinate index i to the polynomial s_i.  F must be
    triangular (s_i depends only on unsheared or later-sheared coordinates)
    so that DF = I + N with N nilpotent and (DF)^-1 = sum (-N)^k is again
    polynomial.  With DF = J and K = J^-1 the pullback is
    g' = J^T g J, eta' = eta J, xi' = K xi, phi' = K phi J, so it is
    3-cosymplectic exactly when the base is.
    """
    m = base.m
    nil = [[pdiff(shear[i], j) if i in shear else {} for j in range(m)] for i in range(m)]
    ident = const_matrix([[int(i == j) for j in range(m)] for i in range(m)], m)
    jac = [[padd(ident[i][j], nil[i][j]) for j in range(m)] for i in range(m)]
    inv = [row[:] for row in ident]
    term = ident
    for _ in range(m):
        term = matmul(term, [[pscale(p, -1) for p in row] for row in nil], m)
        if not any(p for row in term for p in row):
            break
        inv = [[padd(inv[i][j], term[i][j]) for j in range(m)] for i in range(m)]
    else:
        raise ValueError("shear is not triangular")
    g = matmul(matmul(transpose(jac), base.g, m), jac, m)
    phis = [matmul(matmul(inv, phi, m), jac, m) for phi in base.phi]
    xis = [matvec(inv, xi, m) for xi in base.xi]
    etas = [vecmat(eta, jac, m) for eta in base.eta]
    return Model(m, phis, xis, etas, g, {"type": "euclidean"})


def deformed(model: Model, a: Fraction) -> Model:
    """D_a-homothetic deformation: phi fixed, xi/a, a.eta, and
    g -> a.g + a(a-1) sum_alpha eta_alpha (x) eta_alpha."""
    m = model.m
    g = [[pscale(p, a) for p in row] for row in model.g]
    c = a * (a - 1)
    for eta in model.eta:
        for i in range(m):
            for j in range(m):
                if eta[i] and eta[j]:
                    g[i][j] = padd(g[i][j], pscale(pmul(eta[i], eta[j]), c))
    return Model(
        m,
        [[row[:] for row in phi] for phi in model.phi],
        [[pscale(p, 1 / a) for p in xi] for xi in model.xi],
        [[pscale(p, a) for p in eta] for eta in model.eta],
        g,
        dict(model.topology),
    )


# -- structure-file (de)serialization ------------------------------------------


def poly_json(p: dict) -> list:
    return [{"c": str(p[e]), "e": list(e)} for e in sorted(p)]


def to_file(model: Model) -> dict:
    m = model.m
    d = m - 3
    coords = [f"x{i + 1}" for i in range(d)] + ["t1", "t2", "t3"]
    return {
        "dim": m,
        "coordinates": coords,
        "structures": [
            {
                "xi": [poly_json(p) for p in model.xi[a]],
                "eta": [poly_json(p) for p in model.eta[a]],
                "phi": [[poly_json(p) for p in row] for row in model.phi[a]],
            }
            for a in range(3)
        ],
        "metric": [[poly_json(p) for p in row] for row in model.g],
        "topology": model.topology,
    }


def from_file(data: dict) -> Model:
    """Parse a structure file written by any writer into polynomial tensors."""
    m = data["dim"]

    def poly(terms):
        out: dict = {}
        for t in terms:
            out = padd(out, {tuple(t["e"]): Fraction(t["c"])})
        return out

    st = data["structures"]
    return Model(
        m,
        [[[poly(p) for p in row] for row in s["phi"]] for s in st],
        [[poly(p) for p in s["xi"]] for s in st],
        [[poly(p) for p in s["eta"]] for s in st],
        [[poly(p) for p in row] for row in data["metric"]],
        data["topology"],
    )


# -- seeded families ----------------------------------------------------------


def random_shear(rng: random.Random, m: int, targets: int, degree: int) -> dict[int, dict]:
    """``targets`` sheared coordinates, each shifted by one monomial of the
    given degree in coordinates that are never sheared (so DF - I squares
    to zero and every pulled-back entry stays short)."""
    order = list(range(m))
    rng.shuffle(order)
    sheared, sources = order[:targets], order[targets:]
    shear = {}
    for i in sheared:
        expo = [0] * m
        for _ in range(degree):
            expo[rng.choice(sources)] += 1
        coeff = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2, 3)))
        shear[i] = {tuple(expo): coeff}
    return shear


def random_a(rng: random.Random) -> Fraction:
    """A D_a parameter p/q != 1 with small p, q."""
    while True:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if a != 1:
            return a


def imaginary_unit(rng: random.Random) -> tuple[int, str]:
    return rng.choice((1, -1)), rng.choice(UNITS[1:])


def monodromy7(rng: random.Random, kind: str) -> list[list[int]]:
    """Right multiplication on H: kind 'one' (+1), 'minus' (-1) or 'imag'
    (a seeded one of +-i, +-j, +-k)."""
    if kind == "one":
        return quaternion_mult(1, "1", "right")
    if kind == "minus":
        return quaternion_mult(-1, "1", "right")
    return quaternion_mult(*imaginary_unit(rng), "right")


def monodromy11(rng: random.Random) -> list[list[int]]:
    """A block swap [[0, R_u], [R_v, 0]] on H + H with one of u, v in {+-1}
    and the other a seeded imaginary unit.

    All 48 such matrices have order 8 and give conjugate data, so the
    harmonic dimensions (b5 = 68) do not depend on the seed.
    """
    real = (rng.choice((1, -1)), "1")
    imag = imaginary_unit(rng)
    u, v = (real, imag) if rng.random() < 0.5 else (imag, real)
    return block_swap(quaternion_mult(*u, "right"), quaternion_mult(*v, "right"))


# -- one-entry mutants ----------------------------------------------------------


def one_entry_mutant(rng: random.Random, model: Model) -> tuple[Model, str]:
    """Add a small constant to one entry of some phi, xi or eta."""
    m = model.m
    alpha = rng.randrange(3)
    delta = const(m, rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-1, 3))))
    new = Model(
        m,
        [[row[:] for row in phi] for phi in model.phi],
        [xi[:] for xi in model.xi],
        [eta[:] for eta in model.eta],
        model.g,
        model.topology,
    )
    what = rng.choice(("phi", "xi", "eta"))
    if what == "phi":
        i, j = rng.randrange(m), rng.randrange(m)
        new.phi[alpha][i][j] = padd(new.phi[alpha][i][j], delta)
        return new, f"phi{alpha + 1}[{i + 1}][{j + 1}]"
    i = rng.randrange(m)
    vec = new.xi[alpha] if what == "xi" else new.eta[alpha]
    vec[i] = padd(vec[i], delta)
    return new, f"{what}{alpha + 1}[{i + 1}]"


def identities_at(model: Model, point) -> list[str]:
    """Check-report item names whose algebraic identity fails at ``point``.

    Evaluated exactly over the rationals, a nonzero residual at one point
    proves the polynomial identity false, so each listed item must fail.
    """
    m = model.m
    ev = lambda p: peval(p, point)  # noqa: E731
    phi = [[[ev(p) for p in row] for row in mat] for mat in model.phi]
    xi = [[ev(p) for p in v] for v in model.xi]
    eta = [[ev(p) for p in v] for v in model.eta]
    g = [[ev(p) for p in row] for row in model.g]
    rng_m = range(m)

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in rng_m) for j in rng_m] for i in rng_m]

    def outer(x, e):
        return [[x[i] * e[j] for j in rng_m] for i in rng_m]

    failed = []
    for a in range(3):
        tag = f"[{a + 1}]"
        ident_minus = [[-Fraction(int(i == j)) for j in rng_m] for i in rng_m]
        rhs = [[ident_minus[i][j] + outer(xi[a], eta[a])[i][j] for j in rng_m] for i in rng_m]
        if mul(phi[a], phi[a]) != rhs:
            failed.append(f"almost_contact{tag}.phi_squared")
        if sum(eta[a][i] * xi[a][i] for i in rng_m) != 1:
            failed.append(f"almost_contact{tag}.eta_xi_one")
        if [sum(g[i][j] * xi[a][j] for j in rng_m) for i in rng_m] != eta[a]:
            failed.append(f"reeb_metric_dual{tag}")
        lhs = mul(mul(transpose(phi[a]), g), phi[a])
        if lhs != [[g[i][j] - eta[a][i] * eta[a][j] for j in rng_m] for i in rng_m]:
            failed.append(f"compatible{tag}")
    for a, b, c in EVEN_PERMS:
        tag = f"quaternionic[{a}{b}{c}]"
        a, b, c = a - 1, b - 1, c - 1
        pa_pb, pb_pa = mul(phi[a], phi[b]), mul(phi[b], phi[a])
        xa_eb, xb_ea = outer(xi[a], eta[b]), outer(xi[b], eta[a])
        if phi[c] != [[pa_pb[i][j] - xa_eb[i][j] for j in rng_m] for i in rng_m]:
            failed.append(f"{tag}.phi_c_eq_phi_a_phi_b")
        if phi[c] != [[-pb_pa[i][j] + xb_ea[i][j] for j in rng_m] for i in rng_m]:
            failed.append(f"{tag}.phi_c_eq_minus_phi_b_phi_a")
        if xi[c] != [sum(phi[a][i][k] * xi[b][k] for k in rng_m) for i in rng_m]:
            failed.append(f"{tag}.xi_c_eq_phi_a_xi_b")
        if xi[c] != [-sum(phi[b][i][k] * xi[a][k] for k in rng_m) for i in rng_m]:
            failed.append(f"{tag}.xi_c_eq_minus_phi_b_xi_a")
        if eta[c] != [sum(eta[a][k] * phi[b][k][j] for k in rng_m) for j in rng_m]:
            failed.append(f"{tag}.eta_c_eq_eta_a_phi_b")
        if eta[c] != [-sum(eta[b][k] * phi[a][k][j] for k in rng_m) for j in rng_m]:
            failed.append(f"{tag}.eta_c_eq_minus_eta_b_phi_a")
    return failed


def proven_mutant(rng: random.Random, model: Model) -> tuple[Model, str, list[str]]:
    """Draw one-entry mutants until one is proven broken at a seeded rational
    point; return it with its description and the items that must fail."""
    while True:
        mutant, desc = one_entry_mutant(rng, model)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(model.m)]
        failed = identities_at(mutant, point)
        if failed:
            return mutant, desc, failed
