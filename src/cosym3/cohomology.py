"""Harmonic forms, the eightfold eigenspace split, and Betti arithmetic.

On a compact flat quotient with finite-order linear monodromy the harmonic
forms are exactly the constant monodromy-invariant forms, so every space here
is computed by exact rational linear algebra on sparse vectors: a constant
k-form is a dict from increasing index tuples to nonzero Fractions.
Invariant subspaces come from averaging projectors, eigenspace splits from
the images of the commuting idempotents e_alpha and 1 - e_alpha, and every
space is kept as its reduced echelon basis over the lexicographically
ordered monomial forms, so operator coordinates are read off its pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .exterior import (
    EndField,
    KForm,
    exterior_derivative,
    interior_product,
    pullback,
    sort_with_sign,
)
from .models import DEFAULT_ORDER_BOUND, ModelSpace
from .structures import CheckItem, CheckReport, EVEN_PERMS, ThreeStructure

#: Fixed report order for the eight eigenvalue patterns (eps1, eps2, eps3):
#: 000, then 100 010 001, then 110 101 011, then 111.
EPS_ORDER = tuple(sorted(product((1, 0), repeat=3), key=sum))
BASIC = (0, 0, 0)
ONE = Fraction(1)


class NonCompactError(ValueError):
    """Betti data requested for a non-compact model."""


class CohomologyError(RuntimeError):
    """An identity that is a theorem failed; the model data is inconsistent."""


def eps_label(eps: tuple[int, int, int]) -> str:
    return "".join(str(e) for e in eps)


# -- constant forms as sparse vectors -----------------------------------------


def monomial_tuples(m: int, k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(m), k))


def form_vector(omega: KForm) -> linalg.SparseVector:
    """The constant form ``omega`` as a sparse vector over the monomial forms."""
    if not omega.is_constant():
        raise ValueError("only constant forms can be coordinatized")
    return {key: p.constant_value() for key, p in omega.terms.items()}


def _wedge(a: linalg.SparseVector, b: linalg.SparseVector) -> linalg.SparseVector:
    terms = ((sort_with_sign(ka + kb), x * y) for ka, x in a.items() for kb, y in b.items())
    return linalg.sparse_sum((key, c if sign > 0 else -c) for (key, sign), c in terms if sign)


def _contract(xi: dict[int, Fraction], v: linalg.SparseVector) -> linalg.SparseVector:
    return linalg.sparse_sum(
        (key[:pos] + key[pos + 1 :], -xi[idx] * c if pos % 2 else xi[idx] * c)
        for key, c in v.items()
        for pos, idx in enumerate(key)
        if idx in xi
    )


def _eta_xi(t: ThreeStructure, alpha: int):
    """eta_alpha as a sparse vector and xi_alpha as index -> component."""
    s = t.structure(alpha)
    xi = {i: p.constant_value() for i, p in enumerate(s.xi.components) if not p.is_zero()}
    return form_vector(s.eta), xi


def operator_matrix(
    images: list[linalg.SparseVector], dst: linalg.EchelonBasis
) -> linalg.Matrix | None:
    """Matrix of an operator in given bases, or None if an image leaves the span."""
    rows = [[Fraction(0)] * len(images) for _ in range(len(dst))]
    for j, image in enumerate(images):
        coords = dst.coordinates(image)
        if coords is None:
            return None
        for i, c in coords.items():
            rows[i][j] = c
    return rows


# -- invariant forms under a finite-order monodromy ---------------------------


def pullback_matrix(a: EndField, q: int) -> linalg.Matrix:
    """Dense matrix of the slotwise pullback a* on constant q-forms."""
    tuples = monomial_tuples(a.m, q)
    cols = [form_vector(pullback(a, KForm.monomial(a.m, t))) for t in tuples]
    return [[col.get(s, Fraction(0)) for col in cols] for s in tuples]


def invariant_forms(
    a: EndField, q: int, order_bound: int = DEFAULT_ORDER_BOUND
) -> list[linalg.SparseVector]:
    """Canonical basis of the fixed subspace of a* on constant q-forms.

    Computed as the column space of the averaging projector
    P = (1/r) sum_{j<r} (a*)^j, whose column at dx_I is the mean of the
    orbit of dx_I; the projector trace must equal the fixed dimension, and
    the two are cross-checked on every call.
    """
    if not a.is_constant():
        raise ValueError("monodromy must be constant")
    mat = a.to_fractions()
    order = linalg.matrix_order(mat, order_bound)
    if order is None:
        raise CohomologyError(f"monodromy not finite order within bound {order_bound}")
    # a* dx_I is the wedge of the pulled-back differentials a* dx_i = row i.
    rows = [{(j,): x for j, x in enumerate(row) if x} for row in mat]
    images = {}
    for t in monomial_tuples(a.m, q):
        images[t] = {(): ONE}
        for i in t:
            images[t] = _wedge(images[t], rows[i])
    columns = []
    for t in images:
        orbit = [{t: Fraction(1, order)}]
        for _ in range(order - 1):
            orbit.append(linalg.sparse_sum(
                (key, c * x) for s, c in orbit[-1].items() for key, x in images[s].items()
            ))
        columns.append(linalg.sparse_sum(term for v in orbit for term in v.items()))
    basis = linalg.sparse_rref(columns)
    tr = sum((col.get(t, 0) for t, col in zip(images, columns)), Fraction(0))
    if tr != len(basis):
        raise CohomologyError(
            f"projector trace {tr} disagrees with fixed-space dimension {len(basis)}"
        )
    return basis


# -- harmonic spaces ----------------------------------------------------------


def _require_compact_constant(space: ModelSpace, t: ThreeStructure):
    if not space.topology.compact:
        raise NonCompactError(
            "harmonic-form spaces require a compact (torus or mapping_torus) model"
        )
    if not all(x.is_constant() for s in t.structures for x in (s.phi, s.xi, s.eta, s.g)):
        raise ValueError("compact models require constant-coefficient structure tensors")


def harmonic_space(
    space: ModelSpace,
    t: ThreeStructure,
    k: int,
    fibers: dict[int, list[linalg.SparseVector]] | None = None,
) -> list[linalg.SparseVector]:
    """Canonical basis of the harmonic k-forms of a compact builtin model.

    Torus: all constant k-forms.  Mapping torus: spans dt_S ^ w with w a
    monodromy-invariant constant form on the fiber, dt-factors free.
    ``fibers`` maps a fiber degree to its invariant forms and is filled as
    they are built, so callers that share one dict across degrees build each
    fiber degree once.
    """
    _require_compact_constant(space, t)
    m = space.chart_dim
    if not 0 <= k <= m:
        raise ValueError(f"degree {k} out of range 0..{m}")
    topo = space.topology
    if topo.kind == "torus":
        return [{key: ONE} for key in monomial_tuples(m, k)]
    d = topo.fiber_dim
    assert topo.monodromy is not None
    fibers = {} if fibers is None else fibers
    forms = []
    for p in range(4):
        q = k - p
        if q < 0 or q > d:
            continue
        if q not in fibers:
            bound = topo.order or DEFAULT_ORDER_BOUND
            fibers[q] = invariant_forms(topo.monodromy, q, order_bound=bound)
        for t_set in combinations(range(d, d + 3), p):
            forms.extend(_wedge({t_set: ONE}, w) for w in fibers[q])
    return linalg.sparse_rref(forms)


def _harmonic_bases(space: ModelSpace, t: ThreeStructure) -> list[linalg.EchelonBasis]:
    fibers: dict[int, list[linalg.SparseVector]] = {}
    return [
        linalg.EchelonBasis(harmonic_space(space, t, k, fibers))
        for k in range(space.chart_dim + 1)
    ]


def is_basic(space: ModelSpace, t: ThreeStructure, omega: KForm) -> bool:
    """A form is basic when every i_{xi_alpha} kills both it and its differential."""
    d_omega = exterior_derivative(omega)
    for alpha in (1, 2, 3):
        xi = t.structure(alpha).xi
        if omega.degree > 0 and not interior_product(xi, omega).is_zero():
            return False
        if not interior_product(xi, d_omega).is_zero():
            return False
    return True


# -- graded operators ---------------------------------------------------------


@dataclass(frozen=True)
class GradedOperatorMatrix:
    """Per-degree matrices of a degree-shifting operator in canonical bases."""

    name: str
    degree_shift: int
    blocks: dict[int, linalg.Matrix]

    def block(self, k: int) -> linalg.Matrix:
        return self.blocks.get(k, [])


def _block(images, dst: linalg.EchelonBasis, op: str, k: int) -> linalg.Matrix:
    """``operator_matrix``, raising when ``op`` maps a degree-k form off ``dst``."""
    mat = operator_matrix(images, dst)
    if mat is None:
        raise CohomologyError(f"{op} does not preserve harmonic forms at degree {k}")
    return mat


def small_operators(
    space: ModelSpace,
    t: ThreeStructure,
    bases: list[linalg.EchelonBasis] | None = None,
) -> dict[str, GradedOperatorMatrix]:
    """Matrices of l_alpha (wedge eta), lambda_alpha (contract xi), and
    e_alpha = l_alpha . lambda_alpha on every harmonic space.

    Raises :class:`CohomologyError` if an image fails to stay harmonic, which
    would mean the model data is inconsistent.
    """
    m = space.chart_dim
    if bases is None:
        bases = _harmonic_bases(space, t)
    ops: dict[str, GradedOperatorMatrix] = {}
    for alpha in (1, 2, 3):
        eta, xi = _eta_xi(t, alpha)
        l_blocks: dict[int, linalg.Matrix] = {}
        lam_blocks: dict[int, linalg.Matrix] = {}
        e_blocks: dict[int, linalg.Matrix] = {}
        for k in range(m + 1):
            vectors = bases[k].vectors
            if k < m:
                l_blocks[k] = _block([_wedge(eta, v) for v in vectors], bases[k + 1], f"l{alpha}", k)
            contracted = [_contract(xi, v) for v in vectors]
            if k > 0:
                lam_blocks[k] = _block(contracted, bases[k - 1], f"lambda{alpha}", k)
            e_blocks[k] = _block([_wedge(eta, c) for c in contracted], bases[k], f"e{alpha}", k)
        ops[f"l{alpha}"] = GradedOperatorMatrix(f"l{alpha}", 1, l_blocks)
        ops[f"lambda{alpha}"] = GradedOperatorMatrix(f"lambda{alpha}", -1, lam_blocks)
        ops[f"e{alpha}"] = GradedOperatorMatrix(f"e{alpha}", 0, e_blocks)
    return ops


# -- the eightfold decomposition ----------------------------------------------


@dataclass(frozen=True)
class HarmonicTable:
    """The eigenspace split of every harmonic space, and (basic) Betti numbers.

    Components are kept as canonical sparse bases; ``component`` hands them
    out as forms.
    """

    m: int
    spans: dict[tuple[int, tuple[int, int, int]], linalg.EchelonBasis]
    b: tuple[int, ...]
    bh: tuple[int, ...]

    def span(self, k: int, eps: tuple[int, int, int]) -> linalg.EchelonBasis:
        return self.spans.get((k, eps)) or linalg.EchelonBasis([])

    def component(self, k: int, eps: tuple[int, int, int]) -> tuple[KForm, ...]:
        return tuple(KForm(self.m, k, v) for v in self.span(k, eps).vectors)

    def dims_row(self, k: int) -> dict[str, int]:
        return {eps_label(eps): len(self.span(k, eps)) for eps in EPS_ORDER}


def decompose(space: ModelSpace, t: ThreeStructure) -> HarmonicTable:
    """Split every harmonic space into the eight joint e_alpha eigenspaces.

    Verifies on the way that the e_alpha are commuting idempotents, that the
    component dimensions reproduce b_k and the basic Betti numbers, and that
    the (0,0,0) component is exactly the basic harmonic subspace.  Any
    failure raises :class:`CohomologyError`.
    """
    m = space.chart_dim
    bases = _harmonic_bases(space, t)
    b = tuple(len(basis) for basis in bases)
    # Raises unless l, lambda and e preserve the harmonic forms; the split
    # below applies e_alpha to the forms themselves.
    small_operators(space, t, bases)
    eta_xi = [_eta_xi(t, alpha) for alpha in (1, 2, 3)]

    def e_op(alpha: int, v: linalg.SparseVector) -> linalg.SparseVector:
        eta, xi = eta_xi[alpha]
        return _wedge(eta, _contract(xi, v))

    spans: dict[tuple[int, tuple[int, int, int]], linalg.EchelonBasis] = {}
    for k, basis in enumerate(bases):
        images = [[e_op(alpha, v) for v in basis.vectors] for alpha in range(3)]
        for alpha in range(3):
            if any(e_op(alpha, w) != w for w in images[alpha]):
                raise CohomologyError(f"e{alpha + 1} is not idempotent on degree {k}")
            for beta in range(alpha + 1, 3):
                pairs = zip(images[beta], images[alpha])
                if any(e_op(alpha, u) != e_op(beta, w) for u, w in pairs):
                    raise CohomologyError(
                        f"e{alpha + 1} and e{beta + 1} do not commute on degree {k}"
                    )
        # The component eps is the image of prod_alpha (eps_alpha e_alpha +
        # (1 - eps_alpha)(1 - e_alpha)).  The e_alpha commute, so it is built
        # one factor at a time from the images of the previous factors.
        parts: dict[tuple[int, ...], list[linalg.SparseVector]] = {(): list(basis.vectors)}
        for alpha in range(3):
            split = {}
            for eps, part in parts.items():
                on = images[0] if alpha == 0 else [e_op(alpha, v) for v in part]
                split[eps + (1,)] = linalg.sparse_rref(on)
                split[eps + (0,)] = linalg.sparse_rref(
                    linalg.sparse_sum([*v.items(), *((key, -x) for key, x in w.items())])
                    for v, w in zip(part, on)
                )
            parts = split
        for eps in EPS_ORDER:
            spans[(k, eps)] = linalg.EchelonBasis(parts[eps])
    bh = tuple(len(spans[(k, BASIC)]) for k in range(m + 1))
    for k in range(m + 1):
        total = sum(len(spans[(k, eps)]) for eps in EPS_ORDER)
        if total != b[k]:
            raise CohomologyError(
                f"eigenspace dimensions at degree {k} sum to {total}, expected {b[k]}"
            )
        for eps in EPS_ORDER:
            weight = sum(eps)
            expected = bh[k - weight] if 0 <= k - weight <= m else 0
            if len(spans[(k, eps)]) != expected:
                raise CohomologyError(
                    f"dim of component {eps_label(eps)} at degree {k} is "
                    f"{len(spans[(k, eps)])}, expected {expected}"
                )
    table = HarmonicTable(m, spans, b, bh)
    for k, basis in enumerate(bases):
        # The basic forms are the kernel of omega -> (i_xi_alpha omega)_alpha.
        stacked = [
            {(alpha, key): c for alpha, (_, xi) in enumerate(eta_xi) for key, c in _contract(xi, v).items()}
            for v in basis.vectors
        ]
        basic_dim = len(basis) - len(linalg.sparse_rref(stacked))
        comp = table.component(k, BASIC)
        if basic_dim != len(comp):
            raise CohomologyError(
                f"basic harmonic dimension {basic_dim} differs from the "
                f"(0,0,0) component dimension {len(comp)} at degree {k}"
            )
        if not all(is_basic(space, t, f) for f in comp):
            raise CohomologyError(f"a (0,0,0) component basis form of degree {k} is not basic")
    return table


# -- the ladder of isomorphisms ----------------------------------------------


def verify_ladder(
    space: ModelSpace, t: ThreeStructure, table: HarmonicTable | None = None
) -> CheckReport:
    """Check that each l_alpha maps its source component bijectively onto its
    target along every edge of the eigenvalue cube, for 0 <= k <= m - 3."""
    if table is None:
        table = decompose(space, t)
    items = []
    for k in range(table.m - 2):
        for alpha in (1, 2, 3):
            eta, _ = _eta_xi(t, alpha)
            for eps in EPS_ORDER:
                if eps[alpha - 1] == 1:
                    continue
                target = tuple(1 if i == alpha - 1 else eps[i] for i in range(3))
                src_deg = k + sum(eps)
                src = table.span(src_deg, eps)
                dst = table.span(src_deg + 1, target)
                name = f"ladder[k={k}].l{alpha}.{eps_label(eps)}->{eps_label(target)}"
                if len(src) != len(dst):
                    items.append(CheckItem(name, False, f"dims {len(src)} -> {len(dst)}"))
                    continue
                columns = [dst.coordinates(_wedge(eta, v)) for v in src.vectors]
                if None in columns:
                    items.append(CheckItem(name, False, "image leaves the target component"))
                else:
                    ok = len(linalg.sparse_rref(columns)) == len(src)
                    items.append(CheckItem(name, ok, None if ok else "restriction is not injective"))
    return CheckReport(tuple(items))


# -- Betti arithmetic ----------------------------------------------------------


def betti_checks(table: HarmonicTable, n: int) -> CheckReport:
    """All arithmetic consequences of the decomposition for a 4n+3 model.

    Every line here is a theorem for a verified 3-cosymplectic compact model,
    so a failure indicates inconsistent data, not a property of the space.
    """
    m = table.m
    b, bh = table.b, table.bh
    if m != 4 * n + 3:
        raise ValueError(f"table dimension {m} does not match n = {n}")

    def bh_at(j: int) -> int:
        return bh[j] if 0 <= j <= m else 0

    items = []

    def check(name: str, ok: bool, fail: str, passed: str | None = None) -> None:
        items.append(CheckItem(name, ok, passed if ok else fail))

    for k in range(m + 1):
        expected = bh_at(k) + 3 * bh_at(k - 1) + 3 * bh_at(k - 2) + bh_at(k - 3)
        check(f"betti_formula[k={k}]", b[k] == expected, f"b_{k} = {b[k]}, formula gives {expected}")
    for k in range(1, m + 1, 2):
        check(f"basic_betti_div4[k={k}]", bh[k] % 4 == 0, f"bh_{k} = {bh[k]}")
        total = b[k - 1] + b[k]
        check(f"betti_sum_div4[k={k}]", total % 4 == 0, f"b_{k - 1} + b_{k} = {total}")
    for k in range(0, 2 * n + 2):
        bound = math.comb(k + 2, 2)
        check(
            f"betti_lower_bound[k={k}]",
            b[k] >= bound,
            f"b_{k} = {b[k]} < {bound}",
            f"b_{k} = {b[k]} >= C({k}+2,2) = {bound}",
        )
    for k in range(0, (2 * n + 1) // 2 + 1):
        bound = math.comb(k + 2, 2)
        witness = f"b_{2 * k} = {b[2 * k]} >= {bound} (weaker even-degree bound)"
        check(f"wakakuwa_bound[k={k}]", b[2 * k] >= bound, witness, witness)
    for k in range(m + 1):
        check(f"poincare_duality[k={k}]", b[k] == b[m - k], f"b_{k} = {b[k]} != b_{m - k} = {b[m - k]}")
    euler = sum((-1) ** k * b[k] for k in range(m + 1))
    check("euler_characteristic_zero", euler == 0, f"chi = {euler}")
    return CheckReport(tuple(items))


# -- quaternionic module structure on odd basic degrees ------------------------


def quaternion_module(
    space: ModelSpace,
    t: ThreeStructure,
    k: int,
    table: HarmonicTable | None = None,
) -> CheckReport:
    """Slotwise phi_alpha-pullback on the degree-k basic harmonic space.

    For odd k the three pullbacks square to -id and anticommute into each
    other (I_a I_b = -I_c on even permutations), which makes the space a
    quaternionic vector space and forces 4 | dim.
    """
    if k % 2 == 0:
        raise ValueError("the quaternionic module structure applies to odd degrees")
    if table is None:
        table = decompose(space, t)
    forms = table.component(k, BASIC)
    dim = len(forms)
    items = []
    mats = {}
    for alpha in (1, 2, 3):
        phi = t.structure(alpha).phi
        mat = operator_matrix([form_vector(pullback(phi, f)) for f in forms], table.span(k, BASIC))
        name = f"hmodule_preserved[{alpha}]"
        if mat is None:
            items.append(CheckItem(name, False, "pullback leaves the component"))
        else:
            items.append(CheckItem(name, True))
            mats[alpha] = mat
    if len(mats) == 3:
        minus_id = linalg.mat_scale(linalg.identity(dim), Fraction(-1))
        for alpha in (1, 2, 3):
            ok = linalg.mat_mul(mats[alpha], mats[alpha]) == minus_id
            items.append(CheckItem(f"hmodule_I{alpha}_squared_minus_id", ok, None if ok else "I^2 != -id"))
        for (a, b_, c) in EVEN_PERMS:
            ok = linalg.mat_mul(mats[a], mats[b_]) == linalg.mat_scale(mats[c], Fraction(-1))
            witness = None if ok else "quaternion relation fails"
            items.append(CheckItem(f"hmodule_I{a}I{b_}_eq_minus_I{c}", ok, witness))
    ok = dim % 4 == 0
    witness = f"dim = {dim}" if ok else f"dim = {dim} not divisible by 4"
    items.append(CheckItem(f"hmodule_dim_div4[k={k}]", ok, witness))
    return CheckReport(tuple(items))
