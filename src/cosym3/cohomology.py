"""Harmonic forms, the eightfold eigenspace split, and Betti arithmetic.

On a compact flat quotient with finite-order linear monodromy the harmonic
forms are exactly the constant monodromy-invariant forms, so every space here
is computed by exact rational linear algebra on sparse vectors: a constant
k-form is a dict from monomial keys (see ``exterior``) to nonzero entries,
each an ``int`` when integral and a ``Fraction`` otherwise (see ``linalg``).
The invariant forms of every fiber degree come from one pass of averaging
projectors, one orbit sum per orbit, and the harmonic bases are read off them.
Each space is kept as its reduced echelon basis over the monomial keys in
increasing order, which is colex order on the index sets, and each operator
as one sparse matrix per degree of the coordinates read off its pivots.

The eightfold split is built as H^k = sum over eps of eta_eps ^ H_B^(k-|eps|),
where H_B is the basic harmonic forms and eta_eps the wedge of the eta_alpha
with eps_alpha = 1.  Its own checks (eta_beta(xi_alpha) = delta_alpha_beta,
each kernel form basic, each summand in H^k, the dimensions summing to b_k)
make each summand the joint e_alpha eigenspace of pattern eps, prove its
dimension bh_(k-|eps|) and every check of l_alpha, lambda_alpha and e_alpha,
so ``small_operators`` runs only to name a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import linalg
from .exterior import (
    EndField,
    KForm,
    _Pullback,
    contract_images,
    exterior_derivative,
    form_vector,
    interior_product,
    monomial_images,
    sparse_contract,
    vector_form,
    wedge_images,
)
from .models import ModelSpace
from .structures import CheckItem, CheckReport, DimensionError, EVEN_PERMS, ThreeStructure

#: Fixed report order for the eight eigenvalue patterns (eps1, eps2, eps3):
#: 000, then 100 010 001, then 110 101 011, then 111.
EPS_ORDER = tuple(sorted(product((1, 0), repeat=3), key=sum))
BASIC = (0, 0, 0)

#: The largest chart dimension ``decompose`` accepts.  Its time and memory
#: grow as 2^dim: the flat torus of dimension 19 took 25 s and 717 MB in
#: betti and 97 s and 1.1 GB in liealg, and dimension 23 ran out of memory.
MAX_CHART_DIM = 19


class NonCompactError(ValueError):
    """Betti data requested for a non-compact model."""


class CohomologyError(RuntimeError):
    """An identity that is a theorem failed; the model data is inconsistent."""


def eps_label(eps: tuple[int, int, int]) -> str:
    return "".join(str(e) for e in eps)


# -- constant forms as sparse vectors -----------------------------------------


def _eta_xi(t: ThreeStructure, alpha: int):
    """eta_alpha as a sparse vector and xi_alpha as index -> component."""
    s = t.structure(alpha)
    xi = {i: p.constant_value() for i, p in enumerate(s.xi.components) if not p.is_zero()}
    return form_vector(s.eta), xi


# -- invariant forms under a finite-order monodromy ---------------------------


def fiber_invariants(a: EndField, order: int) -> list[list[linalg.SparseVector]]:
    """Canonical bases of the fixed subspaces of a* on constant q-forms, by q.

    Each is the column space of r P, where P = (1/r) sum_{j<r} (a*)^j is the
    averaging projector: the column of r P at dx_I is the sum of the orbit of
    dx_I, integral for an integral monodromy.  Each orbit is walked once: if
    (a*)^j dx_I = c dx_J, then P a* = P makes the column at J c^-1 times the
    one at I, so J starts no walk.  ``order`` is r, as ``Topology.of`` found
    it; the projector trace is cross-checked against the fixed dimension at
    every degree.
    """
    images = monomial_images(a.to_fractions(), range(1 << a.m))
    columns: list[list[linalg.SparseVector]] = [[] for _ in range(a.m + 1)]
    traces = [0] * (a.m + 1)
    shared: set[int] = set()
    for t in images:
        if t in shared:
            continue
        orbit = [{t: 1}]
        for _ in range(order - 1):
            orbit.append(linalg.sparse_sum(
                (key, c * x) for s, c in orbit[-1].items() for key, x in images[s].items()
            ))
        col = linalg.sparse_sum(term for v in orbit for term in v.items())
        columns[t.bit_count()].append(col)
        # Projector diagonal entries at t and at the monomials its column stands for.
        singles = {s: c for v in orbit if len(v) == 1 for s, c in v.items() if s not in shared}
        shared.update(singles)
        traces[t.bit_count()] += sum(linalg.quotient(col.get(s, 0), c) for s, c in singles.items())
    out = []
    for q, cols in enumerate(columns):
        out.append(linalg.sparse_rref(cols))
        tr = linalg.quotient(traces[q], order)
        if tr != len(out[q]):
            raise CohomologyError(
                f"projector trace {tr} disagrees with fixed-space dimension {len(out[q])} at fiber degree {q}"
            )
    return out


def invariant_forms(a: EndField, q: int, order: int) -> list[linalg.SparseVector]:
    """Canonical basis of the a*-invariant constant q-forms: degree q of the one-pass ``fiber_invariants``."""
    if q < 0:
        raise ValueError(f"fiber degree {q} is negative")
    forms = fiber_invariants(a, order)
    return forms[q] if q < len(forms) else []


# -- harmonic spaces ----------------------------------------------------------


def _require_compact_constant(space: ModelSpace, t: ThreeStructure):
    if not space.topology.compact:
        raise NonCompactError(
            "harmonic-form spaces require a compact (torus or mapping_torus) model"
        )
    if not t.constant:
        raise ValueError("compact models require constant-coefficient structure tensors")


def harmonic_space(
    space: ModelSpace,
    t: ThreeStructure,
    k: int,
    fibers: dict[int, list[linalg.SparseVector]] | None = None,
) -> list[linalg.SparseVector]:
    """Canonical basis of the harmonic k-forms of a compact flat model.

    These are dt_S ^ w with w a constant fiber form fixed by the holonomy,
    the group generated by the monodromy f, and dt-factors free.  On a torus
    f = I, every orbit is one monomial, and the basis is every constant
    k-form.  The first call that finds ``fibers`` empty fills every fiber
    degree in one pass.  The t-indices lie above every fiber index, so
    dt_S ^ w is +-w with the bits of S added, with keys in
    [S << d, (S + 1) << d): in increasing S these forms are already the
    canonical basis.
    """
    _require_compact_constant(space, t)
    m = space.chart_dim
    if not 0 <= k <= m:
        raise ValueError(f"degree {k} out of range 0..{m}")
    topo = space.topology
    d = topo.fiber_dim
    fibers = {} if fibers is None else fibers
    if not fibers:
        fibers.update(enumerate(fiber_invariants(topo.monodromy, topo.order)))
    return [
        {key | s << d: x for key, x in w.items()}
        for s in range(8) if 0 <= k - s.bit_count() <= d
        for w in fibers[k - s.bit_count()]
    ]


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
    """A degree-shifting operator as one sparse matrix per source degree.

    Block k, keyed (row, col), maps the canonical degree-k basis to the
    degree-(k + degree_shift) one; ``dims`` holds every basis dimension."""

    name: str
    degree_shift: int
    sparse_blocks: dict[int, linalg.SparseMatrix]
    dims: tuple[int, ...]

    @property
    def blocks(self) -> dict[int, linalg.Matrix]:
        """Every block as dense row lists, built on demand."""
        return {k: self.block(k) for k in self.sparse_blocks}

    def block(self, k: int) -> linalg.Matrix:
        if k not in self.sparse_blocks:
            return []
        rows = linalg.zeros(self.dims[k + self.degree_shift], self.dims[k])
        for (i, j), x in self.sparse_blocks[k].items():
            rows[i][j] = x
        return rows


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
    dims = tuple(len(basis) for basis in bases)
    ops: dict[str, GradedOperatorMatrix] = {}
    for alpha in (1, 2, 3):
        eta, xi = _eta_xi(t, alpha)
        l_blocks: dict[int, linalg.SparseMatrix] = {}
        lam_blocks: dict[int, linalg.SparseMatrix] = {}
        for k in range(m + 1):
            vectors = bases[k].vectors
            for op, blocks, dst, images in (
                (f"l{alpha}", l_blocks, k + 1, wedge_images(eta, vectors)),
                (f"lambda{alpha}", lam_blocks, k - 1, contract_images(xi, vectors)),
            ):
                if 0 <= dst <= m:
                    blocks[k] = bases[dst].columns(images)
                    if type(blocks[k]) is int:
                        raise CohomologyError(f"{op} does not preserve harmonic forms at degree {k}")
        e_blocks = {
            k: linalg.sparse_product(l_blocks[k - 1], lam_blocks[k]) if k else {} for k in range(m + 1)
        }
        ops[f"l{alpha}"] = GradedOperatorMatrix(f"l{alpha}", 1, l_blocks, dims)
        ops[f"lambda{alpha}"] = GradedOperatorMatrix(f"lambda{alpha}", -1, lam_blocks, dims)
        ops[f"e{alpha}"] = GradedOperatorMatrix(f"e{alpha}", 0, e_blocks, dims)
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
        return tuple(vector_form(self.m, k, v) for v in self.span(k, eps).vectors)

    def dims_row(self, k: int) -> dict[str, int]:
        return {eps_label(eps): len(self.span(k, eps)) for eps in EPS_ORDER}


def decompose(space: ModelSpace, t: ThreeStructure) -> HarmonicTable:
    """Split every harmonic space into the eight joint e_alpha eigenspaces.

    H_B^k, the basic harmonic k-forms, is the null space of the stacked
    xi_alpha-contractions of the H^k basis read at the pivots of H^(k-1),
    and the component eps at degree k is C = eta_eps ^ H_B^(k - |eps|),
    eta_eps the wedge of the eta_alpha with eps_alpha = 1.  It checks
    eta_beta(xi_alpha) = delta_alpha_beta, each kernel form basic, each C
    inside H^k and the dimensions summing to b_k.  For basic w and alpha with
    eps_alpha = 0, delta gives i_xi_alpha(eta_alpha ^ eta_eps ^ w) = eta_eps ^ w,
    so by induction dim C_eps^k = bh_(k-|eps|): the dimensions are proven.
    With e_alpha = eta_alpha ^ i_xi_alpha on all constant forms,
    delta gives e_alpha(eta_eps ^ w) = eps_alpha eta_eps ^ w for basic w, so
    the C of distinct patterns are independent and, summing to b_k, split H^k.
    On eta_eps ^ w, lambda_alpha and l_alpha give 0 or +-eta_(eps -+ alpha) ^ w,
    a form of another C: both keep the harmonic forms and the e_alpha are
    commuting idempotents, so every ``small_operators`` and e_alpha check holds.
    Conversely those checks make the pivot reading exact and each C harmonic,
    so on any failure they run first, and the first failure in that order
    raises :class:`CohomologyError`.  A chart dimension that is not 4n + 3 or
    is above ``MAX_CHART_DIM`` raises :class:`DimensionError` first.
    """
    t.require_dimension()
    m = space.chart_dim
    if m > MAX_CHART_DIM:
        raise DimensionError(
            f"chart dimension {m} is above {MAX_CHART_DIM}, the largest whose cohomology is computed"
        )
    bases = _harmonic_bases(space, t)
    try:
        return _split(t, bases)
    except CohomologyError:
        _check_operators(space, t, bases)
        raise


def _check_operators(space: ModelSpace, t: ThreeStructure, bases: list[linalg.EchelonBasis]) -> None:
    """Raise the first failure of ``small_operators``, then of the e_alpha idempotence and commutation."""
    ops = small_operators(space, t, bases)
    for k in range(len(bases)):
        e = [ops[f"e{alpha}"].sparse_blocks[k] for alpha in (1, 2, 3)]
        for alpha in range(3):
            if linalg.sparse_product(e[alpha], e[alpha]) != e[alpha]:
                raise CohomologyError(f"e{alpha + 1} is not idempotent on degree {k}")
            for beta in range(alpha + 1, 3):
                if linalg.sparse_commutator(e[alpha], e[beta]):
                    raise CohomologyError(f"e{alpha + 1} and e{beta + 1} do not commute on degree {k}")


def _split(t: ThreeStructure, bases: list[linalg.EchelonBasis]) -> HarmonicTable:
    """The split of ``decompose`` and its own checks, without the operator checks."""
    m = len(bases) - 1
    b = tuple(len(basis) for basis in bases)
    etas, xis = zip(*(_eta_xi(t, alpha) for alpha in (1, 2, 3)))
    for alpha, xi in enumerate(xis, 1):
        for beta, eta in enumerate(etas, 1):
            value = sparse_contract(xi, eta).get(0, 0)
            if value != (alpha == beta):
                raise CohomologyError(f"eta{beta}(xi{alpha}) = {value}, expected {int(alpha == beta)}")
    spans: dict[tuple[int, tuple[int, int, int]], linalg.EchelonBasis] = {}
    for k, basis in enumerate(bases):
        # Constant forms are closed, so the basic ones are the kernel of
        # omega -> (i_xi_alpha omega)_alpha, read at the pivots of H^(k-1);
        # the check that each kernel form is basic stands in for the rest.
        pivots = bases[k - 1].index if k else {}
        stacked: dict = {}
        for alpha, xi in enumerate(xis):
            for c, image in enumerate(contract_images(xi, basis.vectors)):
                for key, x in image.items():
                    if key in pivots:
                        stacked.setdefault((alpha, pivots[key]), {})[c] = x
        # Every basis vector is 1 at its own pivot and 0 at the others, so the
        # reduced echelon coordinates give the reduced echelon forms.
        coords = linalg.sparse_rref(linalg.sparse_kernel(stacked.values(), b[k]))
        forms = [
            linalg.sparse_sum((key, c * x) for i, c in v.items() for key, x in basis.vectors[i].items())
            for v in coords
        ]
        for i, image in enumerate(zip(*(contract_images(xi, forms) for xi in xis))):
            if any(image):
                raise CohomologyError(f"kernel form {i} at degree {k} is not basic")
        spans[(k, BASIC)] = linalg.EchelonBasis(forms)
        # eta_eps ^ H_B is eta_alpha ^ (eta_(eps - alpha) ^ H_B), alpha the first 1 of eps.
        for eps in EPS_ORDER[1:]:
            alpha = eps.index(1)
            lower = spans.get((k - 1, eps[:alpha] + (0,) + eps[alpha + 1:]))
            images = wedge_images(etas[alpha], lower.vectors if lower else ())
            spans[(k, eps)] = linalg.EchelonBasis(linalg.sparse_rref(images))
            if type(basis.columns(spans[(k, eps)].vectors)) is int:
                raise CohomologyError(f"component {eps_label(eps)} at degree {k} is not harmonic")
    bh = tuple(len(spans[(k, BASIC)]) for k in range(m + 1))
    for k in range(m + 1):
        total = sum(len(spans[(k, eps)]) for eps in EPS_ORDER)
        if total != b[k]:
            raise CohomologyError(
                f"eigenspace dimensions at degree {k} sum to {total}, expected {b[k]}"
            )
    return HarmonicTable(m, spans, b, bh)


# -- the ladder of isomorphisms ----------------------------------------------


def verify_ladder(
    space: ModelSpace, t: ThreeStructure, table: HarmonicTable | None = None
) -> CheckReport:
    """Check that each l_alpha maps its source component bijectively onto its
    target along every edge of the eigenvalue cube, for 0 <= k <= m - 3: that
    the canonical basis of the image is the target's."""
    if table is None:
        table = decompose(space, t)
    items = []
    etas = {alpha: _eta_xi(t, alpha)[0] for alpha in (1, 2, 3)}
    for k in range(table.m - 2):
        for alpha, eta in etas.items():
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
                image = linalg.sparse_rref(wedge_images(eta, src.vectors))
                if image != list(dst.vectors) and type(dst.columns(image)) is int:
                    items.append(CheckItem(name, False, "image leaves the target component"))
                else:
                    items.append(CheckItem.check(name, len(image) == len(src), "restriction is not injective"))
    return CheckReport(tuple(items))


# -- Betti arithmetic ----------------------------------------------------------


def betti_checks(table: HarmonicTable) -> CheckReport:
    """All arithmetic consequences of the decomposition for a 4n+3 model.

    Every line here is a theorem for a verified 3-cosymplectic compact model,
    so a failure indicates inconsistent data, not a property of the space.
    """
    m = table.m
    b, bh = table.b, table.bh
    if m % 4 != 3:
        raise ValueError(f"table dimension {m} is not 4n + 3")
    n = (m - 3) // 4

    def bh_at(j: int) -> int:
        return bh[j] if 0 <= j <= m else 0

    items = []
    for k in range(m + 1):
        expected = bh_at(k) + 3 * bh_at(k - 1) + 3 * bh_at(k - 2) + bh_at(k - 3)
        formula = f"b_{k} = {b[k]}, formula gives {expected}"
        items.append(CheckItem.check(f"betti_formula[k={k}]", b[k] == expected, formula))
    for k in range(1, m + 1, 2):
        items.append(CheckItem.check(f"basic_betti_div4[k={k}]", bh[k] % 4 == 0, f"bh_{k} = {bh[k]}"))
        total = b[k - 1] + b[k]
        items.append(CheckItem.check(f"betti_sum_div4[k={k}]", total % 4 == 0, f"b_{k - 1} + b_{k} = {total}"))
    for k in range(0, 2 * n + 2):
        bound = math.comb(k + 2, 2)
        items.append(CheckItem.check(
            f"betti_lower_bound[k={k}]", b[k] >= bound, f"b_{k} = {b[k]} < {bound}",
            f"b_{k} = {b[k]} >= C({k}+2,2) = {bound}",
        ))
    for k in range(0, (2 * n + 1) // 2 + 1):
        bound = math.comb(k + 2, 2)
        ok = b[2 * k] >= bound
        witness = f"b_{2 * k} = {b[2 * k]} {'>=' if ok else '<'} {bound} (weaker even-degree bound)"
        items.append(CheckItem.check(f"wakakuwa_bound[k={k}]", ok, witness, witness))
    for k in range(m + 1):
        duality = f"b_{k} = {b[k]} != b_{m - k} = {b[m - k]}"
        items.append(CheckItem.check(f"poincare_duality[k={k}]", b[k] == b[m - k], duality))
    euler = sum((-1) ** k * b[k] for k in range(m + 1))
    items.append(CheckItem.check("euler_characteristic_zero", euler == 0, f"chi = {euler}"))
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
    span = table.span(k, BASIC)
    dim = len(span)
    items = []
    mats = {}
    for alpha in (1, 2, 3):
        phi = t.structure(alpha).phi.to_fractions()
        mat = span.columns(map(_Pullback(phi), span.vectors))
        preserved = type(mat) is not int
        items.append(CheckItem.check(f"hmodule_preserved[{alpha}]", preserved, "pullback leaves the component"))
        if preserved:
            mats[alpha] = mat
    if len(mats) == 3:
        minus_id = {(i, i): -1 for i in range(dim)}
        for alpha in (1, 2, 3):
            squared = linalg.sparse_product(mats[alpha], mats[alpha])
            items.append(CheckItem.check(f"hmodule_I{alpha}_squared_minus_id", squared == minus_id, "I^2 != -id"))
        for (a, b_, c) in EVEN_PERMS:
            ok = linalg.sparse_product(mats[a], mats[b_]) == {key: -x for key, x in mats[c].items()}
            items.append(CheckItem.check(f"hmodule_I{a}I{b_}_eq_minus_I{c}", ok, "quaternion relation fails"))
    div4 = dim % 4 == 0
    items.append(CheckItem.check(f"hmodule_dim_div4[k={k}]", div4, f"dim = {dim} not divisible by 4", f"dim = {dim}"))
    return CheckReport(tuple(items))
