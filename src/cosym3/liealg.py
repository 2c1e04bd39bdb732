"""The degree-shifting operator algebra on basic harmonic forms.

Ten operators act on the direct sum of the (0,0,0) components: the grading
operator H, three wedge operators L_alpha, their g-adjoints Lambda_alpha
(contractions by Xi_alpha raised with G^-1, equal to * L_alpha * as the
dimension is odd), and the cross commutators K_alpha.  Their span
closes under the bracket, and the Killing form computed from the exact
structure constants has rank 10 and signature (4, 6), which certifies the
isomorphism class so(4,1) among real simple Lie algebras of dimension 10.
The certificate is read off the sparse matrices ad x_i of the structure
constants: K[i][j] = tr(ad x_i ad x_j), Jacobi as [ad x_i, ad x_j] =
ad [x_i, x_j] for i < j, and invariance as the antisymmetry of every K ad x_i.

Convention note: the 2-form driving L_alpha is the horizontal part of the
fundamental 2-form, Xi_alpha = Phi_alpha + eta_beta ^ eta_gamma in the
determinant wedge convention used by this package.  Any uniform sign flip of
[L_alpha, Lambda_alpha] against -H would indicate a sign convention
change and is recorded verbatim in the report, never silently adjusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

from . import linalg
from .cohomology import BASIC, CohomologyError, HarmonicTable, decompose
from .exterior import KForm, _metric_inverse, _pulled_back, contract_images, form_vector, wedge, wedge_images
from .exterior import HodgeOperator  # noqa: F401 -- unused; bench/tracing.py subclasses it (ROADMAP item 6)
from .models import ModelSpace
from .structures import ThreeStructure, fundamental_form

GENERATORS = ("H", "L1", "L2", "L3", "Lam1", "Lam2", "Lam3", "K1", "K2", "K3")

_COMPLEMENT = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


class DegenerateAlgebraError(ValueError):
    """All ten operators vanish identically (fiber dimension zero)."""


def xi_form(t: ThreeStructure, alpha: int) -> KForm:
    """The closed horizontal 2-form whose wedge is the degree-raising operator.

    Adding eta_beta ^ eta_gamma cancels the Reeb part of the fundamental
    2-form exactly, leaving the transverse Kahler form of the structure.
    """
    beta, gamma = _COMPLEMENT[alpha]
    phi_form = fundamental_form(t.structure(alpha))
    return phi_form + wedge(t.structure(beta).eta, t.structure(gamma).eta)


def big_operators(
    space: ModelSpace,
    t: ThreeStructure,
    table: HarmonicTable | None = None,
) -> dict[str, linalg.SparseMatrix]:
    """Matrices of H, L_alpha, Lambda_alpha, K_alpha on the basic harmonic forms.

    All ten are keyed (row, col) over one basis: the (0,0,0) components of
    every degree, one after another in increasing degree.  Lambda_alpha needs
    only G^-1, not the Hodge star, so det(g) need not be a rational square.
    Raises :class:`DegenerateAlgebraError` if the fiber dimension is zero
    (every operator is then identically zero and the algebra degenerates),
    then :class:`MetricError` if g is not positive definite, and
    :class:`CohomologyError` if L_alpha or Lambda_alpha fails to preserve the
    basic forms (alpha in turn, then the lowest source degree, L first).
    """
    if table is None:
        table = decompose(space, t)
    m, n = table.m, (table.m - 3) // 4
    if n == 0:
        raise DegenerateAlgebraError(
            "fiber dimension 0: H, L, Lambda, K all vanish on basic forms"
        )
    g_inv = _metric_inverse(t.g)
    vectors = [v for k in range(m + 1) for v in table.span(k, BASIC).vectors]
    basis = linalg.EchelonBasis(vectors)
    degrees = [min(v).bit_count() for v in vectors]
    # i(d_i) v for each index i and basic form v, shared by the three Lambda_alpha.
    inner = [list(contract_images({i: 1}, vectors)) for i in range(m)]
    ops = {"H": {(i, i): 2 * n - k for i, k in enumerate(degrees) if k != 2 * n}}
    for alpha in (1, 2, 3):
        xi2 = form_vector(xi_form(t, alpha))
        l_op = ops[f"L{alpha}"] = basis.columns(wedge_images(xi2, vectors))
        # Lambda_alpha v = sum_i i(X_i) i(d_i) v, X_i = sum_{j>i} W^ij d_j, W = G^-1 Xi_alpha G^-1:
        # W^ij for i < j is the entry of Xi_alpha raised by G^-1 at key 2^i + 2^j.
        w = _pulled_back(g_inv, xi2)
        rows = [{j: w[key] for j in range(i + 1, m) if (key := 1 << i | 1 << j) in w} for i in range(m)]
        parts = zip(*(contract_images(x, inner[i]) for i, x in enumerate(rows) if x))
        lam = (linalg.sparse_sum(chain.from_iterable(p.items() for p in ps)) for ps in parts)
        lam_op = ops[f"Lam{alpha}"] = basis.columns(lam)
        # The lowest source degree off the span is reported, L before Lambda.
        failed = [(degrees[j], name) for name, j in ((f"L{alpha}", l_op), (f"Lambda{alpha}", lam_op)) if type(j) is int]
        if failed:
            k, name = min(failed, key=lambda f: f[0])
            raise CohomologyError(f"{name} does not preserve the basic harmonic forms at degree {k}")
    for alpha, (beta, gamma) in _COMPLEMENT.items():
        ops[f"K{alpha}"] = linalg.sparse_commutator(ops[f"L{beta}"], ops[f"Lam{gamma}"])
    return ops


@dataclass(frozen=True)
class SpanAnalysis:
    """Exact bracket-closure analysis of the span of some operators.

    ``bracket_coeffs[(i, j)]`` for i < j holds the coordinates of the bracket
    of operators i and j over the operators, as a dict from operator index to
    nonzero coefficient.  The structure constants and everything computed
    from them are None unless the operators are independent and closed.
    """

    independent: bool
    closed: bool
    span_dim: int
    bracket_coeffs: dict[tuple[int, int], dict[int, linalg.Entry]] | None
    killing: linalg.Matrix | None
    killing_rank: int | None
    signature: tuple[int, int, int] | None
    jacobi_ok: bool | None
    killing_invariance_ok: bool | None


@dataclass(frozen=True)
class LieAlgebraReport(SpanAnalysis):
    """The span analysis of the ten operators, with the operators themselves."""

    generator_names: tuple[str, ...]
    dims: tuple[int, ...]
    operators: dict[str, linalg.SparseMatrix]
    h_commutator_sign: int | None
    h_commutator_uniform: bool

    @property
    def passed(self) -> bool:
        return (
            self.independent
            and self.closed
            and self.span_dim == 10
            and self.h_commutator_sign == -1
            and self.h_commutator_uniform
            and self.killing_rank == 10
            and self.signature == (4, 6, 0)
            and bool(self.jacobi_ok)
            and bool(self.killing_invariance_ok)
        )

    def bracket(self, left: str, right: str) -> tuple[linalg.Entry, ...]:
        if self.bracket_coeffs is None:
            raise ValueError("bracket table unavailable: span did not close")
        i = self.generator_names.index(left)
        j = self.generator_names.index(right)
        coeffs, sign = {}, 1
        if i < j:
            coeffs = self.bracket_coeffs[(i, j)]
        elif i > j:
            coeffs, sign = self.bracket_coeffs[(j, i)], -1
        return tuple(sign * coeffs.get(k, 0) for k in range(len(self.generator_names)))


def analyze_operator_span(ops: list[linalg.SparseMatrix]) -> SpanAnalysis:
    """Bracket-closure analysis of a list of sparse matrices.

    Returns independence, the dimension of the bracket-closed span, and when
    the given operators are independent and closed, the structure constants,
    Killing form, its rank and signature, and the Jacobi and invariance
    verdicts, the last three from the sparse matrices ad x_i as in the module
    docstring.  Shared by the operator algebra and by reference realizations.
    """
    count = len(ops)
    basis = linalg.EchelonBasis(linalg.sparse_rref(ops))
    independent = len(basis) == count
    brackets = linalg.sparse_commutators(ops)
    if independent:
        # A bracket in the span is sum_k c_k x_k, and its entries at the
        # echelon pivots give c through the inverse of the operators' pivot
        # entries; it is in the span exactly when the residual
        # bracket - sum_k c_k x_k vanishes.
        pivots = [min(v) for v in basis.vectors]
        inv = linalg.inverse([[op.get(p, 0) for op in ops] for p in pivots])
        coeffs = {
            key: linalg.sparse_sum((k, inv[k][b] * br[p]) for b, p in enumerate(pivots) if p in br for k in range(count))
            for key, br in brackets.items()
        }
        outside = [
            br for key, br in brackets.items()
            if linalg.sparse_sum(chain(br.items(), ((rc, -c * x) for k, c in coeffs[key].items() for rc, x in ops[k].items())))
        ]
    else:
        outside = [br for br in brackets.values() if basis.coordinates(br) is None]
    if outside or not independent:
        dim = _closure_dim(basis, outside)
        return SpanAnalysis(independent, not outside, dim, None, None, None, None, None, None)
    killing, jacobi_ok, invariance_ok = _certify(coeffs, count)
    pos, neg, zero = linalg.signature(killing)
    return SpanAnalysis(
        independent=True,
        closed=True,
        span_dim=count,
        bracket_coeffs=coeffs,
        killing=killing,
        killing_rank=pos + neg,
        signature=(pos, neg, zero),
        jacobi_ok=jacobi_ok,
        killing_invariance_ok=invariance_ok,
    )


def _certify(coeffs: dict, count: int) -> tuple[linalg.Matrix, bool, bool]:
    """Killing form, Jacobi and invariance verdicts of a bracket table.

    ``coeffs[(i, j)]`` for i < j holds the coordinates of [x_i, x_j]; a
    missing pair brackets to 0.  Column l of [ad x_i, ad x_j] - ad [x_i, x_j]
    is the Jacobi sum J(i, j, l), which vanishes for l = i or j, and the
    Killing form K is invariant exactly when every K ad x_i is antisymmetric.
    """
    ad: list[linalg.SparseMatrix] = [{} for _ in range(count)]
    for (i, j), c in coeffs.items():
        for k, x in c.items():
            ad[i][k, j], ad[j][k, i] = x, -x
    # K[i][j] = tr(ad x_i ad x_j) = K[j][i], summed over nonzero products.
    killing = linalg.zeros(count, count)
    for i, j in combinations_with_replacement(range(count), 2):
        terms = (x * ad[j][l, k] for (k, l), x in ad[i].items() if (l, k) in ad[j])
        killing[i][j] = killing[j][i] = sum(terms)
    jacobi_ok = all(
        br == linalg.sparse_sum((rc, x * y) for k, x in coeffs.get(key, {}).items() for rc, y in ad[k].items())
        for key, br in linalg.sparse_commutators(ad).items()
    )
    form = {(i, j): x for i, row in enumerate(killing) for j, x in enumerate(row) if x}
    invariance_ok = all(
        prod == {(c, r): -x for (r, c), x in prod.items()}
        for prod in (linalg.sparse_product(form, a) for a in ad)
    )
    return killing, jacobi_ok, invariance_ok


def _closure_dim(basis: linalg.EchelonBasis, outside: list[linalg.SparseMatrix]) -> int:
    """Dimension of the smallest bracket-closed span containing both arguments."""
    while outside:
        basis = linalg.EchelonBasis(linalg.sparse_rref(basis.vectors + tuple(outside)))
        brackets = linalg.sparse_commutators(basis.vectors).values()
        outside = [br for br in brackets if basis.coordinates(br) is None]
    return len(basis)


def lie_report(
    space: ModelSpace,
    t: ThreeStructure,
    table: HarmonicTable | None = None,
) -> LieAlgebraReport:
    """Full exact analysis of the span of {H, L_alpha, Lambda_alpha, K_alpha}."""
    if table is None:
        table = decompose(space, t)
    ops = big_operators(space, t, table)
    span = analyze_operator_span([ops[name] for name in GENERATORS])

    # [L_alpha, Lambda_alpha] = sign * H with one sign for every alpha.
    h_sign: int | None = None
    if span.bracket_coeffs is not None:
        h = GENERATORS.index("H")
        signs = set()
        for alpha in (1, 2, 3):
            i = GENERATORS.index(f"L{alpha}")
            j = GENERATORS.index(f"Lam{alpha}")
            cc = span.bracket_coeffs[(i, j)]
            signs.add(int(cc[h]) if cc.keys() == {h} and abs(cc[h]) == 1 else 0)
        if len(signs) == 1 and 0 not in signs:
            h_sign = signs.pop()
    return LieAlgebraReport(
        **vars(span),
        generator_names=GENERATORS,
        dims=table.bh,
        operators=ops,
        h_commutator_sign=h_sign,
        h_commutator_uniform=h_sign is not None,
    )


def render_bracket_entry(names: tuple[str, ...], coeffs) -> str:
    """Render a coefficient vector over the generators, e.g. '-H' or '2*K3'."""
    parts = []
    for name, c in zip(names, coeffs):
        if not c:
            continue
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")
