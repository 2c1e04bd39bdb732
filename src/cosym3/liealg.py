"""The degree-shifting operator algebra on basic harmonic forms.

Ten operators act on the direct sum of the (0,0,0) components: the grading
operator H, three wedge operators L_alpha, their Hodge adjoints
Lambda_alpha = * L_alpha *, and the cross commutators K_alpha.  Their span
closes under the bracket, and the Killing form computed from the exact
structure constants has rank 10 and signature (4, 6), which certifies the
isomorphism class so(4,1) among real simple Lie algebras of dimension 10.

Convention note: the 2-form driving L_alpha is the horizontal part of the
fundamental 2-form, Xi_alpha = Phi_alpha + eta_beta ^ eta_gamma in the
determinant wedge convention used by this package.  Any uniform sign flip of
[L_alpha, Lambda_alpha] against -H would indicate an orientation convention
change and is recorded verbatim in the report, never silently adjusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cohomology import (
    BASIC,
    GradedOperatorMatrix,
    HarmonicTable,
    decompose,
    form_vector,
    operator_matrix,
)
from .exterior import HodgeOperator, KForm, wedge
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


def _flatten(blocks: dict[int, linalg.Matrix], dims: list[int], shift: int) -> linalg.Matrix:
    offsets = []
    total = 0
    for d in dims:
        offsets.append(total)
        total += d
    big = linalg.zeros(total, total)
    for k, block in blocks.items():
        if not block or not block[0]:
            continue
        dst = k + shift
        if not 0 <= dst < len(dims):
            continue
        for i in range(len(block)):
            for j in range(len(block[0])):
                big[offsets[dst] + i][offsets[k] + j] = block[i][j]
    return big


def _graded_from_flat(big: linalg.Matrix, dims: list[int], shift: int) -> dict[int, linalg.Matrix]:
    offsets = []
    total = 0
    for d in dims:
        offsets.append(total)
        total += d
    blocks = {}
    for k, d in enumerate(dims):
        dst = k + shift
        if d == 0 or not 0 <= dst < len(dims) or dims[dst] == 0:
            continue
        blocks[k] = [
            [big[offsets[dst] + i][offsets[k] + j] for j in range(d)]
            for i in range(dims[dst])
        ]
    return blocks


def big_operators(
    space: ModelSpace,
    t: ThreeStructure,
    table: HarmonicTable | None = None,
) -> dict[str, GradedOperatorMatrix]:
    """Matrices of H, L_alpha, Lambda_alpha, K_alpha on the basic harmonic spaces.

    Raises if any operator fails to preserve the (0,0,0) components, or if
    the fiber dimension is zero (every operator is then identically zero and
    the algebra degenerates).
    """
    if table is None:
        table = decompose(space, t)
    m = table.m
    n = (m - 3) // 4
    if n == 0:
        raise DegenerateAlgebraError(
            "fiber dimension 0: H, L, Lambda, K all vanish on basic forms"
        )
    dims = [len(table.span(k, BASIC)) for k in range(m + 1)]
    bases = {k: table.component(k, BASIC) for k in range(m + 1)}
    star = HodgeOperator(t.g)
    xi_forms = {alpha: xi_form(t, alpha) for alpha in (1, 2, 3)}
    ops: dict[str, GradedOperatorMatrix] = {}
    for alpha in (1, 2, 3):
        xi2 = xi_forms[alpha]
        l_blocks: dict[int, linalg.Matrix] = {}
        lam_blocks: dict[int, linalg.Matrix] = {}
        for k in range(m + 1):
            if dims[k] == 0:
                continue
            images = [wedge(xi2, f) for f in bases[k]]
            if k + 2 > m:
                if any(not im.is_zero() for im in images):
                    raise RuntimeError(f"L{alpha} image overflows the top degree")
                continue
            mat = operator_matrix([form_vector(im) for im in images], table.span(k + 2, BASIC))
            if mat is None:
                raise RuntimeError(
                    f"L{alpha} does not preserve the basic harmonic forms at degree {k}"
                )
            l_blocks[k] = mat
            if k >= 2:
                images = [star(wedge(xi2, star(f))) for f in bases[k]]
                mat = operator_matrix(
                    [form_vector(im) for im in images], table.span(k - 2, BASIC)
                )
                if mat is None:
                    raise RuntimeError(
                        f"Lambda{alpha} does not preserve the basic harmonic forms at degree {k}"
                    )
                lam_blocks[k] = mat
        ops[f"L{alpha}"] = GradedOperatorMatrix(f"L{alpha}", 2, l_blocks)
        ops[f"Lam{alpha}"] = GradedOperatorMatrix(f"Lam{alpha}", -2, lam_blocks)
    h_blocks = {
        k: linalg.mat_scale(linalg.identity(dims[k]), Fraction(2 * n - k))
        for k in range(m + 1)
        if dims[k]
    }
    ops["H"] = GradedOperatorMatrix("H", 0, h_blocks)
    for alpha, (beta, gamma) in _COMPLEMENT.items():
        l_flat = _flatten(ops[f"L{beta}"].blocks, dims, 2)
        lam_flat = _flatten(ops[f"Lam{gamma}"].blocks, dims, -2)
        k_flat = linalg.commutator(l_flat, lam_flat)
        ops[f"K{alpha}"] = GradedOperatorMatrix(
            f"K{alpha}", 0, _graded_from_flat(k_flat, dims, 0)
        )
    return ops


@dataclass(frozen=True)
class LieAlgebraReport:
    """Exact structure-constant analysis of the ten-operator span."""

    generator_names: tuple[str, ...]
    dims: tuple[int, ...]
    generators: dict[str, linalg.Matrix]
    graded: dict[str, GradedOperatorMatrix]
    independent: bool
    closed: bool
    span_dim: int
    bracket_coeffs: dict[tuple[int, int], tuple[Fraction, ...]] | None
    killing: linalg.Matrix | None
    killing_rank: int | None
    signature: tuple[int, int, int] | None
    h_commutator_sign: int | None
    h_commutator_uniform: bool
    jacobi_ok: bool | None
    killing_invariance_ok: bool | None

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

    def bracket(self, left: str, right: str) -> tuple[Fraction, ...]:
        if self.bracket_coeffs is None:
            raise ValueError("bracket table unavailable: span did not close")
        i = self.generator_names.index(left)
        j = self.generator_names.index(right)
        if i == j:
            return tuple(Fraction(0) for _ in self.generator_names)
        if i < j:
            return self.bracket_coeffs[(i, j)]
        return tuple(-c for c in self.bracket_coeffs[(j, i)])


def analyze_operator_span(ops: list[linalg.Matrix]) -> dict:
    """Bracket-closure analysis of a list of square matrices.

    Returns independence, the dimension of the bracket-closed span, and when
    the given operators are independent and closed, the structure constants,
    Killing form, its rank and signature, and the Jacobi and invariance
    verdicts.  Shared by the operator algebra and by reference realizations.
    """
    count = len(ops)
    size = len(ops[0]) if ops else 0
    flat = [[row[j] for row in op for j in range(size)] for op in ops]
    _, flat_pivots = linalg.rref(flat)
    independent = len(flat_pivots) == count

    def express(vec: list[Fraction]) -> tuple[Fraction, ...] | None:
        # Coordinates over the generators via the pivot positions, then a
        # full verification so a vector outside the span is never accepted.
        if not independent:
            return linalg.solve(linalg.transpose(flat), vec)
        sub = [[flat[i][p] for i in range(count)] for p in flat_pivots]
        sol = linalg.solve(sub, [vec[p] for p in flat_pivots])
        if sol is None:
            return None
        for pos in range(size * size):
            total = Fraction(0)
            for i in range(count):
                x = flat[i][pos]
                if x and sol[i]:
                    total += sol[i] * x
            if total != vec[pos]:
                return None
        return tuple(sol)

    coeffs: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    closed = True
    span_rows = [row[:] for row in flat]
    for i in range(count):
        for j in range(i + 1, count):
            br = linalg.commutator(ops[i], ops[j])
            vec = [br[r][c] for r in range(size) for c in range(size)]
            sol = express(vec)
            if sol is None:
                closed = False
                span_rows.append(vec)
            else:
                coeffs[(i, j)] = tuple(sol)
    if not closed:
        # Saturate so the reported span dimension is that of the closure.
        while True:
            basis = linalg.row_space_basis(span_rows)
            mats = [
                [[v[r * size + c] for c in range(size)] for r in range(size)]
                for v in basis
            ]
            added = False
            cols = linalg.transpose(basis)
            for a in range(len(mats)):
                for bdx in range(a + 1, len(mats)):
                    br = linalg.commutator(mats[a], mats[bdx])
                    vec = [br[r][c] for r in range(size) for c in range(size)]
                    if linalg.solve(cols, vec) is None:
                        span_rows.append(vec)
                        added = True
            if not added:
                break
        return {
            "independent": independent,
            "closed": False,
            "span_dim": len(linalg.row_space_basis(span_rows)),
            "coeffs": None,
            "killing": None,
            "killing_rank": None,
            "signature": None,
            "jacobi_ok": None,
            "invariance_ok": None,
        }

    span_dim = len(flat_pivots)

    zero_row = tuple(Fraction(0) for _ in range(count))
    c_table = [[zero_row] * count for _ in range(count)]
    for i in range(count):
        for j in range(count):
            if i < j:
                c_table[i][j] = coeffs[(i, j)]
            elif i > j:
                c_table[i][j] = tuple(-x for x in coeffs[(j, i)])

    ad = []
    for i in range(count):
        mat = linalg.zeros(count, count)
        for j in range(count):
            cc = c_table[i][j]
            for k in range(count):
                mat[k][j] = cc[k]
        ad.append(mat)
    killing = [
        [linalg.trace(linalg.mat_mul(ad[i], ad[j])) for j in range(count)]
        for i in range(count)
    ]
    killing_rank = linalg.rank(killing)
    sig = linalg.signature(killing)

    jacobi_ok = True
    for i in range(count):
        for j in range(i + 1, count):
            for l in range(j + 1, count):
                for p in range(count):
                    total = Fraction(0)
                    for mm in range(count):
                        total += c_table[j][l][mm] * c_table[i][mm][p]
                        total += c_table[l][i][mm] * c_table[j][mm][p]
                        total += c_table[i][j][mm] * c_table[l][mm][p]
                    if total:
                        jacobi_ok = False
                        break
                if not jacobi_ok:
                    break
            if not jacobi_ok:
                break
        if not jacobi_ok:
            break

    invariance_ok = True
    for i in range(count):
        for j in range(count):
            for l in range(count):
                total = Fraction(0)
                for mm in range(count):
                    total += c_table[i][j][mm] * killing[mm][l]
                    total += c_table[i][l][mm] * killing[j][mm]
                if total:
                    invariance_ok = False
                    break
            if not invariance_ok:
                break
        if not invariance_ok:
            break

    return {
        "independent": independent,
        "closed": True,
        "span_dim": span_dim,
        "coeffs": coeffs,
        "killing": killing,
        "killing_rank": killing_rank,
        "signature": sig,
        "jacobi_ok": jacobi_ok,
        "invariance_ok": invariance_ok,
    }


def lie_report(
    space: ModelSpace,
    t: ThreeStructure,
    table: HarmonicTable | None = None,
) -> LieAlgebraReport:
    """Full exact analysis of the span of {H, L_alpha, Lambda_alpha, K_alpha}."""
    if table is None:
        table = decompose(space, t)
    graded = big_operators(space, t, table)
    m = table.m
    dims = [len(table.span(k, BASIC)) for k in range(m + 1)]
    flats = {
        name: _flatten(op.blocks, dims, op.degree_shift) for name, op in graded.items()
    }
    ops = [flats[name] for name in GENERATORS]
    result = analyze_operator_span(ops)

    h_sign: int | None = None
    uniform = False
    if result["closed"]:
        zeros_tail = tuple(Fraction(0) for _ in GENERATORS[1:])
        signs = []
        for alpha in (1, 2, 3):
            i = GENERATORS.index(f"L{alpha}")
            j = GENERATORS.index(f"Lam{alpha}")
            cc = result["coeffs"][(i, j)]
            if cc == (Fraction(-1),) + zeros_tail:
                signs.append(-1)
            elif cc == (Fraction(1),) + zeros_tail:
                signs.append(1)
            else:
                signs.append(0)
        if signs[0] != 0 and all(s == signs[0] for s in signs):
            h_sign = signs[0]
            uniform = True
    return LieAlgebraReport(
        generator_names=GENERATORS,
        dims=tuple(dims),
        generators=flats,
        graded=graded,
        independent=result["independent"],
        closed=result["closed"],
        span_dim=result["span_dim"],
        bracket_coeffs=result["coeffs"],
        killing=result["killing"],
        killing_rank=result["killing_rank"],
        signature=result["signature"],
        h_commutator_sign=h_sign,
        h_commutator_uniform=uniform,
        jacobi_ok=result["jacobi_ok"],
        killing_invariance_ok=result["invariance_ok"],
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
