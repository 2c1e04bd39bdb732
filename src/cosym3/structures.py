"""Almost contact metric 3-structures and their identity checkers.

Each checker returns a :class:`CheckReport` whose line items appear in a
fixed order, so reports are reproducible and a failing tensor entry can be
pinpointed.  Failures are verdicts, not exceptions; only structurally
impossible inputs (wrong chart dimensions) raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from . import linalg
from .exterior import (
    EndField, KForm, Metric, VectorField, _end_field, _vector_field, exterior_derivative,
    monomial_indices, monomial_key,
)
from .poly import Poly, as_fraction, dot

EVEN_PERMS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

#: Sign table eps_{abc} for permutations of {1, 2, 3}; zero on repeats.
EPSILON = {perm: 1 for perm in EVEN_PERMS}
EPSILON.update({(a, c, b): -s for (a, b, c), s in list(EPSILON.items())})


class StructureError(ValueError):
    """Input does not form the claimed kind of structure."""


class DimensionError(StructureError):
    """Chart dimension is incompatible with a 3-structure."""


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: str | None = None

    @classmethod
    def check(cls, name: str, ok: bool, fail: str, passed: str | None = None) -> "CheckItem":
        """Pass with the note ``passed``, if any, or fail with ``fail``."""
        return cls(name, ok, passed if ok else fail)

    @classmethod
    def from_witness(cls, name: str, witness: str | None) -> "CheckItem":
        """Pass when a checker found no witness, else fail with it."""
        return cls(name, witness is None, witness)

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class CheckReport:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def item(self, name: str) -> CheckItem:
        for entry in self.items:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "items": [item.to_dict() for item in self.items],
        }


def merge_reports(*reports: CheckReport) -> CheckReport:
    items: list[CheckItem] = []
    for rep in reports:
        items.extend(rep.items)
    return CheckReport(tuple(items))


class AlmostContactMetricStructure:
    """Candidate structure (phi, xi, eta, g) on one chart.

    Nothing is assumed at construction beyond matching chart dimensions; the
    defining identity phi^2 = -I + eta (x) xi is checked, not imposed.
    """

    __slots__ = ("m", "phi", "xi", "eta", "g")

    def __init__(self, phi: EndField, xi: VectorField, eta: KForm, g: Metric):
        m = phi.m
        if xi.m != m or eta.m != m or g.m != m:
            raise StructureError("structure tensors live on different charts")
        if eta.degree != 1:
            raise StructureError("eta must be a 1-form")
        self.m = m
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.g = g

    def eta_components(self) -> list[Poly]:
        return [self.eta.coefficient((j,)) for j in range(self.m)]


class ThreeStructure:
    """Three almost contact metric structures sharing one metric.

    The chart dimension of an almost contact 3-structure is necessarily of
    the form 4n + 3; a mismatch is flagged here and rejected by
    :meth:`require_dimension`.  ``constant`` records whether every
    tensor has constant coefficients.
    """

    __slots__ = ("m", "structures", "g", "dimension_ok", "constant")

    def __init__(self, structures: Sequence[AlmostContactMetricStructure]):
        if len(structures) != 3:
            raise StructureError("exactly three structures are required")
        m = structures[0].m
        g = structures[0].g
        for s in structures:
            if s.m != m:
                raise StructureError("structures on charts of different dimension")
            if s.g != g:
                raise StructureError("structures must share a single metric")
        self.m = m
        self.structures = tuple(structures)
        self.g = g
        self.dimension_ok = m % 4 == 3
        self.constant = all(x.is_constant() for s in structures for x in (s.phi, s.xi, s.eta, s.g))

    def structure(self, alpha: int) -> AlmostContactMetricStructure:
        if alpha not in (1, 2, 3):
            raise ValueError("alpha must be 1, 2, or 3")
        return self.structures[alpha - 1]

    def require_dimension(self) -> None:
        """Raise :class:`DimensionError` unless the chart dimension is 4n + 3."""
        if not self.dimension_ok:
            raise DimensionError(
                f"chart dimension {self.m} is not of the form 4n+3; no 3-structure exists"
            )


# -- tensor helpers ----------------------------------------------------------


def outer_xi_eta(xi: VectorField, eta_comps: Sequence[Poly]) -> EndField:
    """The endomorphism eta (x) xi: X -> eta(X) xi."""
    eta = [(j, e) for j, e in enumerate(eta_comps) if e.terms]
    rows = [{j: x * e for j, e in eta} if x.terms else {} for x in xi.components]
    return _end_field(EndField, xi.m, rows)


def _matrix_item(name: str, diff: EndField) -> CheckItem:
    """Fails with the first nonzero entry of ``diff`` in row-major order."""
    entries = (
        f"residual entry ({i + 1},{j + 1}): {p.render()}" for i, row in enumerate(diff.rows) for j, p in row.items()
    )
    return CheckItem.from_witness(name, next(entries, None))


def _vector_item(name: str, diff: VectorField, label: str) -> CheckItem:
    """Fails with the first nonzero component of ``diff``."""
    nonzero = (
        f"{label} component {i + 1}: {p.render()}" for i, p in enumerate(diff.components) if not p.is_zero()
    )
    return CheckItem.from_witness(name, next(nonzero, None))


def _form_item(name: str, diff: KForm) -> CheckItem:
    if diff.is_zero():
        return CheckItem(name, True)
    key = min(diff.terms, key=monomial_indices)
    return CheckItem(name, False, f"residual term {monomial_indices(key)}: {diff.terms[key].render()}")


# -- fundamental 2-form ------------------------------------------------------


def fundamental_form(s: AlmostContactMetricStructure) -> KForm:
    """The 2-form Phi(X, Y) = g(X, phi Y), assembled entrywise.

    Antisymmetry of g.phi is a consequence of metric compatibility, so a
    failure means the input is not almost contact metric and raises.
    """
    b = s.g * s.phi
    pair = b.first_asymmetry(-1)
    if pair is not None:
        i, j = pair
        raise StructureError(f"fundamental form not antisymmetric at entry ({i + 1},{j + 1})")
    terms = {(i, j): p for i, row in enumerate(b.rows) for j, p in row.items() if i < j}
    return KForm(s.m, 2, terms)


# -- pointwise checks --------------------------------------------------------


def check_almost_contact(s: AlmostContactMetricStructure, label: str = "") -> CheckReport:
    """phi^2 = -I + eta (x) xi, with the standard consequences as line items."""
    m = s.m
    eta = s.eta_components()
    prefix = f"almost_contact{label}"
    phi2 = s.phi * s.phi
    expected = outer_xi_eta(s.xi, eta) - EndField.identity(m)
    eta_phi = s.phi.transpose().apply(VectorField(eta))
    pairing = dot(m, zip(eta, s.xi.components)) - Poly.const(m, 1)
    return CheckReport((
        _matrix_item(f"{prefix}.phi_squared", phi2 - expected),
        _vector_item(f"{prefix}.phi_xi_zero", s.phi.apply(s.xi), "phi(xi)"),
        _vector_item(f"{prefix}.eta_phi_zero", eta_phi, "eta.phi"),
        CheckItem.check(f"{prefix}.eta_xi_one", pairing.is_zero(), f"eta(xi) - 1 = {pairing.render()}"),
    ))


def check_compatible(s: AlmostContactMetricStructure, label: str = "") -> CheckReport:
    """Metric compatibility g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)."""
    eta = s.eta_components()
    lhs = s.phi.transpose() * s.g * s.phi
    diff = lhs - (s.g - outer_xi_eta(VectorField(eta), eta))
    return CheckReport((_matrix_item(f"compatible{label}", diff),))


@dataclass(frozen=True)
class NijenhuisResult:
    """Nijenhuis tensor of phi and the normality tensor on coordinate pairs.

    ``n_phi`` and ``n_one`` map index pairs (i, j), i < j, to the nonzero
    value of the tensor on the corresponding coordinate fields.  The two
    coincide whenever d(eta) = 0.
    """

    m: int
    n_phi: dict[tuple[int, int], VectorField] = field(default_factory=dict)
    n_one: dict[tuple[int, int], VectorField] = field(default_factory=dict)

    @property
    def phi_tensor_vanishes(self) -> bool:
        return not self.n_phi

    @property
    def normality_tensor_vanishes(self) -> bool:
        return not self.n_one

    def witness(self, which: str = "n_one") -> str | None:
        data = self.n_one if which == "n_one" else self.n_phi
        if not data:
            return None
        (i, j) = sorted(data)[0]
        return f"pair (d_{i + 1}, d_{j + 1}): {data[(i, j)].render()}"


def _gradient(p: Poly) -> dict[int, Poly]:
    """The nonzero partial derivatives of ``p``, keyed by variable index."""
    occurring = {l for expo in p.terms for l, e in enumerate(expo) if e}
    return {l: p.diff(l) for l in occurring}


def nijenhuis_tensor(phi: EndField, eta: KForm, xi: VectorField) -> NijenhuisResult:
    """N_phi(X, Y) = phi^2 [X,Y] + [phi X, phi Y] - phi[phi X, Y] - phi[X, phi Y]
    on all coordinate-field pairs, plus the normality tensor
    N^(1) = N_phi + 2 d(eta) (x) xi.

    On coordinate fields [d_i, d_j] = 0, so the phi^2 term drops and
    N(d_i, d_j)^k = sum_l (phi^l_i d_l phi^k_j - phi^l_j d_l phi^k_i
    - phi^k_l (d_i phi^l_j - d_j phi^l_i)), assembled from the derivatives
    of the phi entries, each taken once.  Products with a zero factor are
    skipped, and a component whose chains hold no derivative is zero.
    """
    m = phi.m
    if eta.m != m or xi.m != m or eta.degree != 1:
        raise StructureError("tensor dimensions do not match")
    d_eta = exterior_derivative(eta)
    rows = phi.entries
    grad = [[_gradient(p) if p.terms else {} for p in row] for row in rows]
    neg = [[{l: -d for l, d in g.items()} for g in row] for row in grad]
    zero = Poly.zero(m)
    n_phi: dict[tuple[int, int], VectorField] = {}
    n_one: dict[tuple[int, int], VectorField] = {}
    for i in range(m):
        for j in range(i + 1, m):
            # -(d_i phi^l_j - d_j phi^l_i) as signed derivatives, by row l.
            curl = [(l, neg[l][j][i]) for l in range(m) if i in grad[l][j]]
            curl += [(l, grad[l][i][j]) for l in range(m) if j in grad[l][i]]
            comps = [
                dot(
                    m,
                    chain(
                        ((rows[l][i], d) for l, d in grad[k][j].items()),
                        ((rows[l][j], d) for l, d in neg[k][i].items()),
                        ((rows[k][l], d) for l, d in curl),
                    ),
                )
                if curl or grad[k][j] or grad[k][i]
                else zero
                for k in range(m)
            ]
            value = _vector_field(m, comps)
            nonzero = any(comps)
            if nonzero:
                n_phi[(i, j)] = value
            correction = d_eta.terms.get(monomial_key((i, j)))
            if correction is not None:
                value = value + xi.scaled(correction * 2)
                nonzero = any(value.components)
            if nonzero:
                n_one[(i, j)] = value
    return NijenhuisResult(m, n_phi, n_one)


def check_quaternionic(t: ThreeStructure) -> CheckReport:
    """All six identities relating (phi, xi, eta) across each even permutation."""
    items: list[CheckItem] = []
    for (a, b, c) in EVEN_PERMS:
        sa, sb, sc = t.structure(a), t.structure(b), t.structure(c)
        eta_a, eta_b = sa.eta_components(), sb.eta_components()
        eta_c = VectorField(sc.eta_components())
        tag = f"quaternionic[{a}{b}{c}]"
        diff = sc.phi - (sa.phi * sb.phi - outer_xi_eta(sa.xi, eta_b))
        items.append(_matrix_item(f"{tag}.phi_c_eq_phi_a_phi_b", diff))
        diff = sc.phi - (-(sb.phi * sa.phi) + outer_xi_eta(sb.xi, eta_a))
        items.append(_matrix_item(f"{tag}.phi_c_eq_minus_phi_b_phi_a", diff))
        for name, vec, label in (
            ("xi_c_eq_phi_a_xi_b", sc.xi - sa.phi.apply(sb.xi), "xi residual"),
            ("xi_c_eq_minus_phi_b_xi_a", sc.xi + sb.phi.apply(sa.xi), "xi residual"),
            ("eta_c_eq_eta_a_phi_b", eta_c - sb.phi.transpose().apply(VectorField(eta_a)), "eta residual"),
            ("eta_c_eq_minus_eta_b_phi_a", eta_c + sa.phi.transpose().apply(VectorField(eta_b)), "eta residual"),
        ):
            items.append(_vector_item(f"{tag}.{name}", vec, label))
    return CheckReport(tuple(items))


def _positive_definite_item(g: Metric) -> CheckItem:
    """g is positive definite exactly when its inertia from
    ``linalg.signature`` is (m, 0, 0).  The witnesses keep the wording of
    Sylvester's leading-minor criterion, which is equivalent.  A non-constant
    metric is checked at the origin."""
    name = "metric_positive_definite"
    if g.is_constant():
        return CheckItem.check(name, g.is_positive_definite(), "a leading principal minor is <= 0")
    origin = (0,) * g.m
    return CheckItem.check(
        name,
        g.is_positive_definite_at(origin),
        f"leading principal minor <= 0 at sample point {origin}",
        "non-constant metric checked at 1 sample point(s)",
    )


def check_three_cosymplectic(t: ThreeStructure) -> CheckReport:
    """Full 3-cosymplectic verdict.

    Aggregates, per structure: the almost contact identities, metric
    compatibility, closedness of eta and of the fundamental 2-form, and the
    vanishing of the normality tensor; then the quaternionic relations, the
    metric duality g(xi_a, .) = eta_a, and positive definiteness of g.
    """
    t.require_dimension()
    items: list[CheckItem] = []
    for alpha in (1, 2, 3):
        s = t.structure(alpha)
        label = f"[{alpha}]"
        items.extend(check_almost_contact(s, label))
        items.extend(check_compatible(s, label))
        items.append(_form_item(f"closed_eta{label}", exterior_derivative(s.eta)))
        try:
            phi_form = fundamental_form(s)
        except StructureError as exc:
            items.append(CheckItem(f"fundamental_form_antisymmetric{label}", False, str(exc)))
            items.append(CheckItem(f"closed_Phi{label}", False, "fundamental form is not a 2-form"))
        else:
            items.append(CheckItem(f"fundamental_form_antisymmetric{label}", True))
            items.append(_form_item(f"closed_Phi{label}", exterior_derivative(phi_form)))
        nij = nijenhuis_tensor(s.phi, s.eta, s.xi)
        items.append(CheckItem.from_witness(f"nijenhuis_phi_zero{label}", nij.witness("n_phi")))
        items.append(CheckItem.from_witness(f"normality_tensor_zero{label}", nij.witness("n_one")))
        vec = t.g.apply(s.xi) - VectorField(s.eta_components())
        items.append(_vector_item(f"reeb_metric_dual{label}", vec, "g(xi) - eta"))
    items.extend(check_quaternionic(t))
    items.append(_positive_definite_item(t.g))
    return CheckReport(tuple(items))


# -- D_a-homothetic deformation ----------------------------------------------


def d_homothetic_deform(t: ThreeStructure, a) -> ThreeStructure:
    """Rescale the triple: phi -> phi, xi -> xi/a, eta -> a.eta, and
    g -> a.g + a(a-1) sum_alpha eta_alpha (x) eta_alpha.

    The metric correction is summed over the three structures, which is the
    unique correction of this shape compatible with all of them at once; the
    output satisfies the full 3-cosymplectic check whenever the input does.
    """
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("deformation parameter must be positive")
    inv_a = linalg.quotient(1, a)
    correction = EndField.zero(t.m)
    for s in t.structures:
        eta = s.eta_components()
        correction = correction + outer_xi_eta(VectorField(eta), eta)
    # Symmetric by construction: g is, and so is each eta (x) eta.
    new_g = _end_field(Metric, t.m, (t.g.scaled(a) + correction.scaled(a * (a - 1))).rows)
    new_structures = []
    for alpha in (1, 2, 3):
        s = t.structure(alpha)
        new_structures.append(
            AlmostContactMetricStructure(
                s.phi,
                s.xi.scaled(inv_a),
                s.eta.scaled(a),
                new_g,
            )
        )
    return ThreeStructure(new_structures)
