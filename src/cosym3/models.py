"""Flat model spaces: R^{4n+3}, T^{4n+3}, and mapping-torus quotients.

The construction is uniform: take a flat hyper-Kahler fiber (a block sum of
quaternionic planes), pick a finite-order hyper-Kahler isometry f, and cross
with three circle directions twisted by f.  With f = identity this yields the
standard structures on Euclidean space and on the flat torus.

Conventions: the complex structures J1, J2, J3 on a quaternionic plane are
LEFT multiplications by i, j, k in the basis (1, i, j, k), so J1 J2 = J3;
monodromies built from RIGHT quaternion multiplications commute with every
J_alpha.  Fiber coordinates come first, the three circle coordinates last.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .exterior import EndField, KForm, Metric, VectorField, pullback
from .structures import (
    AlmostContactMetricStructure,
    CheckItem,
    CheckReport,
    EPSILON,
    StructureError,
    ThreeStructure,
    fundamental_form,
)

DEFAULT_ORDER_BOUND = 60


class ModelError(ValueError):
    """A model space could not be constructed from the given data."""


class OrderBoundError(ModelError):
    """Monodromy is not of finite order within the configured bound."""


@dataclass(frozen=True)
class Topology:
    """Chart topology tag: euclidean, torus, or mapping_torus.

    ``monodromy`` is the integer fiber isometry f and ``order`` its finite
    order, as verified by :meth:`of`.  Euclidean space and the torus carry
    f = I of order 1, so the holonomy of every compact model is the group
    generated by ``monodromy``.
    """

    kind: str
    monodromy: EndField
    order: int

    def __post_init__(self):
        if self.kind not in ("euclidean", "torus", "mapping_torus"):
            raise ModelError(f"unknown topology kind {self.kind!r}")

    @classmethod
    def of(cls, kind: str, monodromy: EndField, order_bound: int = DEFAULT_ORDER_BOUND) -> Topology:
        """The topology with monodromy f, whose order is searched up to ``order_bound``.

        This is the one place the order of f is decided; past the bound it
        raises :class:`OrderBoundError`.  A^r = I gives det(A)^r = 1, so an
        integer A that passes is unimodular.
        """
        order = linalg.matrix_order(monodromy.to_fractions(), order_bound)
        if order is None:
            raise OrderBoundError(f"monodromy not finite order within bound {order_bound}")
        return cls(kind, monodromy, order)

    @property
    def fiber_dim(self) -> int:
        return self.monodromy.m

    @property
    def compact(self) -> bool:
        return self.kind in ("torus", "mapping_torus")


@dataclass(frozen=True)
class ModelSpace:
    chart_dim: int
    coordinates: tuple[str, ...]
    topology: Topology

    def __post_init__(self):
        if len(self.coordinates) != self.chart_dim:
            raise ModelError("coordinate names must match the chart dimension")


# -- quaternion matrices -----------------------------------------------------

_UNITS = ("1", "i", "j", "k")

#: Quaternion multiplication table: (a, b) -> (sign, unit) with a*b = sign*unit.
_QMUL = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _parse_unit(u: str) -> tuple[int, str]:
    sign = 1
    u = u.strip()
    if u.startswith("-"):
        sign = -1
        u = u[1:]
    elif u.startswith("+"):
        u = u[1:]
    if u not in _UNITS:
        raise ValueError(f"not a signed quaternion unit: {u!r}")
    return sign, u


def _quaternion_mult(u: str, right: bool) -> EndField:
    """Matrix of x -> x*u (``right``) or x -> u*x on H = R^4 in the basis (1, i, j, k)."""
    sign, unit = _parse_unit(u)
    mat = [[0] * 4 for _ in range(4)]
    for col, b in enumerate(_UNITS):
        s, w = _QMUL[(b, unit) if right else (unit, b)]
        mat[_UNITS.index(w)][col] = s * sign
    return EndField.from_fractions(mat)


def quaternion_right_mult(u: str) -> EndField:
    """Matrix of x -> x*u on H = R^4 in the basis (1, i, j, k).

    Right multiplications commute with the left-multiplication complex
    structures, are orthogonal, and preserve the integer lattice.
    """
    return _quaternion_mult(u, right=True)


def quaternion_left_mult(u: str) -> EndField:
    """Matrix of x -> u*x on H = R^4 in the basis (1, i, j, k)."""
    return _quaternion_mult(u, right=False)


# -- hyper-Kahler data -------------------------------------------------------


@dataclass(frozen=True)
class HyperKahlerData:
    """Three constant complex structures and a flat metric on the fiber.

    Invariants verified at construction: J_alpha^2 = -I, J1 J2 = J3, and
    J_alpha^T G J_alpha = G.
    """

    j_ops: tuple[EndField, EndField, EndField]
    metric: Metric

    def __post_init__(self):
        d = self.metric.m
        if not self.metric.is_constant() or (d and not self.metric.is_positive_definite()):
            raise ModelError("fiber metric must be constant positive definite")
        ident = EndField.identity(d)
        for idx, j in enumerate(self.j_ops, start=1):
            if j.m != d:
                raise ModelError("complex structure dimension mismatch")
            if j * j != -ident:
                raise ModelError(f"J{idx}^2 != -I")
            if j.transpose() * self.metric * j != self.metric:
                raise ModelError(f"J{idx} is not a g-isometry")
        if self.j_ops[0] * self.j_ops[1] != self.j_ops[2]:
            raise ModelError("J1 J2 != J3")

    @property
    def fiber_dim(self) -> int:
        return self.metric.m


def hyper_kahler_blocks(n: int) -> HyperKahlerData:
    """n-fold block sum of the quaternionic plane (n = 0 gives an empty fiber)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    base = [quaternion_left_mult(u) for u in ("i", "j", "k")]
    j_ops = tuple(EndField.block_diag(*([base[a]] * n)) for a in range(3))
    return HyperKahlerData(j_ops, Metric.identity(4 * n))


# -- isometry verification ---------------------------------------------------


def check_hyper_kahler_isometry(f: EndField, data: HyperKahlerData) -> CheckReport:
    """Verify that f is a lattice-preserving hyper-Kahler isometry.

    Checks: integer entries with det = +-1, f^T G f = G, and commutation
    with all three complex structures; :meth:`Topology.of` finds the order.
    """
    d = data.fiber_dim
    if f.m != d:
        raise ModelError("isometry candidate has the wrong dimension")
    if not f.is_constant():
        raise ModelError("monodromy must be a constant endomorphism field")
    mat = f.to_fractions()
    integral = all(x.denominator == 1 for row in mat for x in row)
    d_det = linalg.det(mat)
    isometry = f.transpose() * data.metric * f == data.metric
    items = [
        CheckItem.check("monodromy_integer_entries", integral, "non-integer entry"),
        CheckItem.check("monodromy_unimodular", d_det in (1, -1), f"det = {d_det}"),
        CheckItem.check("monodromy_isometry", isometry, "f^T G f != G"),
    ]
    for idx, j in enumerate(data.j_ops, start=1):
        items.append(CheckItem.check(f"monodromy_commutes_J{idx}", f * j == j * f, f"f J{idx} != J{idx} f"))
    return CheckReport(tuple(items))


# -- the product construction ------------------------------------------------


def _reeb_block(alpha: int) -> EndField:
    """3x3 action on the Reeb directions: xi_beta -> eps_{alpha beta gamma} xi_gamma."""
    return EndField.from_fractions(
        [[EPSILON.get((alpha, beta, gamma), 0) for beta in (1, 2, 3)] for gamma in (1, 2, 3)]
    )


def mapping_torus(
    data: HyperKahlerData,
    f: EndField,
    *,
    topology_kind: str = "mapping_torus",
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> tuple[ModelSpace, ThreeStructure]:
    """Chart tensors of the quotient of (fiber x R^3) by the f-twisted Z^3 action.

    Coordinates are (x_1 .. x_{4n}, t_1, t_2, t_3); the Reeb fields are the
    t-coordinate fields, eta_alpha = dt_alpha, phi_alpha acts as J_alpha on
    the fiber and by the sign table on the Reeb block, and g is the product
    metric.  The structure is invariant under the deck map f (+) I_3, so it
    descends to the quotient.
    """
    report = check_hyper_kahler_isometry(f, data)
    if not report.passed:
        failed = ", ".join(item.name for item in report.failures())
        raise ModelError(f"monodromy is not a hyper-Kahler isometry: {failed}")
    topology = Topology.of(topology_kind, f, order_bound)
    d = data.fiber_dim
    m = d + 3
    coords = tuple(f"x{i + 1}" for i in range(d)) + ("t1", "t2", "t3")
    metric = Metric.block_diag(data.metric, Metric.identity(3))
    structures = []
    for alpha in (1, 2, 3):
        phi = EndField.block_diag(data.j_ops[alpha - 1], _reeb_block(alpha))
        xi = VectorField.coordinate(m, d + alpha - 1)
        eta = KForm.coordinate(m, d + alpha - 1)
        structures.append(AlmostContactMetricStructure(phi, xi, eta, metric))
    space = ModelSpace(m, coords, topology)
    return space, ThreeStructure(structures)


def euclidean_space(n: int) -> tuple[ModelSpace, ThreeStructure]:
    """The standard structure on R^{4n+3} (trivial monodromy, non-compact)."""
    data = hyper_kahler_blocks(n)
    return mapping_torus(data, EndField.identity(4 * n), topology_kind="euclidean")


def flat_torus(n: int) -> tuple[ModelSpace, ThreeStructure]:
    """The standard structure on the flat torus T^{4n+3}."""
    data = hyper_kahler_blocks(n)
    return mapping_torus(data, EndField.identity(4 * n), topology_kind="torus")


def m7f(order_bound: int = DEFAULT_ORDER_BOUND) -> tuple[ModelSpace, ThreeStructure]:
    """The compact quotient of T^4 x R^3 twisted by right multiplication by i.

    A compact 7-manifold carrying the product 3-structure that is not a
    global product of a hyper-Kahler 4-manifold with a torus.
    """
    return mapping_torus(hyper_kahler_blocks(1), quaternion_right_mult("i"), order_bound=order_bound)


def monodromy_invariance(space: ModelSpace, t: ThreeStructure) -> CheckReport:
    """Verify the structure is fixed by the deck transformation f (+) I_3.

    Pullback fixes every eta_alpha and fundamental 2-form and the metric;
    conjugation fixes every phi_alpha; the Reeb fields are fixed vectors.
    This is what lets the product structure descend to the quotient.
    """
    topo = space.topology
    if topo.kind != "mapping_torus":
        raise ModelError("monodromy invariance applies to mapping_torus models only")
    deck = EndField.block_diag(topo.monodromy, EndField.identity(3))
    items = [CheckItem.check("monodromy_fixes_metric", deck.transpose() * t.g * deck == t.g, "F^T g F != g")]
    for alpha in (1, 2, 3):
        s = t.structure(alpha)
        tag = f"[{alpha}]"
        items.append(CheckItem.check(f"monodromy_fixes_eta{tag}", pullback(deck, s.eta) == s.eta, "F* eta != eta"))
        try:
            phi_form = fundamental_form(s)
        except StructureError as exc:
            items.append(CheckItem(f"monodromy_fixes_Phi{tag}", False, str(exc)))
        else:
            fixed = pullback(deck, phi_form) == phi_form
            items.append(CheckItem.check(f"monodromy_fixes_Phi{tag}", fixed, "F* Phi != Phi"))
        items.append(CheckItem.check(f"monodromy_fixes_phi{tag}", deck * s.phi == s.phi * deck, "F phi != phi F"))
        items.append(CheckItem.check(f"monodromy_fixes_xi{tag}", deck.apply(s.xi) == s.xi, "F xi != xi"))
    return CheckReport(tuple(items))


# -- builtin registry --------------------------------------------------------

_MAX_BUILTIN_DIM = 11


def builtin_names() -> list[str]:
    names = []
    for kind in ("standard", "torus"):
        for n in range((_MAX_BUILTIN_DIM - 3) // 4 + 1):
            names.append(f"{kind}{4 * n + 3}")
    names.append("m7f")
    return names


def builtin(name: str, order_bound: int = DEFAULT_ORDER_BOUND) -> tuple[ModelSpace, ThreeStructure]:
    """Look up a named model: standard{4n+3}, torus{4n+3}, or m7f."""
    if name == "m7f":
        return m7f(order_bound)
    for n in range((_MAX_BUILTIN_DIM - 3) // 4 + 1):
        if name == f"standard{4 * n + 3}":
            return euclidean_space(n)
        if name == f"torus{4 * n + 3}":
            return flat_torus(n)
    raise ModelError(
        f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
    )
