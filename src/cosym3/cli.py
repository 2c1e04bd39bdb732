"""Command-line front end: load or select structures, run checks, emit reports.

All interchange is JSON with rationals as "p/q" strings; no floating point
ever enters a file or a report.  Reports are assembled in a fixed key order
and reruns are byte-identical.  Exit status contract: 0 = verdict passed,
1 = verdict failed (including theorem-level inconsistencies), 2 = usage,
parse, or model errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cohomology import (
    CohomologyError,
    EPS_ORDER,
    NonCompactError,
    betti_checks,
    decompose,
    eps_label,
    verify_ladder,
)
from .exterior import EndField, KForm, Metric, MetricError, VectorField
from .liealg import (
    DegenerateAlgebraError,
    GENERATORS,
    lie_report,
    render_bracket_entry,
)
from .linalg import Entry, parse_rational
from .models import (
    DEFAULT_ORDER_BOUND,
    ModelError,
    ModelSpace,
    Topology,
    builtin,
    builtin_names,
    monodromy_invariance,
)
from .poly import Poly
from .structures import (
    AlmostContactMetricStructure,
    CheckReport,
    StructureError,
    ThreeStructure,
    check_three_cosymplectic,
    d_homothetic_deform,
    merge_reports,
)

VERSION = "0.1.0"
REPORT_FORMAT = "1"

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2

CONVENTIONS = {
    "wedge": "determinant convention, (dx^dy)(X,Y) = X_x Y_y - X_y Y_x",
    "orientation": "volume form uses increasing coordinate order",
    "fundamental_form": "Phi(X,Y) = g(X, phi(Y))",
    "complex_structures": "left quaternion multiplication in basis (1,i,j,k); J1*J2 = J3",
    "monodromy": "right quaternion multiplication, commuting with every J_alpha",
    "xi_form": "Xi_alpha = Phi_alpha + eta_beta^eta_gamma (the horizontal part of Phi_alpha)",
    "hodge_star": "alpha ^ *(beta) = <alpha,beta> vol_g",
}


class StructureFileError(ValueError):
    """Malformed structure file."""


# -- JSON <-> tensors ---------------------------------------------------------


def poly_to_json(p: Poly) -> list[dict]:
    return [
        {"c": str(p.terms[e]), "e": list(e)}
        for e in sorted(p.terms)
    ]


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def poly_from_json(data, nvars: int) -> Poly:
    if not isinstance(data, list):
        raise StructureFileError("polynomial must be a list of terms")
    terms = {}
    for entry in data:
        if not isinstance(entry, dict) or "c" not in entry or "e" not in entry:
            raise StructureFileError("polynomial term must have 'c' and 'e'")
        expo = tuple(entry["e"]) if isinstance(entry["e"], list) else ()
        if len(expo) != nvars or any(not _is_int(x) or x < 0 for x in expo):
            raise StructureFileError(f"bad exponent vector {entry['e']!r}")
        if not isinstance(entry["c"], str):
            raise StructureFileError(f"coefficient {entry['c']!r} must be a string 'p/q'")
        try:
            coeff = parse_rational(entry["c"])
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureFileError(f"bad coefficient {entry['c']!r}") from exc
        if expo in terms:
            raise StructureFileError(f"duplicate exponent vector {entry['e']!r}")
        terms[expo] = coeff
    return Poly(nvars, terms)


def _poly_matrix_to_json(rows) -> list:
    return [[poly_to_json(p) for p in row] for row in rows]


def _poly_vector_from_json(data, nvars, what) -> list[Poly]:
    if not isinstance(data, list) or len(data) != nvars:
        raise StructureFileError(f"{what} must be a list of {nvars} polynomials")
    return [poly_from_json(p, nvars) for p in data]


def _poly_matrix_from_json(data, nvars, what) -> list[list[Poly]]:
    if not isinstance(data, list) or len(data) != nvars:
        raise StructureFileError(f"{what} must be a {nvars}x{nvars} matrix")
    return [_poly_vector_from_json(row, nvars, what) for row in data]


def structure_file_dict(space: ModelSpace, t: ThreeStructure) -> dict:
    """Canonical JSON form of a model; the writer output round-trips exactly."""
    topo = space.topology
    topo_json: dict = {"type": topo.kind}
    if topo.kind == "mapping_torus":
        topo_json["fiber_dim"] = topo.fiber_dim
        mono = topo.monodromy.to_fractions()
        topo_json["monodromy"] = [[int(x) for x in row] for row in mono]
    structures = []
    for alpha in (1, 2, 3):
        s = t.structure(alpha)
        structures.append(
            {
                "xi": [poly_to_json(c) for c in s.xi.components],
                "eta": [poly_to_json(c) for c in s.eta_components()],
                "phi": _poly_matrix_to_json(s.phi.entries),
            }
        )
    return {
        "dim": space.chart_dim,
        "coordinates": list(space.coordinates),
        "structures": structures,
        "metric": _poly_matrix_to_json(t.g.entries),
        "topology": topo_json,
    }


def parse_structure_file(
    data: dict, order_bound: int = DEFAULT_ORDER_BOUND
) -> tuple[ModelSpace, ThreeStructure]:
    if not isinstance(data, dict):
        raise StructureFileError("structure file must be a JSON object")
    try:
        dim = data["dim"]
        coords = data["coordinates"]
        raw_structures = data["structures"]
        raw_metric = data["metric"]
        raw_topo = data["topology"]
    except KeyError as exc:
        raise StructureFileError(f"missing field {exc.args[0]!r}") from exc
    if not _is_int(dim) or dim < 1:
        raise StructureFileError("dim must be a positive integer")
    if (
        not isinstance(coords, list)
        or len(coords) != dim
        or not all(isinstance(c, str) for c in coords)
        or len(set(coords)) != dim
    ):
        raise StructureFileError("coordinates must be dim distinct names")
    if not isinstance(raw_structures, list) or len(raw_structures) != 3:
        raise StructureFileError("exactly three structures are required")
    try:
        metric = Metric(_poly_matrix_from_json(raw_metric, dim, "metric"))
    except ValueError as exc:
        raise StructureFileError(str(exc)) from exc
    structures = []
    for idx, raw in enumerate(raw_structures, start=1):
        if not isinstance(raw, dict):
            raise StructureFileError(f"structure {idx} must be an object")
        try:
            xi = VectorField(_poly_vector_from_json(raw.get("xi"), dim, "xi"))
            eta_comps = _poly_vector_from_json(raw.get("eta"), dim, "eta")
            eta = KForm(dim, 1, {(i,): p for i, p in enumerate(eta_comps) if not p.is_zero()})
            phi = EndField(_poly_matrix_from_json(raw.get("phi"), dim, "phi"))
            structures.append(AlmostContactMetricStructure(phi, xi, eta, metric))
        except (ValueError, StructureError) as exc:
            raise StructureFileError(f"structure {idx}: {exc}") from exc
    if not isinstance(raw_topo, dict) or "type" not in raw_topo:
        raise StructureFileError("topology must be an object with a 'type'")
    kind = raw_topo["type"]
    if kind == "mapping_torus":
        fiber_dim = raw_topo.get("fiber_dim")
        mono = raw_topo.get("monodromy")
        if not _is_int(fiber_dim) or fiber_dim < 0 or fiber_dim != dim - 3:
            raise StructureFileError("mapping_torus needs fiber_dim = dim - 3")
        if (
            not isinstance(mono, list)
            or len(mono) != fiber_dim
            or any(
                not isinstance(row, list)
                or len(row) != fiber_dim
                or any(not _is_int(x) for x in row)
                for row in mono
            )
        ):
            raise StructureFileError("monodromy must be an integer fiber_dim matrix")
        monodromy = EndField.from_fractions(mono)
    elif kind in ("euclidean", "torus"):
        # Charts below dimension 3 have no fiber; require_dimension rejects them.
        monodromy = EndField.identity(max(dim - 3, 0))
    else:
        raise StructureFileError(f"unknown topology type {kind!r}")
    topo = Topology.of(kind, monodromy, order_bound)
    space = ModelSpace(dim, tuple(coords), topo)
    t = ThreeStructure(structures)
    if topo.compact and not t.constant:
        raise StructureFileError(
            "torus and mapping_torus models require constant coefficients "
            "(polynomials are not periodic)"
        )
    return space, t


# -- report plumbing ----------------------------------------------------------


def _versions() -> dict:
    return {"cosym3": VERSION, "report_format": REPORT_FORMAT}


def _report_items(report: CheckReport) -> list[dict]:
    return [item.to_dict() for item in report]


def _model_summary(space: ModelSpace) -> dict:
    out = {
        "dim": space.chart_dim,
        "coordinates": list(space.coordinates),
        "topology": space.topology.kind,
    }
    if space.topology.kind == "mapping_torus":
        out["monodromy_order"] = space.topology.order
    return out


def _full_check(space: ModelSpace, t: ThreeStructure) -> CheckReport:
    report = check_three_cosymplectic(t)
    if space.topology.kind == "mapping_torus":
        report = merge_reports(report, monodromy_invariance(space, t))
    return report


def build_check_report(space: ModelSpace, t: ThreeStructure, inputs: dict) -> dict:
    report = _full_check(space, t)
    return {
        "command": "check",
        "inputs": inputs,
        "model": _model_summary(space),
        "passed": report.passed,
        "verdict": "3-cosymplectic" if report.passed else "not 3-cosymplectic",
        "counts": {"items": len(report), "failures": len(report.failures())},
        "verdicts": _report_items(report),
        "conventions": CONVENTIONS,
        "versions": _versions(),
    }


def build_betti_report(space: ModelSpace, t: ThreeStructure, inputs: dict) -> dict:
    table = decompose(space, t)
    checks = betti_checks(table)
    ladder = verify_ladder(space, t, table)
    decomposition = []
    for k in range(table.m + 1):
        row: dict = {"k": k}
        row.update(table.dims_row(k))
        row["total"] = table.b[k]
        decomposition.append(row)
    notes = []
    if space.chart_dim == 7 and space.topology.kind == "mapping_torus":
        b2 = table.b[2]
        notes.append(
            f"b2 = {b2} < 21 = b2(T4 x T3) and < 25 = b2(K3 x T3): "
            "not a global hyper-Kahler x torus product"
        )
    passed = checks.passed and ladder.passed
    return {
        "command": "betti",
        "inputs": inputs,
        "model": _model_summary(space),
        "passed": passed,
        "tables": {
            "b": list(table.b),
            "bh": list(table.bh),
            "decomposition": decomposition,
        },
        "notes": notes,
        "verdicts": _report_items(checks) + _report_items(ladder),
        "conventions": CONVENTIONS,
        "versions": _versions(),
    }


def build_liealg_report(space: ModelSpace, t: ThreeStructure, inputs: dict) -> dict:
    rep = lie_report(space, t)
    bracket_table = []
    if rep.bracket_coeffs is not None:
        bracket_table = [["0"] * len(GENERATORS) for _ in GENERATORS]
        for (i, j), c in rep.bracket_coeffs.items():
            coeffs = [c.get(k, 0) for k in range(len(GENERATORS))]
            bracket_table[i][j] = render_bracket_entry(GENERATORS, coeffs)
            bracket_table[j][i] = render_bracket_entry(GENERATORS, [-x for x in coeffs])
    killing = (
        [[str(x) for x in row] for row in rep.killing] if rep.killing else None
    )
    signature = (
        {
            "positive": rep.signature[0],
            "negative": rep.signature[1],
            "zero": rep.signature[2],
        }
        if rep.signature
        else None
    )
    h_entry = None
    if rep.h_commutator_sign == -1:
        h_entry = "-H"
    elif rep.h_commutator_sign == 1:
        h_entry = "+H"
    return {
        "command": "liealg",
        "inputs": inputs,
        "model": _model_summary(space),
        "passed": rep.passed,
        "results": {
            "generators": list(GENERATORS),
            "basic_dims": list(rep.dims),
            "independent": rep.independent,
            "closed": rep.closed,
            "span_dim": rep.span_dim,
            "killing_rank": rep.killing_rank,
            "signature": signature,
            "L_Lambda_commutator": h_entry,
            "jacobi": rep.jacobi_ok,
            "killing_invariance": rep.killing_invariance_ok,
        },
        "tables": {"bracket": bracket_table, "killing": killing},
        "conventions": CONVENTIONS,
        "versions": _versions(),
    }


def build_deform_report(
    space: ModelSpace,
    t: ThreeStructure,
    a: Entry,
    inputs: dict,
    output_path: str | None,
) -> tuple[dict, dict | None]:
    deformed = d_homothetic_deform(t, a)
    recheck = _full_check(space, deformed)
    identical = a == 1 and all(
        deformed.structure(alpha).phi == t.structure(alpha).phi
        and deformed.structure(alpha).xi == t.structure(alpha).xi
        and deformed.structure(alpha).eta == t.structure(alpha).eta
        for alpha in (1, 2, 3)
    ) and deformed.g == t.g
    out_file = structure_file_dict(space, deformed)
    report = {
        "command": "deform",
        "inputs": inputs,
        "model": _model_summary(space),
        "a": str(a),
        "passed": recheck.passed,
        "verdict": "3-cosymplectic" if recheck.passed else "not 3-cosymplectic",
        "identity_deformation": identical,
        "output": output_path,
        "verdicts": _report_items(recheck),
        "conventions": CONVENTIONS,
        "versions": _versions(),
    }
    return report, out_file


# -- pretty rendering ---------------------------------------------------------


def render_pretty(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    model = report.get("model")
    if model:
        lines.append(
            f"model: dim {model['dim']}, topology {model['topology']}"
        )
    if "a" in report:
        lines.append(f"a: {report['a']}")
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']}")
    lines.append(f"passed: {report['passed']}")
    tables = report.get("tables") or {}
    if "b" in tables:
        lines.append("b:  " + " ".join(str(x) for x in tables["b"]))
        lines.append("bh: " + " ".join(str(x) for x in tables["bh"]))
        header = ["k"] + [eps_label(eps) for eps in EPS_ORDER] + ["total"]
        lines.append("  ".join(f"{h:>5}" for h in header))
        for row in tables["decomposition"]:
            cells = [row["k"]] + [row[eps_label(eps)] for eps in EPS_ORDER] + [row["total"]]
            lines.append("  ".join(f"{c:>5}" for c in cells))
    if "results" in report:
        for key, value in report["results"].items():
            lines.append(f"{key}: {value}")
    if tables.get("bracket"):
        lines.append("bracket table:")
        width = max(len(cell) for row in tables["bracket"] for cell in row)
        names = report["results"]["generators"]
        lines.append(" " * 6 + "  ".join(f"{x:>{width}}" for x in names))
        for name, row in zip(names, tables["bracket"]):
            lines.append(f"{name:>5} " + "  ".join(f"{cell:>{width}}" for cell in row))
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    verdicts = report.get("verdicts")
    if verdicts:
        fails = [v for v in verdicts if not v["passed"]]
        lines.append(f"items: {len(verdicts) - len(fails)} pass / {len(fails)} fail")
        for v in verdicts:
            status = "PASS" if v["passed"] else "FAIL"
            witness = f"  ({v['witness']})" if not v["passed"] and "witness" in v else ""
            lines.append(f"[{status}] {v['name']}{witness}")
    return "\n".join(lines) + "\n"


# -- entry point --------------------------------------------------------------


def _positive_fraction(text: str) -> Entry:
    try:
        value = parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("deformation parameter must be positive")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosym3",
        description="Exact checks and cohomology for almost contact metric 3-structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("check", "verify the full set of 3-cosymplectic identities"),
        ("betti", "harmonic decomposition, Betti tables, and their arithmetic"),
        ("deform", "apply a D_a-homothetic deformation and re-check"),
        ("liealg", "operator algebra on basic harmonic forms"),
    ):
        cmd = sub.add_parser(name, help=doc)
        group = cmd.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help=f"one of: {', '.join(builtin_names())}")
        group.add_argument("--input", help="path to a structure JSON file")
        cmd.add_argument("--pretty", action="store_true", help="human-readable output")
        cmd.add_argument("--output", help="write output to this path")
        if name == "deform":
            cmd.add_argument(
                "--a",
                type=_positive_fraction,
                required=True,
                help="deformation parameter, a rational P/Q > 0",
            )
    return parser


def _load_model(args, order_bound: int):
    if args.builtin:
        space, t = builtin(args.builtin, order_bound)
        inputs = {"builtin": args.builtin}
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise StructureFileError(f"cannot read {args.input}: {exc}") from exc
        except ValueError as exc:  # also undecodable text and oversized integers
            raise StructureFileError(f"invalid JSON in {args.input}: {exc}") from exc
        except RecursionError as exc:
            raise StructureFileError(f"invalid JSON in {args.input}: nesting too deep") from exc
        space, t = parse_structure_file(data, order_bound)
        inputs = {"input": args.input}
    return space, t, inputs


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    bound_text = os.environ.get("COSYM3_ORDER_BOUND", "")
    try:
        order_bound = int(bound_text) if bound_text else DEFAULT_ORDER_BOUND
        if order_bound < 1:
            raise ValueError
    except ValueError:
        print(
            f"cosym3: invalid COSYM3_ORDER_BOUND {bound_text!r}", file=sys.stderr
        )
        return EXIT_USAGE
    try:
        space, t, inputs = _load_model(args, order_bound)
        out_file = None
        if args.command == "check":
            report = build_check_report(space, t, inputs)
        elif args.command == "betti":
            report = build_betti_report(space, t, inputs)
        elif args.command == "liealg":
            report = build_liealg_report(space, t, inputs)
        else:
            report, out_file = build_deform_report(
                space, t, args.a, inputs, args.output
            )
    except (
        StructureFileError,
        ModelError,
        StructureError,
        MetricError,
        NonCompactError,
        DegenerateAlgebraError,
    ) as exc:
        print(f"cosym3: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CohomologyError as exc:
        print(f"cosym3: model inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERDICT_FAIL
    except ValueError as exc:
        # str() of an int longer than Python's int-to-str limit, which guards
        # against quadratic-time conversions; any other ValueError is a bug.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"cosym3: error: a number in the result is too long to print (over {limit} digits)", file=sys.stderr)
        return EXIT_USAGE
    text = render_pretty(report) if args.pretty else json.dumps(report, indent=2) + "\n"
    if args.output:
        # deform writes the deformed structure file there, the others their report.
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text if out_file is None else json.dumps(out_file, indent=2) + "\n")
        except OSError as exc:
            print(f"cosym3: error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if out_file is not None or not args.output:
        sys.stdout.write(text)
    return EXIT_OK if report["passed"] else EXIT_VERDICT_FAIL


if __name__ == "__main__":
    sys.exit(main())
