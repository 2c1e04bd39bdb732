"""Independent oracles for the reports the benchmark checks.

Nothing here imports cosym3: Betti numbers come from the character formula
in exact integers and ``Fraction``, the Lie-algebra verdicts are recomputed
from the reported bracket table alone, and structure files are compared as
polynomial tensors parsed by :mod:`inputs`.  Each ``verify_*`` function
returns a list of human-readable mismatches; an empty list means the report
agrees with the oracle.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from inputs import Model, from_file

GENERATORS = ("H", "L1", "L2", "L3", "Lam1", "Lam2", "Lam3", "K1", "K2", "K3")
EPS_ORDER = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
CHECK_ITEMS = 52  # 11 per structure, 18 quaternionic relations, positive definiteness
MONODROMY_ITEMS = 13  # metric, then eta, Phi, phi, xi for each structure


# -- exact matrices -----------------------------------------------------------


def _mul(a, b):
    n = len(b[0])
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(n)] for row in a]


def char_poly(a) -> list[Fraction]:
    """Coefficients c_0..c_n of det(tI - A) = sum c_i t^i (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        acc = _mul(a, acc)
        for i in range(n):
            acc[i][i] += coeffs[n - k + 1]
        prod = _mul(a, acc)
        coeffs[n - k] = -sum(prod[i][i] for i in range(n)) / k
    return coeffs


def _sign_changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def inertia(sym) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Its characteristic polynomial has only real roots, so Descartes' rule of
    signs counts them exactly: positive roots are the sign changes of p(t),
    negative roots those of p(-t), and zero has the multiplicity of t.
    """
    c = char_poly(sym)
    zero = next(i for i, x in enumerate(c) if x)
    pos = _sign_changes(c)
    neg = _sign_changes([x if i % 2 == 0 else -x for i, x in enumerate(c)])
    return pos, neg, zero


# -- Betti numbers by the character formula ------------------------------------


def betti_numbers(m: int, monodromy) -> tuple[list[int], list[int]]:
    """(b, bh) of the flat model of dimension m with the given fiber monodromy.

    bh_q = (1/r) sum_{j<r} e_q(A^j), where e_q(M) is the sum of the principal
    q-minors (up to sign, a coefficient of the characteristic polynomial),
    counts the invariant constant q-forms on the fiber; the three Reeb
    directions are free, so b_k = sum_p C(3, p) bh_{k-p}.  A torus is the
    identity monodromy.
    """
    d = m - 3
    a = [[Fraction(x) for x in row] for row in monodromy] if monodromy else [
        [Fraction(int(i == j)) for j in range(d)] for i in range(d)
    ]
    ident = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    powers = [ident]
    while True:
        nxt = _mul(powers[-1], a) if d else ident
        if nxt == ident:
            break
        powers.append(nxt)
        if len(powers) > 1000:
            raise ValueError("monodromy is not of finite order")
    totals = [Fraction(0)] * (d + 1)
    for p in powers:
        c = char_poly(p)
        for q in range(d + 1):
            totals[q] += (-1) ** q * c[d - q]
    bh = []
    for t in totals:
        value = t / len(powers)
        if value.denominator != 1:
            raise ValueError("character average is not an integer")
        bh.append(int(value))
    full = [bh[q] if q <= d else 0 for q in range(m + 1)]
    b = [sum(comb(3, p) * full[k - p] for p in range(4) if k - p >= 0) for k in range(m + 1)]
    return b, full


# -- report checks --------------------------------------------------------------


def verify_check(report: dict, expect_pass: bool, must_fail: list[str], mapping_torus: bool) -> list[str]:
    errors = []
    items = CHECK_ITEMS + (MONODROMY_ITEMS if mapping_torus else 0)
    if report.get("command") != "check":
        errors.append(f"command {report.get('command')!r}")
    if report.get("passed") is not expect_pass:
        errors.append(f"passed = {report.get('passed')}, expected {expect_pass}")
    verdicts = report.get("verdicts", [])
    if len(verdicts) != items or report.get("counts", {}).get("items") != items:
        errors.append(f"{len(verdicts)} verdict items, expected {items}")
    failed = {v["name"] for v in verdicts if not v["passed"]}
    if report.get("counts", {}).get("failures") != len(failed):
        errors.append("failure count disagrees with the verdicts")
    verdict = "3-cosymplectic" if expect_pass else "not 3-cosymplectic"
    if report.get("verdict") != verdict:
        errors.append(f"verdict {report.get('verdict')!r}")
    if expect_pass and failed:
        errors.append(f"valid input failed {sorted(failed)[:3]}")
    missing = [name for name in must_fail if name not in failed]
    if missing:
        errors.append(f"items proven false at a point did not fail: {missing[:3]}")
    return errors


def verify_deform(report: dict, a: Fraction, written: dict, expected: Model) -> list[str]:
    errors = []
    if report.get("command") != "deform" or report.get("a") != str(a):
        errors.append(f"deform report for a = {report.get('a')!r}, expected {a}")
    if report.get("passed") is not True or report.get("identity_deformation") is not False:
        errors.append("deformed structure not certified")
    if from_file(written) != expected:
        errors.append("written structure differs from the D_a deformation")
    return errors


def verify_betti(report: dict, b: list[int], bh: list[int], mapping_torus: bool) -> list[str]:
    errors = []
    tables = report.get("tables", {})
    if report.get("passed") is not True:
        errors.append("betti verdict failed")
    if tables.get("b") != b or tables.get("bh") != bh:
        errors.append(f"b = {tables.get('b')}, bh = {tables.get('bh')}; oracle {b}, {bh}")
    m = len(b) - 1
    rows = tables.get("decomposition", [])
    if len(rows) != m + 1:
        errors.append("decomposition has the wrong number of rows")
    for k, row in enumerate(rows):
        want = {"k": k}
        for eps in EPS_ORDER:
            j = k - sum(eps)
            want["".join(map(str, eps))] = bh[j] if 0 <= j <= m else 0
        want["total"] = b[k]
        if row != want:
            errors.append(f"decomposition row {k} = {row}, expected {want}")
            break
    if any(not v["passed"] for v in report.get("verdicts", [])):
        errors.append("a Betti verdict item failed")
    if (m == 7 and mapping_torus) != bool(report.get("notes")):
        errors.append("the non-product note is missing or misplaced")
    return errors


_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?(-?)([A-Za-z]+\d*)$")


def parse_entry(text: str) -> list[Fraction]:
    """Coefficient vector of a rendered bracket entry such as 'L1 - 1/2*K3'."""
    coeffs = [Fraction(0)] * len(GENERATORS)
    if text == "0":
        return coeffs
    parts = re.split(r" ([+-]) ", text)
    terms = [(1, parts[0])] + [
        (1 if sign == "+" else -1, body) for sign, body in zip(parts[1::2], parts[2::2])
    ]
    for sign, body in terms:
        match = _TERM.match(body)
        if not match or match.group(3) not in GENERATORS:
            raise ValueError(f"unparsable bracket entry {text!r}")
        c = Fraction(match.group(1)) if match.group(1) else Fraction(1)
        if match.group(2):
            c = -c
        coeffs[GENERATORS.index(match.group(3))] += sign * c
    return coeffs


def verify_liealg(report: dict, bh: list[int]) -> list[str]:
    """Recompute the Killing form, its inertia and Jacobi from the bracket table."""
    errors = []
    res = report.get("results", {})
    if report.get("passed") is not True:
        errors.append("liealg verdict failed")
    if res.get("basic_dims") != bh:
        errors.append(f"basic_dims {res.get('basic_dims')} != bh {bh}")
    table = report.get("tables", {}).get("bracket") or []
    n = len(GENERATORS)
    if len(table) != n or any(len(row) != n for row in table):
        return errors + ["bracket table is not 10 x 10"]
    c = [[parse_entry(cell) for cell in row] for row in table]
    for i in range(n):
        for j in range(n):
            if c[i][j] != [-x for x in c[j][i]]:
                errors.append(f"bracket not antisymmetric at ({GENERATORS[i]}, {GENERATORS[j]})")
                return errors
    for alpha in (1, 2, 3):
        i, j = GENERATORS.index(f"L{alpha}"), GENERATORS.index(f"Lam{alpha}")
        if c[i][j] != [Fraction(-1)] + [Fraction(0)] * (n - 1):
            errors.append(f"[L{alpha}, Lam{alpha}] = {table[i][j]}, expected -H")
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                for p in range(n):
                    total = sum(
                        c[j][l][q] * c[i][q][p] + c[l][i][q] * c[j][q][p] + c[i][j][q] * c[l][q][p]
                        for q in range(n)
                    )
                    if total:
                        return errors + [f"Jacobi fails on {GENERATORS[i]}, {GENERATORS[j]}, {GENERATORS[l]}"]
    # (ad_i)[k][j] = c_ij^k, so tr(ad_i ad_j) = sum_{k,l} c_il^k c_jk^l.
    killing = [
        [sum(c[i][l][k] * c[j][k][l] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    pos, neg, zero = inertia(killing)
    if (pos, neg, zero) != (4, 6, 0) or n - zero != 10:
        errors.append(f"Killing inertia ({pos}, {neg}, {zero}), expected (4, 6, 0)")
    if res.get("killing_rank") != n - zero or res.get("signature") != {
        "positive": pos, "negative": neg, "zero": zero
    }:
        errors.append("reported Killing rank or signature disagrees with the table")
    reported = report.get("tables", {}).get("killing")
    if reported != [[str(x) for x in row] for row in killing]:
        errors.append("reported Killing form disagrees with the bracket table")
    if res.get("span_dim") != 10 or res.get("L_Lambda_commutator") != "-H":
        errors.append("span dimension or [L, Lambda] entry is wrong")
    return errors
