"""Named structures for the golden reports and the Nijenhuis oracles.

``python tests/cases.py`` rewrites every file under ``tests/golden/`` from
the current code: the check reports, and the byte-exact stdout, stderr and
exit code of the pinned CLI runs.  Do that only when an output is meant to
change.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from cosym3 import (
    AlmostContactMetricStructure,
    EndField,
    KForm,
    Metric,
    ThreeStructure,
    check_three_cosymplectic,
    euclidean_space,
    flat_torus,
    m7f,
    mapping_torus,
    pullback,
    quaternion_right_mult,
)
from cosym3.cli import main, poly_to_json, structure_file_dict
from cosym3.linalg import inverse
from cosym3.models import hyper_kahler_blocks
from cosym3.poly import Poly

import randgen

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "check_reports.json"
CLI_GOLDEN_PATH = GOLDEN_DIR / "cli_reports.json"
SLOW_CLI_GOLDEN_PATH = GOLDEN_DIR / "cli_reports_slow.json"


def replace_structure(t: ThreeStructure, alpha: int, phi=None, eta=None) -> ThreeStructure:
    """``t`` with phi_alpha and/or eta_alpha swapped out; everything else kept."""
    s = t.structure(alpha)
    new = AlmostContactMetricStructure(
        s.phi if phi is None else phi, s.xi, s.eta if eta is None else eta, s.g
    )
    return ThreeStructure([new if a == alpha else t.structure(a) for a in (1, 2, 3)])


def polynomial_phi7() -> ThreeStructure:
    """standard7 with x1 added to entry (1,3) of phi_1: N_phi_1 != 0."""
    _, t = euclidean_space(1)
    m = t.m
    entries = [list(row) for row in t.structure(1).phi.entries]
    entries[0][2] = entries[0][2] + Poly.variable(m, 0)
    return replace_structure(t, 1, phi=EndField(entries))


def seeded_phi(phi: EndField, seed: int, count: int, start: int = 0) -> EndField:
    """``phi`` with ``count`` seeded entries, in rows and columns from ``start``
    on, shifted by random polynomials."""
    rng = random.Random(seed)
    m = phi.m
    entries = [list(row) for row in phi.entries]
    for _ in range(count):
        a, b = rng.randrange(start, m), rng.randrange(start, m)
        entries[a][b] = entries[a][b] + randgen.poly(rng, m)
    return EndField(entries)


def seeded_phi7() -> ThreeStructure:
    """standard7 with six entries of phi_1 shifted by seeded polynomials."""
    _, t = euclidean_space(1)
    return replace_structure(t, 1, phi=seeded_phi(t.structure(1).phi, 7, 6))


def seeded_phi11() -> ThreeStructure:
    """standard11 with eight entries of phi_1 shifted by seeded polynomials.

    Several of its failing witnesses have non-integral rational coefficients.
    """
    _, t = euclidean_space(2)
    return replace_structure(t, 1, phi=seeded_phi(t.structure(1).phi, 11, 8))


def polynomial_metric11() -> ThreeStructure:
    """standard11 with a seeded non-diagonal polynomial metric and seeded phi_1.

    Every change lies in rows and columns 5 to 11, so each failing matrix
    residual has its first entry in row-major order past (4,4), and some
    residuals have other nonzero entries first in column-major order: the
    goldens pin the scan order of the witnesses.
    """
    _, t = euclidean_space(2)
    m = t.m
    rng = random.Random(14)
    entries = [list(row) for row in t.g.entries]
    for _ in range(4):
        a, b = sorted(rng.sample(range(4, m), 2))
        p = randgen.poly(rng, m)
        entries[a][b] = entries[a][b] + p
        entries[b][a] = entries[b][a] + p
    g = Metric(entries)
    phi = seeded_phi(t.structure(1).phi, 15, 5, start=4)
    return ThreeStructure(
        [
            AlmostContactMetricStructure(phi if s is t.structure(1) else s.phi, s.xi, s.eta, g)
            for s in t.structures
        ]
    )


def nonclosed_eta7() -> ThreeStructure:
    """standard7 with eta_1 = dx5 + x1*x2 dx3 + x6^2 dx5, so d(eta_1) != 0."""
    _, t = euclidean_space(1)
    m = t.m
    extra = KForm(
        m,
        1,
        {
            (2,): Poly(m, {(1, 1, 0, 0, 0, 0, 0): 1}),
            (4,): Poly(m, {(0, 0, 0, 0, 0, 2, 0): 1}),
        },
    )
    return replace_structure(t, 1, eta=t.structure(1).eta + extra)


CASES = {
    "standard7": lambda: euclidean_space(1)[1],
    "m7f": lambda: m7f()[1],
    "standard11": lambda: euclidean_space(2)[1],
    "polynomial_phi7": polynomial_phi7,
    "seeded_phi7": seeded_phi7,
    "seeded_phi11": seeded_phi11,
    "nonclosed_eta7": nonclosed_eta7,
    "polynomial_metric11": polynomial_metric11,
}


def check_reports() -> dict:
    return {name: check_three_cosymplectic(build()).to_dict() for name, build in CASES.items()}


# -- models read from structure files by the pinned CLI runs -------------------


def sheared_torus(n: int, shears: int, seed: int = 5):
    """The flat torus of dimension 4n + 3 pulled back by a seeded A in GL(4n + 3, Z).

    x -> A x is a diffeomorphism of the torus, so the result is again a
    constant 3-cosymplectic structure, but its e_alpha are no longer diagonal
    in the monomial basis and its metric is not diagonal: phi' = A^-1 phi A,
    xi' = A^-1 xi, eta' = eta A and g' = A^T g A.
    """
    space, t = flat_torus(n)
    m = t.m
    a_mat = randgen.unimodular(random.Random(seed), m, shears=shears)
    a = EndField.from_fractions(a_mat)
    a_inv = EndField.from_fractions(inverse(a_mat))
    g = t.g.to_fractions()
    g_pulled = Metric.from_fractions(
        [
            [sum(a_mat[k][i] * g[k][l] * a_mat[l][j] for k in range(m) for l in range(m))
             for j in range(m)]
            for i in range(m)
        ]
    )
    structures = [
        AlmostContactMetricStructure(
            a_inv * s.phi * a, a_inv.apply(s.xi), pullback(a, s.eta), g_pulled
        )
        for s in t.structures
    ]
    return space, ThreeStructure(structures)


def gl7_torus7():
    """torus7 pulled back by a seeded matrix in GL(7, Z) made of 8 shears."""
    return sheared_torus(1, 8)


def sheared11():
    """torus11 pulled back by a seeded matrix in GL(11, Z) made of 12 shears.

    Its basis vectors have denominators up to 4, so it is the dim-11 input
    whose harmonic forms and operators have non-integral entries.
    """
    return sheared_torus(2, 12)


def sheared15():
    """torus15 pulled back by a seeded matrix in GL(15, Z) made of 8 shears.

    The stress case of the Lambda_alpha images: its harmonic forms run to
    degree 15 over a metric that is not diagonal.
    """
    return sheared_torus(3, 8)


def swap11():
    """The dim-11 mapping torus of a seeded block swap [[0, R_u], [R_v, 0]].

    One of u, v is +-1 and the other a seeded imaginary unit; the monodromy
    has order 8 and commutes with the left-multiplication structures.
    """
    rng = random.Random(11)
    real = rng.choice(("1", "-1"))
    imag = rng.choice(("", "-")) + rng.choice(("i", "j", "k"))
    u, v = (real, imag) if rng.random() < 0.5 else (imag, real)
    upper = quaternion_right_mult(u).to_fractions()
    lower = quaternion_right_mult(v).to_fractions()
    zero = [Fraction(0)] * 4
    mono = [zero + row for row in upper] + [row + zero for row in lower]
    return mapping_torus(hyper_kahler_blocks(2), EndField.from_fractions(mono))


def asymmetric_metric11() -> dict:
    """The structure file of standard11 with a metric asymmetric past (4,4).

    Entry (8, 5), counted from 0, is set while (5, 8) stays zero, and (6, 9)
    is set alone: the first asymmetric pair in row-major order, (5, 8), is
    one whose upper entry is zero.
    """
    data = structure_file_dict(*euclidean_space(2))
    data["metric"][8][5] = poly_to_json(Poly.const(11, 2))
    data["metric"][6][9] = poly_to_json(Poly.variable(11, 3))
    return data


#: Structure files that pinned CLI runs read with ``--input``.
MODEL_FILES = {
    "gl7_torus7.json": lambda: structure_file_dict(*gl7_torus7()),
    "swap11.json": lambda: structure_file_dict(*swap11()),
    "sheared11.json": lambda: structure_file_dict(*sheared11()),
    "sheared15.json": lambda: structure_file_dict(*sheared15()),
    "nonclosed_eta7.json": lambda: structure_file_dict(euclidean_space(1)[0], nonclosed_eta7()),
    "asymmetric11.json": asymmetric_metric11,
}

#: CLI runs whose stdout, stderr and exit code are pinned byte for byte.
CLI_CASES = {
    f"{cmd} {name}": [cmd, "--builtin", name] + (["--a", "7/3"] if cmd == "deform" else [])
    for name in ("torus7", "m7f")
    for cmd in ("betti", "liealg", "deform")
}
CLI_CASES.update(
    {
        "betti torus3": ["betti", "--builtin", "torus3"],
        "betti standard7": ["betti", "--builtin", "standard7"],
        "liealg torus3": ["liealg", "--builtin", "torus3"],
        "check gl7_torus7": ["check", "--input", "gl7_torus7.json"],
        "check asymmetric11": ["check", "--input", "asymmetric11.json"],
        "betti gl7_torus7": ["betti", "--input", "gl7_torus7.json"],
        "liealg gl7_torus7": ["liealg", "--input", "gl7_torus7.json"],
        # A polynomial eta makes the deformed metric polynomial, with
        # non-integral coefficients in the structure file it writes.
        "deform nonclosed_eta7": [
            "deform", "--input", "nonclosed_eta7.json", "--a", "7/3", "--output", "deformed.json",
        ],
    }
)

#: Pinned runs too slow for tier-1; ``pytest -m slow``.
SLOW_CLI_CASES = {
    "betti swap11": ["betti", "--input", "swap11.json"],
    "liealg swap11": ["liealg", "--input", "swap11.json"],
    "betti torus11": ["betti", "--builtin", "torus11"],
    "liealg torus11": ["liealg", "--builtin", "torus11"],
    "betti sheared11": ["betti", "--input", "sheared11.json"],
    "liealg sheared11": ["liealg", "--input", "sheared11.json"],
    "betti sheared15": ["betti", "--input", "sheared15.json"],
    "liealg sheared15": ["liealg", "--input", "sheared15.json"],
}


def run_cli(argv: list[str], workdir: Path) -> dict:
    """Run the CLI in-process from ``workdir``; write the file it reads first.

    With ``--output`` the record also holds the text of the file written.
    """
    if "--input" in argv:
        name = argv[argv.index("--input") + 1]
        (workdir / name).write_text(json.dumps(MODEL_FILES[name]()))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    record = {"code": code, "stderr": err.getvalue(), "stdout": out.getvalue()}
    if "--output" in argv:
        record["output"] = (workdir / argv[argv.index("--output") + 1]).read_text()
    return record


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {path}\n")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    _write(GOLDEN_PATH, check_reports())
    with tempfile.TemporaryDirectory() as tmp:
        for path, cases in ((CLI_GOLDEN_PATH, CLI_CASES), (SLOW_CLI_GOLDEN_PATH, SLOW_CLI_CASES)):
            _write(path, {name: run_cli(argv, Path(tmp)) for name, argv in cases.items()})
