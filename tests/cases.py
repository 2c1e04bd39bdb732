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
from cosym3.cli import main, structure_file_dict
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


def seeded_phi(phi: EndField, seed: int, count: int) -> EndField:
    """``phi`` with ``count`` seeded entries shifted by random polynomials."""
    rng = random.Random(seed)
    m = phi.m
    entries = [list(row) for row in phi.entries]
    for _ in range(count):
        a, b = rng.randrange(m), rng.randrange(m)
        entries[a][b] = entries[a][b] + randgen.poly(rng, m)
    return EndField(entries)


def seeded_phi7() -> ThreeStructure:
    """standard7 with six entries of phi_1 shifted by seeded polynomials."""
    _, t = euclidean_space(1)
    return replace_structure(t, 1, phi=seeded_phi(t.structure(1).phi, 7, 6))


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
    "nonclosed_eta7": nonclosed_eta7,
}


def check_reports() -> dict:
    return {name: check_three_cosymplectic(build()).to_dict() for name, build in CASES.items()}


# -- models read from structure files by the pinned CLI runs -------------------


def gl7_torus7():
    """torus7 pulled back by a seeded matrix A in GL(7, Z).

    x -> A x is a diffeomorphism of the torus, so the result is again a
    constant 3-cosymplectic structure, but its e_alpha are no longer diagonal
    in the monomial basis: phi' = A^-1 phi A, xi' = A^-1 xi, eta' = eta A and
    g' = A^T g A.
    """
    space, t = flat_torus(1)
    a_mat = randgen.unimodular(random.Random(5), 7, shears=8)
    a = EndField.from_fractions(a_mat)
    a_inv = EndField.from_fractions(inverse(a_mat))
    g = t.g.to_fractions()
    g_pulled = Metric.from_fractions(
        [
            [sum(a_mat[k][i] * g[k][l] * a_mat[l][j] for k in range(7) for l in range(7))
             for j in range(7)]
            for i in range(7)
        ]
    )
    structures = [
        AlmostContactMetricStructure(
            a_inv * s.phi * a, a_inv.apply(s.xi), pullback(a, s.eta), g_pulled
        )
        for s in t.structures
    ]
    return space, ThreeStructure(structures)


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


#: Structure files that pinned CLI runs read with ``--input``.
MODEL_FILES = {"gl7_torus7.json": gl7_torus7, "swap11.json": swap11}

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
        "betti gl7_torus7": ["betti", "--input", "gl7_torus7.json"],
        "liealg gl7_torus7": ["liealg", "--input", "gl7_torus7.json"],
    }
)

#: Pinned runs too slow for tier-1 (about 12 s together); ``pytest -m slow``.
SLOW_CLI_CASES = {
    "betti swap11": ["betti", "--input", "swap11.json"],
    "liealg swap11": ["liealg", "--input", "swap11.json"],
}


def run_cli(argv: list[str], workdir: Path) -> dict:
    """Run the CLI in-process from ``workdir``; write the file it reads first."""
    if "--input" in argv:
        name = argv[argv.index("--input") + 1]
        space, t = MODEL_FILES[name]()
        (workdir / name).write_text(json.dumps(structure_file_dict(space, t)))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"code": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {path}\n")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    _write(GOLDEN_PATH, check_reports())
    with tempfile.TemporaryDirectory() as tmp:
        for path, cases in ((CLI_GOLDEN_PATH, CLI_CASES), (SLOW_CLI_GOLDEN_PATH, SLOW_CLI_CASES)):
            _write(path, {name: run_cli(argv, Path(tmp)) for name, argv in cases.items()})
