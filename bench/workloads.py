"""The benchmark's workloads: seeded input files and one round of commands.

A round is the fixed list of CLI invocations a workload repeats; every run
attempts whole rounds, so the command mix is the same in every run and for
every seed.  The seed only picks representatives inside fixed classes
(coefficients, coordinates, quaternion units, D_a parameters), never the
sizes, so the work per round does not depend on it.

Regenerate a workload's inputs with
``python3 bench/workloads.py --workload certify --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs
import oracles

WORKLOADS = ("certify", "algebra7", "algebra11")


@dataclass
class Command:
    """One CLI invocation with the oracle that judges its output."""

    kind: str
    argv: list[str]
    expect_rc: int
    verify: Callable[[dict], list[str]]
    output: str | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command] = field(default_factory=list)
    # argv fragments ("--input PATH" or "--builtin NAME") loaded once at set-up
    sources: list[list[str]] = field(default_factory=list)


class _Builder:
    def __init__(self, name: str, seed: int, directory: str):
        self.rng = random.Random(f"{name}:{seed}")
        self.dir = directory
        self.work = Workload(name)

    def source(self, name: str, model: inputs.Model | None = None) -> list[str]:
        """argv fragment for a builtin (model None) or a generated file."""
        if model is None:
            src = ["--builtin", name]
        else:
            path = os.path.join(self.dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs.to_file(model), fh, indent=2)
                fh.write("\n")
            src = ["--input", path]
        self.work.sources.append(src)
        return src

    def add(self, kind, src, expect_rc, verify, extra=(), output=None):
        self.work.commands.append(
            Command(kind, [kind, *src, *extra], expect_rc, verify, output)
        )

    def check(self, src, mapping_torus: bool, must_fail: list[str] | None = None):
        ok = must_fail is None
        self.add(
            "check", src, 0 if ok else 1,
            lambda rep: oracles.verify_check(rep, ok, must_fail or [], mapping_torus),
        )

    def deform(self, name: str, src, model: inputs.Model) -> list[str]:
        """deform --output, then check --input on the written file."""
        a = inputs.random_a(self.rng)
        out = os.path.join(self.dir, f"{name}.deformed.json")
        expected = inputs.deformed(model, a)

        def verify(rep):
            with open(out, encoding="utf-8") as fh:
                written = json.load(fh)
            return oracles.verify_deform(rep, a, written, expected)

        self.add("deform", src, 0, verify, ("--a", str(a), "--output", out), out)
        dst = ["--input", out]
        self.check(dst, model.topology["type"] == "mapping_torus")
        return dst

    def algebra(self, src, m: int, monodromy):
        b, bh = oracles.betti_numbers(m, monodromy)
        mt = monodromy is not None
        self.add("betti", src, 0, lambda rep: oracles.verify_betti(rep, b, bh, mt))
        self.add("liealg", src, 0, lambda rep: oracles.verify_liealg(rep, bh))


def _pullback(rng, n: int) -> inputs.Model:
    m = 4 * n + 3
    return inputs.shear_pullback(inputs.standard_model(n), inputs.random_shear(rng, m, 3, 2))


def _certify(w: _Builder):
    """check and deform on dimension-7 and -11 structures, mostly polynomial."""
    rng = w.rng
    for name, mt in (("standard7", False), ("torus7", False), ("m7f", True), ("standard11", False)):
        w.check(w.source(name), mt)
    p7 = [_pullback(rng, 1) for _ in range(4)]
    p11 = [_pullback(rng, 2) for _ in range(2)]
    mono = inputs.monodromy7(rng, "imag")
    mt7 = inputs.mapping_torus_model(mono)
    valid = [(f"pullback7_{i}", p) for i, p in enumerate(p7)]
    valid += [(f"pullback11_{i}", p) for i, p in enumerate(p11)]
    valid.append(("torus7_mapping", mt7))
    srcs = {}
    for name, model in valid:
        srcs[name] = w.source(name, model)
        w.check(srcs[name], model.topology["type"] == "mapping_torus")
    for name, model in valid:
        mutant, desc, failed = inputs.proven_mutant(rng, model)
        w.check(w.source(f"{name}_mutant", mutant), model.topology["type"] == "mapping_torus", failed)
    for name in ("pullback7_0", "pullback7_1", "pullback11_0"):
        w.deform(name, srcs[name], dict(valid)[name])
    # D_a keeps a model compact, so its Betti table and so(4,1) algebra must
    # be those of the undeformed monodromy.  These are the only cohomology
    # commands here; they give betti and liealg a median on this workload.
    right_i = inputs.quaternion_mult(1, "i", "right")
    compact = [
        ("torus7", ["--builtin", "torus7"], inputs.standard_model(1, {"type": "torus"}), None),
        ("m7f", ["--builtin", "m7f"], inputs.mapping_torus_model(right_i), right_i),
        ("torus7_mapping", srcs["torus7_mapping"], mt7, mono),
    ]
    for name, src, model, monodromy in compact:
        w.algebra(w.deform(name, src, model), 7, monodromy)


def _algebra7(w: _Builder):
    """betti and liealg on every dimension-7 monodromy class, plus their checks."""
    rng = w.rng
    w.algebra(w.source("torus7"), 7, None)
    w.algebra(w.source("m7f"), 7, inputs.quaternion_mult(1, "i", "right"))
    for i, kind in enumerate(("one", "minus", "imag", "imag")):
        mono = inputs.monodromy7(rng, kind)
        model = inputs.mapping_torus_model(mono)
        name = f"mapping7_{i}_{kind}"
        src = w.source(name, model)
        w.algebra(src, 7, mono)
        w.check(src, True)
        w.deform(name, src, model)


def _algebra11(w: _Builder):
    """betti and liealg on one seeded dimension-11 block-swap mapping torus."""
    mono = inputs.monodromy11(w.rng)
    model = inputs.mapping_torus_model(mono)
    src = w.source("mapping11_swap", model)
    w.algebra(src, 11, mono)
    w.check(src, True)
    for i in range(2):
        w.deform(f"mapping11_swap_{i}", src, model)


def build(name: str, seed: int, directory: str) -> Workload:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(directory, exist_ok=True)
    w = _Builder(name, seed, directory)
    {"certify": _certify, "algebra7": _algebra7, "algebra11": _algebra11}[name](w)
    return w.work


def main() -> None:
    parser = argparse.ArgumentParser(description="write a workload's seeded inputs")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the structure files")
    args = parser.parse_args()
    work = build(args.workload, args.seed, args.out)
    for cmd in work.commands:
        print("cosym3 " + " ".join(cmd.argv))


if __name__ == "__main__":
    main()
