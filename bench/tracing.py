"""In-memory spans around the calls the CLI pipeline makes into each layer.

The traced run executes the same commands as the timed run.  While it runs,
the module attributes through which the pipeline reaches each layer are
replaced by wrappers that record a span (name, start, end, parent) and the
counts named in the README; the originals are restored afterwards.  Self
time is a span's duration minus that of its direct children, so the layer
times of one command add up to the command's time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Per-layer time metrics and the span whose self time each one sums.
LAYER_METRICS = {
    "cli.parse_ms": "cli.parse",
    "cli.other_ms": "cli.command",
    "models.monodromy_invariance_ms": "models.monodromy_invariance",
    "structures.check_ms": "structures.check",
    "structures.nijenhuis_ms": "structures.nijenhuis",
    "structures.quaternionic_ms": "structures.quaternionic",
    "structures.deform_ms": "structures.deform",
    "cohomology.harmonic_ms": "cohomology.harmonic",
    "cohomology.small_operators_ms": "cohomology.small_operators",
    "cohomology.decompose_self_ms": "cohomology.decompose",
    "cohomology.ladder_ms": "cohomology.ladder",
    "linalg.kernel_ms": "linalg.kernel",
    "liealg.big_operators_ms": "liealg.big_operators",
    "exterior.hodge_ms": "exterior.hodge",
    "liealg.span_ms": "liealg.lie_report",
    "linalg.rref_ms": "linalg.rref",
}

COUNT_METRICS = (
    "cohomology.harmonic_dim",
    "cohomology.basic_dim",
    "cohomology.op_entries",
    "cohomology.op_nonzeros",
    "liealg.flat_entries",
    "liealg.flat_nonzeros",
    "structures.check_items",
    "cli.input_bytes",
)


class Tracer:
    """Spans and counts of one traced run, kept in memory until the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()  # (round, name) -> count
        self._stack: list[int] = []
        self.round = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        record = {"id": idx, "name": name, "parent": parent, "round": self.round,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, func, name: str, on_call=None, on_result=None, only_from=None):
        """A stand-in for ``func`` that records a span around each call.

        ``only_from`` restricts recording to calls made directly from that
        function's code object; other callers reach ``func`` untraced.
        """
        tracer = self

        def traced(*args, **kwargs):
            if only_from is not None and sys._getframe(1).f_code is not only_from:
                return func(*args, **kwargs)
            if on_call:
                on_call(*args, **kwargs)
            with tracer.span(name):
                result = func(*args, **kwargs)
            if on_result:
                on_result(result)
            return result

        return traced

    def add(self, key: str, n: int) -> None:
        self.counts[(self.round, key)] += n

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self time in seconds summed per (round, span name)."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Counter = Counter()
        for s in self.spans:
            out[(s["round"], s["name"])] += s["end"] - s["start"] - child[s["id"]]
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _matrix_counts(tracer: Tracer, entries: str, nonzeros: str, mats) -> None:
    for mat in mats:
        cols = len(mat[0]) if mat else 0
        tracer.add(entries, len(mat) * cols)
        tracer.add(nonzeros, sum(1 for row in mat for x in row if x))


@contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers on the cosym3 modules; restore on exit."""
    from cosym3 import cli, cohomology, linalg, liealg, structures

    def on_load(args, *_):
        if args.input:
            tracer.add("cli.input_bytes", os.path.getsize(args.input))

    def on_small(ops):
        _matrix_counts(tracer, "cohomology.op_entries", "cohomology.op_nonzeros",
                       [blk for op in ops.values() for blk in op.blocks.values()])

    def on_rref(flat, *_):
        _matrix_counts(tracer, "liealg.flat_entries", "liealg.flat_nonzeros", [flat])

    class TracedHodge(liealg.HodgeOperator):
        def __call__(self, omega):
            with tracer.span("exterior.hodge"):
                return super().__call__(omega)

    def count(key, size):
        def on_result(result):
            tracer.add(key, size(result))
        return on_result

    patches = [
        (cli, "_load_model", tracer.wrap(cli._load_model, "cli.parse", on_call=on_load)),
        (cli, "check_three_cosymplectic", tracer.wrap(
            cli.check_three_cosymplectic, "structures.check",
            on_result=count("structures.check_items", len))),
        (structures, "nijenhuis_tensor", tracer.wrap(structures.nijenhuis_tensor, "structures.nijenhuis")),
        (structures, "check_quaternionic", tracer.wrap(structures.check_quaternionic, "structures.quaternionic")),
        (cli, "monodromy_invariance", tracer.wrap(cli.monodromy_invariance, "models.monodromy_invariance")),
        (cli, "d_homothetic_deform", tracer.wrap(cli.d_homothetic_deform, "structures.deform")),
        (cohomology, "harmonic_space", tracer.wrap(
            cohomology.harmonic_space, "cohomology.harmonic",
            on_result=count("cohomology.harmonic_dim", len))),
        (cohomology, "small_operators", tracer.wrap(
            cohomology.small_operators, "cohomology.small_operators", on_result=on_small)),
        (linalg, "kernel_basis", tracer.wrap(linalg.kernel_basis, "linalg.kernel")),
        (cli, "verify_ladder", tracer.wrap(cli.verify_ladder, "cohomology.ladder")),
        (cli, "lie_report", tracer.wrap(cli.lie_report, "liealg.lie_report")),
        (liealg, "big_operators", tracer.wrap(liealg.big_operators, "liealg.big_operators")),
        (liealg, "HodgeOperator", TracedHodge),
        (linalg, "rref", tracer.wrap(
            linalg.rref, "linalg.rref", on_call=on_rref,
            only_from=liealg.analyze_operator_span.__code__)),
    ]
    basic = count("cohomology.basic_dim", lambda table: sum(table.bh))
    for module in (cli, liealg):
        patches.append((module, "decompose", tracer.wrap(
            module.decompose, "cohomology.decompose", on_result=basic)))
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
