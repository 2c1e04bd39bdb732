"""End-to-end and per-layer benchmark of the cosym3 command line.

Usage::

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; cosym3 is imported from ``src/``.
Each command is a call to ``cosym3.cli.main(argv)`` in this process, with
stdout captured, on structure files generated from ``--seed``.  A run
attempts whole rounds of its workload's command list until the next round
would end past ``--seconds``, and checks every output against the
independent oracles in ``oracles.py`` (timing excludes the checks).
End-to-end times are scaled to a reference host speed; see ``Clock``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced rounds and prints the per-layer metrics, with the tracing
overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
KINDS = ("check", "deform", "betti", "liealg")

#: Mean probe time of ``Clock`` over the ten-seed algebra11 runs on the host
#: the bounds were set on (2 cores, Python 3.11.7), so that scaled times read
#: as typical wall times there.
REFERENCE_S = 0.0021


def median(values):
    return statistics.median(values) if values else 0.0


def reference_kernel() -> Fraction:
    """Fixed exact-arithmetic work that does not use cosym3: the determinant
    of the 9 x 9 Hilbert matrix by Gaussian elimination over Fraction."""
    n = 9
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


HILBERT_9_DET = reference_kernel()


class Clock:
    """Times jobs, optionally in seconds of a host at the reference speed.

    This host's speed swings by up to 2x within seconds as other processes
    come and go on its shared cores, and whole 40 s runs differ by 25%.  A
    scaling clock times ``reference_kernel`` (best of three) before and
    after each job and every ``TICK_S`` during it, from a SIGALRM handler,
    and multiplies the job's wall time, less the probes inside it, by
    ``REFERENCE_S`` over the mean probe time.  The swing cancels, and a change
    in the program's own work shows in full.
    """

    TICK_S = 0.25

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.probes: list[float] = []
        self.busy = 0.0

    @staticmethod
    def probe() -> float:
        """Best of three timings of ``reference_kernel``, with the cyclic
        collector off so that the program's heap does not enter them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                if reference_kernel() != HILBERT_9_DET:
                    raise RuntimeError("reference kernel gave a wrong determinant")
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return best

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(self.probe())
        self.busy += time.perf_counter() - start

    def time(self, job):
        """Return ``job()`` and the seconds it took."""
        if not self.scaled:
            start = time.perf_counter()
            result = job()
            return result, time.perf_counter() - start
        self.probes, self.busy = [self.probe()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        start = time.perf_counter()
        try:
            result = job()
        finally:
            elapsed = time.perf_counter() - start - self.busy
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probes.append(self.probe())
        return result, elapsed * REFERENCE_S / statistics.mean(self.probes)


class Runner:
    """Times commands and judges their outputs against the oracles."""

    def __init__(self, cli, work: workloads.Workload):
        self.cli = cli
        self.work = work
        self.first: dict[int, tuple] = {}  # command index -> (rc, stdout, output bytes)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv, clock: Clock) -> tuple[int | None, str, float]:
        """Run one command; return its exit code, stdout and time."""
        out, err = io.StringIO(), io.StringIO()

        def job():
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    return self.cli.main(list(argv))
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not the end of the run
                err.write(traceback.format_exc())
                return None

        rc, elapsed = clock.time(job)
        if rc not in (0, 1):
            sys.stderr.write(f"cosym3 {' '.join(argv)}: exit {rc}\n{err.getvalue()}")
        return rc, out.getvalue(), elapsed

    def judge(self, idx: int, rc, stdout: str) -> None:
        """Oracle check on first sight, byte-for-byte comparison afterwards."""
        cmd = self.work.commands[idx]
        self.attempted += 1
        if rc not in (0, 1):
            self.failed += 1
            return
        written = None
        if cmd.output:
            with open(cmd.output, "rb") as fh:
                written = fh.read()
        seen = (rc, stdout, written)
        label = "cosym3 " + " ".join(cmd.argv)
        if idx in self.first:
            if self.first[idx] != seen:
                self.errors.append(f"{label}: output differs from the first pass")
            return
        self.first[idx] = seen
        if rc != cmd.expect_rc:
            self.errors.append(f"{label}: exit {rc}, expected {cmd.expect_rc}")
            return
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            self.errors.append(f"{label}: report is not JSON")
            return
        self.errors.extend(f"{label}: {e}" for e in cmd.verify(report))

    def round(self, times: dict[str, list[float]], clock: Clock) -> float:
        """Run the command list once; return the summed command time."""
        total = 0.0
        for idx, cmd in enumerate(self.work.commands):
            rc, stdout, elapsed = self.call(cmd.argv, clock)
            total += elapsed
            times.setdefault(cmd.kind, []).append(elapsed)
            self.judge(idx, rc, stdout)
        return total


def setup_seconds(work: workloads.Workload) -> float:
    """Median wall time of fresh interpreters that import cosym3 and load
    every input of the workload once."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), SRC]
    argv += [f"{flag}={value}" for flag, value in work.sources]
    clock = Clock(scaled=True)
    samples = []
    for _ in range(SETUP_PROBES):
        _, elapsed = clock.time(lambda: subprocess.run(
            argv, check=True, stdin=subprocess.DEVNULL, timeout=120))
        samples.append(elapsed)
    return median(samples)


def load_all(cli, work: workloads.Workload) -> None:
    """Load every input once in this process, as the set-up probes do."""
    for flag, value in work.sources:
        if flag == "--builtin":
            cli.builtin(value)
        else:
            with open(value, encoding="utf-8") as fh:
                cli.parse_structure_file(json.load(fh))


def rounds(seconds: float, body) -> None:
    """Call ``body(i)`` for whole rounds until the next one would end late."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        body(i)
        i += 1
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def end_to_end(cli, work, seconds: float) -> tuple[Runner, dict]:
    setup = setup_seconds(work)
    load_all(cli, work)
    runner = Runner(cli, work)
    times: dict[str, list[float]] = {}
    walls: list[float] = []
    clock = Clock(scaled=True)
    rounds(seconds, lambda i: walls.append(runner.round(times, clock)))
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (median(walls), "s"),
    }
    for kind in KINDS:
        metrics[f"{kind}_ms_p50"] = (1000 * median(times.get(kind, [])), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    samples = sorted(t for ts in times.values() for t in ts)
    info = {"rounds": len(walls), "samples": {k: len(v) for k, v in times.items()}}
    if len(samples) >= 40:
        # the highest percentile with at least ten samples beyond it
        info["cmd_ms_tail"] = {
            "percentile": round(100 * (len(samples) - 10) / len(samples), 1),
            "ms": round(1000 * samples[-11], 3),
        }
    print(json.dumps(info))
    return runner, metrics


def per_layer(cli, work, seconds: float, trace_path: str) -> tuple[Runner, dict]:
    load_all(cli, work)
    runner = Runner(cli, work)
    tracer = tracing.Tracer()
    plain: list[float] = []
    raw = Clock(scaled=False)

    def body(i):
        if i % 2 == 0:
            plain.append(runner.round({}, raw))
            return
        with tracing.instrument(tracer):
            for idx, cmd in enumerate(work.commands):
                with tracer.span("cli.command"):
                    rc, stdout, _ = runner.call(cmd.argv, raw)
                runner.judge(idx, rc, stdout)
        tracer.round += 1

    rounds(seconds, body)
    if not tracer.round:
        body(1)
    traced = range(tracer.round)
    selfs = tracer.self_times()
    command_ms = [
        1000 * sum(s["end"] - s["start"] for s in tracer.spans
                   if s["name"] == "cli.command" and s["round"] == r)
        for r in traced
    ]
    metrics = {}
    for metric, span in tracing.LAYER_METRICS.items():
        metrics[metric] = (median([1000 * selfs[(r, span)] for r in traced]), "ms")
    for key in tracing.COUNT_METRICS:
        metrics[key] = (statistics.median_low([tracer.counts[(r, key)] for r in traced]), "count")
    for prefix in ("cohomology.op", "liealg.flat"):
        entries = metrics[f"{prefix}_entries"][0]
        metrics[f"{prefix}_density"] = (
            metrics[f"{prefix}_nonzeros"][0] / entries if entries else 0.0, "ratio")
    plain_ms = 1000 * median(plain)
    metrics["trace.round_ms"] = (median(command_ms), "ms")
    metrics["trace.overhead_pct"] = (
        100 * (median(command_ms) - plain_ms) / plain_ms if plain_ms else 0.0, "%")
    missing = sorted({span for span in tracing.LAYER_METRICS.values()}
                     - {s["name"] for s in tracer.spans})
    if missing:
        print(json.dumps({"spans_never_recorded": missing}))
    tracer.write(trace_path)
    return runner, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cosym3", "__init__.py")):
        print(f"bench: no cosym3 sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from cosym3 import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"bench: cosym3 imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        work = workloads.build(args.workload, args.seed, work_dir)
        if args.trace:
            path = os.path.join(ROOT, ".bench_results", f"trace-{args.workload}-{args.seed}.jsonl")
            runner, metrics = per_layer(cli, work, args.seconds, path)
        else:
            runner, metrics = end_to_end(cli, work, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for err in runner.errors[:20]:
        print(f"bench: {err}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
