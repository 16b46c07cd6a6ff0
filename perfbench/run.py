"""Speed-normalised benchmark of the cnotsteer CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gate --seed 1 --seconds 20 --trace 0

Each operation is one CLI command, called in-process through
``cnotsteer.cli.main(argv)`` with ``CNOTSTEER_OUTDIR`` pointing at a scratch
directory, so parsing, computation, serialisation and the file write are all
timed.  Times are speed-normalised (see ``speed.py``).  Every output is
checked after the measurement, against checkers that do not use the program
(``checks.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then traced
(``layers.py``) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator

from layers import Tracer
from speed import SpeedClock, Timeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("gate", "reproduce", "trajectory")
#: Table 2 detunings beyond g used by ``gate``; every run covers the whole set.
GATE_DELTAS = ("1.2", "1.5", "1.8")
SETUP_REPEATS = 7
# Runs in a fresh interpreter: times the import and the parser build, then
# normalises by the kernel run in that same process right afterwards.
SETUP_CODE = (
    "import time; t0 = time.perf_counter()\n"
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "from cnotsteer import cli; cli.build_parser()\n"
    "elapsed = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2]); from speed import kernel_scale\n"
    "print(elapsed * kernel_scale(7))\n"
)


def _passes(rng: random.Random, values: list) -> Iterator:
    """Endless shuffled passes over ``values``: a run of any length draws an even mix."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def rounds(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless rounds of CLI argument lists; the seed fixes every input."""
    rng = random.Random(seed)
    if workload == "gate":
        while True:
            deltas = list(GATE_DELTAS)
            rng.shuffle(deltas)
            yield [["gate", "--mode", "one-step", "--delta", d, "--out", "gate.json"] for d in deltas]
    elif workload == "reproduce":
        # One detuning per 0.1g stratum of [0, 2g] per pass, at a seeded offset on the 0.01g grid.
        for stratum in _passes(rng, list(range(20))):
            delta = f"{(10 * stratum + rng.randrange(11)) / 100:.2f}"
            yield [
                ["table1", "--out", "table1.csv"],
                ["table2", "--out", "table2.csv"],
                ["verify"],
                *(["gate", "--mode", "two-step", "--delta", delta, "--frame", f, "--out", "gate.json"] for f in "12"),
            ]
    else:
        for delta in _passes(rng, [f"{k / 10:.1f}" for k in range(21)]):
            yield [["trajectory", "--delta", delta, "--samples", "2048", "--out", "trajectory.csv"]]


@dataclasses.dataclass
class Op:
    argv: list[str]
    round: int
    rc: int | None  # None: the command raised
    start: float  # perf_counter stamps around cli.main
    end: float
    text: str
    stdout: str
    norm_s: float = 0.0  # filled in from the speed timeline after the run
    wall_s: float = 0.0


def import_cli():
    """Import the CLI from this checkout's ``src``; exit 2 when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from cnotsteer import cli
    except ImportError as exc:
        print(f"cannot import cnotsteer from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(cli.__file__).resolve().parents:
        print(f"cnotsteer was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return cli


def measure_setup() -> float:
    """Median normalised time, in a fresh interpreter, to import the CLI and build its parser."""
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values)


def measure(cli, workload: str, seed: int, seconds: float, max_ops: int,
            outdir: Path, tracer: Tracer | None = None) -> list[Op]:
    """Run whole rounds until ``seconds`` of wall time have passed (or ``max_ops`` ops)."""
    ops: list[Op] = []
    t_end = time.perf_counter() + seconds
    for index, argv in enumerate(rounds(workload, seed)):
        for args in argv:
            out = outdir / args[args.index("--out") + 1] if "--out" in args else None
            if out is not None and out.exists():
                out.unlink()
            if tracer is not None:
                tracer.op = len(ops)
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(args)
            except Exception:
                rc = None
                traceback.print_exc()
            end = time.perf_counter()
            text = out.read_text(encoding="utf-8") if out is not None and out.exists() else ""
            ops.append(Op(args, index, rc, start, end, text, buf.getvalue()))
            if max_ops and len(ops) >= max_ops:
                return ops
        if time.perf_counter() >= t_end:
            return ops


def check(ops: list[Op]) -> bool:
    """Check the output of every operation that did not fail; identical outputs are checked once."""
    from checks import check_operation  # imports scipy: only after the RSS reading

    verdicts: dict[tuple, list[str]] = {}
    for op in _ok(ops):
        key = (tuple(op.argv), op.text, op.stdout)
        if key not in verdicts:
            verdicts[key] = check_operation(op.argv, op.rc, op.text, op.stdout)
            for problem in verdicts[key]:
                print(f"check failed: {' '.join(op.argv)}: {problem}", file=sys.stderr)
    return all(not problems for problems in verdicts.values())


def _ok(ops: list[Op]) -> list[Op]:
    return [op for op in ops if op.rc == 0]


def throughput(ops: list[Op], attr: str) -> float:
    return len(_ok(ops)) / sum(getattr(op, attr) for op in ops)


def p50(ops: list[Op], attr: str) -> float:
    return statistics.median(getattr(op, attr) for op in _ok(ops))


def timed(ops: list[Op], timeline: Timeline) -> None:
    """Fill in each operation's normalised and wall time."""
    norm, wall = timeline([[op.start, op.end] for op in ops])
    for op, (n0, n1), (w0, w1) in zip(ops, norm, wall):
        op.norm_s, op.wall_s = n1 - n0, w1 - w0


def plain_run(cli, args, outdir: Path) -> tuple[list[Op], dict]:
    setup = measure_setup()
    clock = SpeedClock()
    clock.start()
    try:
        ops = measure(cli, args.workload, args.seed, args.seconds, args.max_ops, outdir)
    finally:
        clock.stop()
    timed(ops, clock.timeline())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_ops_s": (throughput(ops, "norm_s"), "1/s"),
        "latency_p50_s": (p50(ops, "norm_s"), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return ops, metrics


def traced_run(cli, args, outdir: Path) -> tuple[list[Op], dict]:
    clock = SpeedClock()
    clock.start()
    tracer = Tracer()
    try:
        plain = measure(cli, args.workload, args.seed, args.seconds / 2, args.max_ops, outdir)
        missing = tracer.install()
        for name in missing:
            print(f"not traced (not found): {name}", file=sys.stderr)
        try:
            traced = measure(cli, args.workload, args.seed, args.seconds / 2, args.max_ops, outdir, tracer)
        finally:
            tracer.uninstall()
    finally:
        clock.stop()
    timeline = clock.timeline()
    timed(plain, timeline)
    timed(traced, timeline)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}-{args.seed}.csv", timeline)

    # Both phases start from the same seed, so their first rounds are the same operations.
    shared = min(plain[-1].round, traced[-1].round) + 1
    slowdown = (sum(op.norm_s for op in traced if op.round < shared)
                / sum(op.norm_s for op in plain if op.round < shared))
    units = {"calls": "count/op", "s": "s/op", "self_s": "s/op"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "count/op"))
               for name, value in tracer.metrics(len(traced), timeline).items()}
    metrics["cli.output_bytes"] = (
        sum(len(op.text.encode()) + len(op.stdout.encode()) for op in traced) / len(traced), "B/op")
    metrics["machine.ref_ms"] = (clock.ref_ms(), "ms")
    metrics["wall.throughput_ops_s"] = (throughput(plain, "wall_s"), "1/s")
    metrics["wall.latency_p50_s"] = (p50(plain, "wall_s"), "s")
    metrics["trace.slowdown"] = (slowdown, "ratio")
    return plain + traced, metrics


def report_costs(ops: list[Op]) -> None:
    """Per-command median normalised and wall cost, on standard error."""
    by_command: dict[str, list[Op]] = {}
    for op in _ok(ops):
        name = f"gate {op.argv[2]}" if op.argv[0] == "gate" else op.argv[0]
        by_command.setdefault(name, []).append(op)
    for name, group in sorted(by_command.items()):
        print(f"{name}: {len(group)} ops, median {p50(group, 'norm_s'):.4f} s normalised, "
              f"{p50(group, 'wall_s'):.4f} s wall", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many operations (short mode for tests); 0: no limit")
    args = parser.parse_args(argv)

    cli = import_cli()
    outdir = HERE / "scratch" / f"{args.workload}-{os.getpid()}"
    os.environ[cli.OUTDIR_ENV] = str(outdir)
    try:
        ops, metrics = (traced_run if args.trace else plain_run)(cli, args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    report_costs(ops)
    correct = check(ops)
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.rc != 0 for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
