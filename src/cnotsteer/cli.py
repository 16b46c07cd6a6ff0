"""Command-line front end.

Commands regenerate the package's reference tables, gates, and trajectories
as CSV/JSON files, and run the verification suite:

    cnotsteer table1      --out table1.csv
    cnotsteer table2      --out table2.csv
    cnotsteer gate        --mode one-step --delta 1.0 --out gate.json
    cnotsteer trajectory  --delta 1.0 --samples 2048 --out traj.csv
    cnotsteer verify

Output is deterministic: repeated runs with the same flags produce
byte-identical files.  CSV values are printed with six fixed decimals,
except the tables' ``delta_over_g`` column, which has two, and always carry
a header row; cells that have no value (for example the single-step columns
beyond their detuning bound) are left empty, and a NaN prints as ``nan``,
so a failed value never reads as a blank.  JSON is written by
``json.dumps(payload, indent=2)``.  This module alone writes CSV cells, the
JSON layout and the output time units.  ``gate`` dresses its
entangler with the ``LocalRotationSpec`` it reports and scores that gate
itself; its ``fidelity`` is null where the gate lies farther than 1 from
CNOT in Frobenius distance, as the fidelity is undefined there.

The argument parser is built once per process, on the first call of
``main``, and reused by every later call; each call starts from the
parser's defaults.

Exit codes: 0 success, 2 domain error (for example detuning out of range)
or a request too large to allocate (for example a huge ``--samples``), 3
I/O error, 4 verification failure.  A single-step calibration that stops
short of its tolerance does not change the exit code or the output files; it
prints a ``warning:`` line to stderr with the detuning, the method and the
d^2 it reached.  So does a single-step detuning so large that the float
phases delta*t keep no digits within ``qmat.UNITARITY_TOL`` (from about
3e7 g).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Iterable, Sequence

import numpy as np

from .equivclass import cnot_distance, makhlin_invariants, weyl_coordinates
from .optimize import (
    SINGLE_STEP_BOUND,
    CalibrationResult,
    calibrate_single_step,
)
from .qmat import UNITARITY_TOL, ContractViolationError, frob_dist
from .sequences import (
    CNOT,
    SystemParams,
    entangling_u,
    fidelity,
    fit_local_rotations,
    single_step_u,
    two_step_product,
    two_step_rotations,
    two_step_time,
    weyl_trajectory,
)

# json and .verify are imported inside json_text and cmd_verify, the only
# code that uses them, so that a one-shot CLI run does not start up by
# loading modules its command never runs.

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_VERIFY = 4

#: Environment variable that prefixes relative output paths.
OUTDIR_ENV = "CNOTSTEER_OUTDIR"

_TABLE_GRID = [round(0.1 * k, 1) for k in range(21)]  # 0.0 .. 2.0
_TABLE2_GRID = [round(1.0 + 0.1 * k, 1) for k in range(11)]  # 1.0 .. 2.0
_HALF_PI = math.pi / 2.0


def _out_path(arg: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(arg):
        arg = os.path.join(outdir, arg)
    # A trailing slash still names the file, as it did when paths went
    # through pathlib; otherwise _write would make it as a directory.
    return arg.rstrip("/") or arg


def _write(path: str, text: str) -> None:
    try:
        parent = os.path.dirname(path)
        # makedirs on an existing directory raises and catches FileExistsError,
        # so it runs only for a missing one; exist_ok covers one made meanwhile.
        if parent and not os.path.isdir(parent):
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(RuntimeError):
    pass


def _csv_cell(value: object) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return f"{value:.6f}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with a header row; the package's one CSV writer.

    Floats get six fixed decimals (a NaN prints as ``nan``), None an empty
    cell, and strings are written as given.
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(payload: object) -> str:
    """``json.dumps(payload, indent=2)`` and a newline; the package's one JSON writer."""
    import json

    return json.dumps(payload, indent=2) + "\n"


def matrix_to_json(u: np.ndarray) -> list[list[list[float]]]:
    """4x4 matrix as nested lists of [re, im] pairs."""
    u = np.asarray(u, dtype=complex)
    return np.stack((u.real, u.imag), axis=-1).tolist()


def _t2_value(p: SystemParams) -> float:
    """Two-step entangling time in units of pi/4g."""
    return two_step_time(p) / (math.pi / 4.0)


def _calibrate_single_step(delta: float | list[float]) -> CalibrationResult | list[CalibrationResult]:
    """``calibrate_single_step``, with a stderr warning for each row that did not converge.

    A row also warns when its detuning phase delta*t is so large that one
    float ulp of it exceeds ``UNITARITY_TOL``: its gate phases carry no
    digits there, whatever d^2 the calibration reports.
    """
    cal = calibrate_single_step(delta)
    for row in cal if isinstance(cal, list) else [cal]:
        if not row.converged:
            print(
                f"warning: single-step calibration at delta/g = {row.delta_over_g:g} did not converge "
                f"({row.method}, {row.iterations} iterations, d^2 = {row.distance:.3e})",
                file=sys.stderr,
            )
        phase_ulp = abs(row.delta_over_g) * row.t_units * _HALF_PI * sys.float_info.epsilon
        if phase_ulp > UNITARITY_TOL:
            print(
                f"warning: single-step detuning delta/g = {row.delta_over_g:g} is too large for float "
                f"phases (|delta| t eps = {phase_ulp:.1e} > {UNITARITY_TOL:g})",
                file=sys.stderr,
            )
    return cal


def cmd_table1(args: argparse.Namespace) -> int:
    """Gate parameters for an ideal CNOT over the detuning grid 0.0-2.0.

    Columns: two-step time multiple T2 for all rows; single-step (T1,
    omega1/g) only where the single-step sequence reaches the CNOT class
    exactly (|delta| <= g), blank elsewhere.
    """
    inside = [delta for delta in _TABLE_GRID if delta <= SINGLE_STEP_BOUND]
    cals = dict(zip(inside, _calibrate_single_step(inside)))
    rows = []
    for delta in _TABLE_GRID:
        t2 = _t2_value(SystemParams(delta=delta))
        cal = cals.get(delta)
        if cal is not None:
            rows.append([f"{delta:.2f}", t2, cal.t_units, cal.omega1_over_g])
        else:
            rows.append([f"{delta:.2f}", t2, None, None])
    _write(_out_path(args.out), csv_text(["delta_over_g", "T2", "T1", "omega1_over_g"], rows))
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    """Closest-to-CNOT single-step parameters for detunings 1.0-2.0."""
    rows = []
    for delta, cal in zip(_TABLE2_GRID, _calibrate_single_step(_TABLE2_GRID)):
        rows.append([f"{delta:.2f}", cal.t_units, cal.omega1_over_g, cal.g1.real, cal.g2])
    _write(_out_path(args.out), csv_text(["delta_over_g", "T1", "omega1_over_g", "G1", "G2"], rows))
    return EXIT_OK


def cmd_gate(args: argparse.Namespace) -> int:
    """Calibrate, dress with local rotations, and dump the gate description as JSON."""
    delta = args.delta
    if args.mode == "two-step":
        p = SystemParams(delta=delta)
        unit, t_value = "pi/4g", _t2_value(p)
        segment = entangling_u(two_step_time(p), p, args.frame)
        entangler = two_step_product(segment)
        rotations = two_step_rotations(p, args.frame)
        g1, g2 = makhlin_invariants(entangler)
        g1, g2, d2 = g1.item(), g2.item(), cnot_distance(g1, g2).item()
    else:
        cal = _calibrate_single_step(delta)
        p = SystemParams(delta=delta, omega1=cal.omega1_over_g)
        unit, t_value = "pi/2g", cal.t_units
        entangler = segment = single_step_u(cal.t_units * math.pi / 2.0, p)
        rotations = fit_local_rotations(entangler, CNOT)
        g1, g2, d2 = cal.g1, cal.g2, cal.distance

    gate = rotations.realize(entangler)
    c1, c2, c3 = weyl_coordinates(entangler).tolist()
    payload = {
        "recipe": {
            "kind": args.mode,
            "delta_over_g": p.delta,
            "gtilde_over_g": p.g_tilde,
            "omega1_over_g": p.omega1,
            "t_units": unit,
            "t_value": t_value,
            "euler_angles": [float(a) for a in rotations.as_vector()[:12]],
            "global_phase": float(rotations.phase),
        },
        "frame": args.frame if args.mode == "two-step" else None,
        "entangling_matrix": matrix_to_json(segment),
        "gate_matrix": matrix_to_json(gate),
        "invariants": {"g1_re": g1.real, "g1_im": g1.imag, "g2": g2},
        "class_distance_sq": d2,
        "weyl_point": {"c1": c1, "c2": c2, "c3": c3},
        "frobenius_distance_to_cnot": frob_dist(gate, CNOT),
        "fidelity": fidelity(gate, CNOT),
    }
    _write(_out_path(args.out), json_text(payload))
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace) -> int:
    """Steering trajectory of the calibrated single-step gate at --delta.

    Writes ``t,c1,c2,c3`` (t in units of pi/2g, c in units of pi/2).  The
    resonant trace is ``--delta 0``.  A sample count below two is refused
    before the calibration runs.
    """
    if args.samples < 2:
        raise ContractViolationError(f"--samples must be >= 2, got {args.samples}")
    cal = _calibrate_single_step(args.delta)
    p = SystemParams(delta=args.delta, omega1=cal.omega1_over_g)
    t, c = weyl_trajectory(p, cal.t_units * math.pi / 2.0, args.samples)
    rows = (np.column_stack((t, c)) / _HALF_PI).tolist()
    _write(_out_path(args.out), csv_text(["t", "c1", "c2", "c3"], rows))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the property suite and report one line per check."""
    from .verify import run_checks

    results = run_checks(seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: worst {r.worst:.3e} (tol {r.tolerance:.1e})")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed:", ", ".join(r.name for r in failed))
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's ``default_rng`` takes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnotsteer",
        description="Calibrate and verify CNOT gates for detuned, weakly coupled qubits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="ideal-CNOT gate parameters vs detuning (CSV)")
    p1.add_argument("--out", default="table1.csv")
    p1.set_defaults(func=cmd_table1)

    p2 = sub.add_parser("table2", help="closest-class single-step parameters (CSV)")
    p2.add_argument("--out", default="table2.csv")
    p2.set_defaults(func=cmd_table2)

    pg = sub.add_parser("gate", help="calibrated gate, rotations and fidelity (JSON)")
    pg.add_argument("--mode", choices=["one-step", "two-step"], default="one-step")
    pg.add_argument("--delta", type=float, required=True, help="detuning in units of g")
    pg.add_argument("--frame", type=int, choices=[1, 2], default=1)
    pg.add_argument("--out", default="gate.json")
    pg.set_defaults(func=cmd_gate)

    pt = sub.add_parser("trajectory", help="Weyl-chamber steering trajectory (CSV)")
    pt.add_argument("--delta", type=float, required=True, help="detuning in units of g")
    pt.add_argument("--samples", type=int, default=2048,
                    help="number of sample times, at least 2 (default 2048); "
                         "each costs about 90 us, so 10^6 samples take 1.5-2 min")
    pt.add_argument("--out", default="trajectory.csv")
    pt.set_defaults(func=cmd_trajectory)

    pv = sub.add_parser("verify", help="run the invariant/property suite")
    pv.add_argument("--seed", type=seed, default=42,
                    help="seed of the suite's random samples")
    pv.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, then reused."""
    return build_parser()


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--option -1e-3`` pair written as ``--option=-1e-3``.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number such as -1 or -0.5, so a negative value with an
    exponent (``repr(-1e-5)``) would otherwise be refused.
    """
    joined: list[str] = []
    for token in argv:
        last = joined[-1] if joined else ""
        if last.startswith("--") and len(last) > 2 and "=" not in last and _is_negative_number(token):
            joined[-1] = f"{last}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ContractViolationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
