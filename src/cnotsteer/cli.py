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
beyond their detuning bound) are left empty.  This module alone writes
CSV cells, the JSON layout and the output time units.

Exit codes: 0 success, 2 domain error (for example detuning out of range),
3 I/O error, 4 verification failure.  A single-step calibration that stops
short of its tolerance does not change the exit code or the output files; it
prints a ``warning:`` line to stderr with the detuning, the method and the
d^2 it reached.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .equivclass import cnot_distance, makhlin_invariants, weyl_coordinates
from .model import SystemParams
from .optimize import (
    SINGLE_STEP_BOUND,
    CalibrationResult,
    calibrate_single_step,
)
from .propagate import entangling_u
from .qmat import ContractViolationError
from .sequences import (
    CNOT,
    FitResult,
    fit_local_rotations,
    single_step_u,
    two_step_product,
    two_step_rotations,
    two_step_time,
    weyl_trajectory,
)
from .verify import run_checks

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_VERIFY = 4

#: Environment variable that prefixes relative output paths.
OUTDIR_ENV = "CNOTSTEER_OUTDIR"

_TABLE_GRID = [round(0.1 * k, 1) for k in range(21)]  # 0.0 .. 2.0
_TABLE2_GRID = [round(1.0 + 0.1 * k, 1) for k in range(11)]  # 1.0 .. 2.0
_HALF_PI = math.pi / 2.0


def _out_path(arg: str) -> Path:
    path = Path(arg)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


class _IOFailure(RuntimeError):
    pass


def _csv_cell(value: object) -> str:
    if isinstance(value, str):
        return value
    if value is None or value != value:  # NaN
        return ""
    return f"{value:.6f}"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with a header row; the package's one CSV writer.

    Floats get six fixed decimals, None and NaN an empty cell, and strings
    are written as given.
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def matrix_to_json(u: np.ndarray) -> list[list[list[float]]]:
    """4x4 matrix as nested lists of [re, im] pairs."""
    u = np.asarray(u, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def matrix_from_json(rows: Iterable[Iterable[Sequence[float]]]) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _t2_value(p: SystemParams) -> float:
    """Two-step entangling time in units of pi/4g."""
    return two_step_time(p) / (math.pi / 4.0)


def _calibrate_single_step(delta: float | list[float]) -> CalibrationResult | list[CalibrationResult]:
    """``calibrate_single_step``, with a stderr warning for each row that did not converge."""
    cal = calibrate_single_step(delta)
    for row in cal if isinstance(cal, list) else [cal]:
        if not row.converged:
            print(
                f"warning: single-step calibration at delta/g = {row.delta_over_g:g} did not converge "
                f"({row.method}, {row.iterations} iterations, d^2 = {row.distance:.3e})",
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
        inv = cal.invariants
        rows.append([f"{delta:.2f}", cal.t_units, cal.omega1_over_g, inv.g1.real, inv.g2])
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
        fit = FitResult.of(two_step_rotations(p, args.frame), entangler, CNOT)
        inv = makhlin_invariants(entangler)
    else:
        cal = _calibrate_single_step(delta)
        p = SystemParams(delta=delta, omega1=cal.omega1_over_g)
        unit, t_value = "pi/2g", cal.t_units
        entangler = segment = single_step_u(cal.t_units * math.pi / 2.0, p)
        fit = fit_local_rotations(entangler, CNOT)
        inv = cal.invariants

    weyl = weyl_coordinates(entangler)
    payload = {
        "recipe": {
            "kind": args.mode,
            "delta_over_g": p.delta,
            "gtilde_over_g": p.g_tilde,
            "omega1_over_g": p.omega1,
            "t_units": unit,
            "t_value": t_value,
            "euler_angles": [float(a) for a in fit.rotations.as_vector()[:12]],
            "global_phase": float(fit.rotations.phase),
        },
        "frame": args.frame if args.mode == "two-step" else None,
        "entangling_matrix": matrix_to_json(segment),
        "gate_matrix": matrix_to_json(fit.gate),
        "invariants": {"g1_re": inv.g1.real, "g1_im": inv.g1.imag, "g2": inv.g2},
        "class_distance_sq": cnot_distance(inv),
        "weyl_point": {"c1": weyl.c1, "c2": weyl.c2, "c3": weyl.c3},
        "frobenius_distance_to_cnot": fit.distance,
        "fidelity": fit.fidelity,
    }
    _write(_out_path(args.out), json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace) -> int:
    """Steering trajectory of the calibrated single-step gate at --delta.

    Writes ``t,c1,c2,c3`` (t in units of pi/2g, c in units of pi/2).  The
    resonant trace is ``--delta 0``.
    """
    cal = _calibrate_single_step(args.delta)
    p = SystemParams(delta=args.delta, omega1=cal.omega1_over_g)
    samples = weyl_trajectory(p, cal.t_units * math.pi / 2.0, args.samples)
    rows = ([v / _HALF_PI for v in (s.t, s.point.c1, s.point.c2, s.point.c3)] for s in samples)
    _write(_out_path(args.out), csv_text(["t", "c1", "c2", "c3"], rows))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the property suite and report one line per check."""
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
    pt.add_argument("--samples", type=int, default=2048)
    pt.add_argument("--out", default="trajectory.csv")
    pt.set_defaults(func=cmd_trajectory)

    pv = sub.add_parser("verify", help="run the invariant/property suite")
    pv.add_argument("--seed", type=seed, default=42,
                    help="seed of the suite's random samples")
    pv.set_defaults(func=cmd_verify)

    return parser


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
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
