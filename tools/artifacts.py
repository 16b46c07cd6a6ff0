"""Write the CLI's reference artifacts to one directory, and their digests.

    python3 tools/artifacts.py OUTDIR > tests/artifacts.sha256

Runs ``cnotsteer.cli.main`` in-process, from the ``src/`` of the checkout
this script sits in, for 40 artifacts: ``table1`` and ``table2``; the
2048-sample trajectory at five detunings from resonance (0) to the fold at
g; one-step gates at eleven detunings, among them 0.98g, just below the
single-step bound, where the calibration must stay on the lower solution
branch, 1.0g, the fold itself, where the two branches merge and the root
solve tries doubled steps, 1.01g and 1.05g, just beyond it, where the d^2
minimum lies in the flattest valley, and 2.5g and 3.0g, where the minimiser
shifts the Hessian and halves its steps; two-step gates at the first nine of
them and at -g, where the signs of the dressing angles flip, in both frames
(the two-step sequence exits 2 beyond 2g); and the ``verify`` report at two
seeds.  Every output is deterministic, so two checkouts that should agree
byte for byte are compared with one ``diff -r`` of their OUTDIRs.

The script prints one ``sha256sum``-style line per file, which is the
manifest ``tests/test_artifacts.py`` checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cnotsteer.cli import main as cnotsteer_main  # noqa: E402

TRAJECTORY_DELTAS = ("0", "0.3", "0.5", "0.8", "1.0")
GATE_DELTAS = ("0.5", "0.98", "1.0", "1.01", "1.05", "1.2", "1.5", "1.8", "2.0")
ONE_STEP_ONLY_DELTAS = ("2.5", "3.0")
TWO_STEP_ONLY_DELTAS = ("-1.0",)
VERIFY_SEEDS = (None, "7")


def _commands(out: Path) -> list[tuple[list[str], Path | None]]:
    """(argv, stdout file) pairs; argv writes its own files when stdout is None."""
    runs: list[tuple[list[str], Path | None]] = [
        (["table1", "--out", str(out / "table1.csv")], None),
        (["table2", "--out", str(out / "table2.csv")], None),
    ]
    for delta in TRAJECTORY_DELTAS:
        path = out / f"trajectory_{delta}.csv"
        runs.append((["trajectory", "--delta", delta, "--samples", "2048",
                      "--out", str(path)], None))
    for delta in GATE_DELTAS + ONE_STEP_ONLY_DELTAS:
        path = out / f"gate_one-step_{delta}.json"
        runs.append((["gate", "--mode", "one-step", "--delta", delta, "--out", str(path)], None))
    for delta in GATE_DELTAS + TWO_STEP_ONLY_DELTAS:
        for frame in ("1", "2"):
            path = out / f"gate_two-step_{delta}_frame{frame}.json"
            runs.append((["gate", "--mode", "two-step", "--delta", delta, "--frame", frame,
                          "--out", str(path)], None))
    for seed in VERIFY_SEEDS:
        argv = ["verify"] if seed is None else ["verify", "--seed", seed]
        runs.append((argv, out / f"verify_seed{seed or 'default'}.txt"))
    return runs


def write_artifacts(out: Path) -> None:
    """Write the 40 artifacts into the existing directory ``out``.

    Raises:
        RuntimeError: a command exits nonzero.
    """
    for cli_argv, stdout_path in _commands(out):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = cnotsteer_main(cli_argv)
        if rc != 0:
            raise RuntimeError(f"cnotsteer {' '.join(cli_argv)} exited {rc}")
        if stdout_path is not None:
            stdout_path.write_text(buffer.getvalue(), encoding="utf-8")


def manifest(out: Path) -> str:
    """One ``<sha256>  <name>`` line per file in ``out``, sorted by name."""
    return "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(out.iterdir())
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/artifacts.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    try:
        write_artifacts(out)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(manifest(out), end="")
    print(f"{sum(1 for _ in out.iterdir())} files in {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
