"""Tests of the benchmark itself: short runs of each workload, the traced
run's metric names, and each checker rejecting a perturbed output.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    """Run a CLI command in-process; returns (exit code, output text, stdout)."""
    sys.path.insert(0, str(ROOT / "src"))
    from cnotsteer import cli as program

    outdir = tmp_path_factory.mktemp("out")

    def run(*argv: str) -> tuple[int, str, str]:
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(program.OUTDIR_ENV, str(outdir))
            with contextlib.redirect_stdout(buf):
                rc = program.main(list(argv))
        out = outdir / argv[list(argv).index("--out") + 1] if "--out" in argv else None
        return rc, out.read_text() if out else "", buf.getvalue()

    return run


@pytest.mark.parametrize("workload,max_ops", [("gate", 1), ("reproduce", 5), ("trajectory", 1)])
def test_short_run_reports_every_end_to_end_metric(workload, max_ops):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--max-ops", str(max_ops)))
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (max_ops, 0)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "reproduce", "--seed", "4", "--seconds", "1",
                          "--trace", "1", "--max-ops", "5"))
    assert result["correct"] is True and result["attempted"] == 10
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["optimize.calibrate_single_step.calls"]["value"] == 22 / 5
    assert metrics["verify.run_checks.calls"]["value"] == 1 / 5
    assert metrics["sequences.fit_local_rotations.starts"]["value"] == 2 / 5
    assert metrics["trace.slowdown"]["value"] > 0.5


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results", "scratch"))
    done = _run("--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _nudge_json(text: str, path: tuple, by: float) -> str:
    d = json.loads(text)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += by
    return json.dumps(d)


def _nudge_csv(text: str, row: int, col: int, by: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + by:.6f}"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_checker_rejects_perturbed_two_step_gate(cli):
    argv = ["gate", "--mode", "two-step", "--delta", "1.37", "--frame", "2", "--out", "g2.json"]
    rc, text, _ = cli(*argv)
    assert rc == 0 and checks.check_gate(argv, text) == []
    assert checks.check_gate(argv, _nudge_json(text, ("gate_matrix", 0, 0, 0), 1e-3))
    assert checks.check_gate(argv, _nudge_json(text, ("fidelity",), -1e-3))
    assert checks.check_gate(argv, _nudge_json(text, ("entangling_matrix", 1, 2, 1), 1e-3))
    assert checks.check_gate(argv, _nudge_json(text, ("recipe", "t_value"), 1e-3))


def test_gate_checker_rejects_perturbed_one_step_gate(cli):
    argv = ["gate", "--mode", "one-step", "--delta", "1.5", "--out", "g1.json"]
    rc, text, _ = cli(*argv)
    assert rc == 0 and checks.check_gate(argv, text) == []
    assert checks.check_gate(argv, _nudge_json(text, ("gate_matrix", 2, 3, 0), 1e-3))
    assert checks.check_gate(argv, _nudge_json(text, ("fidelity",), 1e-3))
    assert checks.check_gate(argv, _nudge_json(text, ("recipe", "omega1_over_g"), 1e-3))
    claimed_elsewhere = ["gate", "--mode", "one-step", "--delta", "1.6", "--out", "g1.json"]
    assert checks.check_gate(claimed_elsewhere, text)


def test_table_checkers_reject_perturbed_rows(cli):
    rc, table1, _ = cli("table1", "--out", "t1.csv")
    assert rc == 0 and checks.check_table1(table1) == []
    assert checks.check_table1(_nudge_csv(table1, 12, 1, 1e-3))  # T2 at 1.1g
    assert checks.check_table1(_nudge_csv(table1, 6, 3, 1e-2))  # omega1 at 0.5g
    lines = table1.splitlines()
    lines[15] += "1.0"  # a single-step cell beyond g
    assert checks.check_table1("\n".join(lines) + "\n")

    rc, table2, _ = cli("table2", "--out", "t2.csv")
    assert rc == 0 and checks.check_table2(table2) == []
    for col in range(1, 5):
        assert checks.check_table2(_nudge_csv(table2, 6, col, 1e-3)), col


def test_verify_checker_rejects_failure_report(cli):
    rc, _, stdout = cli("verify")
    assert rc == 0 and checks.check_verify(rc, stdout) == []
    assert checks.check_verify(4, stdout)
    assert checks.check_verify(0, stdout.replace("PASS", "FAIL", 1))


def test_trajectory_checker_rejects_perturbed_rows(cli):
    argv = ["trajectory", "--delta", "1.3", "--samples", "2048", "--out", "traj.csv"]
    rc, text, _ = cli(*argv)
    assert rc == 0 and checks.check_trajectory(argv, text) == []
    assert checks.check_trajectory(argv, _nudge_csv(text, 1000, 1, 1e-3))  # c1 off the propagation
    assert checks.check_trajectory(argv, _nudge_csv(text, 1500, 2, -1e-3))  # c2
    assert checks.check_trajectory(argv, _nudge_csv(text, 700, 3, 1e-3))  # c3 off the face
    assert checks.check_trajectory(argv, _nudge_csv(text, 1, 0, 1e-3))  # first row off the origin
    assert checks.check_trajectory(argv, "\n".join(text.splitlines()[:-1]) + "\n")  # a row missing
    assert checks.check_trajectory(["trajectory", "--delta", "1.4", "--out", "traj.csv"], text)
