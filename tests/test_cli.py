import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cnotsteer.cli as cli
from cnotsteer.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    main,
    matrix_to_json,
)
from cnotsteer.optimize import calibrate_single_step
from cnotsteer.qmat import frob_dist
from cnotsteer.sequences import PI_PULSE_X1, SystemParams, two_step_rotations, two_step_time

from conftest import random_unitary, spec_from_vector
from reference_data import (
    ENTANGLER_FRAME1_DELTA1,
    SINGLE_STEP_U_DELTA1,
    TABLE1_SINGLE,
    TABLE1_T2,
    TABLE2,
)


def matrix_from_json(rows):
    """The complex matrix that ``cli.matrix_to_json`` wrote as [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_table1_contents(tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["table1", "--out", str(out)]) == EXIT_OK
    header, rows = _rows(out)
    assert header == ["delta_over_g", "T2", "T1", "omega1_over_g"]
    assert len(rows) == 21
    by_delta = {float(r[0]): r for r in rows}

    r = by_delta[0.4]
    assert abs(float(r[1]) - TABLE1_T2[0.4]) < 1e-4
    assert abs(float(r[2]) - TABLE1_SINGLE[0.4][0]) < 5e-3
    assert abs(float(r[3]) - TABLE1_SINGLE[0.4][1]) < 5e-3

    r = by_delta[1.5]
    assert abs(float(r[1]) - TABLE1_T2[1.5]) < 1e-4
    assert r[2] == "" and r[3] == ""

    r = by_delta[0.0]
    assert abs(float(r[1]) - 1.0) < 1e-12
    assert abs(float(r[2]) - 1.0) < 5e-3
    assert abs(float(r[3]) - 3.8730) < 5e-3


def test_table2_contents(tmp_path):
    out = tmp_path / "table2.csv"
    assert main(["table2", "--out", str(out)]) == EXIT_OK
    header, rows = _rows(out)
    assert header == ["delta_over_g", "T1", "omega1_over_g", "G1", "G2"]
    assert len(rows) == 11
    by_delta = {float(r[0]): r for r in rows}
    for delta in (1.0, 1.2, 2.0):
        t_ref, om_ref, g1_ref, g2_ref = TABLE2[delta]
        r = by_delta[delta]
        assert abs(float(r[1]) - t_ref) < 5e-3
        assert abs(float(r[2]) - om_ref) < 5e-3
        assert abs(float(r[3]) - g1_ref) < 2e-3
        assert abs(float(r[4]) - g2_ref) < 2e-3


def test_table2_holds_the_converged_minima(tmp_path):
    # Sixth-decimal cells a simplex stopped on a 1e-14 spread in d^2 misses:
    # the minimum lies in a valley whose smallest curvature is 0.0019 at 1.1g.
    out = tmp_path / "table2.csv"
    assert main(["table2", "--out", str(out)]) == EXIT_OK
    header, rows = _rows(out)
    cells = {(r[0], name): value for r in rows for name, value in zip(header[1:], r[1:])}
    assert cells["1.10", "omega1_over_g"] == "3.747043"
    assert cells["1.20", "T1"] == "1.194559"
    assert cells["1.30", "T1"] == "1.159027"
    assert cells["1.40", "T1"] == "1.126234"
    assert cells["1.50", "omega1_over_g"] == "3.715195"
    assert cells["1.60", "G1"] == "0.061368"


def test_gate_one_step_json(tmp_path):
    out = tmp_path / "gate.json"
    assert main(["gate", "--mode", "one-step", "--delta", "1.0", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    u = matrix_from_json(payload["entangling_matrix"])
    # delta = g is the fold where the two exact solution branches meet; the
    # root solve lands at T1 = 1.275371 against the reference's 1.2753, and
    # together with the reference's four-decimal rounding that moves matrix
    # entries by ~1.4e-4
    assert np.max(np.abs(u - SINGLE_STEP_U_DELTA1)) < 2.5e-3
    assert payload["fidelity"] is not None
    assert 1.0 - payload["fidelity"] < 1e-6
    assert payload["recipe"]["kind"] == "one-step"
    assert payload["recipe"]["t_units"] == "pi/2g"
    assert abs(payload["recipe"]["t_value"] - TABLE2[1.0][0]) < 5e-3
    assert len(payload["recipe"]["euler_angles"]) == 12
    assert abs(payload["weyl_point"]["c1"] - math.pi / 2.0) < 1e-3
    assert abs(payload["class_distance_sq"]) < 1e-10


def test_gate_two_step_json(tmp_path):
    out = tmp_path / "gate2.json"
    rc = main(["gate", "--mode", "two-step", "--delta", "1.0", "--frame", "1", "--out", str(out)])
    assert rc == EXIT_OK
    payload = json.loads(out.read_text())
    u = matrix_from_json(payload["entangling_matrix"])
    assert np.max(np.abs(u - ENTANGLER_FRAME1_DELTA1)) < 1e-3
    assert 1.0 - payload["fidelity"] < 1e-6
    assert payload["recipe"]["t_units"] == "pi/4g"
    assert abs(payload["recipe"]["t_value"] - TABLE1_T2[1.0]) < 1e-4
    # |delta| = 2g exactly is the last detuning with an exact CNOT.
    for delta in ("-2.0", "2.0"):
        for frame in ("1", "2"):
            argv = ["gate", "--mode", "two-step", "--delta", delta, "--frame", frame]
            assert main([*argv, "--out", str(out)]) == EXIT_OK, argv
            assert 1.0 - json.loads(out.read_text())["fidelity"] < 1e-6, argv


def test_gate_two_step_rejects_large_detuning(tmp_path, capsys):
    out = tmp_path / "never.json"
    # The last two square to more than the largest float.
    for delta in ("2.5", "2.0000001", "-2.0000001", "1e300", "-1.35e154"):
        for flag in ([f"--delta={delta}"], ["--delta", delta]):
            rc = main(["gate", "--mode", "two-step", *flag, "--out", str(out)])
            assert rc == EXIT_DOMAIN, (delta, flag)
            assert not out.exists()
            assert "two-step sequence requires |delta| <= 2g" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["-1e-3", repr(-1e-5)])
@pytest.mark.parametrize("argv", [
    ["gate", "--mode", "two-step"],
    ["gate", "--mode", "one-step"],
    ["trajectory", "--samples", "9"],
])
def test_negative_delta_with_an_exponent_is_a_value(tmp_path, capsys, argv, delta):
    # argparse alone reads "-1e-3" as an unknown option, not as a number.
    joined, spaced = tmp_path / "joined", tmp_path / "spaced"
    assert main([*argv, f"--delta={delta}", "--out", str(joined)]) == EXIT_OK
    assert main([*argv, "--delta", delta, "--out", str(spaced)]) == EXIT_OK
    assert spaced.read_bytes() == joined.read_bytes()
    assert capsys.readouterr().err == ""


def _gate(tmp_path, *argv: str) -> dict:
    out = tmp_path / "gate.json"
    assert main(["gate", *argv, "--out", str(out)]) == EXIT_OK, argv
    return json.loads(out.read_text())


@pytest.mark.parametrize("frame", [1, 2])
def test_two_step_recipe_is_the_closed_form_and_stable(tmp_path, frame):
    # A KAK dressing of these CNOT-class entanglers would take its recipe
    # from the last bits of the entangler; the closed form must not.
    for delta in (0.5, 0.98, 1.0, 1.01, 1.05, 1.2, 1.5, 1.8):
        angles = []
        for d in (delta - 1e-12, delta, delta + 1e-12):
            payload = _gate(tmp_path, "--mode", "two-step", "--delta", repr(d), "--frame", str(frame))
            angles.append(payload["recipe"]["euler_angles"])
            want = two_step_rotations(SystemParams(delta=d), frame).as_vector()[:12]
            assert angles[-1] == want.tolist(), d
        moved = np.max(np.abs(np.array(angles) - angles[1]))
        assert moved <= 1e-11, (delta, moved)


RECIPE_KEYS = [
    "kind",
    "delta_over_g",
    "gtilde_over_g",
    "omega1_over_g",
    "t_units",
    "t_value",
    "euler_angles",
    "global_phase",
]


def test_gate_recipe_keys_and_time_units(tmp_path):
    # One-step: t_value is the calibrated T1 itself, with no round trip
    # through the time in units of 1/g (one ulp off at 2.0g otherwise).
    recipe = _gate(tmp_path, "--mode", "one-step", "--delta", "2.0")["recipe"]
    assert list(recipe) == RECIPE_KEYS
    assert (recipe["kind"], recipe["t_units"]) == ("one-step", "pi/2g")
    assert recipe["t_value"] == calibrate_single_step(2.0).t_units
    assert len(recipe["euler_angles"]) == 12
    # Two-step: t_value is Table 1's T2 expression.
    for delta in (0.5, 1.5):
        recipe = _gate(tmp_path, "--mode", "two-step", "--delta", repr(delta))["recipe"]
        assert list(recipe) == RECIPE_KEYS
        assert (recipe["kind"], recipe["t_units"]) == ("two-step", "pi/4g")
        assert recipe["t_value"] == two_step_time(SystemParams(delta=delta)) / (math.pi / 4.0)


def test_matrix_json_round_trip(rng):
    u = random_unitary(rng)
    assert frob_dist(matrix_from_json(matrix_to_json(u)), u) == 0.0


@pytest.mark.parametrize(
    "argv",
    [["--mode", "one-step", "--delta", d] for d in ("0.5", "1.0", "1.5")]
    + [["--mode", "two-step", "--delta", d, "--frame", f] for d in ("-1.0", "2.0") for f in "12"],
)
def test_gate_recipe_replays_to_the_gate_matrix(tmp_path, argv):
    payload = _gate(tmp_path, *argv)
    recipe = payload["recipe"]
    spec = spec_from_vector([*recipe["euler_angles"], recipe["global_phase"]])
    segment = matrix_from_json(payload["entangling_matrix"])
    entangler = segment @ PI_PULSE_X1 @ segment if recipe["kind"] == "two-step" else segment
    # Bit for bit: the reported gate is the reported recipe's dressing.
    assert spec.realize(entangler).tobytes() == matrix_from_json(payload["gate_matrix"]).tobytes()


def test_gate_fidelity_is_null_exactly_beyond_distance_one(tmp_path):
    # At 5.5g the one-step dressing misses CNOT by 1.0391, where the
    # fidelity's radicand is negative; at 1.5g it is defined.
    nulls = 0
    for delta in ("1.5", "5.5"):
        payload = _gate(tmp_path, "--mode", "one-step", "--delta", delta)
        d, fid = payload["frobenius_distance_to_cnot"], payload["fidelity"]
        assert (fid is None) == (d > 1.0), delta
        if fid is None:
            nulls += 1
        else:
            assert fid == math.sqrt(1.0 - d**2), delta
    assert nulls >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gate", "--mode", "two-step", "--delta", "nan"],
        ["gate", "--mode", "one-step", "--delta", "inf"],
        ["trajectory", "--delta", "nan"],
    ],
)
def test_non_finite_detuning_is_a_domain_error(argv, tmp_path, capsys):
    out = tmp_path / "never"
    assert main([*argv, "--out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


def test_trajectory_output(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["trajectory", "--delta", "1.0", "--samples", "65", "--out", str(out)])
    assert rc == EXIT_OK
    header, rows = _rows(out)
    assert header == ["t", "c1", "c2", "c3"]
    assert len(rows) == 65
    assert rows[0] == ["0.000000", "0.000000", "0.000000", "0.000000"]
    final = rows[-1]
    assert abs(float(final[1]) - 1.0) < 2e-3
    assert abs(float(final[2])) < 2e-3
    assert all(abs(float(r[3])) < 1e-6 for r in rows)


def test_trajectory_csv_format(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--delta", "0.5", "--samples", "5", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,c1,c2,c3"
    assert lines[1] == "0.000000,0.000000,0.000000,0.000000"
    assert len(lines) == 6
    # t is in units of pi/2g, so the last sample reads T1.
    assert lines[-1].split(",")[0] == f"{calibrate_single_step(0.5).t_units:.6f}"
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        for f in fields:
            assert len(f.split(".")[1]) == 6


@pytest.mark.parametrize("delta", ["0.5", "1.5", "3.0"])
def test_trajectory_ends_at_the_one_step_gate(tmp_path, delta):
    # The last sample is the calibrated gate, beyond the single-step bound
    # too: its t cell is the gate's T1 and its c cells its Weyl point.
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--delta", delta, "--samples", "5", "--out", str(out)]) == EXIT_OK
    _, rows = _rows(out)
    gate = _gate(tmp_path, "--mode", "one-step", "--delta", delta)
    point = [gate["weyl_point"][k] / (math.pi / 2.0) for k in ("c1", "c2", "c3")]
    want = [gate["recipe"]["t_value"], *point]
    assert [float(cell) for cell in rows[-1]] == [float(f"{x:.6f}") for x in want]

def test_trajectory_rejects_single_sample(tmp_path):
    rc = main(["trajectory", "--delta", "0.5", "--samples", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_DOMAIN


def test_trajectory_too_large_to_allocate_is_a_bad_option(tmp_path, capsys):
    # numpy refuses the 7.11 PiB time grid before it touches memory.
    out = tmp_path / "never.csv"
    rc = main(["trajectory", "--delta", "0.5", "--samples", str(10**15), "--out", str(out)])
    assert rc == EXIT_DOMAIN
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def test_one_step_gate_ignores_frame(tmp_path):
    # --frame picks the two-step segments' frame; a one-step gate has none.
    default, framed = tmp_path / "default.json", tmp_path / "framed.json"
    assert main(["gate", "--mode", "one-step", "--delta", "0.5", "--out", str(default)]) == EXIT_OK
    argv = ["gate", "--mode", "one-step", "--delta", "0.5", "--frame", "2", "--out", str(framed)]
    assert main(argv) == EXIT_OK
    assert framed.read_bytes() == default.read_bytes()
    assert json.loads(framed.read_text())["frame"] is None


def test_outputs_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["gate", "--mode", "one-step", "--delta", "1.2", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()

    ta, tb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    for out in (ta, tb):
        assert main(["trajectory", "--delta", "0.8", "--samples", "17", "--out", str(out)]) == EXIT_OK
    assert ta.read_bytes() == tb.read_bytes()


@pytest.mark.parametrize("case", ["absolute-out", "nested-relative-out", "second-run", "trailing-slash"])
def test_outdir_env_var(case, tmp_path, monkeypatch):
    outdir = tmp_path / "results"
    monkeypatch.setenv("CNOTSTEER_OUTDIR", str(outdir))
    argv = ["trajectory", "--delta", "0.5", "--samples", "5", "--out"]
    if case == "absolute-out":
        # An absolute --out ignores the variable.
        out = tmp_path / "elsewhere" / "t.csv"
        assert main(argv + [str(out)]) == EXIT_OK
        assert out.exists() and not outdir.exists()
    elif case == "nested-relative-out":
        # A relative --out goes under the variable; missing directories are made.
        assert main(argv + [os.path.join("a", "b", "t.csv")]) == EXIT_OK
        assert (outdir / "a" / "b" / "t.csv").exists()
    elif case == "trailing-slash":
        # A trailing slash names the file, not a directory to make.
        assert main(argv + ["t.csv/"]) == EXIT_OK
        assert (outdir / "t.csv").is_file()
    else:
        # A second run replaces the whole file, a longer one included, with the same bytes.
        out = outdir / "t.csv"
        assert main(argv + ["t.csv"]) == EXIT_OK
        first = out.read_bytes()
        out.write_bytes(b"x" * (2 * len(first)))
        assert main(argv + ["t.csv"]) == EXIT_OK
        assert out.read_bytes() == first


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    rc = main(["trajectory", "--delta", "0.5", "--samples", "5",
               "--out", str(blocker / "t.csv")])
    assert rc == EXIT_IO
    assert "cannot write" in capsys.readouterr().err


def test_verify_command(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l.startswith("PASS")]
    assert len(lines) == 7
    assert "all 7 checks passed" in out


@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_verify_rejects_a_negative_seed(seed, capsys):
    # numpy's default_rng rejects negative seeds; the parser must catch them
    # first, with a usage line, instead of ending in a traceback.
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--seed", seed])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cnotsteer verify")
    assert f"argument --seed: must be >= 0, got {seed}" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    import cnotsteer.verify as verify
    from cnotsteer.verify import CheckResult

    monkeypatch.setattr(
        verify, "run_checks",
        lambda seed: [CheckResult("stub", False, worst=1.0, tolerance=1e-9)],
    )
    assert main(["verify"]) == 4
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, replacement, failed",
    [
        (
            "unitarity_defect",
            lambda u: np.full(u.shape[:-2], math.nan),
            "FAIL  propagator unitarity: worst nan",
        ),
        (
            "undriven_uv",
            lambda delta, t: (np.ones_like(t), np.full_like(t, 0.5)),
            "FAIL  |u|^2 + v^2 = 1: worst 2.500e-01",
        ),
    ],
    ids=["nan-deviation", "unnormalized-uv"],
)
def test_verify_reports_failures_of_the_package(name, replacement, failed, monkeypatch, capsys):
    # A NaN deviation must fail its check, and an unnormalized (u, v) must
    # reach the check that reports it.
    import cnotsteer.verify as verify

    monkeypatch.setattr(verify, name, replacement)
    assert main(["verify"]) == EXIT_VERIFY
    fails = [line for line in capsys.readouterr().out.split("\n") if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(failed), fails


def test_plain_value_error_is_not_a_domain_error(monkeypatch):
    # Only the package's deliberate rejections exit 2; a ValueError from a
    # bug (numpy's LinAlgError among them) must surface.
    import cnotsteer.verify as verify

    def broken(seed):
        raise ValueError("a bug, not a domain error")

    monkeypatch.setattr(verify, "run_checks", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["verify"])


def test_unconverged_calibration_warns_without_changing_outputs(tmp_path, monkeypatch, capsys):
    import dataclasses

    import cnotsteer.cli as cli

    root, search = "root solve", "d^2 minimisation"
    # argv -> the (delta, method) of each expected warning, in order
    runs = {
        "table1": (["table1"], [(f"{k / 10:g}", root) for k in range(11)]),
        "table2": (["table2"], [("1", root)] + [(f"{1 + k / 10:g}", search) for k in range(1, 11)]),
        "trajectory": (
            ["trajectory", "--delta", "0.5", "--samples", "9"],
            [("0.5", root)],
        ),
        "gate-in": (["gate", "--mode", "one-step", "--delta", "0.5"], [("0.5", root)]),
        "gate-out": (["gate", "--mode", "one-step", "--delta", "1.5"], [("1.5", search)]),
    }
    for name, (argv, _) in runs.items():
        assert main([*argv, "--out", str(tmp_path / "ok" / name)]) == EXIT_OK
    assert capsys.readouterr().err == ""

    real = cli.calibrate_single_step

    def unconverged(delta):
        # The tables pass their detunings as one list; gate and trajectory pass one.
        cal = real(delta)
        if isinstance(cal, list):
            return [dataclasses.replace(row, converged=False) for row in cal]
        return dataclasses.replace(cal, converged=False)

    monkeypatch.setattr(cli, "calibrate_single_step", unconverged)
    for name, (argv, expected) in runs.items():
        assert main([*argv, "--out", str(tmp_path / "warned" / name)]) == EXIT_OK
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == len(expected), name
        for line, (delta, method) in zip(err, expected):
            prefix = f"warning: single-step calibration at delta/g = {delta} did not converge ({method}, "
            assert line.startswith(prefix), line
            assert " d^2 = " in line
    for path in (tmp_path / "ok").iterdir():
        assert path.read_bytes() == (tmp_path / "warned" / path.name).read_bytes()


@pytest.mark.parametrize("argv, warns", [
    (["gate", "--mode", "one-step", "--delta", "1e10"], True),
    (["trajectory", "--delta", "1e10", "--samples", "4"], True),
    (["gate", "--mode", "one-step", "--delta", "1e7"], False),
    (["trajectory", "--delta", "1e7", "--samples", "4"], False),
], ids=["gate-1e10", "trajectory-1e10", "gate-1e7", "trajectory-1e7"])
def test_detuning_too_large_for_float_phases_warns_without_changing_outputs(
    argv, warns, tmp_path, monkeypatch, capsys,
):
    # At 1e10 g one ulp of the phase delta*t is 3.5e-6, far above the
    # unitarity tolerance, so the gate's phases carry no digits; at 1e7 g it
    # is 3.5e-9.  The warning changes neither the exit code nor the file.
    assert main([*argv, "--out", str(tmp_path / "warned")]) == EXIT_OK
    err = capsys.readouterr().err
    if warns:
        assert err.startswith("warning: single-step detuning delta/g = 1e+10 is too large for float phases ")
        assert err.count("\n") == 1, err
    else:
        assert err == ""
    monkeypatch.setattr(cli, "UNITARITY_TOL", math.inf)
    assert main([*argv, "--out", str(tmp_path / "quiet")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "warned").read_bytes() == (tmp_path / "quiet").read_bytes()


def _fresh_interpreter(*args: str) -> str:
    """Standard output of ``python args`` with this checkout's ``src/`` on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def _alone(argv: list[str]) -> str:
    """Standard output of ``cnotsteer argv`` run in a fresh interpreter."""
    return _fresh_interpreter("-m", "cnotsteer.cli", *argv)


def test_the_reused_parser_starts_each_call_from_its_defaults(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; no value of one call may
    # carry over into the next.
    import cnotsteer.verify as verify

    seeds = []
    real = verify.run_checks
    monkeypatch.setattr(verify, "run_checks", lambda seed: seeds.append(seed) or real(seed))
    gates = [
        ["gate", "--mode", "two-step", "--delta", "0.5", "--frame", "2"],
        ["gate", "--delta", "0.5"],
    ]
    for k, argv in enumerate(gates):
        assert main([*argv, "--out", str(tmp_path / f"in_process{k}.json")]) == EXIT_OK
    payload = json.loads((tmp_path / "in_process1.json").read_text())
    assert (payload["recipe"]["kind"], payload["frame"]) == ("one-step", None)
    printed = []
    for argv in (["verify", "--seed", "7"], ["verify"]):
        assert main(argv) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert seeds == [7, 42]
    assert printed[0] != printed[1]
    for k, argv in enumerate(gates):
        _alone([*argv, "--out", str(tmp_path / f"alone{k}.json")])
        alone = (tmp_path / f"alone{k}.json").read_bytes()
        assert (tmp_path / f"in_process{k}.json").read_bytes() == alone, argv
    assert printed == [_alone(["verify", "--seed", "7"]), _alone(["verify"])]
    # A bad argument after good calls is still a usage error.
    for bad in (["gate", "--mode", "three-step", "--delta", "0.5"], ["verify", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exited:
            main(bad)
        assert exited.value.code == 2, bad


_STARTUP_PROBE = """
import sys
from cnotsteer import cli
cli.build_parser()
code = cli.main(["table1", "--out", sys.argv[1]])
print(code, *(name in sys.modules for name in ("cnotsteer.verify", "json")))
code = cli.main(["verify"])
print(code, "cnotsteer.verify" in sys.modules)
"""


def test_start_up_loads_only_what_the_command_runs(tmp_path):
    # A one-shot run pays for every module it imports, so the parser and
    # table1 must not load the verification suite or the JSON encoder.
    lines = _fresh_interpreter("-c", _STARTUP_PROBE, str(tmp_path / "table1.csv")).strip().split("\n")
    assert lines[0] == f"{EXIT_OK} False False", "(exit code, verify loaded, json loaded): " + lines[0]
    assert lines[-1] == f"{EXIT_OK} True"


def _gate_payloads(monkeypatch, tmp_path):
    """The payloads ``cmd_gate`` writes for a one-step and both two-step gates."""
    payloads = []
    real = cli.json_text
    monkeypatch.setattr(cli, "json_text", lambda payload: payloads.append(payload) or real(payload))
    for argv in (["--mode", "one-step", "--delta", "1.5"],
                 ["--mode", "two-step", "--delta", "0.5", "--frame", "1"],
                 ["--mode", "two-step", "--delta", "0.5", "--frame", "2"]):
        assert main(["gate", *argv, "--out", str(tmp_path / "gate.json")]) == EXIT_OK
    monkeypatch.undo()
    return payloads


def test_json_writer_gives_the_bytes_of_the_indenting_encoder(monkeypatch, tmp_path):
    one_step, *two_step = _gate_payloads(monkeypatch, tmp_path)
    assert one_step["frame"] is None and [p["frame"] for p in two_step] == [1, 2]
    payloads = [one_step, *two_step]
    for edge in (-0.0, 5e-324, 1e300, 1e-7, -1e-7, math.nan, math.inf, -math.inf):
        payload = json.loads(json.dumps(one_step))
        payload["fidelity"] = None
        payload["class_distance_sq"] = edge
        payload["recipe"]["euler_angles"][3] = edge
        payload["gate_matrix"][2][1] = [edge, -edge]
        payload["invariants"]["g2"] = np.float64(edge)
        payloads.append(payload)
    payloads += [
        {}, [], {"a": {}, "b": [], "c": [[]]}, [1, True, False, None, "x"],
        {"100% \"quoted\"\n": ["%s %d", "\u00e9\u2028", 0, -7, 2**70], 3: (1.5, (), [None])},
        {"\x00": 1.0},
    ]
    for payload in payloads:
        assert cli.json_text(payload) == json.dumps(payload, indent=2) + "\n", payload


def test_csv_blank_is_none_and_nan_prints_as_nan():
    # An empty cell means "no value"; a NaN is a failure and must show.
    assert cli.csv_text(["a", "b", "c"], [[None, math.nan, 0.5]]) == "a,b,c\n,nan,0.500000\n"


def test_console_script_is_cli_main():
    # Tier-1 imports the package from src/, so a broken entry point would
    # pass every other test; the installed ``cnotsteer`` script calls it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"cnotsteer": "cnotsteer.cli:main"}
    module, _, name = scripts["cnotsteer"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
