"""The package's public surface: every exported name resolves, and the
exported names are pinned, so that adding or removing one is a deliberate
edit here.  The commands call every exported function, bar the pinned
exceptions, and the README's quick start runs."""

import contextlib
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

import cnotsteer
from cnotsteer import cli

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")

#: Exported functions that no command calls.
UNCALLED_BY_COMMANDS = set()


def test_every_exported_name_is_an_attribute_of_the_package():
    missing = [name for name in cnotsteer.__all__ if not hasattr(cnotsteer, name)]
    assert missing == []
    assert len(set(cnotsteer.__all__)) == len(cnotsteer.__all__)
    namespace = {}
    exec("from cnotsteer import *", namespace)
    assert set(cnotsteer.__all__) <= set(namespace)


def test_exported_names_are_pinned():
    assert sorted(cnotsteer.__all__) == [
        "CNOT",
        "CalibrationResult",
        "ContractViolationError",
        "DetuningOutOfRangeError",
        "LocalRotationSpec",
        "SystemParams",
        "UnsupportedCouplingError",
        "__version__",
        "calibrate_single_step",
        "canonical_class_gate",
        "cnot_distance",
        "entangling_u",
        "expm_skew",
        "fidelity",
        "fit_local_rotations",
        "frob_dist",
        "kron2",
        "makhlin_invariants",
        "single_step_u",
        "two_step_rotations",
        "two_step_time",
        "weyl_coordinates",
        "weyl_trajectory",
    ]


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert cnotsteer.__version__ == project["version"]


def test_the_commands_call_every_exported_function(tmp_path):
    exported = {
        name: obj
        for name in cnotsteer.__all__
        if inspect.isfunction(obj := getattr(cnotsteer, name))
    }
    names_by_code = {fn.__code__: name for name, fn in exported.items()}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names_by_code:
            called.add(names_by_code[frame.f_code])

    commands = [
        ["table1", "--out", str(tmp_path / "table1.csv")],
        ["table2", "--out", str(tmp_path / "table2.csv")],
        ["verify"],
        ["gate", "--mode", "one-step", "--delta", "1.5", "--out", str(tmp_path / "one.json")],
        ["gate", "--mode", "two-step", "--delta", "1.5", "--frame", "1",
         "--out", str(tmp_path / "two1.json")],
        ["gate", "--mode", "two-step", "--delta", "1.5", "--frame", "2",
         "--out", str(tmp_path / "two2.json")],
        ["trajectory", "--delta", "1.0", "--samples", "4", "--out", str(tmp_path / "traj.csv")],
    ]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [cli.EXIT_OK] * len(commands)
    assert set(exported) - called == UNCALLED_BY_COMMANDS


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    assert len(out.getvalue().splitlines()) == block.count("print(")
