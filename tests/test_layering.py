"""The package's modules form layers: each imports only from the ones below it.

From the bottom up: ``qmat`` (matrices and the generators' Pauli
products), ``equivclass`` (class algebra), ``sequences`` (the rates and the
gate families, the undriven two-step segment included), ``optimize``
(calibration), ``verify`` (property suite) and ``cli``.  The package's
``__init__`` re-exports them all and sits above every layer.
"""

import ast
from pathlib import Path

import cnotsteer

LAYERS = ["qmat", "equivclass", "sequences", "optimize", "verify", "cli"]
PACKAGE = Path(cnotsteer.__file__).parent


def _relative_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_each_module_imports_only_from_the_layers_below_it():
    upward = [
        f"{module} -> {imported}"
        for rank, module in enumerate(LAYERS)
        for imported in _relative_imports(module)
        if imported not in LAYERS[:rank]
    ]
    assert upward == []
