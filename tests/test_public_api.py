"""The package's public surface: every exported name resolves, and the
exported names and ``model``'s own names are pinned, so that adding or
removing one is a deliberate edit here."""

import ast
from pathlib import Path

import cnotsteer
from cnotsteer import model


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
        "FidelityUndefinedError",
        "FitResult",
        "InvariantPair",
        "LocalRotationSpec",
        "SystemParams",
        "TrajectorySample",
        "UnsupportedCouplingError",
        "WeylPoint",
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
        "single_step_rotations",
        "single_step_u",
        "two_step_entangler",
        "two_step_invariants_closed",
        "two_step_rotations",
        "two_step_time",
        "weyl_coordinates",
        "weyl_trajectory",
    ]


def test_model_defines_only_the_params_and_the_generators_the_maps_use():
    # Names bound at the top level of model.py itself, imports excluded.
    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    assert public == {"SystemParams", "X1", "Z2", "XX", "YY", "ZZ"}
