"""The 40 CLI reference artifacts, pinned by their SHA-256 digests.

``tools/artifacts.py`` writes the artifacts and computes the digests;
``tests/artifacts.sha256`` is its output.  A change that means to change an
artifact regenerates the manifest with

    python3 tools/artifacts.py OUTDIR > tests/artifacts.sha256

and lists each changed file.  A mismatch shows as a diff of the manifest
lines, which names each changed file.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "artifacts.sha256"


_spec = importlib.util.spec_from_file_location("artifacts", ROOT / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


def test_artifacts_match_the_manifest(tmp_path, capsys):
    artifacts.write_artifacts(tmp_path)
    # No reference input is unconverged or too detuned for float phases.
    assert "warning:" not in capsys.readouterr().err
    assert artifacts.manifest(tmp_path) == MANIFEST.read_text(encoding="utf-8")
