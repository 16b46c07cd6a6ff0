"""Compare two artifact directories field by field.

    python3 tools/artifact_diff.py OLD_DIR NEW_DIR

For each file that is not byte-identical in the two directories, prints one
line per JSON field or CSV column that differs, with the largest absolute
difference over its values.  A JSON field is a path of keys; the entries of
a nested list (a matrix, the Euler angles) count as one field.  A value that
is not a number on both sides (a string, a null, an empty or ``nan`` cell)
is compared as it is written and prints ``changed``.  A file of another kind,
such as a ``verify`` report, prints the number of lines that differ.  Files
present on one side only are named.  Exits 0 when every file is
byte-identical, 1 when any differs, and 2 on a usage error.

This is the field-by-field comparison of two runs of ``tools/artifacts.py``:
for example the artifacts of two commits, or of one commit under two BLAS
kernels (``OPENBLAS_CORETYPE``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _leaves(value: object, path: str = ""):
    """(field, value) pairs of a JSON document; list entries share their list's field."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path)
    else:
        yield path, value


def _number(value: object) -> float | None:
    """``value`` as a finite float, or None where it is not a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def _compare(pairs) -> dict[str, float | str]:
    """Largest |new - old| per field over ``(field, old, new)`` triples; only fields that differ."""
    largest: dict[str, float | str] = {}
    for field, old, new in pairs:
        if old == new:
            continue
        a, b = _number(old), _number(new)
        if a is None or b is None:
            largest[field] = "changed"
        elif largest.get(field) != "changed":
            largest[field] = max(largest.get(field, 0.0), abs(b - a))
    return largest


def _json_fields(old: str, new: str) -> dict[str, float | str]:
    a, b = list(_leaves(json.loads(old))), list(_leaves(json.loads(new)))
    if [field for field, _ in a] != [field for field, _ in b]:
        return {"(layout)": "changed"}
    return _compare((field, x, y) for (field, x), (_, y) in zip(a, b))


def _csv_fields(old: str, new: str) -> dict[str, float | str]:
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return {"(layout)": "changed"}
    header = a[0]
    if any(len(row) != len(header) for row in a + b):
        return {"(layout)": "changed"}
    return _compare(
        (name, x, y) for row_a, row_b in zip(a[1:], b[1:]) for name, x, y in zip(header, row_a, row_b)
    )


def diff_dirs(old_dir: Path, new_dir: Path) -> list[tuple[str, str, str]]:
    """(file, field, largest |difference| or note) for every difference, sorted by file."""
    lines = []
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not new_path.exists() or not old_path.exists():
            lines.append((name, "", f"only in {old_dir if old_path.exists() else new_dir}"))
            continue
        old, new = old_path.read_bytes(), new_path.read_bytes()
        if old == new:
            continue
        old_text, new_text = old.decode("utf-8"), new.decode("utf-8")
        if name.endswith(".json"):
            fields = _json_fields(old_text, new_text)
        elif name.endswith(".csv"):
            fields = _csv_fields(old_text, new_text)
        else:
            a, b = old_text.splitlines(), new_text.splitlines()
            changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
            fields = {"(lines)": f"{changed} of {max(len(a), len(b))} differ"}
        if not fields:  # equal values written with other bytes
            fields = {"(bytes)": "changed"}
        for field, largest in fields.items():
            lines.append((name, field, largest if isinstance(largest, str) else f"{largest:.3g}"))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/artifact_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(arg) for arg in argv)
    for directory in (old_dir, new_dir):
        if not directory.is_dir():
            print(f"not a directory: {directory}", file=sys.stderr)
            return 2
    lines = diff_dirs(old_dir, new_dir)
    for name, field, largest in lines:
        print(f"{name}\t{field}\t{largest}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
