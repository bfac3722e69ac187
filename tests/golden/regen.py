"""Rewrite the golden outputs that tests/test_golden.py compares with.

    PYTHONPATH=src python tests/golden/regen.py

Run it from the repository root after a change that alters a command's
output on purpose, and say in CHANGES.md which files changed and why.  It
replaces every case folder under tests/golden/, records the numpy and
scipy versions the files were made with in versions.json, and prints each
file it added, changed or removed against the copies it replaced.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CASES, run_case, versions  # noqa: E402


def _recorded() -> dict[str, bytes]:
    """Every file under the golden folder by its path relative to it."""
    return {p.relative_to(HERE).as_posix(): p.read_bytes() for p in sorted(HERE.rglob("*"))
            if p.is_file() and p.parent != HERE and "__pycache__" not in p.parts}


def main() -> int:
    before = _recorded()
    for old in HERE.iterdir():
        if old.is_dir() and old.name != "__pycache__":
            shutil.rmtree(old)
    for case, conf in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            files = run_case(conf, Path(work))
        folder = HERE / case
        folder.mkdir()
        for name, data in files.items():
            (folder / name).write_bytes(data)
    (HERE / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n",
                                        encoding="utf-8")
    after = _recorded()
    for path in sorted(before.keys() | after.keys()):
        if path not in before:
            print(f"added {path}")
        elif path not in after:
            print(f"removed {path}")
        elif before[path] != after[path]:
            print(f"changed {path}")
    print(f"wrote {len(CASES)} cases to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
