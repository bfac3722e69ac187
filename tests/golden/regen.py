"""Rewrite the golden outputs that tests/test_golden.py compares with.

    PYTHONPATH=src python tests/golden/regen.py

Run it from the repository root after a change that alters a command's
output on purpose, and say in CHANGES.md which files changed and why.  It
replaces every case folder under tests/golden/ and records the numpy and
scipy versions the files were made with in versions.json.
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


def main() -> int:
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
    print(f"wrote {len(CASES)} cases to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
