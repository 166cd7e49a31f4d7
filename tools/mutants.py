"""Run the mutant table of ``tests/mutants.py``: apply each row to a
temporary copy of the repository and run the check the row names.

    python tools/mutants.py

The copy holds every file of the repository but ``.git`` and the bytecode
caches, and its checks run with ``PYTHONDONTWRITEBYTECODE=1``.  First every
named check runs once on the unchanged copy and must pass there, since a
check that fails anyway kills nothing.  Then each row replaces its old text
with its new one, runs its check, and puts the file back: the mutant is
killed when pytest reports a failed test (exit 1) and survives when the
check passes; any other exit is reported as an error.  The tool prints one
line per row and exits 0 only when every mutant is killed.  It writes
nothing outside its temporary copy.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

VERDICTS = {0: "survived", 1: "killed"}


def run_checks(copy: Path, checks) -> int:
    """pytest's exit code for ``checks`` in ``copy``, on its own ``src``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *checks], cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        code = run_checks(copy, sorted({m.check for m in MUTANTS}))
        if code != 0:
            print(f"the checks fail on the unchanged copy (pytest exit "
                  f"{code}); no mutant was run")
            return 1
        killed = 0
        for m in MUTANTS:
            path = copy / "src" / "nc_hopf" / m.file
            original = path.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                verdict = "error: the old text does not occur exactly once"
            else:
                path.write_text(original.replace(m.old, m.new),
                                encoding="utf-8")
                code = run_checks(copy, [m.check])
                path.write_text(original, encoding="utf-8")
                verdict = VERDICTS.get(code, f"error: pytest exit {code}")
            killed += verdict == "killed"
            print(f"{verdict:10} {m.name}  ({m.file}; {m.check})")
    print(f"{killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
