"""The mutant table of ``tests/mutants.py`` stays applicable: each row's
old text occurs exactly once in its file under ``src/nc_hopf``, its
replacement differs from it, and its check names a test file that exists.
Running the mutants is ``python tools/mutants.py``, which Tier-1 does not
do."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_the_table_holds_ten_named_rows():
    assert len(MUTANTS) >= 10
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_old_text_occurs_once_in_its_file(mutant):
    text = (ROOT / "src" / "nc_hopf" / mutant.file).read_text(
        encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert (ROOT / mutant.check.split("::")[0]).is_file()
