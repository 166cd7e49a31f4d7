"""In ``transforms.py`` only ``_transform`` and
``generalized_free_cumulants`` raise ``InconsistencyError``.  The four
one-letter directions share one check, written once in ``_transform``: the
direction's type sum, held to its flavor's recursion.  The multivariate
table keeps its own word-by-word comparison."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRANSFORMS = ROOT / "src" / "nc_hopf" / "transforms.py"


def raises_inconsistency(node: ast.Raise) -> bool:
    return node.exc is not None and any(
        getattr(n, "id", getattr(n, "attr", None)) == "InconsistencyError"
        for n in ast.walk(node.exc))


def raisers(path=TRANSFORMS) -> list[str]:
    """The top-level definitions of ``path`` that raise
    ``InconsistencyError``, in their own body or in a function or method
    nested in it."""
    return sorted(
        top.name
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if hasattr(top, "name") and any(
            isinstance(n, ast.Raise) and raises_inconsistency(n)
            for n in ast.walk(top)))


def test_one_check_raises_for_the_one_letter_directions():
    assert raisers() == ["_transform", "generalized_free_cumulants"]


def test_the_scan_finds_every_raiser(tmp_path):
    source = tmp_path / "routes.py"
    source.write_text("def direct():\n"
                      "    raise InconsistencyError('a')\n"
                      "\n"
                      "\n"
                      "def outer():\n"
                      "    def inner():\n"
                      "        raise errors.InconsistencyError('b')\n"
                      "    return inner\n"
                      "\n"
                      "\n"
                      "class Routes:\n"
                      "    def check(self):\n"
                      "        raise InconsistencyError\n"
                      "\n"
                      "\n"
                      "def other():\n"
                      "    try:\n"
                      "        pass\n"
                      "    except InconsistencyError:\n"
                      "        raise\n"
                      "    raise ValueError('c')\n")
    # a nested function or a method counts for the definition holding it;
    # a bare re-raise or another error does not count
    assert raisers(source) == ["Routes", "direct", "outer"]
