"""``SuiteReport.check`` is the one way ``src/nc_hopf`` records a check
from its failing cases: it alone, in any module there, writes the
``N failing: a, b, …`` detail, and it reads the check's ok flag off the
same list.  No ``add`` call passes an ok flag written as ``not <name>``,
which would state that flag apart from the list its detail is built
from."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nc_hopf").glob("*.py"))
SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
RECORDER = "SuiteReport.check"


def _texts(node) -> list[str]:
    """The literal text of a string constant or of an f-string's parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [v.value for v in node.values if isinstance(v, ast.Constant)]
    return []


def _negated_name(node) -> bool:
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
            and isinstance(node.operand, ast.Name))


def stray_recorders(paths=SRC) -> list[str]:
    """``file:line scope`` of each place in ``paths``, outside
    ``SuiteReport.check``, that writes ``failing:`` text, and of each
    ``add`` call whose ok flag, its second argument or ``ok=``, is
    ``not <name>``.  The scope is the dotted path of the classes and
    functions that hold the place, or ``<module>``."""
    found = []

    def walk(path, node, scope: tuple):
        if isinstance(node, SCOPES):
            scope += (node.name,)
        where = f"{path.name}:{getattr(node, 'lineno', 0)} " + (
            ".".join(scope) or "<module>")
        if (any("failing:" in t for t in _texts(node))
                and ".".join(scope) != RECORDER):
            found.append(where)
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "add"):
            flags = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "ok"]
            if any(map(_negated_name, flags)):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            # an f-string's parts are read with the f-string itself
            if not isinstance(node, ast.JoinedStr):
                walk(path, child, scope)

    for path in paths:
        walk(path, ast.parse(path.read_text(), filename=str(path)), ())
    return sorted(set(found))


def test_check_is_the_one_recorder_of_failing_cases():
    assert stray_recorders() == []


def test_the_scan_finds_a_second_recorder(tmp_path):
    source = tmp_path / "second.py"
    source.write_text("class SuiteReport:\n"
                      "    def check(self, label, failing):\n"
                      "        detail = f'{len(failing)} failing: {failing}'\n"
                      "        self.checks.append((label, not failing))\n"
                      "\n"
                      "\n"
                      "def _failing(names):\n"
                      "    return f'{len(names)} failing: ' + ', '.join(names)\n"
                      "\n"
                      "\n"
                      "def suite(report, bad):\n"
                      "    report.add('label', not bad, str(bad))\n"
                      "    report.add('label', ok=not bad)\n"
                      "    report.add('label', bad == [], 'failing: ' + bad)\n"
                      "    report.add('label', not bad[0])\n"
                      "    report.check('label', bad)\n"
                      "\n"
                      "\n"
                      "HEADER = 'failing: '\n")
    # the recorder's own text and its own negation are allowed; a negated
    # subscript is not a failing list
    assert stray_recorders([source]) == [
        "second.py:12 suite", "second.py:13 suite", "second.py:14 suite",
        "second.py:19 <module>", "second.py:8 _failing"]
