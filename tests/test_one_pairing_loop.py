"""``functionals._pair`` is the one loop over the terms of a coproduct in
``functionals.py``: no other function there iterates the result of
``delta_bar``, directly or through a name bound to it.  Convolution, the
half-shuffles, the fixed point and extraction hand their coproduct value to
``_pair`` instead of summing it in a loop of their own."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONALS = ROOT / "src" / "nc_hopf" / "functionals.py"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
LOOPS = (ast.For, ast.AsyncFor, ast.comprehension)


def calls_delta_bar(node) -> bool:
    return any(isinstance(n, ast.Call) and (
        getattr(n.func, "id", None) == "delta_bar"
        or getattr(n.func, "attr", None) == "delta_bar")
        for n in ast.walk(node))


def loops_over_delta_bar(path=FUNCTIONALS) -> list[str]:
    """``file:line function`` of each loop in ``path``, outside ``_pair``,
    whose iterable calls ``delta_bar`` or reads a name that a function
    holding the loop binds to an expression calling it."""
    found = []
    for top in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(top, FUNCTIONS) or top.name == "_pair":
            continue
        bound = {target.id for n in ast.walk(top)
                 if isinstance(n, ast.Assign) and calls_delta_bar(n.value)
                 for target in n.targets if isinstance(target, ast.Name)}
        for loop in ast.walk(top):
            if not isinstance(loop, LOOPS):
                continue
            read = {n.id for n in ast.walk(loop.iter)
                    if isinstance(n, ast.Name)}
            if calls_delta_bar(loop.iter) or read & bound:
                line = getattr(loop, "lineno", loop.iter.lineno)
                found.append(f"{path.name}:{line} {top.name}")
    return sorted(set(found))


def test_pair_is_the_one_loop_over_coproduct_terms():
    assert loops_over_delta_bar() == []


def test_the_scan_finds_a_second_loop(tmp_path):
    source = tmp_path / "second.py"
    source.write_text("def _pair(terms):\n"
                      "    return sum(c for c in terms.values())\n"
                      "\n"
                      "\n"
                      "def direct(b):\n"
                      "    return [c for c in delta_bar(b).values()]\n"
                      "\n"
                      "\n"
                      "def outer(b):\n"
                      "    def inner():\n"
                      "        terms = delta_bar(b, 'left+')\n"
                      "        total = 0\n"
                      "        for (left, right), c in terms.items():\n"
                      "            total += c\n"
                      "        return total\n"
                      "    return inner()\n"
                      "\n"
                      "\n"
                      "def handed_on(b):\n"
                      "    return _pair(dict(delta_bar(b)))\n")
    # a nested function is found, under each function that holds it
    assert loops_over_delta_bar(source) == [
        "second.py:13 inner", "second.py:13 outer", "second.py:6 direct"]
