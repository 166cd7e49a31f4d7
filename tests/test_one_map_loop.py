"""``verify._apply`` is the one loop in ``verify.py`` that pushes a linear
combination through a linear map: no ``for`` statement elsewhere there
iterates the result of ``delta_bar``, ``delta_nc`` or ``sp``, directly or
through a name bound to one.  The sp-morphism check states each side of
Δ∘Sp = (Sp⊗Sp)∘Δ as ``_apply`` calls, and the tree transport maps the legs
of the partition coproduct the same way.  A comprehension cannot add up
terms that meet on one key, so only a ``for`` statement can sum a map by
hand; comprehensions that re-key a result are left to the reader."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ROOT / "src" / "nc_hopf" / "verify.py"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
LOOPS = (ast.For, ast.AsyncFor)
MAPS = {"delta_bar", "delta_nc", "sp"}


def calls_a_map(node) -> bool:
    return any(isinstance(n, ast.Call) and (
        getattr(n.func, "id", None) in MAPS
        or getattr(n.func, "attr", None) in MAPS)
        for n in ast.walk(node))


def loops_over_a_map(path=VERIFY) -> list[str]:
    """``file:line function`` of each ``for`` statement in ``path``,
    outside ``_apply``, whose iterable calls one of ``MAPS`` or reads a
    name that a function holding the loop binds to an expression calling
    one."""
    found = []
    for top in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(top, FUNCTIONS) or top.name == "_apply":
            continue
        bound = {target.id for n in ast.walk(top)
                 if isinstance(n, ast.Assign) and calls_a_map(n.value)
                 for target in n.targets if isinstance(target, ast.Name)}
        for loop in ast.walk(top):
            if not isinstance(loop, LOOPS):
                continue
            read = {n.id for n in ast.walk(loop.iter)
                    if isinstance(n, ast.Name)}
            if calls_a_map(loop.iter) or read & bound:
                found.append(f"{path.name}:{loop.lineno} {top.name}")
    return sorted(set(found))


def test_apply_is_the_one_leg_wise_map_loop():
    assert loops_over_a_map() == []


def test_the_scan_finds_a_second_loop(tmp_path):
    source = tmp_path / "second.py"
    source.write_text("def _apply(terms, leg, linear_map):\n"
                      "    for key, c in linear_map(terms).items():\n"
                      "        pass\n"
                      "\n"
                      "\n"
                      "def direct(b):\n"
                      "    for key, c in sp(b).items():\n"
                      "        pass\n"
                      "\n"
                      "\n"
                      "def outer(shape):\n"
                      "    def inner():\n"
                      "        terms = delta_nc(shape)\n"
                      "        for (left, right), c in terms.items():\n"
                      "            pass\n"
                      "    return inner()\n"
                      "\n"
                      "\n"
                      "def through_a_module(b):\n"
                      "    for key in tensor.delta_bar(b, 'left+'):\n"
                      "        pass\n"
                      "\n"
                      "\n"
                      "def rekeyed(b):\n"
                      "    return {(k,): c for k, c in sp(b).items()}\n"
                      "\n"
                      "\n"
                      "def handed_on(b):\n"
                      "    return _apply(dict(delta_bar(b)), 0, sp)\n")
    # a nested function is found, under each function that holds it
    assert loops_over_a_map(source) == [
        "second.py:14 inner", "second.py:14 outer", "second.py:20 "
        "through_a_module", "second.py:7 direct"]
