"""Every top-level function and class in ``src/nc_hopf`` has a use: the
package exports it, some code in ``src/nc_hopf`` or ``bench/`` reads it by
name outside its own definition, or a string in ``bench/`` names it (as
``bench/spans.py`` names the layers it wraps).  Code that only the tests
call belongs in the tests."""

import ast
from pathlib import Path

import nc_hopf

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nc_hopf").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def names_read(node) -> set:
    """Every name a ``Name`` or ``Attribute`` node under ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unused_definitions(src=SRC) -> list[str]:
    """``file:line name`` of each top-level definition in ``src`` that has
    no use."""
    defined, read = [], set()
    for path in src + BENCH:
        for stmt in parse(path).body:
            names = names_read(stmt)
            if isinstance(stmt, DEFINITIONS):
                # a definition that reads only itself is not used
                names.discard(stmt.name)
                if path in src and not stmt.name.startswith("__"):
                    defined.append((f"{path.name}:{stmt.lineno}", stmt.name))
            read |= names
    named = {part for path in BENCH for n in ast.walk(parse(path))
             if isinstance(n, ast.Constant) and isinstance(n.value, str)
             for part in n.value.split(".")}
    exported = {name for names in nc_hopf._EXPORTS.values() for name in names}
    return [f"{where} {name}" for where, name in defined
            if name not in exported | read | named]


def test_every_definition_in_src_has_a_use():
    assert unused_definitions() == []


def test_the_scan_finds_an_unused_definition(tmp_path):
    orphan = tmp_path / "orphan.py"
    orphan.write_text("def orphan():\n    return orphan()\n")
    assert unused_definitions([orphan]) == ["orphan.py:1 orphan"]
