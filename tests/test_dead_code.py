"""Every top-level function and class in ``src/nc_hopf`` has a use: some
code in ``src/nc_hopf`` or ``bench/`` reads it by name outside its own
definition, or a string in ``bench/`` names it (as ``bench/spans.py`` names
the layers it wraps).  So does every method, property and classmethod of a
class there, dunders aside: some code in ``src/nc_hopf`` or ``bench/``
reads it as an attribute outside its own definition, or a string in
``bench/`` names it as ``Class.member``.  Being exported is no use: code
that only the tests call belongs in the tests."""

import ast
from pathlib import Path

import nc_hopf

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nc_hopf").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def names_read(node) -> set:
    """Every name a ``Name`` or ``Attribute`` node under ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def bench_strings() -> set:
    """Every string constant in ``bench/``."""
    return {n.value for path in BENCH for n in ast.walk(parse(path))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


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
    named = {part for text in bench_strings() for part in text.split(".")}
    return [f"{where} {name}" for where, name in defined
            if name not in read | named]


def attributes_read(node, own=None) -> set:
    """Every attribute name an ``Attribute`` node under ``node`` reads,
    leaving out each method's reads of its own name (``own``)."""
    read = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(node, ast.ClassDef) and isinstance(child, FUNCTIONS):
            read |= attributes_read(child, child.name)
            continue
        if (isinstance(child, ast.Attribute)
                and isinstance(child.ctx, ast.Load) and child.attr != own):
            read.add(child.attr)
        read |= attributes_read(child, own)
    return read


def unused_members(src=SRC) -> list[str]:
    """``file:line Class.member`` of each method, property and classmethod
    of a class in ``src``, dunders aside, that has no use.  A plain name
    read is no use: it reads a variable, not the member."""
    members, read = [], set()
    for path in src + BENCH:
        tree = parse(path)
        read |= attributes_read(tree)
        if path not in src:
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            members += [(f"{path.name}:{fn.lineno}", f"{cls.name}.{fn.name}")
                        for fn in cls.body if isinstance(fn, FUNCTIONS)
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__"))]
    named = {f"{a}.{b}" for text in bench_strings()
             for a, b in zip(text.split("."), text.split(".")[1:])}
    return [f"{where} {member}" for where, member in members
            if member.split(".")[1] not in read and member not in named]


def test_every_definition_in_src_has_a_use():
    assert unused_definitions() == []


def test_the_scan_finds_an_unused_definition(tmp_path):
    # check_character is exported, and no code in bench/ reads it
    assert "check_character" in nc_hopf._EXPORTS["functionals"]
    orphan = tmp_path / "orphan.py"
    orphan.write_text("def orphan():\n    return orphan()\n"
                      "\n"
                      "\n"
                      "def check_character():\n"
                      "    return check_character()\n")
    assert unused_definitions([orphan]) == ["orphan.py:1 orphan",
                                            "orphan.py:5 check_character"]


def test_every_member_of_a_src_class_has_a_use():
    assert unused_members() == []


def test_the_scan_finds_an_unused_member(tmp_path):
    host = tmp_path / "host.py"
    host.write_text("class Host:\n"
                    "    def read(self):\n"
                    "        return self.helper()\n"
                    "\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                    "\n"
                    "    def orphan(self):\n"
                    "        return self.orphan()\n"
                    "\n"
                    "    def __repr__(self):\n"
                    "        return ''\n"
                    "\n"
                    "\n"
                    "orphan = Host().read()\n"
                    "print(orphan)\n")
    assert unused_members([host]) == ["host.py:8 Host.orphan"]
