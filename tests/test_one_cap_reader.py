"""``partitions.check_enumeration_size`` is the one reader of the size cap.
No other code in ``src/`` reads the environment, so ``NCHOPF_MAX_N`` and its
two error texts have one reader, and ``SizeLimitError`` is raised only there
and under the test of ``transforms.MULTI_TERM_CAP``, which bounds a moment
table's first-block terms rather than an enumeration.  A reader that needs
the cap counts through the check, as the tree reader does, instead of
reading the cap and writing its own error text."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nc_hopf"
SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
READER = "partitions.check_enumeration_size"
TERM_CAP = "MULTI_TERM_CAP"
ENVIRONMENT = ("environ", "getenv")


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _reads_environment(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(a.name in ENVIRONMENT for a in node.names)
    return isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT


def _raises_size_limit(node) -> bool:
    return (isinstance(node, ast.Raise) and node.exc is not None
            and "SizeLimitError" in _names(node.exc))


def stray_cap_reads(root=SRC) -> list[str]:
    """``file:line scope`` of each read of the environment in a ``.py``
    file under ``root`` outside ``READER``, and of each ``raise
    SizeLimitError`` outside ``READER`` and outside an ``if`` whose test
    reads ``MULTI_TERM_CAP``.  The scope is the module name and the dotted
    path of the classes and functions that hold the place."""
    found = []

    def walk(node, scope: tuple, path, under_term_cap: bool):
        if isinstance(node, SCOPES):
            scope += (node.name,)
        if isinstance(node, ast.If) and TERM_CAP in _names(node.test):
            under_term_cap = True
        name = ".".join(scope)
        if name != READER and (
                _reads_environment(node)
                or (_raises_size_limit(node) and not under_term_cap)):
            found.append(f"{path.name}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            walk(child, scope, path, under_term_cap)

    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        walk(tree, (path.stem,), path, False)
    return sorted(set(found))


def test_check_enumeration_size_is_the_one_cap_reader():
    assert stray_cap_reads() == []


def test_the_scan_finds_a_second_cap_reader(tmp_path):
    (tmp_path / "partitions.py").write_text(
        "import os\n"
        "\n"
        "\n"
        "def check_enumeration_size(lattice, n):\n"
        "    cap = int(os.environ.get('NCHOPF_MAX_N', '14'))\n"
        "    if n > cap:\n"
        "        raise SizeLimitError(f'n={n}')\n")
    (tmp_path / "config.py").write_text(
        "import os\n"
        "from os import environ, path\n"
        "from os import sep\n"
        "\n"
        "def _env_int(name):\n"
        "    return int(os.environ[name]) or int(os.getenv(name))\n")
    (tmp_path / "trees.py").write_text(
        "class Reader:\n"
        "    def _take_vertex(self, budget):\n"
        "        if next(budget, None) is None:\n"
        "            raise SizeLimitError('more than the cap')\n")
    (tmp_path / "transforms.py").write_text(
        "MULTI_TERM_CAP = 1 << 22\n"
        "\n"
        "\n"
        "def solve(count):\n"
        "    if count > MULTI_TERM_CAP:\n"
        "        raise SizeLimitError('too many terms')\n"
        "    raise SizeLimitError\n")
    # the reader's own read and raise, and the raise under the term cap's
    # test, are allowed
    assert stray_cap_reads(tmp_path) == [
        "config.py:2 config", "config.py:6 config._env_int",
        "transforms.py:7 transforms.solve",
        "trees.py:4 trees.Reader._take_vertex"]
