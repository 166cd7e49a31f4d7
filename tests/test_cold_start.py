"""A CLI process runs only the library modules its command calls.

The package registers its submodules lazily: each is in ``sys.modules`` from
the start, as an instance of the lazy loader's module type, and becomes a
plain module when its code runs.  These checks start fresh interpreters, so
nothing another test imported counts."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nc_hopf

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
       "PYTHONIOENCODING": "utf-8"}

# run one command through the CLI entry point, then list the nc_hopf
# submodules whose code ran
RAN = """
import io, json, sys, types
from nc_hopf.cli import main
code = main(sys.argv[1:], out=io.StringIO())
print(json.dumps({"code": code, "ran": sorted(
    name.split(".", 1)[1] for name, module in sys.modules.items()
    if name.startswith("nc_hopf.") and type(module) is types.ModuleType)}))
"""

LAYERS = {"coefficients", "errors", "functionals", "partitions", "tensor",
          "transforms", "trees", "verify"}


def modules_run(*argv) -> set:
    done = subprocess.run([sys.executable, "-c", RAN, *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0
    return set(result["ran"])


@pytest.mark.parametrize("argv", [
    ("enumerate", "nc", "--n", "5", "--count"),
    ("enumerate", "set", "--n", "3"),
    ("moebius", "nc", "{1}{2}{3}", "{1,2,3}"),
    ("moebius", "set", "{1}{2}{3}", "{1,3}{2}", "--json"),
])
def test_partition_commands_run_only_partitions(argv):
    ran = modules_run(*argv)
    assert "partitions" in ran
    assert not ran & {"tensor", "functionals", "transforms", "trees",
                      "verify"}


def test_word_coproduct_runs_no_functional_layer():
    ran = modules_run("coproduct", "word", "a.b.c")
    assert "tensor" in ran
    assert not ran & {"functionals", "transforms", "verify"}


@pytest.mark.parametrize("flavor,direction", [
    ("classical", "c2m"), ("classical", "m2c"),
    ("free", "k2m"), ("free", "m2k"),
])
def test_one_variable_transforms_run_no_hopf_layer(tmp_path, flavor,
                                                   direction):
    # only the fixed point, the extraction and the multi-m2k reader read
    # functionals or tensor, and none of these directions runs them
    path = tmp_path / "values.json"
    path.write_text(json.dumps({"values": ["1", "1/2", "3"]}))
    for argv in (("--symbolic", "--n", "6"), ("--in", str(path))):
        ran = modules_run("transform", flavor, "--direction", direction,
                          *argv)
        assert "transforms" in ran
        assert not ran & {"tensor", "functionals", "verify"}, argv


def test_every_layer_is_registered_before_it_runs():
    # bench/spans.py reads each layer module out of sys.modules right after
    # importing the CLI, before any command runs
    probe = ("import sys, types, nc_hopf.cli; print(' '.join(sorted("
             "n.split('.', 1)[1] for n, m in sys.modules.items() "
             "if n.startswith('nc_hopf.') and type(m) is not types.ModuleType"
             ")))")
    done = subprocess.run([sys.executable, "-c", probe], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # errors runs with the CLI, for the exception handlers of main
    assert set(done.stdout.split()) == LAYERS - {"errors"}


# every name the package exported when its submodules were imported eagerly,
# less the six since deleted (singleton_partition, extend_multiplicative,
# EdgeCut, the config module, whose caps check_enumeration_size holds, and
# parse_atom and check_infinitesimal, which only the tests called)
EXPORTED = """
    AlgebraMismatchError CarrierMismatchError InconsistencyError NcHopfError
    OrderError ParseError SizeLimitError TruncationError
    Coefficient Poly coeff_str poly_str
    Algebra Character InfinitesimalCharacter LinearFunctional augmentation
    check_character convolve exp_prec
    extract_infinitesimal half_convolve pullback_sp
    random_functional random_infinitesimal solve_left_fixed_point
    standard_section
    NonCrossingPartition SetPartition admissible_splits bell_number
    catalan_number enumerate_nc_partitions enumerate_set_partitions
    full_partition is_noncrossing moebius moebius_to_top parse_partition
    standardize
    UNIT DecoratedNC Word barword_text delta_bar delta_nc delta_word
    parse_word sp tensor_text
    CumulantSequence MomentSequence MultiCumulantMap MultiMomentMap
    bell_polynomials classical_cumulants_from_moments
    classical_moments_from_cumulants free_cumulants_from_moments
    free_moments_from_cumulants generalized_free_cumulants kappa_powers
    symbolic_cumulants symbolic_moments
    admissible_edge_cuts hierarchy_tree parse_tree tree_coproduct tree_degree
    tree_text
    SuiteReport run_suite
    coefficients errors functionals partitions tensor transforms trees
    verify __version__
""".split()


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_names_resolve(name):
    namespace: dict = {}
    exec(f"from nc_hopf import {name}", namespace)
    value = namespace[name]
    assert value is getattr(nc_hopf, name)
    if isinstance(value, types.ModuleType):
        assert sys.modules[f"nc_hopf.{name}"] is value
    elif name != "__version__":
        # the very object its layer module defines
        assert any(getattr(sys.modules[f"nc_hopf.{layer}"], name, None)
                   is value for layer in LAYERS)


def test_star_import_and_unknown_names():
    namespace: dict = {}
    exec("from nc_hopf import *", namespace)
    assert {"Poly", "moebius", "run_suite", "TruncationError"} <= set(namespace)
    with pytest.raises(AttributeError):
        nc_hopf.no_such_name
    with pytest.raises(ImportError):
        exec("from nc_hopf import no_such_name", {})



def test_no_file_in_src_imports_dataclasses():
    # dataclasses loads inspect, dis, ast and tokenize: about 15 ms of
    # every cold command
    root = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# run one command through the CLI entry point, then list which of these
# standard modules are loaded; -S keeps site's own imports out of the count
LOADED = """
import io, sys
from nc_hopf.cli import main
code = main(sys.argv[1:], out=io.StringIO())
print(code, *sorted({"dataclasses", "inspect", "json"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ("enumerate", "nc", "--n", "4", "--count"),
    ("coproduct", "nc", "{1,4}{2,3}"),
    ("transform", "free", "--direction", "k2m", "--symbolic", "--n", "5"),
])
def test_cold_commands_load_no_dataclasses_inspect_or_json(argv):
    done = subprocess.run([sys.executable, "-S", "-c", LOADED, *argv],
                          env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
