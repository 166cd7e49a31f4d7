"""The benchmark's span tracer wraps library functions by name; a rename in
the library would break ``bench/run.py --trace 1`` only.  These checks load
``bench/spans.py`` as it is and resolve every name it wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, attr: str):
    owner = importlib.import_module(f"nc_hopf.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


def test_every_wrapped_layer_resolves(spans):
    for layer, module, attr, _ in spans.FUNCTION_LAYERS:
        assert callable(resolve(module, attr)), layer
    for layer, module, attr in spans.CACHE_ONLY_LAYERS:
        assert callable(resolve(module, attr)), layer


def test_layers_read_from_caches_have_cache_info(spans):
    cached = [(layer, module, attr)
              for layer, module, attr, extras in spans.FUNCTION_LAYERS
              if "yield_ratio" in extras]
    for layer, module, attr in cached + list(spans.CACHE_ONLY_LAYERS):
        assert callable(getattr(resolve(module, attr), "cache_info", None)), \
            layer


def test_tracer_installs_right_after_the_cli_import():
    # bench/cli_boot.py installs the tracer on a fresh process whose library
    # modules are registered but have not run yet
    boot = """
import sys
sys.path.insert(0, sys.argv[1])
import nc_hopf.cli
import spans
tracer = spans.Tracer()
tracer.install()
code = nc_hopf.cli.main(["moebius", "nc", "{1}{2}", "{1,2}"])
tracer.uninstall()
print(code, tracer.calls["partitions.moebius"])
"""
    src = SPANS.parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", boot, str(SPANS.parent)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 1"
