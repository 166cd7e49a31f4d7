"""Tests of the benchmark itself.

    python -m pytest bench/tests -q
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_bench(*args) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    meta, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta)["meta"], json.loads(result)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    meta, result = _run_bench("--workload", workload, "--seed", "5",
                              "--seconds", "1", "--trace", "0",
                              "--requests", "6")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 6 == meta["requests"]
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("python", "nproc", "seed", "commit", "beyond_p90"):
        assert key in meta


def test_traced_run_reports_every_layer_metric():
    meta, result = _run_bench("--workload", "hopf", "--seed", "5",
                              "--seconds", "1", "--trace", "1",
                              "--requests", "20")
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["tensor.delta_nc.calls"]["value"] > 0
    assert os.path.isfile(os.path.join(ROOT, meta["spans"]))


def test_requests_are_reproducible_and_use_no_library():
    before = set(sys.modules)
    for workload in W.WORKLOADS:
        assert W.requests(workload, 7, 1) == W.requests(workload, 7, 1)
        assert W.requests(workload, 7, 1) != W.requests(workload, 8, 1)
    assert not any(m.startswith("nc_hopf") for m in set(sys.modules) - before)


def _corrupt_second(execute):
    calls = []

    def corrupted(req):
        resp = execute(req)
        calls.append(req)
        if len(calls) == 2:
            resp = dict(resp)
            key = next(iter(resp))
            resp[key] += 1
        return resp

    return corrupted


def test_corrupted_response_counts_as_failed():
    reqs = [r for r in W.deck(W.HOPF, 1, 0) if r[0] == "sp"][:3]
    result = worker.run_requests(reqs, _corrupt_second(W.execute), W.check,
                                 budget_s=10.0)
    assert result["failed"] == 1 and result["attempted"] == 3
    assert run._counts(result)["failed_ratio"] == pytest.approx(1 / 3)
    assert result["failed_at"] == [1]
    metrics = run.end_to_end(result["latencies"], result["failed"], [1.0], 1.0)
    assert metrics["throughput_rps"]["value"] == pytest.approx(
        2 / sum(result["latencies"]))


def test_request_over_budget_is_a_timeout():
    reqs = [r for r in W.deck(W.TRANSFORMS, 1, 0) if r[0] == "sym"][:2]
    result = worker.run_requests(reqs, W.execute, W.check, budget_s=1e-6)
    assert result["timeouts"] == 2 and result["failed"] == 2
    assert result["latencies"] == [1e-6, 1e-6]


CLI_ARGVS = (
    ["coproduct", "nc", "{1,5}{2}{3,4}"],
    ["coproduct", "word", "a.b.a", "--json"],
    ["transform", "free", "--direction", "m2k", "--symbolic", "--n", "5"],
    ["tree", "{1,6}{2,3}{4,5}", "--coproduct"],
    ["verify", "counting", "--max-degree", "4"],
)


def _snapshot():
    import nc_hopf.cli  # noqa: F401
    modules = {n: m for n, m in sys.modules.items()
               if n == "nc_hopf" or n.startswith("nc_hopf.")}
    classes = (sys.modules["nc_hopf.coefficients"].Poly,
               sys.modules["nc_hopf.functionals"].LinearFunctional)
    return ([(m, dict(vars(m))) for m in modules.values()]
            + [(c, dict(c.__dict__)) for c in classes])


def _cli_outputs():
    import nc_hopf.cli
    outs = []
    for argv in CLI_ARGVS:
        buf = io.StringIO()
        assert nc_hopf.cli.main(list(argv), out=buf) == 0
        outs.append(buf.getvalue().encode())
    return outs


def test_traced_run_restores_everything_and_changes_no_output():
    before = _snapshot()
    plain = _cli_outputs()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _cli_outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["tensor.delta_nc"] > 0
    assert tracer.calls["coefficients.poly_mul"] > 0
    assert tracer.calls["verify.run_suite"] == 1
    after = _snapshot()
    for (owner, attrs), (_, now) in zip(before, after):
        assert now.keys() == attrs.keys(), owner
        for key, value in attrs.items():
            assert now[key] is value, f"{owner.__name__}.{key} not restored"


def test_cli_bootstrap_prints_what_the_cli_prints():
    out_dir = tempfile.mkdtemp(dir=os.path.join(BENCH, "out"))
    try:
        for argv in CLI_ARGVS[:3]:
            plain = subprocess.run([sys.executable, "-m", "nc_hopf.cli", *argv],
                                   cwd=ROOT, env=run.child_env(),
                                   capture_output=True, timeout=60)
            traced = subprocess.run(
                [sys.executable, os.path.join(BENCH, "cli_boot.py"),
                 os.path.join(out_dir, "x"), *argv],
                cwd=ROOT, env=run.child_env(), capture_output=True, timeout=60)
            assert traced.returncode == plain.returncode == 0
            assert traced.stdout == plain.stdout
            with open(os.path.join(out_dir, "x.json")) as fh:
                assert json.load(fh)["calls"][spans.CLI_MAIN] == 1
            assert spans.read_spans(os.path.join(out_dir, "x.spans"))["names"]
    finally:
        shutil.rmtree(out_dir)


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("NCHOPF_MAX_N", "3")
    env = run.child_env()
    assert not any(k.startswith("NCHOPF_") for k in env)
    assert env["PYTHONPATH"] == SRC


def test_fails_without_the_library_source():
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(BENCH, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "hopf", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)


def test_own_combinatorics_match_known_values():
    assert [W.catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [W.bell(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]
    assert len(W.nc_partitions(tuple(range(6)))) == 132
    assert W.split_count([(1, 4), (2, 3)]) == 3
    assert W.cut_count(((), ((),))) == 6
    assert W.text_coefficient_sum("-m1^2 + 2/3*m2 - 3*m1*m2 + m3") == \
        Fraction(-7, 3)


def test_host_speed_scaling():
    nominal = hostspeed.PROBE_NOMINAL_S
    assert hostspeed.scale([0.2, 0.4], [nominal] * 3) == [0.2, 0.4]
    assert hostspeed.scale([0.2, 0.4], [2 * nominal] * 3) == [0.1, 0.2]
    assert hostspeed.probe() > 0
