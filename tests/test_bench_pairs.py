"""The summary step of tools/bench_pairs.py on canned results; nothing here
runs the benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH_7 = json.loads((ROOT / "BENCH_7.json").read_text())
BENCHMARK = (ROOT / "BENCHMARK.json").read_text()
BETTER = bench_pairs.directions(json.loads(BENCHMARK))


def canned_runs(side: dict) -> list[dict]:
    """Run results, as `bench/run.py` prints them, that a side of a
    committed record summarises."""
    count = len(side["throughput_rps"]["runs"])
    return [{"attempted": side["attempted"] // count,
             "failed": side["failed"] if i == 0 else 0,
             "metrics": {name: {"value": side[name]["runs"][i]}
                         for name in bench_pairs.METRICS}}
            for i in range(count)]


@pytest.mark.parametrize("workload", sorted(BENCH_7["workloads"]))
@pytest.mark.parametrize("side", ["parent", "change"])
def test_summary_reproduces_the_committed_record(workload, side):
    # the committed figures were rounded after the quartiles were taken, so
    # quartiles read from the rounded runs may differ by one unit in the
    # last place
    expected = BENCH_7["workloads"][workload][side]
    summary = bench_pairs.summarize(canned_runs(expected))
    assert list(summary) == list(expected)
    for name, value in expected.items():
        if isinstance(value, dict):
            assert summary[name] == pytest.approx(value, abs=2e-4)
            assert summary[name]["runs"] == value["runs"]
        else:
            assert summary[name] == value


def test_summary_counts_and_quartiles():
    runs = [{"attempted": 10, "failed": f,
             "metrics": {name: {"value": v, "unit": "s"}
                         for name in bench_pairs.METRICS}}
            for f, v in ((0, 4.0), (2, 1.0), (1, 3.0), (0, 2.0))]
    summary = bench_pairs.summarize(runs)
    assert (summary["attempted"], summary["failed"]) == (40, 3)
    assert summary["setup_s"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                  "runs": [4.0, 1.0, 3.0, 2.0]}


def test_pairs_count_wins_by_each_metrics_direction():
    # seed by seed: a higher throughput wins, a higher latency loses, and
    # equal recorded values tie
    def side(rps, p50):
        return [{"attempted": 1, "failed": 0, "metrics": {
            name: {"value": {"throughput_rps": r,
                             "latency_p50_ms": p}.get(name, 1.0)}
            for name in bench_pairs.METRICS}} for r, p in zip(rps, p50)]

    sides = {"parent": side([10, 20, 30, 40], [1.0, 2.0, 3.0, 4.0]),
             "change": side([11, 20, 29, 50], [0.5, 2.0, 3.5, 3.0])}
    pairs = bench_pairs.pair_counts(bench_pairs.summarize(sides["parent"]),
                                    bench_pairs.summarize(sides["change"]),
                                    BETTER)
    assert list(pairs) == list(bench_pairs.METRICS)
    assert pairs["throughput_rps"] == {
        "better": "higher", "won": 2, "lost": 1, "tied": 1,
        "parent_iqr": 15.0}
    assert pairs["latency_p50_ms"] == {
        "better": "lower", "won": 2, "lost": 1, "tied": 1,
        "parent_iqr": 1.5}
    assert pairs["setup_s"] == {
        "better": "lower", "won": 0, "lost": 0, "tied": 4,
        "parent_iqr": 0.0}


def test_pairs_of_the_committed_record():
    # BENCH_7's hopf throughput: the change won all ten pairs
    hopf = BENCH_7["workloads"]["hopf"]
    pairs = bench_pairs.pair_counts(hopf["parent"], hopf["change"], BETTER)
    assert (pairs["throughput_rps"]["won"],
            pairs["throughput_rps"]["lost"]) == (10, 0)
    assert pairs["throughput_rps"]["parent_iqr"] == pytest.approx(
        hopf["parent"]["throughput_rps"]["q3"]
        - hopf["parent"]["throughput_rps"]["q1"])
    assert pairs["peak_rss_mb"]["better"] == "lower"


def test_sides_alternate_which_runs_first():
    calls = []

    def fake(checkout, workload, seed):
        calls.append((checkout, seed))
        return {"seed": seed}

    sides = bench_pairs.pair_runs("P", "C", "hopf", [7, 8, 9], run=fake)
    assert calls == [("P", 7), ("C", 7), ("C", 8), ("P", 8), ("P", 9),
                     ("C", 9)]
    assert [r["seed"] for r in sides["change"]] == [7, 8, 9]


def test_record_adds_a_workload_and_prints_like_the_committed_file():
    hopf = BENCH_7["workloads"]["hopf"]
    sides = {side: [{**run, "commit": "b9beeb0" + "0" * 33,
                     "python": "3.11.7", "nproc": 2}
                    for run in canned_runs(hopf[side])]
             for side in ("parent", "change")}
    old = {**BENCH_7, "workloads": {"cli_cold": BENCH_7["workloads"]["cli_cold"]}}
    traced = {"seed": hopf["seeds"][0], "parent": {"tensor.sp.calls": 44},
              "change": {"tensor.sp.calls": 44}}
    rec = bench_pairs.record(old, "hopf", hopf["seeds"], sides, BETTER,
                             traced)
    assert {k: v for k, v in rec.items() if k != "workloads"} \
        == {k: v for k, v in BENCH_7.items() if k != "workloads"}
    assert list(rec["workloads"]) == ["cli_cold", "hopf"]
    assert rec["workloads"]["hopf"]["seeds"] == hopf["seeds"]
    assert list(rec["workloads"]["hopf"]) == ["seeds", "parent", "change",
                                              "pairs", "traced"]
    assert rec["workloads"]["hopf"]["traced"] == traced
    assert bench_pairs.record_text(BENCH_7) \
        == (ROOT / "BENCH_7.json").read_text()


def committed_checkouts(tmp_path) -> dict[str, Path]:
    """A parent and a change checkout, each a git work tree with one
    commit of the same bench/ code."""
    sides = {}
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "bench").mkdir(parents=True)
        (checkout / "bench" / "run.py").write_text("# same code\n")
        (checkout / "BENCHMARK.json").write_text(BENCHMARK)
        (checkout / side).write_text(side)
        git = ["git", "-C", str(checkout), "-c", "user.name=t",
               "-c", "user.email=t@t"]
        subprocess.run(["git", "init", "-q", str(checkout)], check=True)
        subprocess.run([*git, "add", "."], check=True)
        subprocess.run([*git, "commit", "-q", "-m", side], check=True)
        sides[side] = checkout
    return sides


def test_a_record_against_another_parent_is_refused_before_any_run(
        tmp_path, capsys, monkeypatch):
    # adding a workload to a record of another parent would name one
    # parent commit for runs taken against two
    sides = committed_checkouts(tmp_path)
    parent = bench_pairs.head_commit(sides["parent"])
    assert parent == subprocess.run(
        ["git", "-C", str(sides["parent"]), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=True).stdout.strip()
    out = tmp_path / "BENCH.json"
    out.write_text((ROOT / "BENCH_7.json").read_text())
    argv = ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
            "--workload", "hopf", "--seeds", "1-2", "--out", str(out)]

    def no_run(*args, **kw):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert (f"holds runs against parent commit {BENCH_7['parent_commit']}, "
            f"not {parent[:7]}") in capsys.readouterr().err
    assert out.read_text() == (ROOT / "BENCH_7.json").read_text()

    # the same record, measured against this parent, takes the workload
    out.write_text(bench_pairs.record_text(
        {**BENCH_7, "parent_commit": parent[:7]}))
    meta = {"meta": {"commit": parent, "python": "3.11.7", "nproc": 2}}
    result = {"attempted": 5, "failed": 0,
              "metrics": {name: {"value": 1.0}
                          for name in bench_pairs.METRICS}}
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda argv, **kw: subprocess.CompletedProcess(
            argv, 0, json.dumps(meta) + "\n" + json.dumps(result), ""))
    assert bench_pairs.main(argv) == 0
    rec = json.loads(out.read_text())
    assert rec["parent_commit"] == parent[:7]
    assert rec["workloads"]["hopf"]["seeds"] == [1, 2]
    assert rec["workloads"]["cli_cold"] == BENCH_7["workloads"]["cli_cold"]


def test_a_run_reads_the_last_two_lines(monkeypatch):
    meta = {"meta": {"commit": "abc", "python": "3.11.7", "nproc": 2}}
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"setup_s": {"value": 0.2, "unit": "s"}}}
    stdout = "\n".join(["warming up", json.dumps(meta), json.dumps(result)])
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda argv, **kw: subprocess.CompletedProcess(argv, 0, stdout, ""))
    run = bench_pairs.run_bench(ROOT, "hopf", 3)
    assert run == {**meta["meta"], **result}


def test_seed_lists():
    assert bench_pairs.parse_seeds("401-403") == [401, 402, 403]
    assert bench_pairs.parse_seeds("5,9-10") == [5, 9, 10]


def test_both_sides_run_without_bytecode(tmp_path, monkeypatch):
    # a __pycache__ under one side's src/ once made that side's cold CLI
    # processes read 32 % faster; the tool removes it and writes none
    sides = {}
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "bench").mkdir(parents=True)
        (checkout / "bench" / "run.py").write_text("# same code\n")
        (checkout / "BENCHMARK.json").write_text(BENCHMARK)
        cache = checkout / "src" / "pkg" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "mod.cpython-311.pyc").write_bytes(b"stale")
        (checkout / "src" / "pkg" / "mod.py").write_text("X = 1\n")
        subprocess.run(["git", "init", "-q", str(checkout)], check=True)
        sides[side] = checkout
    (sides["change"] / "src" / "__pycache__").mkdir()
    meta = {"meta": {"commit": "abc" * 14, "python": "3.11.7", "nproc": 2}}
    result = {"attempted": 5, "failed": 0,
              "metrics": {name: {"value": 1.0}
                          for name in bench_pairs.METRICS}}
    envs = []

    def fake_run(argv, cwd, env, **kw):
        assert not list(Path(cwd, "src").rglob("__pycache__"))
        envs.append(env)
        return subprocess.CompletedProcess(
            argv, 0, json.dumps(meta) + "\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]),
                             "--change", str(sides["change"]),
                             "--workload", "hopf", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    # two pairs, then one traced run per side
    assert len(envs) == 6
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in envs)
    for checkout in sides.values():
        assert (checkout / "src" / "pkg" / "mod.py").exists()
    assert json.loads(out.read_text())["workloads"]["hopf"]["seeds"] == [1, 2]


def test_each_side_runs_traced_once_after_the_pairs(tmp_path, monkeypatch):
    # the traced runs give each side's per-layer metrics, which show the
    # layer a saving sits in; the pairs stay untraced
    sides = committed_checkouts(tmp_path)
    calls = []

    def fake_run(argv, cwd, **kw):
        trace = argv[argv.index("--trace") + 1]
        calls.append((Path(cwd).name, argv[argv.index("--seed") + 1], trace))
        meta = {"meta": {"commit": bench_pairs.head_commit(Path(cwd)),
                         "python": "3.11.7", "nproc": 2}}
        if trace == "1":
            self_s = 0.25 if Path(cwd).name == "parent" else 0.125
            metrics = {"tensor.delta_word.self_s": {"value": self_s,
                                                    "unit": "s"},
                       "tensor.delta_word.calls": {"value": 276,
                                                   "unit": "count"}}
        else:
            metrics = {name: {"value": 1.0} for name in bench_pairs.METRICS}
        result = {"attempted": 5, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(
            argv, 0, json.dumps(meta) + "\n" + json.dumps(result), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]),
                             "--change", str(sides["change"]),
                             "--workload", "hopf", "--seeds", "3-4",
                             "--out", str(out)]) == 0
    assert calls == [("parent", "3", "0"), ("change", "3", "0"),
                     ("change", "4", "0"), ("parent", "4", "0"),
                     ("parent", "3", "1"), ("change", "3", "1")]
    hopf = json.loads(out.read_text())["workloads"]["hopf"]
    assert hopf["traced"] == {
        "seed": 3,
        "parent": {"tensor.delta_word.self_s": 0.25,
                   "tensor.delta_word.calls": 276},
        "change": {"tensor.delta_word.self_s": 0.125,
                   "tensor.delta_word.calls": 276}}
    # the traced runs add no request to the pairs' counts
    assert hopf["parent"]["attempted"] == hopf["change"]["attempted"] == 10


def test_a_checkout_outside_git_is_refused_before_any_run(tmp_path, capsys,
                                                         monkeypatch):
    # a `git archive` copy has no .git, so bench/run.py would report its
    # commit as 'unknown' and the record would name no parent
    sides = {}
    for side in ("parent", "change"):
        checkout = tmp_path / side
        (checkout / "bench").mkdir(parents=True)
        (checkout / "bench" / "run.py").write_text("# same code\n")
        sides[side] = checkout
    subprocess.run(["git", "init", "-q", str(sides["change"])], check=True)

    def no_run(*args, **kw):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(sides["parent"]),
                          "--change", str(sides["change"]),
                          "--workload", "hopf", "--seeds", "1-2",
                          "--out", str(out)])
    assert exc.value.code == 2
    assert "is not a git work tree" in capsys.readouterr().err
    assert not out.exists()
