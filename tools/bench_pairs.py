"""Paired benchmark runs of a change against its parent, summarised into a
``BENCH_<n>.json`` record.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload hopf --seeds 401-410 --out BENCH_9.json

Both arguments are checkouts (the parent's and the change's).  For each seed
the tool runs each checkout's own ``bench/run.py`` once with ``--trace 0``,
alternating which side goes first, and refuses to start unless the two
``bench/`` trees hold the same code and each checkout is a git work tree
(``git clone``, not ``git archive``), whose commit the record names.  Both sides run in the same bytecode
state: the tool deletes every ``__pycache__`` under each checkout's ``src/``
and runs every child with ``PYTHONDONTWRITEBYTECODE=1``, so each process
compiles the library from source.  The record gives, per workload and per
side, the summed attempted and failed request counts and, for each
end-to-end metric, the median, the quartiles and every run in seed order.
Under ``pairs`` it gives, per metric, the direction ``BENCHMARK.json`` calls
better, how many seeds' pairs the change won, lost and tied, and the
parent's q3 - q1, all read from the recorded runs, so a claimed gain can be
checked from the record alone.
Running the tool again with another ``--workload`` and the same ``--out``
adds that workload to the record (or replaces it); it refuses, before any
run, a record that names another parent commit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s",
           "peak_rss_mb")
RUN_SECONDS = 15
WHAT = ("End-to-end benchmark figures of this change against its parent "
        "commit {parent}. Runs alternate parent and change, one pair per "
        "seed, with identical bench/ code; each metric gives the median, the "
        "quartiles and every run in seed order.")


def parse_seeds(text: str) -> list[int]:
    """``401-405`` or ``1,4,9`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def bench_code(checkout: Path) -> dict[str, bytes]:
    bench = checkout / "bench"
    return {p.relative_to(bench).as_posix(): p.read_bytes()
            for p in sorted(bench.rglob("*.py"))}


def is_git_checkout(checkout: Path) -> bool:
    """Whether ``bench/run.py`` can read the commit of ``checkout``: it
    reads ``.git/HEAD`` at the checkout's root, and reports ``unknown``
    where there is none."""
    return (checkout / ".git" / "HEAD").is_file()


def head_commit(checkout: Path) -> str:
    """The commit at HEAD of a git work tree, read from ``.git`` as
    ``bench/run.py`` reads it; ``unknown`` when HEAD names no commit."""
    git = checkout / ".git"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def clean_bytecode(checkout: Path):
    """Delete the compiled modules under ``src/``: a side that kept them
    would skip compiling the library in every fresh process."""
    for cache in sorted((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run: its meta fields and its result line.  No
    process of the run writes bytecode, so it leaves the state it found."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {checkout}: "
                         f"{done.stderr.strip()}")
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(meta_line)["meta"], **json.loads(result_line)}


def summarize(runs: list[dict]) -> dict:
    """Failed and attempted counts summed over the runs, and per metric the
    median, the inclusive quartiles and the runs in order, to 4 places."""
    out = {"failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs)}
    for name in METRICS:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": round(median, 4), "q1": round(q1, 4),
                     "q3": round(q3, 4),
                     "runs": [round(v, 4) for v in values]}
    return out


def directions(benchmark: dict) -> dict[str, str]:
    """``better`` (``higher`` or ``lower``) of each end-to-end metric of a
    ``BENCHMARK.json``."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def pair_counts(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per metric, from two sides' summaries: the change's won, lost and
    tied pairs, seed by seed, and the parent's q3 - q1."""
    out = {}
    for name in METRICS:
        sign = 1 if better[name] == "higher" else -1
        diffs = [sign * (c - p) for p, c in zip(parent[name]["runs"],
                                                change[name]["runs"])]
        out[name] = {
            "better": better[name],
            "won": sum(d > 0 for d in diffs),
            "lost": sum(d < 0 for d in diffs),
            "tied": sum(d == 0 for d in diffs),
            "parent_iqr": round(parent[name]["q3"] - parent[name]["q1"], 4)}
    return out


def pair_runs(parent: Path, change: Path, workload: str, seeds: list[int],
              run=run_bench) -> dict:
    """One run per side and seed, the parent first on even positions."""
    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            sides[side].append(run(checkout, workload, seed))
    return sides


def record(old: dict, workload: str, seeds: list[int], sides: dict,
           better: dict[str, str]) -> dict:
    """``old`` (a record or ``{}``) with this workload's figures set;
    ``better`` is each metric's direction, as ``directions`` reads it."""
    first = sides["parent"][0]
    parent_commit = first["commit"][:7]
    out = {"what": WHAT.format(parent=parent_commit),
           "command": (f"python3 bench/run.py --workload W --seed S "
                       f"--seconds {RUN_SECONDS} --trace 0"),
           "python": first["python"], "nproc": first["nproc"],
           "parent_commit": parent_commit,
           "workloads": dict(old.get("workloads", {}))}
    summaries = {side: summarize(runs) for side, runs in sides.items()}
    out["workloads"][workload] = {
        "seeds": seeds, **summaries,
        "pairs": pair_counts(summaries["parent"], summaries["change"], better)}
    return out


def record_text(rec: dict) -> str:
    """The record as indented JSON with each list of numbers on one line."""
    text = json.dumps(rec, indent=1)
    return re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(
                      v.strip() for v in m.group(1).split(",")) + "]",
                  text) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    for checkout in (args.parent, args.change):
        if not is_git_checkout(checkout):
            parser.error(f"{checkout} is not a git work tree, so its runs "
                         f"would record the commit 'unknown'")
    if bench_code(args.parent) != bench_code(args.change):
        parser.error("the two checkouts hold different bench/ code")
    old = json.loads(args.out.read_text()) if args.out.exists() else {}
    parent_commit = head_commit(args.parent)[:7]
    if old and old["parent_commit"] != parent_commit:
        parser.error(f"{args.out} holds runs against parent commit "
                     f"{old['parent_commit']}, not {parent_commit}")
    better = directions(json.loads(
        (args.change / "BENCHMARK.json").read_text()))
    for checkout in (args.parent, args.change):
        clean_bytecode(checkout)
    sides = pair_runs(args.parent, args.change, args.workload, args.seeds)
    new = record(old, args.workload, args.seeds, sides, better)
    args.out.write_text(record_text(new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
