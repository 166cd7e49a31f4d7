"""nc-hopf benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {transforms,hopf,cli_cold} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library under test is this tree's ``src/``.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it is the run's metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import hostspeed  # noqa: E402  (siblings of this file)
import spans  # noqa: E402
import workloads as W  # noqa: E402

# Fresh set-ups per run; setup_s is their median.  transforms warms Möbius
# columns for several seconds, so it gets fewer.
SETUP_SAMPLES = {W.TRANSFORMS: 3, W.HOPF: 5, W.CLI_COLD: 5}
# Longest any one worker process may live.
WORKER_DEADLINE_S = 150.0

END_TO_END = (("throughput_rps", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """The environment of every child: no NCHOPF_* caps, this tree's src/
    first on the path, UTF-8 output and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NCHOPF_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill_after(proc, seconds):
    timer = threading.Timer(seconds, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def host_slowdown(workload) -> float:
    """The host's current slowdown against the reference speed, by the
    workload's probe."""
    if workload == W.CLI_COLD:
        times = [hostspeed.process_probe(child_env(), ROOT) for _ in range(5)]
        return statistics.median(times) / hostspeed.PROCESS_PROBE_NOMINAL_S
    times = [hostspeed.probe() for _ in range(2 * hostspeed.WINDOW + 1)]
    return statistics.median(times) / hostspeed.PROBE_NOMINAL_S


def run_worker(workload, mode, seed=0, seconds=1.0, limit=None, spans_path=None):
    """Start bench/worker.py; return (set-up seconds at reference host speed,
    parsed result or None)."""
    slowdown = host_slowdown(workload)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if limit:
        cmd += ["--limit", str(limit)]
    if spans_path:
        cmd += ["--spans", spans_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timer = _kill_after(proc, WORKER_DEADLINE_S)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} failed "
                         f"(exit {proc.returncode}): {ready}{err[-2000:]}")
    _, warm_wall, warm_scaled, path = ready.strip().split(" ", 3)
    _require_under_src(path)
    # start and import scaled by the probes taken just before; the warm-up
    # by the worker's own probes
    setup_s = (setup_s - float(warm_wall)) / slowdown + float(warm_scaled)
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _require_under_src(path):
    if not W.under_src(path):
        raise BenchError(f"nc_hopf resolved to {path}, not under {SRC}")


def setup_samples(workload, count) -> list[float]:
    return [run_worker(workload, "setup")[0] for _ in range(count)]


# ---------------------------------------------------------------------------
# summary statistics


def p90_rank(n: int) -> int:
    """Nearest-rank index of the 90th percentile in a sorted sample."""
    return max(0, math.ceil(0.9 * n) - 1)


def latency_stats(latencies) -> dict:
    ordered = sorted(latencies)
    rank = p90_rank(len(ordered))
    return {"p50": statistics.median(ordered), "p90": ordered[rank],
            "beyond_p90": sum(1 for x in ordered if x > ordered[rank])}


def timings(latencies, failed) -> dict:
    stats = latency_stats(latencies)
    return {"throughput_rps": (len(latencies) - failed) / sum(latencies),
            "latency_p50_ms": stats["p50"] * 1e3,
            "latency_p90_ms": stats["p90"] * 1e3}


def end_to_end(latencies, failed, setups, rss_mb) -> dict:
    values = {**timings(latencies, failed),
              "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def timed_result(r, setups, rss_mb) -> tuple[dict, dict]:
    """End-to-end metrics at reference host speed, plus run counts and the
    unscaled figures for the metadata."""
    scaled = hostspeed.scale(r["latencies"], r["probes"], r["nominal"])
    metrics = end_to_end(scaled, r["failed"], setups, rss_mb)
    info = {**_counts(r), "setup_samples": setups,
            "host_slowdown": statistics.median(r["probes"]) / r["nominal"],
            "unscaled": timings(r["latencies"], r["failed"])}
    return metrics, info


# ---------------------------------------------------------------------------
# in-process workloads


def run_in_process(args) -> tuple[dict, dict]:
    workload = args.workload
    if not args.trace:
        setups = setup_samples(workload, SETUP_SAMPLES[workload] - 1)
        setup_s, r = run_worker(workload, "measure", args.seed, args.seconds,
                                args.requests)
        setups.append(setup_s)
        return timed_result(r, setups, r["peak_rss_mb"])
    _, plain = run_worker(workload, "measure", args.seed, args.seconds,
                          args.requests)
    spans_path = os.path.join(OUT, f"{workload}.spans")
    _, traced = run_worker(workload, "trace", args.seed, args.seconds,
                           args.requests, spans_path)
    layers = traced["layers"]
    sums = layers["sums"]
    metrics = spans.layer_metrics(
        layers,
        unattributed=layers["self_s"].get(spans.REQUEST, 0.0)
        / sums.get("request_s", 1.0),
        overhead=_scaled_wall(traced) / _scaled_wall(plain))
    return _layer_result(metrics), {**_counts(plain, traced),
                                    "spans": os.path.relpath(spans_path, ROOT)}


def _scaled_wall(r) -> float:
    return sum(hostspeed.scale(r["latencies"], r["probes"], r["nominal"]))


def _counts(*passes) -> dict:
    """Run counts over one pass, or over the untraced and traced passes of
    a traced run."""
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    return {"attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted,
            "timeouts": sum(r["timeouts"] for r in passes),
            "errors": [e for r in passes for e in r["errors"]][:5],
            "requests": passes[-1]["attempted"],
            "beyond_p90": latency_stats(passes[-1]["latencies"])["beyond_p90"]}


def _layer_result(values) -> dict:
    units = {name: unit for name, unit, _ in spans.per_layer_metrics()}
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


# ---------------------------------------------------------------------------
# cli_cold


def cli_requests(args, workdir) -> list[tuple]:
    """The run's CLI requests with their input files written to ``workdir``;
    each entry is (argv, key), the key naming the request's content."""
    out = []
    for index, (_, argv, files) in enumerate(
            W.requests(W.CLI_COLD, args.seed, args.seconds, args.requests)):
        key = (argv, tuple(sorted(files.items())))
        paths = {}
        for name, text in files.items():
            path = os.path.join(workdir, f"{index}-{name}")
            with open(path, "w") as fh:
                fh.write(text)
            paths["@" + name] = os.path.relpath(path, ROOT)
        out.append((tuple(paths.get(a, a) for a in argv), key))
    return out


def cli_references(reqs) -> dict:
    """Reference stdout for each distinct request, from an in-process call of
    the CLI entry point; None where the reference itself is wrong."""
    sys.path.insert(0, SRC)
    import nc_hopf.cli
    _require_under_src(nc_hopf.cli.__file__)
    refs = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv, key in reqs:
            if key in refs:
                continue
            buf = io.StringIO()
            with redirect_stderr(io.StringIO()):
                code = nc_hopf.cli.main(list(argv), out=buf)
            text = buf.getvalue()
            good = code == 0 and W.check_cli_reference(argv, text)
            refs[key] = text.encode("utf-8") if good else None
    finally:
        os.chdir(cwd)
    return refs


def run_cli(reqs, refs, traced_dir=None) -> dict:
    """Closed loop of fresh CLI processes, one at a time.  With
    ``traced_dir`` each process starts through bench/cli_boot.py."""
    latencies, failed_at, timeouts, errors, summaries = [], [], 0, [], []
    root_s = 0.0
    probe_times = [hostspeed.process_probe(child_env(), ROOT)]
    for index, (argv, key) in enumerate(reqs):
        if traced_dir is None:
            cmd = [sys.executable, "-m", "nc_hopf.cli", *argv]
        else:
            prefix = os.path.join(traced_dir, str(index))
            cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"),
                   prefix, *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  capture_output=True,
                                  timeout=W.BUDGET_S[W.CLI_COLD])
            elapsed = time.perf_counter() - start
            ok = proc.returncode == 0 and proc.stdout == refs[key]
            if refs[key] is None:
                errors.append(f"{' '.join(argv)}: reference failed its check")
            elif not ok:
                errors.append(f"{' '.join(argv)}: exit {proc.returncode}, "
                              f"{proc.stderr.decode(errors='replace')[-200:]}")
        except subprocess.TimeoutExpired:
            ok = False
            timeouts += 1
            errors.append(f"timeout: {' '.join(argv)}")
        if ok and traced_dir is not None:
            with open(prefix + ".json") as fh:
                summary = json.load(fh)
            summaries.append(summary)
            root_s += summary["sums"].get("root_s", 0.0)
        if not ok:
            failed_at.append(index)
            elapsed = W.BUDGET_S[W.CLI_COLD]
        latencies.append(elapsed)
        probe_times.append(hostspeed.process_probe(child_env(), ROOT))
    return {"latencies": latencies, "probes": probe_times,
            "nominal": hostspeed.PROCESS_PROBE_NOMINAL_S,
            "attempted": len(reqs),
            "failed": len(failed_at), "failed_at": failed_at,
            "timeouts": timeouts, "errors": errors[:5],
            "summaries": summaries, "root_s": root_s}


def run_cli_workload(args) -> tuple[dict, dict]:
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        reqs = cli_requests(args, workdir)
        refs = cli_references(reqs)
        if not args.trace:
            setups = setup_samples(W.CLI_COLD, SETUP_SAMPLES[W.CLI_COLD])
            r = run_cli(reqs, refs)
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            return timed_result(r, setups, rss_mb)
        plain = run_cli(reqs, refs)
        traced_dir = os.path.join(OUT, "cli_cold-trace")
        shutil.rmtree(traced_dir, ignore_errors=True)
        os.makedirs(traced_dir)
        traced = run_cli(reqs, refs, traced_dir)
        layers = spans.merge(traced["summaries"])
        wall = sum(traced["latencies"])
        metrics = spans.layer_metrics(
            layers, unattributed=(wall - traced["root_s"]) / wall,
            overhead=_scaled_wall(traced) / _scaled_wall(plain),
            import_s=layers["self_s"].get(spans.CLI_IMPORT, 0.0))
        return _layer_result(metrics), {
            **_counts(plain, traced),
            "spans": os.path.relpath(traced_dir, ROOT)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read from .git; 'unknown' when
    the tree is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="cap the requests per run (smoke runs)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nc_hopf", "__init__.py")):
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("NCHOPF_")]:
        del os.environ[key]
    os.makedirs(OUT, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    hostspeed.pin_to_one_cpu()
    try:
        # untimed: compiles and caches the library's bytecode
        setup_samples(W.CLI_COLD, 1)
        if args.workload == W.CLI_COLD:
            metrics, info = run_cli_workload(args)
        else:
            metrics, info = run_in_process(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": sys.version.split()[0],
            "nproc": nproc,
            "commit": git_commit(),
            "decks": W.decks_for(args.workload, args.seconds), **info}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": info["failed"] == 0,
                      "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
