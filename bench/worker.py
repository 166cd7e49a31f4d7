"""One fresh interpreter doing one benchmark role, started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` imports the library, warms it up and exits; ``measure`` and
``trace`` then run the workload's requests, one at a time, and print one JSON
line of results.  ``trace`` wraps the library layers before the warm-up, so
that set-up work shows in the layer figures too.

The first line printed is ``ready <warm-up wall s> <warm-up s at reference
host speed> <path of nc_hopf/__init__.py>``, at the moment set-up ends;
run.py times set-up from process start to that line.
"""

import sys
import time


def _import_library(workload: str):
    if workload == "cli_cold":
        import nc_hopf.cli  # noqa: F401  (the CLI's own import cost)
    import nc_hopf
    import workloads
    if not workloads.under_src(nc_hopf.__file__):
        sys.exit(f"nc_hopf imported from {nc_hopf.__file__}, "
                 f"not from {workloads.SRC}")
    return nc_hopf.__file__


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout()


def run_requests(requests, execute, check, budget_s, tracer=None):
    """Closed loop, one request in flight: time each request, then check its
    response outside the timed interval, then run the host-speed probe.  A
    request that raises, exceeds ``budget_s`` or fails its check counts as
    failed, with the budget as its latency."""
    import signal

    from hostspeed import PROBE_NOMINAL_S, probe
    from spans import REQUEST

    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, failed_at, timeouts, errors = [], [], 0, []
    probe_times = [probe()]
    for index, req in enumerate(requests):
        ok = False
        frame = None
        try:
            if tracer is not None:
                tracer.request = index
                frame = tracer.open(REQUEST)
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            start = time.perf_counter()
            try:
                resp = execute(req)
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                if frame is not None:
                    tracer.add("request_s", tracer.close(frame))
            if tracer is not None:
                tracer.paused = True
            ok = check(req, resp)
            if not ok:
                errors.append(f"wrong response to {req[0]} #{index}")
        except RequestTimeout:
            timeouts += 1
            errors.append(f"timeout on {req[0]} #{index}")
        except Exception as exc:  # a failed request; the run goes on
            errors.append(f"{type(exc).__name__} on {req[0]} #{index}: {exc}")
        finally:
            if tracer is not None:
                tracer.paused = False
                tracer.request = -1
        if not ok:
            failed_at.append(index)
            elapsed = budget_s
        latencies.append(elapsed)
        probe_times.append(probe())
    return {"latencies": latencies, "probes": probe_times,
            "nominal": PROBE_NOMINAL_S, "attempted": len(requests),
            "failed": len(failed_at), "failed_at": failed_at,
            "timeouts": timeouts, "errors": errors[:5]}


def warm_up(workloads, workload) -> tuple[float, float]:
    """Run the warm-up requests with a probe after each; return the loop's
    wall time and the requests' time at reference host speed."""
    import hostspeed

    probe_times, latencies = [hostspeed.probe()], []
    start = time.perf_counter()
    for req in workloads.warmup_requests(workload):
        begin = time.perf_counter()
        workloads.execute(req)
        latencies.append(time.perf_counter() - begin)
        probe_times.append(hostspeed.probe())
    wall = time.perf_counter() - start
    return wall, sum(hostspeed.scale(latencies, probe_times))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"],
                        default="setup")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
    path = _import_library(args.workload)
    import workloads
    if tracer is not None:
        tracer.install()
    warm_wall, warm_scaled = warm_up(workloads, args.workload)
    print("ready", warm_wall, warm_scaled, path, flush=True)
    if args.mode == "setup":
        return 0

    import json
    import resource

    reqs = workloads.requests(args.workload, args.seed, args.seconds,
                              args.limit)
    result = run_requests(reqs, workloads.execute, workloads.check,
                          workloads.BUDGET_S[args.workload], tracer)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
