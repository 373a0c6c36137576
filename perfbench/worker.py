"""One timed segment of a workload, in a fresh process.

A fresh process per segment means that every segment starts with the
package's ``lru_cache``s empty, exactly like one command-line call.  The
worker imports the package, generates its inputs and warms up; that is
its set-up.  It then runs operations one after another (a closed loop
with one caller) until ``--seconds`` have passed, or exactly ``--ops``
operations when that is given, and prints one JSON line with the
latencies and the checked outcomes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import tempfile
import time

PREFETCH = {"endpoint_sweep": 1000, "certificate_batch": 150, "cutoff_support": 400,
            "outer": 0, "layers": 0}
MAX_LISTED = 40


def warm_up(workload, workdir):
    """Touch the workload's code paths once, with inputs outside its stream."""
    if workload == "endpoint_sweep":
        import workloads
        from defectsum import weyl
        weyl.classify_endpoint_detailed(workloads.build_problem(weyl, ("isq", 2.0)), 1j)
    elif workload == "certificate_batch":
        from defectsum import cli
        path = os.path.join(workdir, "warmup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "dimension": 3, "singularities": [
                {"kind": "point", "position": [0.0, 0.0, 0.0], "coupling": 0.5,
                 "cutoff": 1.0, "perturbation": None}]}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["certify", "--config", path])
    elif workload == "cutoff_support":
        import numpy as np
        from defectsum import support
        grid = support.GridFunction(((0.0, 1.0),), np.ones(4))
        support.check_support_laws(grid, grid)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--started", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import defectsum
    import defectsum.cli
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace_out else None
    workdir = tempfile.mkdtemp(prefix="work-", dir=".perfbench_run")
    try:
        if args.workload == "outer":
            ops = workloads.outer_probe(args.seed, args.ops)
        elif args.workload == "layers":
            ops = workloads.layer_probe(args.seed, workdir, tracer)
        else:
            ops = workloads.stream(args.workload, args.seed, args.part, workdir, tracer)
        prefetched = list(itertools.islice(ops, PREFETCH[args.workload]))
        warm_up(args.workload, workdir)
        if tracer is not None:
            tracer.install()
        setup_s = time.monotonic() - args.started

        latencies, outcomes, listed = [], {}, []
        started = time.perf_counter()
        for i, (label, call, check) in enumerate(itertools.chain(prefetched, ops)):
            if args.ops is not None:
                if i >= args.ops:
                    break
            elif time.perf_counter() - started >= args.seconds:
                break
            if tracer is not None:
                tracer.op = f"{args.part}:{i}"
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # an operation that raises is a failed one
                latencies.append(time.perf_counter() - t0)
                outcome, detail = "error", f"{type(exc).__name__}: {exc}"
            else:
                latencies.append(time.perf_counter() - t0)
                try:
                    outcome, detail = check(result)
                except Exception as exc:  # malformed output or exit code 2
                    outcome, detail = "error", f"{type(exc).__name__}: {exc}"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome != "ok" and len(listed) < MAX_LISTED:
                listed.append({"input": label, "outcome": outcome, "detail": detail})

        cache = None
        channels = defectsum.channels
        cached = (tracer.originals.get("channels.shell_side_classifications")
                  if tracer is not None else getattr(channels, "shell_side_classifications", None))
        if hasattr(cached, "cache_info"):
            info = cached.cache_info()
            cache = {"hits": info.hits, "misses": info.misses}
        if tracer is not None:
            tracer.write(args.trace_out)
        print(json.dumps({
            "setup_s": setup_s, "latencies": latencies,
            "outcomes": outcomes, "listed": listed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "shell_cache": cache,
            "missing_traced": tracer.missing if tracer is not None else [],
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
