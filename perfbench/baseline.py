"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --workloads all \
        [--write perfbench/baseline.json]

For each workload and end-to-end metric it prints the median, the
quartiles and the spread (third minus first quartile over the median,
with ``statistics.quantiles(values, n=4)``), next to the metric's bound
in ``BENCHMARK.json``.  It also runs one traced run per workload.  With
``--write`` it records everything, the environment and every input that
ended wrong, indeterminate or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    issues = [line.split(" ", 1)[1] for line in lines
              if line.split(" ")[1].rstrip(":")
              in ("wrong", "known_wrong", "indeterminate", "error")]
    result = json.loads(lines[-1])
    for line in lines:
        if line.split(" ")[1] == "cli_cold_ms":  # printed, not a bounded metric
            result["cli_cold_ms"] = float(line.split(" ")[2])
    return result, issues


def environment():
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "numba_importable": version("numba") is not None,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--write", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (workloads.WORKLOADS if args.workloads == "all"
             else tuple(args.workloads.split(",")))
    summary = {"environment": environment(), "run_seconds": spec["run_seconds"],
               "workloads": {}}
    for name in names:
        runs, issues = [], []
        for seed in seeds_from(args.seeds):
            result, found = bench(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            issues += [f"seed {seed}: {line}" for line in found]
            print(name, seed, json.dumps({k: round(v["value"], 4)
                                          for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "NOT correct", flush=True)
        traced, found = bench(name, seeds_from(args.seeds)[0], spec["run_seconds"], 1)
        issues += [f"traced seed {seeds_from(args.seeds)[0]}: {line}" for line in found]
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            metrics[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": values}
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {metric:12s} median {med:10.4g}  spread {spread:.3f}  "
                  f"bound {bound}{flag}", flush=True)
        cold = [r["cli_cold_ms"] for r in runs]
        q1, med, q3 = statistics.quantiles(cold, n=4)
        metrics["cli_cold_ms (printed only)"] = {"median": med, "q1": q1, "q3": q3,
                                                 "spread": (q3 - q1) / med, "values": cold}
        attempted = sum(r["attempted"] for r in runs)
        summary["workloads"][name] = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "layers": workloads.LAYERS[name],
            "seeds": seeds_from(args.seeds),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed": seeds_from(args.seeds)[0],
            "attempted": attempted,
            "failed": sum(r["failed"] for r in runs),
            "runs_not_correct": sum(not r["correct"] for r in runs),
            "not_ok_inputs": issues,
        }
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
