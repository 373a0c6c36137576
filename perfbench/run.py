"""defectsum benchmark: three seeded workloads, checked against a reference.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload endpoint_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Load is one closed-loop caller: each operation starts when the previous
one has ended, in one process at a time.  A run splits ``--seconds``
over ``PARTS`` fresh worker processes, so every segment starts with cold
caches, and set-up is measured ``PARTS`` times.  Every run also times
``CLI_PROBES`` fresh ``defectsum certify`` processes, a share after each
segment, and ``OUTER_PROBES`` outer-endpoint classifications at the end.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same segments run twice, once
untraced and once with spans around the package's public functions
(see ``tracing.py``), and the JSON object carries the per-layer metrics.
Operations whose output disagrees with the reference make ``correct``
false, unless the input lies in a known-defect band (see ``reference.py``);
such known wrong verdicts are still counted in ``wrong_frac`` and listed.
Operations that raise, exit with code 2 or print a traceback are counted
in ``failed``.  Spans are written to ``.perfbench_run/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PARTS = 3
OUTER_PROBES = 2
CLI_PROBES = 21
IMPORT_PROBES = 5
RUN_DIR = ".perfbench_run"
COLD_CONFIG = os.path.join("configs", "single_point_n3.json")
TIMEOUT_S = 170

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "outer_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark exceeded its time limit")
        return left


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, deadline):
    """Run a child to completion; kill it and raise if the deadline passes."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def run_worker(workload, seed, part, deadline, seconds=None, ops=None, trace_out=None):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--part", part]
    if seconds is not None:
        argv += ["--seconds", repr(seconds)]
    if ops is not None:
        argv += ["--ops", str(ops)]
    if trace_out is not None:
        argv += ["--trace-out", trace_out]
    code, out = run_child(argv + ["--started", repr(time.monotonic())], deadline)
    if code != 0:
        raise RuntimeError(f"worker {workload}/{part} exited with code {code}")
    return json.loads(out.strip().splitlines()[-1])


def cli_cold_probe(deadline, count):
    """Wall times and checked outcomes of fresh ``defectsum certify`` processes."""
    with open(COLD_CONFIG, encoding="utf-8") as fh:
        expected = reference.expected_certificate(json.load(fh))
    times, outcomes = [], {}
    for _ in range(count):
        t0 = time.perf_counter()
        code, out = run_child([sys.executable, "-m", "defectsum.cli", "certify",
                               "--config", COLD_CONFIG], deadline)
        times.append(time.perf_counter() - t0)
        try:
            verdict = json.loads(out)["certificate"]["verdict"]
        except (ValueError, KeyError):
            outcome = "error"  # exit code 2, a traceback or no report
        else:
            ok = (code, verdict) == (expected["exit_code"], expected["verdict"])
            outcome = "ok" if ok else "wrong"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return times, {"outcomes": outcomes, "listed": []}


def import_probe(deadline):
    code = ("import time; t = time.perf_counter(); import defectsum.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        rc, out = run_child([sys.executable, "-c", code], deadline)
        if rc != 0:
            raise RuntimeError("import defectsum.cli failed")
        times.append(float(out.strip()))
    return times


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(results):
    counts = {"ok": 0, "wrong": 0, "known_wrong": 0, "indeterminate": 0, "error": 0}
    listed = []
    for r in results:
        for key, value in r["outcomes"].items():
            counts[key] += value
        listed += r["listed"]
    return counts, listed


def end_to_end(workload, seed, seconds, deadline):
    parts, cold, cold_outcomes = [], [], []
    for k in range(PARTS):
        parts.append(run_worker(workload, seed, f"p{k}", deadline, seconds=seconds / PARTS))
        # spread the cold starts over the run rather than sampling one moment
        times, outcomes = cli_cold_probe(deadline, CLI_PROBES // PARTS)
        cold += times
        cold_outcomes.append(outcomes)
    outer = run_worker("outer", seed, "probe", deadline, ops=OUTER_PROBES)
    latencies = [t for r in parts for t in r["latencies"]]
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * quantile(latencies, 50),
        "op_p90_ms": 1e3 * quantile(latencies, 90),
        "outer_ms": 1e3 * statistics.median(outer["latencies"]),
        "setup_s": statistics.median(r["setup_s"] for r in parts),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in parts),
    }
    counts, listed = tally(parts + [outer] + cold_outcomes)
    # printed, not a metric: on a shared 2-CPU x86_64 VM the median cold
    # start drifted by a quarter between runs, too much for any bound
    info = {"cli_cold_ms": f"{1e3 * statistics.median(cold):.6g} ms",
            "op_samples": len(latencies),
            "ops_beyond_p90": sum(t > metrics["op_p90_ms"] / 1e3 for t in latencies)}
    return {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}, \
        counts, listed, info


# ---------------------------------------------------------------------------
# Traced run


def read_spans(path, source):
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    for s in spans:
        s["source"] = source
    return spans


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["source"], s["parent"])
            child[key] = child.get(key, 0.0) + s["end"] - s["start"]
    return {id(s): s["end"] - s["start"] - child.get((s["source"], s["id"]), 0.0)
            for s in spans}


def by_name(spans):
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s)
    return out


def duration_ms(s):
    return 1e3 * (s["end"] - s["start"])


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# per-layer metric -> traced span whose median duration per call it reports
SPAN_MEDIAN_MS = {
    "channels.shell_defect_ms": "channels.shell_defect",
    "channels.point_ms": "channels.point_defect",
    "core.load_config_ms": "core.load_config",
    "core.validate_config_ms": "core.validate_config",
    "decouple.localize_ms": "decouple.localize",
    "partition.verify_cutoff_ms": "partition.verify_cutoff",
    "partition.partition_constants_ms": "partition.partition_constants",
    "partition.build_family_ms": "partition.build_family",
    "bounds.hardy_oracle_ms": "bounds.hardy_oracle_max_ratio",
    "bounds.loc_unif_Lp_ms": "bounds.loc_unif_Lp_check",
    "support.check_laws_ms": "support.check_support_laws",
}
# the same, for the span's self time
SPAN_SELF_MEDIAN_MS = {
    "decouple.aggregate_self_ms": "decouple.aggregate_defect",
    "cli.run_self_ms": "cli.run",
}
WEYL = "weyl.classify_endpoint_detailed"


def per_layer(spans, outer_spans, layer_spans, parts, traced_parts, import_times, missing):
    """Per-layer metrics; one built on a span the package lacks is left out.

    Counts come from the workload's operations alone.  A duration comes
    from them too, unless the workload never calls that function; then it
    comes from the layer probe, so that every duration is a measurement.
    """
    own = self_times(spans + layer_spans)
    named, probe_named = by_name(spans), by_name(layer_spans)

    def calls(name):
        return named.get(name) or probe_named.get(name, [])

    m = {metric: (median_or_zero([duration_ms(s) for s in calls(name)]), "ms")
         for metric, name in SPAN_MEDIAN_MS.items() if name not in missing}
    m.update({metric: (median_or_zero([1e3 * own[id(s)] for s in calls(name)]), "ms")
              for metric, name in SPAN_SELF_MEDIAN_MS.items() if name not in missing})

    if WEYL not in missing:
        weyl = named.get(WEYL, [])
        inner = [s for s in weyl if s["attrs"]["side"] == "inner"]
        timed = inner or [s for s in probe_named.get(WEYL, []) if s["attrs"]["side"] == "inner"]
        windows = [s["attrs"]["windows_used"] for s in inner
                   if s["attrs"]["windows_used"] is not None]
        refined = [s["attrs"]["refined"] for s in inner if s["attrs"]["refined"] is not None]
        m["weyl.calls"] = (len(weyl), "count")
        m["weyl.inner_ms"] = (median_or_zero([duration_ms(s) for s in timed]), "ms")
        m["weyl.outer_ms"] = (median_or_zero([duration_ms(s) for s in outer_spans
                                              if s["name"] == WEYL]), "ms")
        m["weyl.windows_used_mean"] = (statistics.fmean(windows) if windows else 0.0,
                                       "count")
        m["weyl.refined_frac"] = (statistics.fmean(refined) if refined else 0.0, "ratio")
        m["weyl.truncated_frac"] = (statistics.fmean(bool(s["attrs"]["truncated"])
                                                     for s in weyl) if weyl else 0.0, "ratio")

    m["channels.calls"] = (sum(len(v) for k, v in named.items()
                               if k.startswith("channels.")), "count")
    caches = [r["shell_cache"] for r in traced_parts if r["shell_cache"] is not None]
    if caches:
        lookups = sum(c["hits"] + c["misses"] for c in caches)
        m["channels.shell_cache_hit_frac"] = (
            sum(c["hits"] for c in caches) / lookups if lookups else 0.0, "ratio")
    else:
        missing.append("channels.shell_side_classifications.cache_info")
    m["cli.import_ms"] = (1e3 * statistics.median(import_times), "ms")

    lattice = calls("partition.lattice_points")
    m["partition.lattice_points_per_s"] = (
        1e3 * workloads.LATTICE_POINTS * len(lattice) / sum(map(duration_ms, lattice)),
        "1/s")
    if "support.check_support_laws" not in missing:
        m["support.grid_cells"] = (sum(s["attrs"]["cells"] for s in named.get(
            "support.check_support_laws", [])), "count")
    busy = sum(sum(r["latencies"]) for r in parts)
    traced_busy = sum(sum(r["latencies"]) for r in traced_parts)
    m["trace.overhead_frac"] = (traced_busy / busy - 1.0, "ratio")
    return dict(sorted(m.items()))


def traced(workload, seed, seconds, deadline):
    trace_dir = os.path.join(RUN_DIR, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, f"{workload}-seed{seed}")
    parts = [run_worker(workload, seed, f"p{k}", deadline, seconds=seconds / PARTS)
             for k in range(PARTS)]
    traced_parts = [run_worker(workload, seed, f"p{k}", deadline, trace_out=f"{stem}-p{k}.jsonl",
                               ops=len(parts[k]["latencies"]))
                    for k in range(PARTS)]
    outer = run_worker("outer", seed, "probe", deadline, ops=OUTER_PROBES,
                       trace_out=f"{stem}-outer.jsonl")
    layers = run_worker("layers", seed, "probe", deadline, ops=workloads.LAYER_PROBE_OPS,
                        trace_out=f"{stem}-layers.jsonl")
    import_times = import_probe(deadline)

    spans = [s for k in range(PARTS) for s in read_spans(f"{stem}-p{k}.jsonl", k)]
    missing = sorted({name for r in traced_parts + [outer, layers]
                      for name in r["missing_traced"]})
    metrics = per_layer(spans, read_spans(f"{stem}-outer.jsonl", "outer"),
                        read_spans(f"{stem}-layers.jsonl", "layers"),
                        parts, traced_parts, import_times, missing)
    counts, listed = tally(parts + traced_parts + [outer, layers])
    return metrics, counts, listed, {"spans": len(spans), "missing": missing,
                                     "trace_files": f"{stem}-*.jsonl"}


# ---------------------------------------------------------------------------


def run_one(workload, seed, seconds, trace):
    deadline = Deadline(TIMEOUT_S)
    if trace:
        metrics, counts, listed, info = traced(workload, seed, seconds, deadline)
    else:
        metrics, counts, listed, info = end_to_end(workload, seed, seconds, deadline)
    attempted = sum(counts.values())
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    for key, value in info.items():
        print(f"{workload} {key} {value}")
    fracs = {"wrong_frac": counts["wrong"] + counts["known_wrong"],
             "known_wrong_frac": counts["known_wrong"],
             "indeterminate_frac": counts["indeterminate"], "failed_frac": counts["error"]}
    print(f"{workload} attempted {attempted} " + " ".join(
        f"{k} {v / attempted:.6g}" for k, v in fracs.items()))
    for item in listed:
        print(f"{workload} {item['outcome']}: {item['input']} -- {item['detail']}")
    return {
        "correct": counts["wrong"] == 0 and counts["error"] == 0,
        "attempted": attempted,
        "failed": counts["error"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "defectsum", "__init__.py"), COLD_CONFIG):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the root of a defectsum "
                  "source checkout", file=sys.stderr)
            return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, args.trace) for name in names}
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
