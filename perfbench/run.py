#!/usr/bin/env python3
"""Repository benchmark: build the library and the benchmark program
from source, run one workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload figures|stap|tenants --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout. The build goes to .bench_build/.
Every line but the last is diagnostic; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. The line before it is a report with
the effective configuration, the modeled digest, the tail percentile
used, paper_err_pct, failed_frac and the tracing overhead.

Exit status: 0 after a completed run (whatever its checks found), 1 when
the build or the benchmark program fails, 2 on bad arguments.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170

# Percentiles the tail latency may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# Span metrics: name in BENCHMARK.json -> (span name, scale from ns).
SPAN_METRICS = {
    "apps.stap_host.ms": ("apps.stap_host", 1e-6),
    "apps.stap_mealib.ms": ("apps.stap_mealib", 1e-6),
    "apps.fft_loop.ms": ("apps.fft_loop", 1e-6),
    "apps.sar_chain.ms": ("apps.sar_chain", 1e-6),
    "apps.cg_mealib.ms": ("apps.cg_mealib", 1e-6),
    "mealib.evaluate_op.ms": ("mealib.evaluate_op", 1e-6),
    "accel.estimate.ms": ("accel.estimate", 1e-6),
    "dispatch.call.us": ("dispatch.call", 1e-3),
    "session.bind.us": ("session.bind", 1e-3),
}

RUNTIME_COUNTERS = (
    "runtime.flush_bytes_elided",
    "runtime.verify_bytes_elided",
    "runtime.plan_image_reuses",
    "runtime.fused_programs",
    "runtime.checkpoints",
    "runtime.makespan_s",
)
LEDGER_COUNTERS = tuple(
    "ledger.%s_%s" % (track, unit)
    for track in ("host", "accel", "invocation", "integrity")
    for unit in ("s", "j"))
PROBES = (
    "minimkl.cherk.gflops",
    "minimkl.ctrsm.gflops",
    "minimkl.cdotc.ns",
    "minimkl.saxpby.gbps",
    "minimkl.sdot.gbps",
    "minimkl.csrmv.gbps",
    "minimkl.fft.gflops",
    "dispatch.cdotc.overhead_ns",
    "dram.build.ns_per_req",
    "dram.run.ns_per_req",
    "dram.row_hit_rate",
)
FALLBACK_REASONS = ("no_backend", "unsupported", "unmappable",
                    "backend_error")


def tail_percentile(values):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    above its nearest-rank position. Returns (percentile, value,
    samples beyond); with too few samples, the maximum as p100."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        # Nearest rank ceil(p/100 * n), in integers to avoid rounding up
        # 99.9% of 10000 to 9991.
        rank = (round(p * 10) * n + 999) // 1000
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def self_times(spans):
    """Self time of each span: its duration minus the part of it that
    its child spans cover. A span is [name, start, end, parent, unit];
    parent indexes the same list, -1 for a root."""
    children = collections.defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(end - start - covered)
    return out


def span_medians(doc):
    """Median self time of each span name, in ns."""
    spans = doc["spans"]["list"]
    names = doc["spans"]["names"]
    by_name = collections.defaultdict(list)
    for s, t in zip(spans, self_times(spans)):
        by_name[names[s[0]]].append(t)
    return {name: statistics.median(ts) for name, ts in by_name.items()}


def phase_counts(phase):
    ok = sum(phase["unit_ok"])
    units = len(phase["unit_ok"])
    attempted = units + phase["probes"]
    failed = units - ok + phase["probes_failed"]
    return ok, attempted, failed


def units_per_s(phase):
    return phase_counts(phase)[0] / phase["seconds"]


def end_to_end(doc):
    phase = doc["phases"][0]
    ms = phase["unit_ms"]
    pct, tail, beyond = tail_percentile(ms)
    metrics = {
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "units_per_s": (units_per_s(phase), "1/s"),
        "unit_p50_ms": (statistics.median(ms), "ms"),
        "unit_tail_ms": (tail, "ms"),
        "modeled_s": (doc["modeled"]["s"], "sim_s"),
        "modeled_j": (doc["modeled"]["j"], "J"),
        "peak_rss_mib": (doc["peak_rss_kib"] / 1024.0, "MiB"),
    }
    tail_info = {"percentile": pct, "samples": len(ms),
                 "samples_beyond": beyond}
    return metrics, tail_info


def per_layer(doc):
    untraced, traced = doc["phases"][0], doc["phases"][1]
    spans = span_medians(doc)
    m = {}
    for metric, (span, scale) in SPAN_METRICS.items():
        m[metric] = spans.get(span, 0.0) * scale

    keys = [k for k in traced["model_inputs"] if k]
    repeats = len(keys) - len(set(keys))
    m["accel.estimate.repeat_frac"] = repeats / len(keys) if keys else 0.0

    for name in PROBES:
        m[name] = doc["probes"][name]

    one_client = [p for p in doc["phases"][2:] if p["clients"] == 1]
    if one_client and untraced["clients"] > 1:
        m["runtime.scaling_eff"] = units_per_s(untraced) / (
            untraced["clients"] * units_per_s(one_client[0]))
    else:
        m["runtime.scaling_eff"] = 0.0
    waits = [1.0 - solo / ms
             for ms, solo in zip(untraced["unit_ms"], untraced["solo_ms"])
             if solo > 0.0]
    m["runtime.wait_frac"] = statistics.median(waits) if waits else 0.0

    counters = traced["counters"]
    for name in RUNTIME_COUNTERS + LEDGER_COUNTERS:
        vals = [c[name] for c in counters if name in c]
        m[name] = statistics.median(vals) if vals else 0.0

    disp = traced["dispatch"]
    m["dispatch.offload_ratio"] = (disp["offloaded"] / disp["calls"]
                                   if disp["calls"] else 0.0)
    for reason in FALLBACK_REASONS:
        m["dispatch.fallbacks." + reason] = (
            disp["fallbacks"][reason] / traced["passes"])

    m["trace.untraced_units_per_s"] = units_per_s(untraced)
    m["trace.traced_units_per_s"] = units_per_s(traced)
    m["trace.overhead_frac"] = 1.0 - units_per_s(traced) / units_per_s(
        untraced)
    return m


def paper_err_pct(doc):
    ratios = doc["paper"]
    if not ratios:
        return None
    return 100.0 * statistics.mean(
        abs(r["ours"] / r["paper"] - 1.0) for r in ratios)


def summarize(doc, trace, layer_units):
    """Returns (report, final line object)."""
    attempted = failed = 0
    measured = doc["phases"] if trace else doc["phases"][:1]
    for phase in measured:
        _, a, f = phase_counts(phase)
        attempted += a
        failed += f
    correct = doc["failure_count"] == 0 and all(
        all(p["unit_ok"]) for p in doc["phases"])

    e2e, tail_info = end_to_end(doc)
    report = {
        "workload": doc["workload"],
        "seed": doc["seed"],
        "config": doc["config"],
        "modeled_digest": doc["modeled"]["digest"],
        "unit_tail": tail_info,
        "paper_err_pct": paper_err_pct(doc),
        "paper_ratios": doc["paper"],
        "failed_frac": failed / attempted,
        "failures": doc["failures"],
        "phases": [{"traced": p["traced"], "clients": p["clients"],
                    "seconds": p["seconds"], "passes": p["passes"],
                    "units_per_s": units_per_s(p)}
                   for p in doc["phases"]],
    }
    if trace:
        values = per_layer(doc)
        metrics = {k: {"value": values[k], "unit": layer_units[k]}
                   for k in layer_units}
        report["end_to_end_of_traced_run"] = {k: v[0]
                                              for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    return report, final


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src; run from the "
                 "root of a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("figures", "stap", "tenants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [0, 3600]")

    build()
    units = layer_units()
    # The library reads MEALIB_* knobs from the environment; the
    # benchmark runs the defaults it states in its report.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MEALIB_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark program exceeded %d s"
                 % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark program exited with %d"
                 % proc.returncode)
    doc = json.loads(proc.stdout)
    report, final = summarize(doc, args.trace == 1, units)
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
