#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source, runs one workload
for a fixed window, checks every operation, and prints the metrics.

    python3 perfbench/run.py --workload bh-sim-dpa --seed 1 --seconds 25 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(see perfbench/README.md). The line before it carries run diagnostics (host
CPU count and model, hypervisor steal during the window). The workloads
and the metric names and units come from BENCHMARK.json. The driver
(perfbench/driver.cpp) only measures and checks; the statistics live here
so that test_run.py can cover them.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
DRIVER_GRACE_S = 140  # set-up, warm-up and the last operation after the window
TAIL_SAMPLES_BEYOND = 10

# Calibration probe time on the reference host, in seconds. End-to-end times
# are reported in reference seconds: a host time multiplied by this over
# the calibration probe time measured next to it (see perfbench/README.md).
REF_CALIB_S = 0.010


def load_spec():
    """BENCHMARK.json at the repository root: workloads and metrics."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def units(spec, kind):
    """{metric name: unit} of the "end_to_end" or "per_layer" list."""
    return {m["name"]: m["unit"] for m in spec[kind]}


# ------------------------------------------------------------------ math

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    """num/den, or 0.0 when the base is zero (the layer did no such work)."""
    return num / den if den else 0.0


def tail_percentile(samples):
    """The highest whole percentile of `samples` that has at least ten
    samples beyond it, as (percentile, nearest-rank value).

    With N samples that is p = floor(100 * (N - 10) / N) and the value of
    rank ceil(p * N / 100), which leaves N - rank >= 10 samples above it.
    Fewer than 20 samples cannot give ten beyond the median; the median is
    returned then, with its percentile (50).
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 50, 0.0
    pct = (100 * (n - TAIL_SAMPLES_BEYOND)) // n
    if pct < 50:
        return 50, median(xs)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1]


def to_reference(host_s, calib_s):
    """A host time in reference seconds: scaled by how much faster the
    reference host ran the calibration probe than this host did alongside."""
    return host_s * ratio(REF_CALIB_S, calib_s)


# ------------------------------------------------------------- metrics

# Per-operation counters the program publishes into an obs::Session,
# reported per traced operation (see input_mean) under the benchmark's
# layer names.
COUNTERS = {
    "runtime.refs_requested": "rt.refs_requested",
    "runtime.request_msgs": "rt.request_msgs",
    "runtime.tiles_run": "rt.tiles_run",
    "runtime.threads_run": "rt.threads_run",
    "runtime.dup_refs_avoided": "rt.dup_refs_avoided",
    "runtime.cache_hits": "rt.cache_hits",
    "runtime.cache_misses": "rt.cache_misses",
    "sim.events": "sim.events",
    "sim.net_messages": "net.messages",
    "sim.net_bytes": "net.bytes",
    "fm.msgs_sent": "fm.msgs_sent",
    "fm.bytes_sent": "fm.bytes_sent",
    "exec.tasks": "exec.tasks",
    "exec.activations": "exec.activations",
    "exec.steals": "exec.steals",
    "exec.parks": "exec.parks",
    "exec.trains": "exec.trains",
    "transport.wire_frames_sent": "transport.wire_frames_sent",
    "transport.wire_frames_recv": "transport.wire_frames_recv",
    "transport.wire_bytes_sent": "transport.wire_bytes_sent",
    "transport.wire_payloads_recv": "transport.wire_payloads_recv",
    "transport.wire_retries": "transport.wire_retries",
}


def measured_ops(records):
    """Successful operations inside the window (warm-ups and failures
    contribute no timing)."""
    return [op for op in records["ops"] if op["ok"] and not op["warmup"]]


def end_to_end_metrics(records, ops):
    """Times in reference seconds, each operation scaled by the
    calibration probe run right after it."""
    wall = [to_reference(op["wall_s"], op["calib_s"]) for op in ops]
    _, tail = tail_percentile(wall)
    # Every cell keeps one operation in flight, so the cells together work
    # at `cells` times the rate of one operation; the median rate keeps a
    # few operations stalled by the host from swaying it (solve_s.tail
    # reports those).
    rates = [ratio(op["work"], w) for op, w in zip(ops, wall)]
    return {
        "work_per_s": records["cells"] * median(rates),
        "solve_s": median(wall),
        "solve_s.tail": tail,
        "cpu_s": median([to_reference(op["cpu_s"], op["calib_s"])
                         for op in ops]),
        "setup_s": median([to_reference(s, c) for s, c in
                           zip(records["setup_s"], records["setup_calib_s"])]),
        "peak_rss_mb": records["peak_rss_mb"],
    }


def per_layer_metrics(records, ops):
    """Counts per traced operation and host times in plain seconds."""
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    by_input = {}
    for op in traced:
        by_input.setdefault(op["input"], []).append(op)

    def input_mean(value):
        """Mean over inputs, in input order, of each input's median per
        traced operation. On a deterministic backend each input's value
        repeats exactly, so this repeats bit for bit for a given seed
        whatever mix of inputs the window traced."""
        medians = [median([value(op) for op in by_input[k]])
                   for k in sorted(by_input)]
        return ratio(sum(medians), len(medians))

    def per_op(src):
        return input_mean(lambda op: op.get("layer", {}).get(src, 0.0))

    def med(src):
        return median([op.get("layer", {}).get(src, 0.0) for op in traced])

    m = {name: per_op(src) for name, src in COUNTERS.items()}
    work = input_mean(lambda op: op["work"])
    m["apps.work"] = work
    m["apps.seq_s"] = med("apps.seq_s")
    m["apps.tree_s"] = med("apps.tree_s")
    m["apps.place_s"] = med("apps.place_s")
    m["apps.build_s"] = median(records["build_s"])

    m["runtime.agg_refs_per_msg"] = ratio(per_op("rt.refs_requested"),
                                          per_op("rt.request_msgs"))
    m["runtime.threads_per_tile"] = ratio(per_op("rt.threads_run"),
                                          per_op("rt.tiles_run"))
    hits, misses = per_op("rt.cache_hits"), per_op("rt.cache_misses")
    m["runtime.cache_hit_frac"] = ratio(hits, hits + misses)
    for part in ("compute", "overhead", "comm", "idle"):
        m["runtime.model_%s_s" % part] = per_op("model.%s_s" % part)

    traced_solve = median([op["wall_s"] for op in traced])
    plain_solve = median([op["wall_s"] for op in plain])
    # Derived: host time of an untraced run() spent neither in the kernel
    # (run_sequential(), which builds the tree and its centres of mass
    # itself) nor in cost zones and materialization.
    m["runtime.overhead_s"] = plain_solve - m["apps.seq_s"] - m["apps.place_s"]

    # Modeled T3D seconds exist only on the simulator.
    is_sim = records["backend"] == "sim"
    m["sim.model_s"] = input_mean(lambda op: op["model_s"]) if is_sim else 0.0
    m["sim.events_per_s"] = (ratio(sum(op["events"] for op in plain),
                                   sum(op["wall_s"] for op in plain))
                             if is_sim else 0.0)

    m["fm.bytes_per_msg"] = ratio(per_op("fm.bytes_sent"),
                                  per_op("fm.msgs_sent"))
    m["fm.bytes_per_work"] = ratio(per_op("fm.bytes_sent"), work)

    m["exec.tasks_per_activation"] = ratio(per_op("exec.tasks"),
                                           per_op("exec.activations"))
    # Histogram summaries come from the driver (Pow2Histogram bounds and
    # bucket-midpoint estimates), merged over the traced operations.
    hists = records["histograms"]

    def hist(name, field):
        return float(hists.get(name, {}).get(field, 0.0))

    for name in ("exec.task_service_ns", "exec.mailbox_wait_ns"):
        m[name + ".p50"] = hist(name, "p50")
        m[name + ".p99"] = hist(name, "p99")
    m["exec.park_ns.sum"] = ratio(hist("exec.park_ns", "sum"), len(traced))
    m["exec.train_occupancy.mean"] = hist("exec.train_occupancy", "mean")

    m["transport.payloads_per_frame"] = ratio(
        per_op("transport.wire_payloads_recv"),
        per_op("transport.wire_frames_recv"))
    m["transport.wire_bytes_per_work"] = ratio(
        per_op("transport.wire_bytes_sent"), work)

    m["trace.solve_s"] = traced_solve
    m["trace.overhead_frac"] = ratio(traced_solve, plain_solve) - 1.0
    m["host.solve_s"] = plain_solve
    m["host.calib_s"] = median([op["calib_s"] for op in ops])
    return m


def summarize(records, trace, spec):
    """The result object the benchmark prints as its last line."""
    ops = records["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    good = measured_ops(records)
    if trace:
        values = per_layer_metrics(records, good)
        catalogue = units(spec, "per_layer")
    else:
        values = end_to_end_metrics(records, good)
        catalogue = units(spec, "end_to_end")
    return {
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in catalogue.items()},
    }


def diagnostics(records):
    ops = measured_ops(records)
    pct, _ = tail_percentile([op["wall_s"] for op in ops])
    failures = sorted({op.get("why", "") for op in records["ops"]
                       if not op["ok"]})
    return {
        "workload": records["workload"],
        "backend": records["backend"],
        "seed": records["seed"],
        "nproc": records["nproc"],
        "cpu_model": records["cpu_model"],
        "host.steal_frac": records["steal_frac"],
        "host.calib_s": median([op["calib_s"] for op in ops]),
        "host.solve_s": median([op["wall_s"] for op in ops]),
        "cells": records["cells"],
        "inputs": records["inputs"],
        "window_s": records["window_s"],
        "samples": len(ops),
        "tail_percentile": pct,
        "failures": failures,
    }


# ------------------------------------------------------- build and run

def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_checked(cmd, timeout):
    """Runs cmd in its own process group with stdout sent to our stderr;
    on timeout the whole group is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if rc != 0:
        fail("failed (exit %d): %s" % (rc, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources to build: %s/src/CMakeLists.txt is missing" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(out)
    if not os.path.isfile(cache):
        run_checked([cmake, "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_checked([cmake, "--build", out, "--target", "perfbench_driver",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench_driver")


def run_driver(exe, args):
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        trace_out = os.path.join(build_dir(), "trace-%s-seed%d.json" %
                                 (args.workload, args.seed))
        cmd.append("--trace-out=" + trace_out)
        print("perfbench: span trace -> " + trace_out, file=sys.stderr)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + DRIVER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("driver timed out")
    if proc.returncode != 0:
        fail("driver failed (exit %d)" % proc.returncode)
    try:
        return json.loads(out)
    except ValueError as e:
        fail("driver output is not JSON: %s" % e)


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    records = run_driver(exe, args)
    if not measured_ops(records):
        fail("no successful operation in the window")
    result = summarize(records, args.trace == 1, spec)
    print(json.dumps({"diagnostics": diagnostics(records)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
