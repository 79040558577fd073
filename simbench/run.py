#!/usr/bin/env python3
"""Host-time benchmark of the BeeHive simulator.

Usage (from the repository root):

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --workload all       # every workload, both modes

The simulated outputs are the paper's results, so "performance" here is
the host time the simulator needs to produce them. Each workload is a
fixed simulated span (simbench/driver.cc) run single-threaded in its own
process by simbench_driver, which this script builds from the
repository's sources in Release (CMake, build directory
$CARGO_TARGET_DIR or .bench_build, subdirectory simbench).

--trace 0 repeats the workload, one process per repetition, about
--seconds worth of repetitions, and reports the end-to-end metrics of
BENCHMARK.json as medians over the repetitions. It also prints the p50
and p99 host time of the 100 ms simulated slices of all repetitions;
the traced run reports them as per-layer metrics.

Host time is reported at a fixed reference host speed. Shared hosts
drift by tens of percent within minutes, so each repetition also times
a fixed probe (simbench/probe.h) after every slice, and its wall_s and
slices are scaled by PROBE_REF_NS / (its mean probe time). On the
reference host the factor is about 1; the raw medians and the factor
are printed beside every timing metric. setup_s (which the probe does
not cover) and peak_rss_mb (which excludes the probe's table) are plain
medians.

--trace 1 alternates untraced and traced repetitions of the same seed.
The traced ones replay each layer through its public API; the one with
the median wall time gives the per-layer metrics, and traced minus
untraced wall_s is the tracing overhead. On pybbs-burst it also runs
harness::runBurstExperiment on the same seed and span and compares
completed requests and boot counts.

Every run checks the request accounting and event counts of each
repetition, and that all repetitions of a seed (traced or not) give the
same sim_digest of their simulated outputs. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The exit
code is 1 when a check fails and 2 when the benchmark cannot build or
run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["pybbs-steady", "blog-scan", "pybbs-burst"]
MIN_REPS = 3
# Host seconds of one repetition (process start, set-up, simulation)
# on a busy reference host (4-core VM, gcc 12.2, Release); quiet
# periods run faster. --seconds divided by this is the repetition count.
NOMINAL_REP_S = {"pybbs-steady": 4.0, "blog-scan": 2.8, "pybbs-burst": 5.5}
# Mean host ns of one HostProbe::run() on the reference host.
PROBE_REF_NS = 330000.0
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark could not build or run (exit code 2)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "simbench")


def build():
    """Configure (once) and build simbench_driver; return its path."""
    bdir = build_dir()
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    p = subprocess.run(["cmake", "--build", bdir, "--target",
                        "simbench_driver", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(bdir, "simbench_driver")


def run_driver(binary, workload, seed, mode, spans_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) timed out")
    elapsed = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"simbench_driver {workload} ({mode}) exited "
                         f"{p.returncode}: {p.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1]), elapsed
    except ValueError:
        raise BenchError(f"unparsable driver output: {lines[-1][:200]}")


def speed_factor(rep):
    """Scale from this repetition's host speed to the reference speed."""
    return PROBE_REF_NS / rep["probe_ns"]


def scaled_wall(rep):
    return rep["wall_s"] * speed_factor(rep)


def percentile(values, p):
    """Inclusive-method percentile p (1..99) of values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_reps(binary, workload, seed, seconds, modes):
    """Run the repetitions of one measurement, cycling through modes.

    The count is fixed by --seconds and the workload's nominal
    repetition time, so two commits compared at the same --seconds run
    the same repetitions; on a host slower than the nominal one the run
    stops (after MIN_REPS) before a repetition would end past --seconds.
    """
    count = max(MIN_REPS, int(seconds / NOMINAL_REP_S[workload]))
    count += -count % len(modes)
    reps, spent = [], 0.0
    while len(reps) < count:
        if len(reps) >= MIN_REPS and spent * (len(reps) + 1) / len(reps) > seconds:
            break
        mode = modes[len(reps) % len(modes)]
        spans_out = None
        if mode == "trace":
            spans_dir = os.path.join(build_dir(), "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans_out = os.path.join(spans_dir, f"{workload}-seed{seed}.json")
        rep, elapsed = run_driver(binary, workload, seed, mode, spans_out)
        reps.append(rep)
        spent += elapsed
    return reps


def check_reps(reps, problems):
    """Per-rep output checks, plus one digest and one slicing per seed."""
    for rep in reps:
        tag = f"{rep['workload']} seed {rep['seed']} ({rep['mode']})"
        if rep["problems"]:
            problems.append(f"{tag}: {rep['problems']}")
        if rep["issued"] != rep["completed"] + rep["failed"]:
            problems.append(f"{tag}: issued != completed + failed")
        if rep["build"]["build_type"] != "Release":
            problems.append(f"{tag}: not a Release build")
    digests = sorted({r["sim_digest"] for r in reps})
    if len(digests) != 1:
        problems.append(f"{reps[0]['workload']} seed {reps[0]['seed']}: "
                        f"same-seed runs gave different sim_digests "
                        f"{digests}")
    if len({len(r["slice_ms"]) for r in reps}) != 1:
        problems.append(f"{reps[0]['workload']}: slice counts differ")


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def header(workload, seed, reps, what):
    b = reps[0]["build"]
    print(f"# {workload} seed={seed} {what}: {len(reps)} reps of "
          f"{reps[0]['sim_span_s']:g} s simulated, sim_digest "
          f"{reps[0]['sim_digest']} | {b['compiler']}, {b['build_type']}, "
          f"nproc={b['nproc']}")


def e2e_run(binary, workload, seed, seconds, spec):
    """End-to-end metrics of one seed; return (metrics, problems, counts)."""
    reps = run_reps(binary, workload, seed, seconds, ["run"])
    problems = []
    check_reps(reps, problems)
    header(workload, seed, reps, "end-to-end")

    slices = [s * speed_factor(r) for r in reps for s in r["slice_ms"]]
    wall_s = statistics.median(scaled_wall(r) for r in reps)
    completed = reps[0]["completed"]
    values = {
        "setup_s": statistics.median(r["setup_testbed_s"] +
                                     r["setup_profiling_s"] for r in reps),
        "wall_s": wall_s,
        "host_us_per_req": wall_s * 1e6 / completed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "setup_s": f"median of {len(reps)} set-ups (testbed + profiling)",
        "wall_s": f"median of {len(reps)} reps, raw s x speed factor: " +
                  ", ".join(f"{r['wall_s']:.3f}x{speed_factor(r):.3f}"
                            for r in reps),
        "host_us_per_req": f"= wall_s {wall_s * 1e6:.6g} us / {completed} "
                           f"completed requests",
        "peak_rss_mb": f"median of {len(reps)} processes",
    }
    metrics = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<18} {fmt(v):>12} {m['unit']:<6} "
              f"{notes[m['name']]}")
    print(f"  slice_ms p50 {percentile(slices, 50):.6g} p99 "
          f"{percentile(slices, 99):.6g} over {len(slices)} slices of 100 ms "
          f"simulated (all reps; per-layer metrics in the traced run)")
    attempted = sum(r["issued"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"  failed_frac        {failed / max(attempted, 1):.6g} "
          f"= {failed} failed / {attempted} issued")
    return metrics, problems, attempted, failed


def trace_run(binary, workload, seed, seconds, spec):
    """Per-layer metrics of one seed; return (metrics, problems, counts).

    Untraced and traced repetitions alternate; the per-layer numbers
    come from the traced repetition with the median wall time.
    """
    reps = run_reps(binary, workload, seed, seconds, ["run", "trace"])
    problems = []
    check_reps(reps, problems)
    plain = [r for r in reps if r["mode"] == "run"]
    traced = [r for r in reps if r["mode"] == "trace"]
    header(workload, seed, reps, "traced and untraced")

    if workload == "pybbs-burst":
        ref, _ = run_driver(binary, workload, seed, "crosscheck")
        mine = {"completed": traced[0]["recorder_completed"],
                "cold_boots": traced[0]["cold_boots"],
                "warm_boots": traced[0]["warm_boots"],
                "restore_boots": traced[0]["restore_boots"]}
        for k, v in mine.items():
            ok = "ok" if ref[k] == v else "MISMATCH"
            print(f"  crosscheck {k}: re-driven {v}, "
                  f"runBurstExperiment {ref[k]} {ok}")
            if ref[k] != v:
                problems.append(f"crosscheck {k}: {v} != {ref[k]}")

    traced.sort(key=scaled_wall)
    chosen = traced[len(traced) // 2]
    layers = dict(chosen["layers"])
    bases = dict(chosen["bases"])
    untraced_s = statistics.median(scaled_wall(r) for r in plain)
    traced_s = statistics.median(scaled_wall(r) for r in traced)
    plain_slices = [s * speed_factor(r) for r in plain for s in r["slice_ms"]]
    layers["harness.slice_ms_p50"] = percentile(plain_slices, 50)
    layers["harness.slice_ms_p99"] = percentile(plain_slices, 99)
    layers["harness.host_speed"] = statistics.median(
        speed_factor(r) for r in reps)
    bases["harness.host_speed"] = [
        PROBE_REF_NS, statistics.median(r["probe_ns"] for r in reps),
        "reference probe ns", "measured probe ns (median)"]
    layers["trace.wall_s_untraced"] = untraced_s
    layers["trace.wall_s_traced"] = traced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    print(f"  trace.overhead_s = traced wall_s {traced_s:.6g} s - untraced "
          f"wall_s {untraced_s:.6g} s = {traced_s - untraced_s:.6g} s "
          f"(medians of {len(traced)} and {len(plain)} reps)")
    metrics = {}
    for m in spec["per_layer"]:
        # Self times exist only for spans the workload opened.
        if m["name"] not in layers and not m["name"].startswith("self_ms."):
            problems.append(f"{workload}: no value for {m['name']}")
        v = layers.get(m["name"], 0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        base = bases.get(m["name"])
        why = (f"= {base[0]:.6g} {base[2]} / {base[1]:.6g} {base[3]}"
               if base else "")
        print(f"  {m['name']:<32} {fmt(v):>14} {m['unit']:<6} {why}")
    return (metrics, problems, sum(r["issued"] for r in reps),
            sum(r["failed"] for r in reps))


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    facts = load_json(os.path.join(HERE, "layers.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=facts["default_seed"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.workload == "all" else [args.trace]
    metrics, problems, attempted, failed = {}, [], 0, 0
    for w in names:
        for trace in modes:
            if trace:
                m, p, a, f = trace_run(binary, w, args.seed, args.seconds,
                                       spec)
            else:
                m, p, a, f = e2e_run(binary, w, args.seed, args.seconds,
                                     spec)
            prefix = f"{w}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            problems += p
            attempted += a
            failed += f
    if args.workload == "all":
        print(f"# default seed {facts['default_seed']}; held-out seed "
              f"{facts['held_out_seed']}: {facts['held_out_rule']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"simbench: {e}")
        sys.exit(2)
