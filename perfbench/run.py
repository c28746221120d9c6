#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/BENCHMARK.md).

    python3 perfbench/run.py --workload trench-p4 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all     # every gated workload, then one table
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The ltswave library and the perfbench
binary are built from source into .bench_build/perfbench (Release), the
single-threaded STREAM triad of the machine record is measured (or reused,
see measure_triad), then the workload runs. The
last line of standard output is the result object; traced runs also write
Chrome trace-event JSON to .bench_build/traces/.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The workloads BENCHMARK.json gates on; `trench-p1` (the same trench on one
# thread) also runs by name but is not part of the gated set.
WORKLOADS = ["trench-p4", "crust-ckpt-p4"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (a no-op on a configured tree) and rebuilds what changed."""
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr,
                   env=env)


def llc_bytes():
    """Last-level cache size as lscpu reports it (sysfs when lscpu is absent)."""
    try:
        out = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, check=True).stdout
        sizes = [int(m.group(2)) for m in re.finditer(r"^L(\d) cache:\s+(\d+)", out, re.M)]
        if sizes:
            return max(sizes)
    except (OSError, subprocess.CalledProcessError):
        pass
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "size")) as f:
                text = f.read().strip()
            best = max(best, int(text.rstrip("KMG")) * {"K": 1 << 10, "M": 1 << 20,
                                                           "G": 1 << 30}.get(text[-1], 1))
        except (OSError, ValueError):
            continue
    return best


def measure_triad(llc, fresh):
    """Single-threaded STREAM triad in a child process, so its arrays do not
    count towards the workload's peak RSS. Traced runs always measure it;
    untraced runs reuse the checkout's last measurement when there is one
    (the result's machine record then says "cached")."""
    cache = os.path.join(ROOT, ".bench_build", "triad.json")
    if not fresh and os.path.exists(cache):
        with open(cache) as f:
            return dict(json.load(f), cached=True)
    # Each triad array is at least 4x the last-level cache (and >= 256 MiB).
    array_bytes = max(4 * llc, 256 << 20)
    run = subprocess.run([BINARY, "--triad", "--array-bytes", str(array_bytes)],
                         capture_output=True, text=True)
    if run.returncode != 0:
        log(f"triad failed: {run.stderr.strip()}")
        return None
    triad = json.loads(run.stdout.strip().splitlines()[-1])
    with open(cache, "w") as f:
        json.dump(triad, f)
    return dict(triad, cached=False)


def run_workload(args, workload, llc, triad):
    """Runs one workload; forwards its context lines and returns the result
    object (None when the benchmark failed)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--llc-bytes", str(llc),
           "--triad-gbs", repr(triad["triad_gbytes_per_s"]),
           "--triad-array-bytes", str(triad["array_bytes"]),
           "--triad-cached", "1" if triad["cached"] else "0"]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        log(f"benchmark exited with code {run.returncode}")
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", help=f"one of {', '.join(WORKLOADS)}, trench-p1, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode

    llc = llc_bytes()
    triad = measure_triad(llc, fresh=bool(args.trace))
    if triad is None:
        return 1
    if args.workload != "all":
        result = run_workload(args, args.workload, llc, triad)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0

    # Every workload in turn, then one table of every metric by name and unit.
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(args, name, llc, triad)
        if results[name] is None:
            return 1
    print(f"{'workload':15s} {'metric':36s} {'value':>16s} unit")
    for name, result in results.items():
        print(f"{name:15s} {'failed_frac':36s} {result['failed'] / result['attempted']:16.6g} "
              f"ratio ({result['failed']} of {result['attempted']} checks)")
        for metric, v in result["metrics"].items():
            print(f"{name:15s} {metric:36s} {v['value']:16.6g} {v['unit']}")
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
