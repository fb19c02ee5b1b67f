#!/usr/bin/env python3
"""Build and run the wavefabric benchmark.

    python3 perfbench/run.py --workload sweep-spec --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --selftest              # the benchmark's own tests

Run from the root of a source tree. The first call configures and builds
the driver (perfbench/CMakeLists.txt, against the repository's own
libraries) into .bench_build/wsbench; later calls only rebuild what
changed. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Run records (and traced runs' Chrome traces) are
written to .bench_build/results. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "wsbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
WORKLOADS = ["sweep-spec", "sweep-splash", "replay-warm"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    """The benchmark builds the program from source; refuse without it."""
    for need in ("CMakeLists.txt", "src", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s under %s: run from a wavefabric source tree" % (need, ROOT))


def build(targets):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e), 1)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); full log in %s" % (" ".join(cmd), log_path), 1)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def tree_hash():
    """Content hash of everything the driver is built from."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_one(args, workload):
    cmd = [os.path.join(BUILD, "wsbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_ROOT, "work-%d" % os.getpid()),
           "--out-dir", RESULTS, "--commit", commit(), "--tree", tree_hash()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("wsbench exited with %d on %s" % (proc.returncode, workload), 1)
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def selftest():
    build(["wsbench", "wsbench_selftest"])
    # BENCHMARK.json must name exactly the metrics the driver reports.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([os.path.join(BUILD, "wsbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    driver_layers = [tuple(l.split()) for l in listed.splitlines()]
    spec_layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if driver_layers != spec_layers:
        fail("BENCHMARK.json per_layer differs from wsbench --list-metrics", 1)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py's", 1)
    env = dict(os.environ, WSBENCH_BENCHMARK_JSON=os.path.join(ROOT, "BENCHMARK.json"))
    rc = subprocess.run([os.path.join(BUILD, "wsbench_selftest")], env=env,
                        cwd=BUILD, timeout=SELFTEST_TIMEOUT_S).returncode
    if rc != 0:
        fail("self-tests failed", 1)
    print("perfbench self-tests passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    check_tree()
    if args.selftest:
        selftest()
        return
    build(["wsbench"])
    if args.workload != "all":
        print(json.dumps(run_one(args, args.workload)))
        return
    results = {w: run_one(args, w) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


if __name__ == "__main__":
    main()
