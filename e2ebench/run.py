#!/usr/bin/env python3
"""End-to-end proving benchmark runner.

    python3 e2ebench/run.py --workload tc-large --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library from src/ and the
benchmark binary with CMake (Release) into $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench), runs one workload in its own process,
checks the environment stamp and the computed counts, and prints the
binary's result object as the last line of standard output. See
e2ebench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tc-large", "hdg-durable", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """Digest of the files the benchmark binary is built from: src/ and
    e2ebench/. Computed counts are compared only between runs of
    identical code."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    """Git commit of the tree, or "none" outside a repository."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def declared_metrics(root, trace):
    """Metric name -> unit that BENCHMARK.json declares for the mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete_metrics(metrics, declared, fill):
    """With fill, set declared metrics a workload does not exercise to
    0. Return the problems: undeclared or missing names, wrong units."""
    problems = []
    for name, vu in metrics.items():
        if name not in declared:
            problems.append(f"undeclared metric {name}")
        elif vu["unit"] != declared[name]:
            problems.append(f"{name} unit {vu['unit']} != {declared[name]}")
    for name, unit in declared.items():
        if name in metrics:
            continue
        if fill:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"missing metric {name}")
    return problems


def build(root, build_dir):
    """Configure once, then build incrementally; logs go to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "e2ebench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "e2e_bench")


def cpu_times():
    """Aggregate CPU tick counters (user..steal), or None off Linux."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def check_counts(build_dir, digest, workload, seed, computed):
    """Computed counts must repeat exactly for the same code, workload
    and seed."""
    path = os.path.join(build_dir,
                        f"computed-{digest}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != computed:
                return False
    else:
        with open(path, "w") as f:
            json.dump(computed, f, sort_keys=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    declared = declared_metrics(root, args.trace)
    digest = source_digest(root)
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    trace_out = os.path.join(
        build_dir, f"spans-{args.workload}-{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--source-id", f"src-sha256:{digest} git:{git_sha(root)}"]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    cpu_before = cpu_times()
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout)
        fail(f"e2e_bench exited with {done.returncode}",
             done.returncode or 1)
    records = [json.loads(ln) for ln in lines]
    result = records[-1]
    env = next((r["env"] for r in records if "env" in r), None)
    computed = next((r["computed"] for r in records if "computed" in r),
                    None)
    if env is None or computed is None:
        fail("binary printed no environment stamp or computed counts")
    if not env["ndebug"] or env["sanitizer"]:
        fail("refusing numbers from a debug or sanitizer build", 3)
    if not check_counts(build_dir, digest, args.workload, args.seed,
                        computed):
        print("e2ebench: computed counts differ from an earlier run of "
              "the same code and seed", file=sys.stderr)
        result["correct"] = False
    # Per-layer metrics a workload does not exercise read 0; names and
    # units come from BENCHMARK.json alone.
    for problem in complete_metrics(result["metrics"], declared,
                                    fill=bool(args.trace)):
        print(f"e2ebench: {problem}", file=sys.stderr)
        result["correct"] = False

    cpu_after = cpu_times()
    if cpu_before and cpu_after:
        # Share of CPU time the hypervisor gave to other guests during
        # the run: a noisy-neighbour indicator, not a metric.
        delta = [b - a for a, b in zip(cpu_before, cpu_after)]
        records.insert(-1, {"host": {
            "steal_share": delta[7] / max(1, sum(delta))}})
    for rec in records[:-1]:
        print(json.dumps(rec))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
