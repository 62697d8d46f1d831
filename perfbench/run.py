#!/usr/bin/env python3
"""Builds and runs the splace end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload serve-k1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload churn-5k --seed 1 --seconds 2 --trace 1 --smoke

Configures and builds perfbench/CMakeLists.txt (the splace library from
src/ plus perfbench/e2e.cpp) in $CARGO_TARGET_DIR, default .bench_build,
then runs the benchmark binary. Build output goes to stderr. Stdout gets a
record of the run (nproc, 1-minute load average at start, kernel, a digest of
the sources) followed by the binary's detail line and, last, its JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import hashlib
import os
import platform
import subprocess
import sys

RUN_TIMEOUT_S = 170


def source_digest(root):
    """sha256 over every file under src/ and perfbench/, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(root):
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", "3"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="small size of the workload, same checks")
    args = parser.parse_args()

    load_1m = os.getloadavg()[0]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        command.append("--smoke")
    record = ('{"run": {"nproc": %d, "loadavg_1m": %.2f, "kernel": "%s", '
              '"revision": "src-sha256:%s"}}'
              % (os.cpu_count() or 0, load_1m, platform.release(),
                 source_digest(root)))
    print(record, flush=True)
    try:
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(completed.stdout)
    sys.stdout.flush()
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
