#!/usr/bin/env python3
"""Build and run the PPEP fleet benchmark.

    python3 perfbench/run.py --workload fleet_sim --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark program from source into .bench_build/
(Release); later runs only rebuild what changed. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer split of a separate traced run. The last line of
standard output is the result object; the stamped result and the traced
spans go to .bench_out/. Exits non-zero, without a result, when the
build fails, and non-zero when any session fails or any telemetry digest
differs from the reference pass.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ppep_perfbench")
WORKLOADS = ("fleet_sim", "fleet_replay", "fleet_budget")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ppep_perfbench",
           "-j", "2"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small fleet, for the benchmark's own test")
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "work"),
           "--out-dir", OUT_DIR, "--revision", revision()]
    if args.quick:
        cmd.append("--quick")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    # Relay everything but a malformed result line.
    sys.stdout.write("\n".join(lines if ok else lines[:-1]) + "\n")
    sys.stdout.flush()
    if not ok:
        log("perfbench: the benchmark program printed no result")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
