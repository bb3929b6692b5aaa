#!/usr/bin/env python3
"""Build e2ebench from the sources beside it, then run its workloads.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--workload all` runs every workload of BENCHMARK.json in turn, each in
a process of its own so that its memory high-water mark is its own.

The CMake build lives in $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); matrix files and Chrome traces go next to it.
Build output goes to stderr, so the benchmark's last stdout line is
its JSON result. The exit code is the benchmark's, or 1 when the
build fails.
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


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_digest():
    """Hash of the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in ("src", "e2ebench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
            not os.path.exists(os.path.join(build_dir, "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir, *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def run_workload(build_dir, root, workload, args):
    work = os.path.join(root, "e2ebench-work", f"{workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--work-dir", work,
           "--out-dir", os.path.join(root, "e2ebench-out"),
           "--git-commit", git_commit(),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name, or all")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = build_root()
    build_dir = os.path.join(root, "e2ebench")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        status = max(status, run_workload(build_dir, root, workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
