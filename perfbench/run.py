#!/usr/bin/env python3
"""Builds and runs the DRAMScope performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (a pinned Release
build of every library source) into .bench_build/perfbench; later calls
only re-check the build.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  Exits
nonzero without a result when the build or the run fails.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dramscope_perfbench")
BUILD_JOBS = "4"


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return True


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_hash():
    """SHA-256 over the library sources the benchmark compiles."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    extra = ["--reference", os.path.join(HERE, "reference_digests.txt"),
             "--git-sha", git_sha(), "--src-hash", src_hash()]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        name = "-".join(args[args.index(k) + 1] for k in
                        ("--workload", "--seed") if k in args[:-1])
        extra += ["--spans", os.path.join(spans_dir, (name or "run") +
                                          ".json")]
    sys.stdout.flush()
    return subprocess.run([BINARY] + args + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
