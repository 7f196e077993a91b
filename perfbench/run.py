#!/usr/bin/env python3
"""Build the cmcp benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload hits-cmcp-scale --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare base.jsonl change.jsonl

The benchmark is the Go module in this directory; it builds against the
simulator one directory up. Build outputs, the Go build cache and traced
spans all stay under .bench_build/ in the repository root. The last line
of standard output is the result JSON; the exit code is non-zero, with no
result printed, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    build = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOFLAGS="-buildvcs=false",
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOENV="off")
    binary = os.path.join(build, "perfbench")
    os.makedirs(build, exist_ok=True)
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = argv
    if not argv or argv[0] != "compare":
        args = ["-commit", commit()] + argv
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
