#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 10 --trace 0

Run it from the repository root. It configures and builds perfbench/
(which compiles the simulator from src/) into .bench_build with CMake,
then runs the perfbench binary with the given arguments. Build output
goes to stderr; the binary's last stdout line is the JSON result.
perfbench/README.md describes the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build(root):
    """Configure (once) and build; returns the exit code."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return rc
    return subprocess.call(
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench",
         "rarpred-agent", "rarpred-worker"],
        stdout=sys.stderr)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rc = build(root)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc if rc > 0 else 1

    # The scratch root is relative to the repository root so that the
    # daemon's Unix socket path stays short wherever the checkout is.
    cmd = [os.path.join(root, BUILD_DIR, "perfbench")] + sys.argv[1:] + \
        ["--tmp-root", BUILD_DIR]
    child = subprocess.Popen(cmd, cwd=root)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
