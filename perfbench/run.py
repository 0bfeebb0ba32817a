#!/usr/bin/env python3
"""Whole-step benchmark: build perfbench from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload evrard-1r --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --history

Workloads: evrard-1r, sedov-bins-1r, evrard-2r. With --trace 0 the
end-to-end metrics are printed, with --trace 1 the per-layer ones; the last
line of standard output is the JSON result. The build goes to
$CARGO_TARGET_DIR (default .bench_build); results, the Chrome trace of a
traced run and the history land in perfbench/out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    """Standard output of cmd, or None when it cannot run or fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = capture(["rustc", "--version"]) or "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = capture(["git", "-C", ROOT, "rev-parse", "HEAD"])
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, *sys.argv[1:], "--out-dir", os.path.join(HERE, "out"),
           "--rustc", rustc, "--commit", commit or "unknown"]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
