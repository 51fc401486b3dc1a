#!/usr/bin/env python3
"""Build and run the marionette benchmark.

Usage:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own Cargo workspace, release
profile, offline) into $CARGO_TARGET_DIR (default `.bench_build`; a
relative path is taken from the repository root), then runs it from the
repository root with the same arguments and MALLOC_ARENA_MAX=1. Build output
goes to stderr; the benchmark's last stdout line is its JSON result.
The exit code is the build's when it fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    # Build and run from the repository root wherever this is called
    # from: the benchmark reads BENCH_sim.json there, and a relative
    # CARGO_TARGET_DIR resolves against it.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, cwd=ROOT, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    # One malloc arena: with glibc's default, whether a server thread
    # gets an arena of its own depends on thread timing, which moves the
    # serve workloads' peak RSS by ~3 MB from run to run.
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=run_env,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
