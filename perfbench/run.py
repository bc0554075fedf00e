#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to stderr, so the benchmark's last stdout line stays
its JSON result. Build output lands in $CARGO_TARGET_DIR (default
`.bench_build`). Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    # One malloc arena: with one arena per engine thread, peak RSS swings
    # by a quarter between identical runs, depending on which arenas the
    # workers happen to reuse.
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    return subprocess.run([binary] + sys.argv[1:], env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
