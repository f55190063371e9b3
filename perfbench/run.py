#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (perfbench/target when unset); placement caches and
the traced run's span dump go to perfbench-work/ inside that directory.
The last line of standard output is the result object; a failed build or
run exits non-zero without printing one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    return subprocess.run([exe, *sys.argv[1:], "--work-dir", work], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
