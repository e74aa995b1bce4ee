#!/usr/bin/env python3
"""Builds the ipr benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ota_firmware|remote_sync|store_history \
        [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (perfbench/target when unset); cargo's output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Scratch files (stores, span dumps) live under perfbench/out.
The exit code is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "ipr-perfbench")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
