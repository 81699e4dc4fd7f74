#!/usr/bin/env python3
"""Builds the benchmark package from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <linear|merge|served> --seed <n> \
        --seconds <s> --trace <0|1>

Cargo output goes to stderr, so the last line on stdout is the benchmark's
JSON result. The build directory is $CARGO_TARGET_DIR, `.bench_build` when
unset. MLCASK_* variables are removed so the store, cache and flight
recorder run at their shipped defaults. Loops are aligned to 64 bytes:
with LLVM's default alignment the same source built in two directories
(paths embedded in the binary shift the code) ran the heaviest merges
1.7x apart, so a change to unrelated code could move the figures. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLCASK_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["RUSTFLAGS"] = (env.get("RUSTFLAGS", "") + " -C llvm-args=-align-loops=64").strip()
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
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
