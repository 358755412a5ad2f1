#!/usr/bin/env python3
"""Builds the RayFlex-RS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload frame|vector_search|serve --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds the benchmark and the `rayflex-server` binary in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark, whose
last line of standard output is the JSON result.  Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    for extra in ([], ["-p", "rayflex-server", "--bin", "rayflex-server"]):
        build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        if subprocess.run(build + extra, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "rayflex-perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(release, "rayflex-server"),
        "--trace-dir",
        os.path.join(HERE, "traces"),
    ]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
