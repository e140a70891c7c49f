#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload session_warm --seed 1 --seconds 20 --trace 0

The binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build). Its output passes through unchanged; the last stdout line
is the JSON result. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "oa-perfbench")
    # Single-threaded GP scoring everywhere: the two shards' workers and
    # the client threads already use the host's two cores.
    env["OA_JOBS"] = "1"
    sys.stdout.flush()
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
