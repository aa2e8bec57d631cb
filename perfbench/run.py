#!/usr/bin/env python3
"""Build the GODIVA benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper_tg --seed 1 --seconds 20 --trace 0

The benchmark package (perfbench/Cargo.toml) is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build). The binary's last line
of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics. The exit code is the binary's;
a failed build exits 1 without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_tg", "cpu_g", "revisit")
# The binary stops starting runs after 120 s of measuring; this is the
# backstop against a hang.
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "godiva-perfbench")
    scratch = os.path.join(target, "perfbench-scratch", args.workload)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
