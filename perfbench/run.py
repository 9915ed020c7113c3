#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pipeline|assessment \
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune from the checkout's own
sources (output in dune's _build directory, shared cache off), runs it
with the same arguments and passes its output through: the last line
of standard output is the result JSON object.  Build logs go to
standard error.  Exits non-zero, printing no result, when the checkout
holds no buildable OCaml project or when the benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("pipeline", "assessment")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: no dune-project or lib/ here")
    # No shared dune cache: the build reads and writes only the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"dune build failed with code {build.returncode}")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark printed a malformed result")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
