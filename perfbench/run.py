#!/usr/bin/env python3
"""Build the asmsim CLI and the perfbench runner, then run one workload.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The runner (perfbench/main.ml) does the measuring and prints, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. This wrapper only builds, runs the workload in its
own process group under a deadline, and passes the output and exit code
through. Everything it writes stays under the tree's _build/ directory.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["./bin/asmsim.exe", "./perfbench/main.exe"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def stop_group(proc):
    """Kill the runner and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", "lib", "bin/asmsim.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} is missing: run from the root of an asmsim source tree")

    tmp = os.path.join(root, "_build", "perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("the workload overran its deadline", code=3)
    except BaseException:
        stop_group(proc)
        raise
    stop_group(proc)  # the runner reaps its own children; this is a backstop
    sys.exit(code)


if __name__ == "__main__":
    main()
