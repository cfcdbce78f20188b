#!/usr/bin/env python3
"""Run one perfbench workload on a base revision and on the working tree, in alternating pairs.

Usage, from the root of the repository:

    python3 scripts/bench_pair.py --base REV --workload W [--seed S]
        [--seconds 18] [--pairs 10] [--base-dir DIR]

The base revision is checked out, detached, into a git worktree under
_build/bench-pair/ (reused by later calls; `git worktree prune` forgets
it once _build/ is gone), unless --base-dir names an existing checkout
of it. The other side is the working tree the script runs from.

Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once on each side, one after the other; which side runs
first alternates from pair to pair, so a slow stretch of the host hits
both sides alike. For every end-to-end metric named in BENCHMARK.json
the script prints each side's median and quartiles, the change of the
median, the pairs the working tree won (ties count for neither), and a
verdict:

  gain       at least ten pairs ran, the working tree won at least nine
             in ten of them, and the medians differ by more than the
             base's quartile distance
  worse      the median is worse than the base's by more than the
             metric's BENCHMARK.json bound
  unresolved the base's quartile distance is wider than the bound, so
             "no worse" cannot be told from the spread (unless every
             run of the working tree beats every run of the base)
  -          none of these

The exit code is 0 when every run reported correct results, else 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def fail(msg):
    print(f"bench_pair: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def base_checkout(rev):
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    path = os.path.join(ROOT, "_build", "bench-pair", sha[:12])
    if not os.path.exists(os.path.join(path, "dune-project")):
        git("worktree", "prune")
        git("worktree", "add", "--detach", path, sha)
    return path, sha[:12]


def run_side(tree, args):
    """One untraced perfbench run in [tree]; its metrics, or None."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None
    if proc.returncode != 0 or not doc.get("correct") or doc.get("failed"):
        sys.stderr.write(proc.stderr)
        return None
    return {k: v["value"] for k, v in doc["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision, e.g. HEAD~1")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base-dir", help="an existing checkout of the base")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("run from the root of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]

    if args.base_dir:
        base_tree, base_name = os.path.abspath(args.base_dir), args.base
    else:
        base_tree, base_name = base_checkout(args.base)

    runs = {"base": [], "head": []}
    trees = {"base": base_tree, "head": ROOT}
    ok = True
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        got = {}
        for side in order:
            got[side] = run_side(trees[side], args)
            ok = ok and got[side] is not None
        print(
            f"pair {i + 1}/{args.pairs} ({order[0]} first): "
            + "  ".join(
                f"{side} runs_per_s="
                + (f"{got[side]['runs_per_s']:.2f}" if got[side] else "FAILED")
                for side in ("base", "head")
            ),
            flush=True,
        )
        if got["base"] and got["head"]:
            runs["base"].append(got["base"])
            runs["head"].append(got["head"])

    n = len(runs["base"])
    if n == 0:
        fail("no pair completed")
    print(
        f"\n{args.workload}, seed {args.seed}: {n} pairs of {args.seconds} s, "
        f"base {base_name} vs the working tree"
    )
    print(
        f"{'metric':<12} {'base median [q1, q3]':>28} "
        f"{'head median [q1, q3]':>28} {'change':>8} {'won':>6}  verdict"
    )
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        b1, bm, b3 = quartiles(base)
        h1, hm, h3 = quartiles(head)
        better = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
        won = sum(better(h, b) for h, b in zip(head, base))
        change = (hm - bm) / bm if bm else 0.0
        worse_by = change if lower else -change
        if (
            n >= 10
            and won >= 0.9 * n
            and better(hm, bm)
            and abs(hm - bm) > b3 - b1
        ):
            verdict = "gain"
        elif worse_by > m["bound"]:
            verdict = "worse"
        elif (
            bm
            and (b3 - b1) / bm > m["bound"]
            and not all(better(h, b) for h in head for b in base)
        ):
            verdict = "unresolved"
        else:
            verdict = "-"
        print(
            f"{name:<12} {f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>28} "
            f"{f'{hm:.4g} [{h1:.4g}, {h3:.4g}]':>28} {change:>+8.1%} "
            f"{f'{won}/{n}':>6}  {verdict}"
        )

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
