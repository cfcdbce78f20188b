#!/usr/bin/env python3
"""Record a baseline: ten untraced runs and one traced run per workload.

Usage, from the root of a source tree:

    python3 perfbench/baseline.py

Each run goes through perfbench/run.py exactly as a single measurement
does, with seeds 1..10. The result is perfbench/baseline.json. For every end-to-end metric the file keeps every
value, the median, the quartiles (Python's statistics.quantiles, n=4)
and the spread: the distance between the quartiles over the median.
The script prints the spreads as it goes and exits 1 if a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

RUNS = 10
OUT = os.path.join("perfbench", "baseline.json")


def manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline: {workload} seed {seed} trace {trace} failed")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"baseline: {workload} seed {seed} trace {trace} was not correct")
    return result


def summary(unit, values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    bench = manifest()
    seconds = bench["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    workloads = {}
    for w in (x["name"] for x in bench["workloads"]):
        runs = [run(w, seed, seconds, 0) for seed in seeds]
        end_to_end = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            end_to_end[m["name"]] = summary(m["unit"], values)
            print(f"{w:12s} {m['name']:12s} median {end_to_end[m['name']]['median']:.6g} "
                  f"spread {end_to_end[m['name']]['spread']:.3f} (bound {m['bound']})",
                  flush=True)
        traced = run(w, seeds[0], seconds, 1)
        workloads[w] = {
            "seeds": seeds,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    doc = {
        "host": {
            "cores": os.cpu_count(),
            "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
            "revision": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
            "os": f"{platform.system()} {platform.release()}",
        },
        "run_seconds": seconds,
        "workloads": workloads,
    }
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
