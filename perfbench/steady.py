#!/usr/bin/env python3
"""Runs one workload under several seeds and prints each end-to-end
metric's median and spread (interquartile range over median, by
statistics.quantiles(values, n=4)) next to its bound in BENCHMARK.json.

    python3 perfbench/steady.py cold-search --runs 10
    python3 perfbench/steady.py cold-search --runs 10 --sets 2

With --sets 2 it runs two sets of the same code, alternating one run of
each (seeds first..first+runs-1 for set A, the next runs seeds for set B),
so that a drift of the machine's speed falls on both sets alike, and it
prints by how much set B's median is worse than set A's.

Run it from the root of the checkout. Every run's result line is appended
to .bench_build/perfbench/steady-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, log):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    meta = [json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")]
    with open(log, "a") as f:
        f.write(json.dumps({"seed": seed, **res, "meta": meta[0] if meta else None}) + "\n")
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: {res['failed']} of {res['attempted']} operations failed")
    return res["metrics"]


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, ((q3 - q1) / med if med else float("nan"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    log = os.path.join(".bench_build", "perfbench", f"steady-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    values = [{} for _ in range(args.sets)]
    for i in range(args.runs):
        for s in range(args.sets):
            seed = args.first_seed + s * args.runs + i
            metrics = run_once(bench, args.workload, seed, log)
            for name, m in metrics.items():
                values[s].setdefault(name, []).append(m["value"])
            print(f"set {'AB'[s]} seed {seed}: " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in sorted(metrics.items())), flush=True)

    print(f"\n{args.workload}: {args.sets} set(s) of {args.runs} runs")
    for name in sorted(values[0]):
        bound = spec.get(name, {}).get("bound")
        cols = []
        meds = []
        for s in range(args.sets):
            med, spread = summary(values[s][name])
            meds.append(med)
            flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else " <-- above a third of its bound"
            cols.append(f"{'AB'[s]}: median {med:<12.6g} spread {spread:7.2%}{flag}")
        line = f"  {name:22s} " + "  ".join(cols) + f"  bound {bound}"
        if args.sets == 2 and meds[0]:
            worse = (meds[1] - meds[0]) / meds[0]
            if spec.get(name, {}).get("better") == "higher":
                worse = -worse
            flag = "" if bound is None or worse <= bound else " <-- B worse than A by more than its bound"
            line += f"  B worse than A by {worse:+.2%}{flag}"
        print(line)


if __name__ == "__main__":
    main()
