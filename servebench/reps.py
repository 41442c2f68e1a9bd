#!/usr/bin/env python3
"""Seeded, interleaved repetitions of the benchmark, with their spread.

Runs the command in BENCHMARK.json once per (seed, workload): one seed per
round and every workload in each round, each round starting at the next
workload so that drift of the host favours none. Prints, per workload and
metric, the median, quartiles, minimum, maximum and sample count, and the
spread (quartile distance over median) beside the metric's bound: "ok"
below a third of the bound, "within" up to the bound, "OVER" beyond it.
Run from the repository root:

    python3 servebench/reps.py --seeds 1-10
    python3 servebench/reps.py --seeds 1001          # the held-out seed
    python3 servebench/reps.py --seeds 1-5 --trace 1 --workloads ba-wire

The runs and the summary are also written to .bench_out/reps-trace<t>.json.
Exits non-zero when a run fails or reports an incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    if not values:
        return {"n": 0}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / med if med else float("inf"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7 (default 1)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["end_to_end" if args.trace == "0" else "per_layer"]
    runs = {w: [] for w in workloads}
    ok = True
    for r, seed in enumerate(parse_seeds(args.seeds)):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace,
            ]
            started = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            wall = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed={seed}: exit {proc.returncode} without a result", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall)
            runs[w].append(result)
            ok = ok and result["correct"]
            print(f"{w} seed={seed}: correct={result['correct']} failed={result['failed']} "
                  f"wall={wall:.1f}s", file=sys.stderr)

    summary = {}
    for w in workloads:
        print(f"\n{w}: {len(runs[w])} runs of {seconds} s")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} spread bound")
        summary[w] = {}
        for spec in specs:
            s = summarize([r["metrics"][spec["name"]]["value"] for r in runs[w] if spec["name"] in r["metrics"]])
            bound = spec.get("bound")
            s["bound"] = bound
            summary[w][spec["name"]] = s
            if not s["n"]:
                continue
            verdict = ""
            if bound is not None:
                verdict = "ok" if s["spread"] < bound / 3 else ("within" if s["spread"] <= bound else "OVER")
            print(f"  {spec['name']:34} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['min']:>12.5g} {s['max']:>12.5g} {s['spread']:6.3f} {bound if bound is not None else '':>5} {verdict}")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    report = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace, "runs": runs, "summary": summary}
    (out / f"reps-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
