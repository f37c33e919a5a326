#!/usr/bin/env python3
"""Run each workload on several seeds and summarise how steady its metrics are.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 \
        --out perfbench/results/steadiness.json

For every end-to-end metric it reports the median, quartiles (as
statistics.quantiles(values, n=4) gives them), min, max and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  Runs
are sequential; each one is `perfbench/run.py` with a distinct seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed (%s seed %d, exit %d): %s" %
                         (workload, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "min": values[0], "max": values[0], "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    spec = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write all runs and summaries as JSON")
    args = parser.parse_args()

    record = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "wall_s": r["wall_s"],
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1]["metrics"])),
                  file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name] for r in runs])
            summary[name]["bound"] = bounds.get(name)
        record["workloads"][workload] = {"seeds": seeds, "runs": runs,
                                         "summary": summary}
        print("\n%s (%d runs, seeds %d-%d, %d s)" %
              (workload, len(runs), seeds[0], seeds[-1], args.seconds))
        print("| metric | median | q1 | q3 | min | max | spread | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, s in summary.items():
            print("| %s | %.6g | %.6g | %.6g | %.6g | %.6g | %.4f | %s |" %
                  (name, s["median"], s["q1"], s["q3"], s["min"], s["max"],
                   s["spread"], s["bound"]))
        print("all correct: %s; wall per run %.1f s" %
              (all(r["correct"] for r in runs),
               statistics.mean(r["wall_s"] for r in runs)))
        sys.stdout.flush()
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
