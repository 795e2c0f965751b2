"""Run the benchmark over several seeds and summarize each metric's spread.

Run from the repository root:

    python3 benchmarks/collect.py --seeds 1-10 --out benchmarks/results/baseline.json

For every seed it runs each workload once with tracing off (workloads
interleaved, so a slow spell of the machine spreads over all of them), then
runs each workload once traced at the first seed. It prints, per workload and
end-to-end metric, the median, the quartiles as `statistics.quantiles(n=4)`
gives them, and the spread (q3 - q1) / median next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="inclusive range, e.g. 1-10")
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {w: [] for w in workloads}
    metas = {}
    for seed in args.seeds:
        for w in workloads:
            result, metas[w] = run(w, seed, seconds, 0)
            result["stat_misses"] = metas[w]["stat_misses"]
            results[w].append(result)
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']}"
                + f" stat_misses={metas[w]['stat_misses']}", flush=True)
    summary = {"run_seconds": seconds, "seeds": args.seeds, "machine": {}, "workloads": {}}
    print(f"\n{'workload':<12} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        entry = {"attempted": sum(r["attempted"] for r in results[w]),
                 "failed": sum(r["failed"] for r in results[w]),
                 "stat_misses_per_seed": [r["stat_misses"] for r in results[w]],
                 "end_to_end": {}}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            s = summarize([r["metrics"][name]["value"] for r in results[w]])
            s.update(unit=spec["unit"], bound=spec["bound"])
            entry["end_to_end"][name] = s
            print(f"{w:<12} {name:<12} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>8.4f} {spec['bound']:>6}")
        traced, meta = run(w, args.seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        entry["traced_stat_misses"] = meta["stat_misses"]
        summary["workloads"][w] = entry
        summary["machine"] = {k: v for k, v in metas[w].items()
                              if k not in ("workload", "seed", "trace", "items", "stat_misses")}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
