#!/usr/bin/env python3
"""Records a benchmark snapshot as JSON.

For every workload in BENCHMARK.json: one untraced run per seed (the
end-to-end metrics, summarized as median and quartiles), then one
traced run at the first seed (the per-layer metrics).  Run from the
repository root:

    python3 perfbench/snapshot.py --out perfbench/baseline.json
    python3 perfbench/snapshot.py --workloads mc_certify --seeds 1,2,3

A later change reports its delta against the committed snapshot.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    """One benchmark run: (result object, provenance object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stderr}")
    prov = next((json.loads(l.split(": ", 1)[1]) for l in lines
                 if l.startswith("provenance: ")), {})
    return json.loads(lines[-1]), prov


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the snapshot JSON here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    snapshot = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        values, ok, attempted, failed = {}, True, 0, 0
        for seed in seeds:
            result, prov = run(wl, seed, args.seconds, 0)
            snapshot.setdefault("provenance", prov)
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl, seed, result["correct"], result["failed"],
                  {k: round(v[-1], 6) for k, v in values.items()},
                  flush=True)
        traced, _ = run(wl, seeds[0], args.seconds, 1)
        entry = {
            "jobs": prov.get("jobs"),
            "correct": ok and traced["correct"],
            "attempted": attempted, "failed": failed,
            "end_to_end": {k: dict(summarize(v), unit=units.get(k))
                           for k, v in values.items()},
            "per_layer_seed": seeds[0],
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()},
        }
        snapshot["workloads"][wl] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {wl:10s} {name:16s} median {s['median']:.6g} "
                  f"iqr/median {s['iqr_over_median']:.4f}", flush=True)
    for per_run in ("workload", "seed", "trace", "jobs", "untraced_rounds",
                    "traced_rounds", "ops_per_round"):
        snapshot["provenance"].pop(per_run, None)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(snapshot, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
