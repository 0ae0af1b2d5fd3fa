"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads NAME [NAME ...] --seeds 1 2 3 ...
        [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, for the
``run_seconds`` of BENCHMARK.json, one after another, and reports for
each metric the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread: the distance between the quartiles as
a share of the median.  The bounds in
BENCHMARK.json must exceed these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                ok = False
                continue
            prov = json.loads(lines[0].split(" ", 1)[1])
            runs.append({"seed": seed, "loadavg_1m": prov["loadavg_1m"],
                         **{m: v["value"] for m, v in result["metrics"].items()}})
            print(name, seed, {m: round(v["value"], 4) for m, v in result["metrics"].items()},
                  flush=True)
        if len(runs) < 2:
            continue
        stats = {m: summarize([r[m] for r in runs]) for m in bounds}
        summary[name] = {"runs": runs, "metrics": stats}
        for m, s in stats.items():
            flag = "" if m == "setup_s" or s["spread"] <= bounds[m] / 3 else "  <-- over a third of the bound"
            print(f"  {name:18s} {m:14s} median {s['median']:10.4f} spread {s['spread']:.4f}"
                  f" (bound {bounds[m]}){flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": seconds, "seeds": args.seeds, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
