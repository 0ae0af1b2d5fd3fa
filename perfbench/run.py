"""The dlstrata benchmark: four seeded workloads, checked against exact oracles.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
        [--out FILE]

Each measurement is a fresh ``python3 perfbench/worker.py`` process, run
one at a time (no threads, no pool).  For ``--seconds`` the benchmark
starts worker runs while the next one is expected to finish in time
(always at least one), then adds set-up probes until it has
``MIN_SETUPS`` set-up samples.  It reports the median over runs.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of runs traced by ``spans.Tracer``: one untraced
run, then at least ``MIN_TRACED`` traced runs, alternated with untraced
runs while time is left, to measure the tracing overhead.  Times are
rescaled to a reference machine speed by ``clock`` (see there why).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when an oracle fails, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import clock  # noqa: E402
import oracles  # noqa: E402

MIN_SETUPS = 7
MIN_TRACED = 2
RUN_LIMIT_S = 170  # every run of this script ends well within 180 s


def _described() -> dict:
    """BENCHMARK.json: the workload and metric names this script serves."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class BenchmarkError(RuntimeError):
    """A worker run crashed or overran; no result can be reported."""


# -- one worker process -------------------------------------------------------


def spawn(name: str, seed: int, deadline: float, trace: bool = False, probe: bool = False) -> dict:
    """Run one worker; return its report with the rescaled timings added."""
    pre = clock.burst()
    t_spawn = clock.now()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--work", WORK]
    cmd += ["--trace"] * trace + ["--probe"] * probe
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name}: worker overran the {RUN_LIMIT_S} s limit") from exc
    t_exit = clock.now()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{name}: worker exited with {proc.returncode}\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    stamps = ("t_ready",) if probe else ("t_ready", "t_done")
    if any(report.get(t) is None for t in stamps):
        raise BenchmarkError(f"{name}: worker report lacks a time stamp ({', '.join(stamps)})")
    bursts = [pre] + [tuple(b) for b in report["bursts"]]
    report["setup_s"] = clock.rescaled(bursts, t_spawn, report["t_ready"])
    report["elapsed"] = t_exit - pre[0]
    if probe:
        return report
    bursts.append(clock.burst())
    work = clock.rescaled(bursts, report["t_ready"], report["t_done"])
    work_raw = clock.raw(bursts, report["t_ready"], report["t_done"])
    bookkeeping = clock.rescaled(bursts, report["t_post"], report["t_report"])
    report["points_per_s"] = report["points"] / work
    report["points_per_s_raw"] = report["points"] / work_raw
    report["speed_factor"] = work / work_raw
    report["wall_s"] = clock.rescaled(bursts, t_spawn, t_exit) - bookkeeping
    report["peak_rss_mb"] = report["rss_kb"] / 1024.0
    return report


# -- one benchmark run ----------------------------------------------------------


def measure(name: str, seed: int, seconds: int, trace: bool, units: dict, started: float) -> dict:
    """All worker runs of one workload; returns metrics and raw samples."""
    deadline = started + seconds
    hard = started + RUN_LIMIT_S
    recorded = oracles.load()
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    longest = 0.0
    while True:
        # traced: one untraced run first, then at least two traced runs, so
        # that the counts-repeat check below compares two runs
        use_trace = trace and bool(plain) and len(traced) < max(MIN_TRACED, len(plain) + 1)
        rep = spawn(name, seed, hard, trace=use_trace)
        (traced if use_trace else plain).append(rep)
        problems += oracles.check(name, seed, rep, recorded)
        longest = max(longest, rep["elapsed"])
        done = plain and (not trace or len(traced) >= MIN_TRACED)
        if done and clock.now() + longest > deadline:
            break
    runs = plain + traced
    setups = [r["setup_s"] for r in runs]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(name, seed, hard, probe=True)["setup_s"])
    first = runs[0]["labels"]
    if any(r["labels"] != first for r in runs):
        problems.append("runs with one seed gave different labels")
    if trace:
        counts = [counts_of(r) for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append("traced runs with one seed gave different counts")
        metrics = layer_metrics(plain, traced, list(units))
    else:
        metrics = {m: statistics.median(setups if m == "setup_s" else [r[m] for r in plain])
                   for m in units}
    attempted = sum(r["points"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "correct": not problems,
        "problems": problems,
        "errors": sorted({e for r in runs for e in r["errors"]}),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": metrics,
        "samples": {
            "runs": len(runs),
            "traced_runs": len(traced),
            "setup_probes": len(setups) - len(runs),
            "setup_s": setups,
            "points_per_s": [r["points_per_s"] for r in plain],
            "points_per_s_raw": [r["points_per_s_raw"] for r in plain],
            "speed_factor": [r["speed_factor"] for r in plain],
            "wall_s": [r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
        "label_digest": oracles.label_digest(first),
        "counts": counts_of(traced[0]) if traced else None,
        "seconds": clock.now() - started,
    }


COUNTERS = ("calls", "cells", "candidates", "refines", "members")


def counts_of(report: dict) -> dict:
    """The integer counters of a traced run, by function."""
    return {name: {c: s[c] for c in COUNTERS} for name, s in report["trace"]["stats"].items()}


def layer_metrics(plain: list[dict], traced: list[dict], names: list[str]) -> dict:
    """Per-layer metrics: counts of the first traced run, median times.

    Times are rescaled by each run's speed factor, so that they are in the
    same reference seconds as the end-to-end metrics.
    """
    first = traced[0]
    points = first["points"]

    def count(fn: str, field: str) -> int:
        return first["trace"]["stats"].get(fn, {}).get(field, 0)

    def ratio(fn: str, field: str) -> float:
        return count(fn, field) / count(fn, "calls") if count(fn, "calls") else 0.0

    def seconds(get) -> float:
        return statistics.median(get(r["trace"]) * r["speed_factor"] for r in traced)

    def fn_seconds(fn: str, field: str) -> float:
        return seconds(lambda t: t["stats"].get(fn, {}).get(field, 0.0))

    out = {
        "gf.field.setup_s": fn_seconds("gf.field", "total"),
        "gf.table_bytes": first["trace"]["table_bytes"],
        "linalg.rref.cells_per_point": count("linalg.rref", "cells") / points,
        "symplectic.relpos.candidates_per_call": ratio("symplectic.relpos", "candidates"),
        "symplectic.enumerate_lagrangians.s": fn_seconds("symplectic.enumerate_lagrangians", "total"),
        # refine runs once more than the rounds that changed the flag
        "dlclassify.refinement_depth.mean": max(0.0, ratio("dlclassify.classify_fine", "refines") - 1),
        "dieudonne.canonical_flag.members_mean": ratio("dieudonne.canonical_flag", "members"),
        "dieudonne.eo_type.candidates_per_call": ratio("dieudonne.eo_type", "candidates"),
        "cli.emit_s": fn_seconds("cli._emit_json", "total") + fn_seconds("cli._emit_lines", "total"),
        "cli.output_bytes": first["output_bytes"],
        "trace.overhead_ratio":
            statistics.median(r["points_per_s"] for r in traced)
            / statistics.median(r["points_per_s"] for r in plain),
    }
    for metric in names:
        if metric in out:
            continue
        fn, kind = metric.rsplit(".", 1)
        if kind == "calls_per_point":
            out[metric] = count(fn, "calls") / points
        elif kind == "self_us_per_point" and "." not in fn:
            out[metric] = seconds(lambda t, m=fn: t["layer_self"][m]) * 1e6 / points
        elif kind == "self_us_per_point":
            out[metric] = fn_seconds(fn, "self_time") * 1e6 / points
        elif kind == "us_per_point":
            out[metric] = fn_seconds(fn, "total") * 1e6 / points
        else:
            raise KeyError(f"no rule computes the per-layer metric {metric}")
    return {m: out[m] for m in names}


# -- reporting ------------------------------------------------------------------


def provenance(seed: int, trace: bool) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
        "traced": trace,
        "clock_ref_s": clock.REF_S,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def show(result: dict, units: dict) -> None:
    s = result["samples"]
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['traced'])}: "
          f"{s['runs']} runs ({s['traced_runs']} traced) + {s['setup_probes']} set-up probes "
          f"in {result['seconds']:.1f} s")
    for name, unit in units.items():
        print(f"  {name:48s} {result['metrics'][name]:14.6g} {unit}")
    print(f"  {'failed_ratio':48s} {result['failed_ratio']:14.6g} fraction "
          f"({result['failed']} of {result['attempted']} points)")
    if not result["traced"]:
        raw = statistics.median(s["points_per_s_raw"])
        print(f"  {'points_per_s before rescaling':48s} {raw:14.6g} points/s")
    for err in result["errors"]:
        print(f"  failed point: {err}")
    verdict = "pass" if result["correct"] else "FAIL: " + "; ".join(result["problems"])
    print(f"  oracles: {verdict}")


def main(argv: list[str] | None = None) -> int:
    described = _described()
    workloads = [w["name"] for w in described["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results, samples included, as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dlstrata", "cli.py")):
        print(f"dlstrata sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= RUN_LIMIT_S - 20:
        print(f"--seconds must lie in 1..{RUN_LIMIT_S - 20}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # compile once up front, so no worker run pays for byte-compilation
    compileall.compile_dir(os.path.join(ROOT, "src", "dlstrata"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    names = workloads if args.workload == "all" else [args.workload]
    units = {m["name"]: m["unit"] for m in described["per_layer" if args.trace else "end_to_end"]}
    prov = provenance(args.seed, bool(args.trace))
    print("provenance " + json.dumps(prov, sort_keys=True))
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace), units,
                                   clock.now()))
            show(results[-1], units)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": prov, "results": results}, fh, indent=1)
            fh.write("\n")

    def metrics(r: dict) -> dict:
        return {m: {"value": r["metrics"][m], "unit": u} for m, u in units.items()}

    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics(results[0]) if len(results) == 1
        else {r["workload"]: metrics(r) for r in results},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
