#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes the spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--out FILE]

For each workload of `BENCHMARK.json` it runs the benchmark's command once
per seed without tracing, and reports per end-to-end metric the median,
the quartiles and the spread (interquartile distance over the median),
flagged when it exceeds a third of the metric's bound.  Traced runs go over
TRACE_SEEDS, the first one twice, to show that the work counts repeat
exactly for a fixed seed.  With --out it writes all of it, the machine
block included, as JSON; perfbench/BASELINE.json was written this way.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import COUNT_METRICS  # noqa: E402

TRACE_SEEDS = (1, 2)


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = seed_range(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in seeds:
            res, lines = run_once(spec, name, seed, 0)
            report.setdefault("machine", json.loads(lines[0].split(" ", 1)[1]))
            runs.append(res)
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        entry = {"why": workload["why"],
                 "checks": {"attempted": sum(r["attempted"] for r in runs),
                            "failed": sum(r["failed"] for r in runs)},
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"])
            print(f"  {m['name']}: median {s['median']:.4g} {m['unit']}, "
                  f"spread {s['spread']:.3f} (bound {m['bound']})"
                  + ("" if s["steady"] else "  NOT STEADY"), flush=True)
        traced = [(seed, run_once(spec, name, seed, 1)[0])
                  for seed in TRACE_SEEDS[:1] + TRACE_SEEDS]
        first, again = traced[0][1], traced[1][1]
        repeat = all(first["metrics"][k]["value"] == again["metrics"][k]["value"]
                     for k in COUNT_METRICS)
        entry["checks"]["attempted"] += sum(r["attempted"] for _, r in traced)
        entry["checks"]["failed"] += sum(r["failed"] for _, r in traced)
        entry["counts_repeat_for_a_seed"] = repeat
        entry["per_layer"] = {
            f"seed {seed}": {k: v["value"] for k, v in r["metrics"].items()}
            for seed, r in traced[1:]}
        print(f"  traced seeds {TRACE_SEEDS}: counts repeat {repeat}", flush=True)
        print(f"  checks failed {entry['checks']['failed']} of {entry['checks']['attempted']}",
              flush=True)
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
