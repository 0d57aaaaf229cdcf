#!/usr/bin/env python3
"""randset benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; randset is imported from its `src/`.
The run times set-up (fresh interpreters importing randset, numpy and
scipy), then imports randset itself and times iterations of the workload,
at least three of them, for about S seconds; its figures are medians over
the iterations.  Every iteration runs the workload's experiments through
`expcli.build_config`, `expcli.run_experiment` and `expcli.write_records`,
the functions behind `randset EXPERIMENT ...`, with RANDSET_THREADS = 1,
and checks the records it wrote.  With --trace 1, untraced and traced
iterations alternate.  A workload with a pool check then runs once more
through the process pool, untimed, and must reproduce the records.

It prints readable lines, then one JSON object as its last line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
SETUP_CODE = "import randset, numpy, scipy, scipy.stats"
MIN_TIMED = 3
DEADLINE_S = 120.0  # stop iterating after this long even below MIN_TIMED


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def setup_seconds() -> float:
    """Median time from a fresh interpreter to randset ready to run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def without_runtime(path: Path) -> str:
    """The CSV text with the runtime_ms column, always the last, removed."""
    return "\n".join(line.rsplit(",", 1)[0]
                     for line in path.read_text(encoding="utf-8").splitlines())


def run_iteration(workload, seed: int, threads: int, out_dir: Path) -> dict:
    """One pass over the workload's experiments, timed as a whole."""
    from randset import expcli

    os.environ["RANDSET_THREADS"] = str(threads)
    runs = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for i, (experiment, options) in enumerate(workload.runs):
        path = out_dir / f"run-{i}.csv"
        try:
            cfg = expcli.build_config(experiment, {}, dict(
                options, seed=seed, output_path=str(path), format="csv"))
            records = expcli.run_experiment(cfg)
            expcli.write_records(records, cfg.output_path, cfg.format)
        except Exception:  # the command line would exit nonzero: a failed check
            runs.append((experiment, None, None, traceback.format_exc()))
        else:
            runs.append((experiment, cfg, records, None))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    result = {"wall_s": wall, "cpu_s": cpu, "checks": [], "text": [], "blocks": {}}
    for i, (experiment, cfg, records, error) in enumerate(runs):
        result["checks"].append((f"{experiment} exit code 0", error is None))
        if error is not None:
            print(f"perfbench: {experiment} failed: {error}", file=sys.stderr)
            result["text"].append(None)
            continue
        result["checks"] += checks.check_records(cfg, records)
        result["text"].append(without_runtime(out_dir / f"run-{i}.csv"))
        for r in records:
            result["blocks"][(experiment, r.d, r.lam)] = r.runtime_ms * 1e-3
    return result


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes
    import glob
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git" / "HEAD").is_file():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "RANDSET_THREADS": {"timed": 1, "pool check": os.cpu_count() or 1},
        "caches": cache_sizes(),
        "commit": commit,
        "platform": platform.platform(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Times the workload's iterations and checks their records."""
    workload = WORKLOADS[name]
    kinds = ("plain", "traced") if trace else ("plain",)
    timed = {kind: [] for kind in kinds}
    tracer = tracing.Tracer()
    layer_runs = []
    all_checks = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        done = min(len(v) for v in timed.values())
        count = sum(len(v) for v in timed.values())
        # once enough are timed, start no iteration expected to end too late
        if done >= MIN_TIMED and elapsed * (count + 1) / count > seconds:
            break
        if done >= 1 and elapsed >= DEADLINE_S:
            break
        kind = kinds[count % len(kinds)]
        if kind == "traced":
            tracer.reset()
            with tracer:
                it = run_iteration(workload, seed, 1, out_dir)
            layer_runs.append(tracing.layer_metrics(tracer.spans))
        else:
            it = run_iteration(workload, seed, 1, out_dir)
        all_checks += it["checks"]
        if count:
            all_checks.append(("records equal the first iteration's",
                               it["text"] == timed["plain"][0]["text"]))
        timed[kind].append(it)

    plain = timed["plain"]
    pool = None
    if workload.pool_check:
        pool = run_iteration(workload, seed, os.cpu_count() or 1, out_dir)
        all_checks += pool["checks"]
        all_checks.append(("pool records equal serial records",
                           pool["text"] == plain[0]["text"]))
    out = {
        "iterations": {kind: len(v) for kind, v in timed.items()},
        "wall_s": statistics.median(it["wall_s"] for it in plain),
        "cpu_s": statistics.median(it["cpu_s"] for it in plain),
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
    }
    if trace:
        layers = {key: statistics.median(run[key] for run in layer_runs)
                  for key in layer_runs[0]}
        for key in tracing.COUNT_METRICS:
            all_checks.append((f"{key} repeats", len({run[key] for run in layer_runs}) == 1))
        layers["expcli.block_s_max"] = statistics.median(
            max(it["blocks"].values(), default=0.0) for it in plain)
        layers["expcli.pool.wall_s"] = pool["wall_s"] if pool else 0.0
        layers["expcli.pool.block_inflation"] = statistics.mean(
            pool["blocks"][block] / statistics.median(it["blocks"][block] for it in plain)
            for block in pool["blocks"]) if pool else 0.0
        layers["trace.overhead_s"] = statistics.median(
            it["wall_s"] for it in timed["traced"]) - out["wall_s"]
        out["layers"] = layers
        write_spans(out_dir / "spans.csv", tracer.spans)
    failed = [name for name, ok in all_checks if not ok]
    for check in failed[:20]:
        print(f"perfbench: check failed: {check}", file=sys.stderr)
    out["attempted"] = len(all_checks)
    out["failed"] = len(failed)
    return out


def write_spans(path: Path, spans) -> None:
    """The spans of the last traced iteration: name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent\n")
        for s in spans:
            fh.write(f"{s[tracing.NAME]},{s[tracing.START]},{s[tracing.END]},"
                     f"{s[tracing.PARENT]}\n")


def import_source_tree() -> bool:
    """Imports randset from the checkout's src/; False if another copy won."""
    source = (SRC / "randset").resolve()
    sys.path.insert(0, str(SRC))
    import randset
    if Path(randset.__file__).resolve().parent != source:
        print(f"perfbench: imported randset from {randset.__file__}, not {source}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    specs = metric_specs()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs["workloads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "randset" / "__init__.py").is_file():
        print(f"perfbench: no randset source tree under {SRC}", file=sys.stderr)
        return 1
    try:
        setup_s = setup_seconds()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not import_source_tree():
        return 1
    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)

    print("machine " + json.dumps(machine(), sort_keys=True))
    iters = ", ".join(f"{n} {kind}" for kind, n in res["iterations"].items())
    print(f"workload {args.workload}, seed {args.seed}: {iters} timed iterations")
    if args.trace:
        values = res["layers"]
        units = specs["per_layer"]
    else:
        values = dict(wall_s=res["wall_s"], cpu_s=res["cpu_s"], setup_s=setup_s,
                      peak_rss_mb=res["peak_rss_mb"])
        units = specs["end_to_end"]
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"check_fail_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} checks failed)")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
