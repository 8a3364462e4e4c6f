"""Record a point of the BENCH trajectory: BENCH_<pr>.json for one checkout,
with its parent measured in the same session.

    python3 scripts/bench.py 8=. 7=../parent-checkout

Each ``PR=DIR`` names a checkout of the repository at that PR; the first is
the one recorded, the others are its baselines. For seed i = 0..RUNS-1 and
for each workload in turn, every checkout runs
``perfbench/run.py --trace 0 --seed i`` for BENCHMARK.json's ``run_seconds``,
the checkouts in an order that alternates from run to run, so checkouts
recorded together see the same machine. Then each checkout runs once traced
per workload at seed 0, and once ``pytest -m slow`` (acceptance 6, the
trend grid) with BLAS on one thread. RUNS = 10 gives the ten pairs a speed
claim needs.

``BENCH_<pr>.json`` at the repository root gets, for the first checkout and
under ``baselines`` for each other one: the git rev and manifest; per
workload the seeds, every run's output digest and correctness, the median,
quartiles and IQR of each end-to-end metric, the median calibration
slowdown, and the traced run's per-layer metrics with its count metrics
listed apart; and the wall and CPU seconds of the ``pytest -m slow`` run.
perfbench timings are scaled by each chunk's slowdown (end-to-end) or raw
(per-layer), see perfbench/README.md; the pytest times are raw.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
RUNS = 10
# manifest keys that vary per run or per workload
RUN_KEYS = ("workload", "seed", "seconds", "trace", "drop_ms_p90_percentile")


def count_metrics() -> list[str]:
    """perfbench's COUNT_METRICS, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "COUNT_METRICS")


def perfbench_run(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One perfbench/run.py run in checkout, parsed from its output."""
    seconds = SPEC["run_seconds"]
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True,
                         timeout=20 * seconds + 600).stdout.splitlines()
    rec = json.loads(out[-1])
    for line in out:
        key, _, rest = line.partition(" ")
        if key == "manifest":
            rec["manifest"] = json.loads(rest)
        elif key == "output_digest":
            rec["output_digest"] = rest.split(" ", 1)[0]
            rec["reference_match"] = "(matches reference)" in rest
        elif key == "slowdown":
            rec["slowdown"] = float(rest.split(" ", 1)[0])
    rec["metrics"] = {k: v["value"] for k, v in rec["metrics"].items()}
    print(f"{checkout} {workload} seed {seed} trace {int(trace)}: correct={rec['correct']} "
          f"{'' if trace else rec['metrics']['frames_per_s']}", flush=True)
    return rec


def slow_tests(checkout: Path) -> dict:
    """Wall and CPU seconds of one ``pytest -m slow`` run in checkout, BLAS
    pinned to one thread as perfbench pins it."""
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-m", "slow"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=3600)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = (proc.stdout.strip().splitlines() or [""])[-1]
    print(f"{checkout} pytest -m slow: {result!r} wall {wall:.1f} s cpu {cpu:.1f} s", flush=True)
    return {"command": "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q -m slow",
            "passed": proc.returncode == 0, "result": result, "wall_s": wall, "cpu_s": cpu}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def record(pr: str, runs: list[dict], traced: dict[str, dict], slow: dict, counts: list[str]) -> dict:
    manifest = {k: v for k, v in runs[0]["manifest"].items() if k not in RUN_KEYS}
    workloads = {}
    for name in WORKLOADS:
        mine = [r for r in runs if r["manifest"]["workload"] == name]
        t = traced[name]
        workloads[name] = {
            "seeds": [r["manifest"]["seed"] for r in mine],
            "seconds": mine[0]["manifest"]["seconds"],
            "drop_ms_p90_percentile": mine[0]["manifest"]["drop_ms_p90_percentile"],
            "correct": all(r["correct"] for r in mine) and t["correct"],
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "output_digests": [[r["output_digest"], r["reference_match"]] for r in mine],
            "slowdown_median": statistics.median(r["slowdown"] for r in mine),
            "end_to_end": {m: summary([r["metrics"][m] for r in mine]) for m in END_TO_END},
            "traced": {
                "seed": t["manifest"]["seed"],
                "output_digest": [t["output_digest"], t["reference_match"]],
                "per_layer": {k: v for k, v in t["metrics"].items() if k not in counts},
                "counts": {k: t["metrics"][k] for k in counts},
            },
        }
    return {"pr": int(pr), "git_rev": manifest.pop("git_rev"), "manifest": manifest,
            "workloads": workloads, "acceptance_6": slow}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+", metavar="PR=DIR")
    args = ap.parse_args(argv)
    checkouts = {}
    for arg in args.checkouts:
        pr, _, path = arg.partition("=")
        if not pr.isdigit() or not (Path(path) / "perfbench" / "run.py").is_file():
            ap.error(f"{arg!r}: need PR=DIR with DIR a checkout holding perfbench/run.py")
        checkouts[pr] = Path(path).resolve()

    runs = {pr: [] for pr in checkouts}
    order = list(checkouts)
    for i in range(RUNS):
        for workload in WORKLOADS:
            for pr in order if i % 2 == 0 else order[::-1]:
                runs[pr].append(perfbench_run(checkouts[pr], workload, i, False))
    traced = {pr: {} for pr in checkouts}
    for workload in WORKLOADS:
        for pr in order:
            traced[pr][workload] = perfbench_run(checkouts[pr], workload, 0, True)

    slow = {pr: slow_tests(checkouts[pr]) for pr in order}

    counts = count_metrics()
    recs = {pr: record(pr, runs[pr], traced[pr], slow[pr], counts) for pr in order}
    subject = recs.pop(order[0])
    subject["baselines"] = recs
    path = ROOT / f"BENCH_{order[0]}.json"
    path.write_text(json.dumps(subject, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
