"""Record a point of the BENCH trajectory: BENCH_<pr>.json for one checkout,
with its parent measured in the same session.

    python3 scripts/bench.py 8=. 7=../parent-checkout

Each ``PR=DIR`` names a checkout of the repository at that PR; the first is
the one recorded, the others are its baselines. First each checkout's
``src/`` and ``perfbench/`` are byte-compiled (``python -m compileall``, even
under ``PYTHONDONTWRITEBYTECODE``), so ``setup_s`` never times a compile.
Then, for seed i = 0..RUNS-1 and
for each workload in turn, every checkout runs
``perfbench/run.py --trace 0 --seed i`` for BENCHMARK.json's ``run_seconds``,
the checkouts in an order that alternates from run to run, so checkouts
recorded together see the same machine. Then each checkout runs traced
(``--trace 1``) per workload at seeds 0..TRACED_RUNS-1 in the same
alternating order, and once ``pytest -m slow`` (acceptance 6, the trend
grid) with BLAS on one thread. RUNS = 10 gives the ten pairs a speed claim
needs.

``BENCH_<pr>.json`` at the repository root gets, for the first checkout and
under ``baselines`` for each other one: the git rev and manifest; per
workload the seeds, every run's output digest and correctness, the median,
quartiles and IQR of each end-to-end metric, the median calibration
slowdown, and the traced run's per-layer metrics with its count metrics
listed apart; and the wall and CPU seconds of the ``pytest -m slow`` run.
perfbench scales the end-to-end timings by each chunk's slowdown (see
perfbench/README.md) but reports a traced run's per-layer times raw and
prints no slowdown for it. So each traced run is bracketed by perfbench's
own calibration kernel, run in a child interpreter of the checkout, and its
per-layer times (units ms, us, us/kB) are divided by the slowdown that
gives; the record holds the median and quartiles over the traced seeds, and
each seed's counts. The pytest times are raw.

After writing the file it prints a claim check: per workload and
end-to-end metric, the subject's and each baseline's median, their ratio,
the baseline's IQR, how many of the same-seed pairs moved the better way,
and a verdict: ``gain`` when at least 9 in 10 pairs moved the better way and
the median moved that way by more than the baseline's IQR, ``worse beyond
bound`` when the median is worse than the baseline's by more than the
metric's bound in BENCHMARK.json, ``within noise`` otherwise.
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
TRACED_RUNS = 3
# per-layer metrics that are times, and so scale with the machine's slowdown
TIME_UNITS = ("ms", "us", "us/kB")
SCALED = [m["name"] for m in SPEC["per_layer"] if m["unit"] in TIME_UNITS]
# manifest keys that vary per run or per workload
RUN_KEYS = ("workload", "seed", "seconds", "trace", "drop_ms_p90_percentile")


def count_metrics() -> list[str]:
    """perfbench's COUNT_METRICS, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "COUNT_METRICS")


def compile_bytecode(checkout: Path) -> None:
    """Byte-compile checkout's src/ and perfbench/, with bytecode writes
    allowed whatever this shell sets, so that every set-up probe imports
    from current bytecode instead of compiling stale or missing modules."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout,
                   env=env, check=True, timeout=600)


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


def calibration(checkout: Path) -> dict:
    """perfbench's calibration samples for about 2 s of work, taken after one
    warm-up pass in a child interpreter of checkout, and its reference time."""
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import bench; "
            "bench.calibrate(0.0); "
            "print(json.dumps({'ref': bench.CAL_REF_S, 'samples': bench.calibrate(2.0)}))")
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True,
                         text=True, check=True, timeout=600).stdout
    return json.loads(out.splitlines()[-1])


def traced_run(checkout: Path, workload: str, seed: int) -> dict:
    """One traced perfbench run with its time metrics divided by the
    slowdown of the calibration samples that bracket it."""
    before = calibration(checkout)
    rec = perfbench_run(checkout, workload, seed, True)
    after = calibration(checkout)
    rec["slowdown"] = statistics.fmean(before["samples"] + after["samples"]) / before["ref"]
    for name in SCALED:
        rec["metrics"][name] /= rec["slowdown"]
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


def record(pr: str, runs: list[dict], traced: list[dict], slow: dict, counts: list[str]) -> dict:
    manifest = {k: v for k, v in runs[0]["manifest"].items() if k not in RUN_KEYS}
    workloads = {}
    for name in WORKLOADS:
        mine = [r for r in runs if r["manifest"]["workload"] == name]
        t = [r for r in traced if r["manifest"]["workload"] == name]
        workloads[name] = {
            "seeds": [r["manifest"]["seed"] for r in mine],
            "seconds": mine[0]["manifest"]["seconds"],
            "drop_ms_p90_percentile": mine[0]["manifest"]["drop_ms_p90_percentile"],
            "correct": all(r["correct"] for r in mine + t),
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "output_digests": [[r["output_digest"], r["reference_match"]] for r in mine],
            "slowdown_median": statistics.median(r["slowdown"] for r in mine),
            "end_to_end": {m: summary([r["metrics"][m] for r in mine]) for m in END_TO_END},
            "traced": {
                "seeds": [r["manifest"]["seed"] for r in t],
                "output_digests": [[r["output_digest"], r["reference_match"]] for r in t],
                "slowdowns": [r["slowdown"] for r in t],
                "scaled": SCALED,
                "per_layer": {k: summary([r["metrics"][k] for r in t])
                              for k in t[0]["metrics"] if k not in counts},
                "counts": {k: [r["metrics"][k] for r in t] for k in counts},
            },
        }
    return {"pr": int(pr), "git_rev": manifest.pop("git_rev"), "manifest": manifest,
            "workloads": workloads, "acceptance_6": slow}


def claim_check(subject: dict) -> list[str]:
    """One line per workload, end-to-end metric and baseline: both medians,
    their ratio, the baseline's IQR as a share of its median, in how many
    same-seed pairs the subject moved the metric the better way, and the
    verdict (see the module docstring)."""
    higher = {m["name"]: m["better"] == "higher" for m in SPEC["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    lines = []
    for name, mine in subject["workloads"].items():
        for metric in END_TO_END:
            got = mine["end_to_end"][metric]
            for pr, base in subject["baselines"].items():
                theirs = base["workloads"][name]
                want = theirs["end_to_end"][metric]
                by_seed = dict(zip(theirs["seeds"], want["values"]))
                pairs = [(v, by_seed[s]) for s, v in zip(mine["seeds"], got["values"])
                         if s in by_seed]
                better = sum(a > b if higher[metric] else a < b for a, b in pairs)
                moved = got["median"] - want["median"]  # the better way if positive
                moved = moved if higher[metric] else -moved
                if pairs and 10 * better >= 9 * len(pairs) and moved > want["iqr"]:
                    verdict = "gain"
                elif moved < -bound[metric] * want["median"]:
                    verdict = "worse beyond bound"
                else:
                    verdict = "within noise"
                lines.append(f"{name} {metric}: {got['median']:.4g} vs {want['median']:.4g} "
                             f"(PR {pr}), ratio {got['median'] / want['median']:.3f}, "
                             f"baseline IQR {want['iqr'] / want['median']:.1%}, "
                             f"better in {better}/{len(pairs)} pairs: {verdict}")
    return lines


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

    for path in checkouts.values():
        compile_bytecode(path)
    runs = {pr: [] for pr in checkouts}
    order = list(checkouts)
    for i in range(RUNS):
        for workload in WORKLOADS:
            for pr in order if i % 2 == 0 else order[::-1]:
                runs[pr].append(perfbench_run(checkouts[pr], workload, i, False))
    traced = {pr: [] for pr in checkouts}
    for i in range(TRACED_RUNS):
        for workload in WORKLOADS:
            for pr in order if i % 2 == 0 else order[::-1]:
                traced[pr].append(traced_run(checkouts[pr], workload, i))

    slow = {pr: slow_tests(checkouts[pr]) for pr in order}

    counts = count_metrics()
    recs = {pr: record(pr, runs[pr], traced[pr], slow[pr], counts) for pr in order}
    subject = recs.pop(order[0])
    subject["baselines"] = recs
    path = ROOT / f"BENCH_{order[0]}.json"
    path.write_text(json.dumps(subject, indent=1) + "\n")
    print(f"wrote {path}")
    print("\n".join(claim_check(subject)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
