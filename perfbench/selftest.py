"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is printed with its unit, in the
     text lines and in the final JSON line, and no drop fails;
  2. the traced count metrics are identical across two runs;
  3. the traced spans cover at least 95% of run_drop wall time;
  4. the first full-size chunk of every workload at the default seed
     reproduces its recorded reference digest;
  5. in a directory holding only BENCHMARK.json and the benchmark, the
     benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402  (pins BLAS threads before numpy loads)
import run  # noqa: E402

TINY_FRAMES = {"trend_grid": 2, "finite_rate": 4, "saturated_long": 8}
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny(w: bench.Workload) -> bench.Workload:
    frames = TINY_FRAMES[w.name]
    configs = lambda: [dataclasses.replace(c, frames_per_drop=frames) for c in w.configs()]
    return dataclasses.replace(w, count_chunks=2, configs=configs)


def run_main(name: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    full = dict(bench.WORKLOADS)
    bench.WORKLOADS.update({name: tiny(w) for name, w in full.items()})
    bench.load_references = lambda: {}  # tiny configs have no recorded digests

    for name in full:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_main(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            printed = all(any(ln.startswith(f"{n} ") and ln.endswith(f" {u}") for ln in lines)
                          for n, u in want.items())
            check(got == want and printed, f"{name} trace={trace}: every metric printed with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={trace}: no failed drops")
            if trace:
                m = result["metrics"]
                again = run_main(name, trace)[1]["metrics"]
                same = all(m[n]["value"] == again[n]["value"] for n in bench.COUNT_METRICS)
                check(same, f"{name}: count metrics repeat exactly")
                coverage = 1.0 - m["experiment.share"]["value"]
                check(coverage >= 0.95, f"{name}: spans cover {coverage:.3f} of run_drop wall time")

    with bench.scratch_dir() as tmp:
        refs = json.loads(bench.REFERENCE_PATH.read_text())
        for name, w in full.items():
            runner = bench.Runner(w, bench.DEFAULT_SEED, Path(tmp), refs.get(name, {}))
            res = runner.run_chunk(0, False)
            ok = not res.problems and res.digest == runner.reference_digest(0)
            check(ok, f"{name}: default-seed output digest {res.digest} matches its reference")

    with bench.scratch_dir() as bare:
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", "finite_rate", "--seed", "0",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the library source the benchmark fails and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
