"""Benchmark entry point.

    python3 perfbench/run.py --workload trend_grid --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Prints the manifest, the output digest and
every metric by name and unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402  (pins BLAS threads before numpy loads)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    rep = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    print("manifest " + json.dumps(rep["manifest"], sort_keys=True))
    ref = rep["reference_digest"]
    verdict = "no reference for this seed" if ref is None else (
        "matches reference" if ref == rep["output_digest"] else f"DIFFERS from reference {ref}"
    )
    print(f"output_digest {rep['output_digest']} ({verdict})")
    if rep["slowdown"] is not None:
        print(f"slowdown {rep['slowdown']!r} (median over chunks of the calibration kernel's "
              f"time over its reference {bench.CAL_REF_S} s; each chunk's timings are divided "
              "by its own slowdown)")
    for problem in rep["problems"]:
        print(f"problem {problem}")
    print(f"failed_frac {rep['failed_frac']!r} fraction ({rep['failed']}/{rep['attempted']} drops)")
    for name, value in rep["metrics"].items():
        print(f"{name} {value!r} {units[name]}")

    result = {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in rep["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
