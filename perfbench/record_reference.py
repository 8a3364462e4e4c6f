"""Record the reference output digests in reference_digests.json.

    python3 perfbench/record_reference.py

Runs every workload, untimed, over a fixed block of seeds starting at 0 and
stores one digest per sweep seed (trend_grid) or per drop seed (the
others). The benchmark counts every later drop whose digest differs as
failed, so run this only on a commit whose outputs are known good; seeds
outside the block are checked by the invariants alone.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402  (pins BLAS threads before numpy loads)
from sdma_fss import experiment  # noqa: E402

# seeds covered per workload: enough for a default-length run from any
# workload seed in 0..21 to be checked drop by drop
SEEDS = {"trend_grid": 64, "finite_rate": 256, "saturated_long": 128}


def record(workload: bench.Workload, count: int, tmp: Path) -> dict[str, str]:
    runner = bench.Runner(workload, 0, tmp, {})
    digests = {}
    for seed in range(count):
        if workload.sweep:
            res = runner.run_chunk(seed, False)
            if res.problems:
                raise SystemExit(f"{workload.name} seed {seed}: {res.problems}")
            digests[str(seed)] = res.digest
        else:
            cfg = runner.drop_config(seed)
            m = experiment.run_drop(cfg, seed)
            problems = bench.check_metrics(cfg, m)
            if problems:
                raise SystemExit(f"{workload.name} drop {seed}: {problems}")
            digests[str(seed)] = bench.metrics_digest(m)
        print(f"{workload.name} {seed} {digests[str(seed)]}", file=sys.stderr)
    return digests


def main() -> int:
    with bench.scratch_dir() as tmp:
        refs = {name: record(bench.WORKLOADS[name], n, Path(tmp)) for name, n in SEEDS.items()}
    bench.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
