"""Check this checkout's outputs against every recorded perfbench digest.

    python3 scripts/check_references.py

Runs each seed of perfbench/reference_digests.json through the benchmark's
own Runner: one trend_grid sweep per sweep seed, one drop per drop seed of
the other workloads, each checked against its digest and the benchmark's
invariants. Prints every mismatch and a summary line per workload, and
exits 1 if any seed fails. The sweeps write into a temporary directory;
nothing is written under perfbench/.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402  (pins BLAS threads before numpy loads)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, digests in sorted(bench.load_references().items()):
            workload = bench.WORKLOADS[name]
            if not workload.sweep and workload.drops_per_chunk != 1:
                raise SystemExit(f"{name}: a chunk of {workload.drops_per_chunk} drops "
                                 "has no per-seed digest")
            runner = bench.Runner(workload, 0, Path(tmp), digests)  # chunk i runs seed i
            start, bad = time.perf_counter(), 0
            for seed in sorted(map(int, digests)):
                problems = runner.run_chunk(seed, False).problems
                for problem in problems:
                    print(f"{name} seed {seed}: {problem}")
                bad += bool(problems)
            print(f"{name}: {len(digests) - bad} of {len(digests)} seeds match "
                  f"({time.perf_counter() - start:.0f} s)")
            failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
