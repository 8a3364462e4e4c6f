"""Workloads, measurement and tracing for the sdma-fss benchmark.

Importing this module pins the BLAS/OpenMP thread pools to one thread
(before numpy is loaded) and puts the checkout's own ``src/`` first on
``sys.path``, so the benchmark always measures the library source next to
it and never an installed copy. ``run.py`` is the command-line entry point;
``selftest.py`` and ``record_reference.py`` reuse the pieces below.
"""

from __future__ import annotations

import os

# Must precede the first numpy import anywhere in the process: OpenBLAS reads
# these once when it is loaded. With two threads the seed spends ~1.7x the
# CPU time for no wall-time gain, so unpinned figures are not comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes
import dataclasses
import hashlib
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_digests.json"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sdma_fss  # noqa: E402
from sdma_fss import experiment, frame, grouping  # noqa: E402
from sdma_fss.experiment import RunMetrics, ScenarioConfig, SweepSpec  # noqa: E402

if not Path(sdma_fss.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"sdma_fss imported from {sdma_fss.__file__}, not from {SRC}")

DEFAULT_SEED = 0
SETUP_PROBES = 11
CAL_EVERY_S = 0.2
# calibration kernel time on the reference machine: a 2-core Xeon VM with
# Python 3.11, numpy 2.4.6 and one OpenBLAS thread, when uncontended
CAL_REF_S = 0.005


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """A closed-loop workload: chunks of drops run back to back.

    A sweep workload runs one ``run_sweep`` per chunk, every cell with the
    chunk's seed ``s + i``; the others run ``drops_per_chunk`` drops per
    chunk, on the next drop seeds of the block that starts at ``s``. Either
    way chunk ``i`` depends only on its seed, so digests can be recorded per
    seed.

    ``tail_pct`` is the percentile reported as ``drop_ms_p90``: the highest
    one with at least ten drops beyond it once ``min_drops`` drops are done.
    It is fixed per workload so that a faster program does not move it.
    """

    name: str
    sweep: bool
    drops_per_chunk: int
    tail_pct: int
    count_chunks: int  # traced count metrics cover exactly these leading chunks
    configs: Callable[[], list[ScenarioConfig]]

    @property
    def min_drops(self) -> int:
        return -(-10 * 100 // (100 - self.tail_pct))


GRID_BANDWIDTHS = [5.0, 10.0, 20.0]
GRID_ANTENNAS = [2, 8]
GRID_SUBBANDS = [1, 2, 3, 6]
FINITE_SUBBANDS = [1, 3, 6]


def _grid_base() -> ScenarioConfig:
    return ScenarioConfig(num_ms=12, los=True, frames_per_drop=16)


def _grid_configs() -> list[ScenarioConfig]:
    # the cells run_sweep derives from the base, built here so that set-up
    # pays for their validation once, as a sweep would
    cells = [
        ScenarioConfig(
            bandwidth_mhz=bw, num_antennas=m, num_ms=12, num_subbands=sb,
            los=True, frames_per_drop=16,
        )
        for bw in GRID_BANDWIDTHS for m in GRID_ANTENNAS for sb in GRID_SUBBANDS
    ]
    return [_grid_base()] + cells


def _finite_configs() -> list[ScenarioConfig]:
    return [
        ScenarioConfig(
            bandwidth_mhz=10.0, num_antennas=4, num_ms=12, num_subbands=sb,
            saturated_traffic=False, offered_bytes_per_frame_total=8000.0,
            frames_per_drop=20,
        )
        for sb in FINITE_SUBBANDS
    ]


def _saturated_configs() -> list[ScenarioConfig]:
    return [ScenarioConfig(num_subbands=6, frames_per_drop=100)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trend_grid", True,
                 len(GRID_BANDWIDTHS) * len(GRID_ANTENNAS) * len(GRID_SUBBANDS),
                 90, 4, _grid_configs),
        Workload("finite_rate", False, 1, 85, 30, _finite_configs),
        Workload("saturated_long", False, 1, 80, 10, _saturated_configs),
    )
}


# ---------------------------------------------------------------- outputs and checks


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def metrics_digest(m: RunMetrics) -> str:
    """Digest of every RunMetrics field except the wall time."""
    fields = dataclasses.asdict(m)
    del fields["wall_time_s"]
    return short_hash(json.dumps(fields, sort_keys=True).encode())


def check_metrics(cfg: ScenarioConfig, m: RunMetrics) -> list[str]:
    """Invariants every drop must satisfy, whatever its seed."""
    problems = []
    if m.frames != cfg.frames_per_drop:
        problems.append(f"frames {m.frames} != {cfg.frames_per_drop}")
    if len(m.per_ms_served_bytes) != cfg.num_ms:
        problems.append("per-MS served list has the wrong length")
    if sum(m.per_ms_served_bytes) != m.transmitted_bytes:
        problems.append("per-MS served bytes do not sum to transmitted bytes")
    if not 0 < m.transmitted_bytes <= m.generated_bytes - m.dropped_bytes:
        problems.append("byte conservation violated or nothing transmitted")
    if m.goodput_bytes_per_s != m.transmitted_bytes / (m.frames * cfg.frame_duration_s):
        problems.append("goodput disagrees with transmitted bytes")
    if not 0.0 < m.map_overhead_fraction < 1.0:
        problems.append(f"MAP overhead fraction {m.map_overhead_fraction} outside (0, 1)")
    if not 0 < m.util_evals_max_frame <= m.util_evals:
        problems.append("util_evals_max_frame outside (0, util_evals]")
    return problems


def check_sweep_rows(rows: list[dict], flows_csv: Path, cells: int) -> list[str]:
    problems = []
    if len(rows) != cells:
        problems.append(f"{len(rows)} sweep rows")
    served: Counter = Counter()
    for fr in experiment.read_rows(flows_csv):
        served[(fr["bandwidth_mhz"], fr["num_antennas"], fr["num_subbands"])] += int(fr["served_bytes"])
    for r in rows:
        if r["error"]:
            problems.append(f"error row: {r['error']}")
            continue
        key = (str(r["bandwidth_mhz"]), str(r["num_antennas"]), str(r["num_subbands"]))
        tx, gen, dropped = r["transmitted_bytes"], r["generated_bytes"], r["dropped_bytes"]
        if served[key] != tx or not 0 < tx <= gen - dropped:
            problems.append(f"byte accounting broken in cell {key}")
    return problems


def load_references() -> dict[str, dict[str, str]]:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------- tracing


class ClampCounter(logging.Handler):
    """Counts the clamped-initial-limit warnings of ``sdma_fss.frame`` and
    keeps them off stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.msg.startswith("initial vertical limit"):
            self.count += 1
        else:
            sys.stderr.write(self.format(record) + "\n")


def clamp_counter() -> ClampCounter:
    """The process's one ClampCounter, attached on first use."""
    logger = logging.getLogger(frame.__name__)
    for handler in logger.handlers:
        if isinstance(handler, ClampCounter):
            return handler
    handler = ClampCounter()
    logger.addHandler(handler)
    logger.propagate = False
    return handler


# (module, name) pairs that run_drop calls through, grouped by layer
LAYERS = {
    "channel": [(experiment, "generate_channel"), (experiment, "decimate_csi")],
    "qos": [(experiment, "generate_traffic"), (experiment, "build_candidate_list"),
            (experiment, "commit_transmissions"), (experiment, "update_pf_averages")],
    "grouping": [(experiment, "form_groups")],
    "phy": [(grouping, "select_mcs_batch")],
    "frame": [(experiment, "frame_construction"), (frame, "pack_group_area")],
    "experiment": [(experiment, "run_drop")],
}


@dataclass
class Spans:
    """Spans aggregated per traced name, plus counts taken at the same
    boundaries."""

    self_s: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)

    def add(self, other: "Spans") -> None:
        for name in ("self_s", "total_s", "calls", "counts"):
            getattr(self, name).update(getattr(other, name))


class Tracer(Spans):
    """Spans around calls through module-level names of the library.

    While active, each traced name is replaced by a wrapper that times the
    call and subtracts the time of the spans nested inside it, so ``self_s``
    holds each name's self time. Spans are aggregated per name as they close
    rather than kept one by one. ``full=False`` traces only ``run_drop``,
    which every run needs for drop latency.
    """

    def __init__(self, full: bool):
        super().__init__()
        self.targets = [t for layer in LAYERS.values() for t in layer] if full else [
            (experiment, "run_drop")
        ]
        self.drop_s: list[float] = []
        self._stack: list[float] = []
        self._seen_active: set[tuple[int, ...]] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, name in self.targets:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        hook = getattr(self, f"_on_{name}", None)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                self.self_s[name] += dur - child
                self.total_s[name] += dur
                self.calls[name] += 1
                if stack:
                    stack[-1] += dur
            if hook is not None:
                hook(out, args, dur)
            return out

        return traced

    def _on_run_drop(self, out, args, dur):
        self.drop_s.append(dur)
        self.counts["frames"] += out.frames
        self._seen_active.clear()

    def _on_generate_traffic(self, out, args, dur):
        self.counts["traffic_bytes"] += out.generated_bytes

    def _on_build_candidate_list(self, out, args, dur):
        self.counts["candidate_entries"] += len(out)

    def _on_form_groups(self, out, args, dur):
        active = tuple(sorted(set(args[2])))
        self.counts["repeat_active"] += active in self._seen_active
        self._seen_active.add(active)
        groups = out.groups()
        self.counts["groups"] += len(groups)
        self.counts["group_members"] += sum(len(g.members) for g in groups)

    def _on_select_mcs_batch(self, out, args, dur):
        self.counts["phy_rows"] += args[0].shape[0]

    def _on_frame_construction(self, out, args, dur):
        stats = out.build_stats
        self.counts["util_evals"] += stats.util_evals
        self.counts["rounds"] += stats.rounds
        self.counts["commits"] += len(stats.accepted_utilities)
        self.counts["map_ies"] += out.map_region.ie_count


# ---------------------------------------------------------------- running chunks


@dataclass
class ChunkResult:
    drops: int
    frames: int
    failed: int
    wall_s: float  # time inside the library calls of the chunk
    cpu_s: float
    digest: str
    trace: Optional[Tracer] = None
    clamps: int = 0
    slowdown: float = 1.0  # machine slowdown while the chunk ran, see calibrate()
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs one workload's chunks and checks their outputs."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, references: dict[str, str]):
        self.w = workload
        self.seed = seed
        self.tmp = tmp
        self.refs = references
        self.configs = workload.configs()
        self.clamps = clamp_counter()

    def chunk_seed(self, i: int) -> int:
        return self.seed + i * (1 if self.w.sweep else self.w.drops_per_chunk)

    def drop_config(self, drop_seed: int) -> ScenarioConfig:
        # a function of the drop seed alone, so each drop seed has one digest
        return self.configs[drop_seed % len(self.configs)]

    def reference_digest(self, i: int) -> Optional[str]:
        """Recorded digest of chunk ``i``, or None where none was recorded."""
        seed = self.chunk_seed(i)
        if self.w.sweep:
            return self.refs.get(str(seed))
        drops = [self.refs.get(str(d)) for d in range(seed, seed + self.w.drops_per_chunk)]
        return None if None in drops else short_hash(" ".join(drops).encode())

    def run_chunk(self, i: int, full_trace: bool) -> ChunkResult:
        clamps0 = self.clamps.count
        with Tracer(full_trace) as tracer:
            if self.w.sweep:
                res = self._sweep_chunk(self.chunk_seed(i))
            else:
                res = self._drop_chunk(self.chunk_seed(i))
        res.trace = tracer
        res.clamps = self.clamps.count - clamps0
        return res

    def _sweep_chunk(self, seed: int) -> ChunkResult:
        base = self.configs[0]
        spec = SweepSpec(
            bandwidths_mhz=GRID_BANDWIDTHS, antennas=GRID_ANTENNAS, users=[base.num_ms],
            subbands=GRID_SUBBANDS, los=[base.los], seeds=[seed],
        )
        out = self.tmp / "sweep"
        c0, t0 = time.process_time(), time.perf_counter()
        rows = experiment.run_sweep(base, spec, jobs=1, out_dir=out)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        digest = short_hash((out / "rows.csv").read_bytes() + (out / "flows.csv").read_bytes())
        problems = check_sweep_rows(rows, out / "flows.csv", self.w.drops_per_chunk)
        ref = self.refs.get(str(seed))
        if ref not in (None, digest):
            problems.append(f"sweep seed {seed}: digest {digest} != reference {ref}")
        drops = len(rows)
        return ChunkResult(
            drops=drops, frames=drops * base.frames_per_drop,
            failed=drops if problems else 0, wall_s=wall, cpu_s=cpu,
            digest=digest, problems=problems,
        )

    def _drop_chunk(self, seed: int) -> ChunkResult:
        res = ChunkResult(0, 0, 0, 0.0, 0.0, "")
        digests = []
        for d in range(seed, seed + self.w.drops_per_chunk):
            cfg = self.drop_config(d)
            res.drops += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                m = experiment.run_drop(cfg, d)
            except Exception as exc:  # a failing drop is counted, the run goes on
                res.wall_s += time.perf_counter() - t0
                res.cpu_s += time.process_time() - c0
                res.failed += 1
                res.problems.append(f"drop {d}: {type(exc).__name__}: {exc}")
                continue
            res.wall_s += time.perf_counter() - t0
            res.cpu_s += time.process_time() - c0
            res.frames += m.frames
            digest = metrics_digest(m)
            digests.append(digest)
            problems = check_metrics(cfg, m)
            ref = self.refs.get(str(d))
            if ref not in (None, digest):
                problems.append(f"digest {digest} != reference {ref}")
            if problems:
                res.failed += 1
                res.problems.extend(f"drop {d}: {p}" for p in problems)
        res.digest = short_hash(" ".join(digests).encode())
        return res


# ---------------------------------------------------------------- metrics


def setup_probe(workload_name: str) -> None:
    """Child side of the set-up measurement: build and validate the
    workload's configs, then report the clock at which the first drop
    would start."""
    WORKLOADS[workload_name].configs()
    print(repr(time.monotonic()))


# A fixed mix of interpreter work and small numpy calls, like the simulator's
# own, that no change to the library can speed up or slow down.
_CAL_A = np.stack([4.0 * np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4)] * 16)
_CAL_B = np.ones((16, 4, 3))


def calibration_kernel() -> float:
    """Wall time of one pass of the fixed calibration work."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(20_000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    sorted(range(10_000), key=lambda x: -x % 13)
    for _ in range(150):
        np.linalg.solve(_CAL_A, _CAL_B)
        np.abs(_CAL_A).sum(axis=1)
    return time.perf_counter() - t0


def calibrate(work_s: float) -> list[float]:
    """Calibration samples after ``work_s`` seconds of measured work: about
    one per CAL_EVERY_S, at least one."""
    return [calibration_kernel() for _ in range(max(1, round(work_s / CAL_EVERY_S)))]


def slowdown(before: list[float], after: list[float]) -> float:
    """The machine's slowdown against the reference, from the calibration
    samples that bracket a measurement."""
    return statistics.fmean(before + after) / CAL_REF_S


def measure_setup(workload: Workload) -> list[float]:
    """Interpreter start to first drop, once per fresh child interpreter,
    each divided by the slowdown measured around it.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's reading and the
    parent's are on one time base."""
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import bench; "
        f"bench.setup_probe({workload.name!r})"
    )
    times = []
    before = calibrate(0.0)
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        t = float(out.stdout.strip().splitlines()[-1]) - t0
        after = calibrate(t)
        times.append(t / slowdown(before, after))
        before = after
    return times


def end_to_end_metrics(w: Workload, chunks: list[ChunkResult], setup: list[float]) -> dict:
    """End-to-end metrics, with every timing scaled to the reference speed.

    The machine's cores are shared, and contended stretches of seconds to
    minutes slow every drop by up to 2x. Each chunk's times are therefore
    divided by its ``slowdown``: how much slower than on the reference
    machine the fixed calibration kernel ran just before and after it.
    """
    frames = sum(c.frames for c in chunks)
    drop_ms = [1e3 * s / c.slowdown for c in chunks for s in c.trace.drop_s]
    return {
        "frames_per_s": frames / sum(c.wall_s / c.slowdown for c in chunks),
        "cpu_ms_per_frame": 1e3 * sum(c.cpu_s / c.slowdown for c in chunks) / frames,
        "drop_ms_p50": statistics.median(drop_ms),
        "drop_ms_p90": float(np.percentile(drop_ms, w.tail_pct)),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(w: Workload, traced: list[ChunkResult], untraced_wall_s: float) -> dict:
    """Times come from every traced chunk; counts only from the first
    ``count_chunks`` chunks, so that they repeat exactly for a seed."""
    t = Spans()
    p = Spans()
    for i, c in enumerate(traced):
        for acc in (t, p) if i < w.count_chunks else (t,):
            acc.add(c.trace)
            acc.counts["drops"] += c.drops
            acc.counts["clamps"] += c.clamps
            acc.counts["loop_s"] += c.wall_s
    tc, pc = t.counts, p.counts
    frames, drops, pframes = tc["frames"], tc["drops"], pc["frames"]
    us_per_frame = lambda *names: 1e6 * sum(t.self_s[n] for n in names) / frames
    drop_wall = t.total_s["run_drop"]
    metrics = {
        "channel.ms_per_drop": 1e3 * (t.self_s["generate_channel"] + t.self_s["decimate_csi"]) / drops,
        "qos.traffic.us_per_frame": us_per_frame("generate_traffic"),
        "qos.traffic.us_per_kB": 1e6 * t.self_s["generate_traffic"] / (tc["traffic_bytes"] / 1e3),
        "qos.traffic.kB_per_frame": pc["traffic_bytes"] / 1e3 / pframes,
        "qos.candidates.us_per_frame": us_per_frame("build_candidate_list"),
        "qos.candidates.entries_per_frame": pc["candidate_entries"] / pframes,
        "qos.commit.us_per_frame": us_per_frame("commit_transmissions", "update_pf_averages"),
        "grouping.ms_per_call": 1e3 * t.self_s["form_groups"] / t.calls["form_groups"],
        "grouping.calls_per_frame": p.calls["form_groups"] / pframes,
        "grouping.repeat_active_frac": pc["repeat_active"] / p.calls["form_groups"],
        "grouping.groups_per_call": pc["groups"] / p.calls["form_groups"],
        "grouping.mean_group_size": pc["group_members"] / pc["groups"],
        "phy.us_per_call": 1e6 * t.self_s["select_mcs_batch"] / t.calls["select_mcs_batch"],
        "phy.rows_per_call": pc["phy_rows"] / p.calls["select_mcs_batch"],
        "phy.calls_per_grouping": p.calls["select_mcs_batch"] / p.calls["form_groups"],
        "frame.us_per_frame": us_per_frame("frame_construction"),
        "frame.pack.us_per_frame": us_per_frame("pack_group_area"),
        "frame.pack.calls_per_frame": p.calls["pack_group_area"] / pframes,
        "frame.util_evals_per_frame": pc["util_evals"] / pframes,
        "frame.rounds_per_frame": pc["rounds"] / pframes,
        "frame.accept_ratio": pc["commits"] / pc["util_evals"],
        "frame.map_ies_per_frame": pc["map_ies"] / pframes,
        "frame.init_limit_clamps_per_drop": pc["clamps"] / pc["drops"],
        "experiment.ms_per_drop": 1e3 * t.self_s["run_drop"] / drops,
        "experiment.sweep_overhead_ms": 1e3 * (tc["loop_s"] - drop_wall) / drops,
    }
    for layer, targets in LAYERS.items():
        metrics[f"{layer}.share"] = sum(t.self_s[name] for _, name in targets) / drop_wall
    metrics["trace_overhead_frac"] = tc["loop_s"] / untraced_wall_s - 1.0
    return metrics


COUNT_METRICS = [
    "qos.traffic.kB_per_frame", "qos.candidates.entries_per_frame",
    "grouping.calls_per_frame", "grouping.repeat_active_frac", "grouping.groups_per_call",
    "grouping.mean_group_size", "phy.rows_per_call", "phy.calls_per_grouping",
    "frame.pack.calls_per_frame", "frame.util_evals_per_frame", "frame.rounds_per_frame",
    "frame.accept_ratio", "frame.map_ies_per_frame", "frame.init_limit_clamps_per_drop",
]


# ---------------------------------------------------------------- manifest


def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, read through its own API."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def _cpu_model() -> Optional[str]:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def manifest(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "sdma_fss").glob("*.py")):
        src_digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_rev": _git_rev(),
        "src_digest": src_digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "drop_ms_p90_percentile": workload.tail_pct,
    }


# ---------------------------------------------------------------- one run


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory inside the checkout, removed on exit."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the report as a dict.

    Runs chunks until ``seconds`` have passed and enough drops (for the
    tail percentile) or chunks (for the traced counts) are done. A traced
    run times every chunk twice on the same seeds, once with every span and
    once with only ``run_drop``, alternating which goes first; the two must
    produce the same outputs.
    """
    references = load_references().get(workload.name, {})
    setup = [] if trace else measure_setup(workload)
    with scratch_dir() as tmp:
        runner = Runner(workload, seed, Path(tmp), references)
        chunks: list[ChunkResult] = []
        untraced_wall = 0.0
        before = [] if trace else calibrate(0.0)
        start = time.perf_counter()
        i = 0
        while True:
            done = time.perf_counter() - start >= seconds
            if trace:
                if done and i >= workload.count_chunks:
                    break
                order = (False, True) if i % 2 == 0 else (True, False)
                pair = {full: runner.run_chunk(i, full) for full in order}
                if pair[False].digest != pair[True].digest:
                    pair[True].problems.append(f"chunk {i}: traced and untraced outputs differ")
                    pair[True].failed = pair[True].drops
                untraced_wall += pair[False].wall_s
                chunks.append(pair[True])
            else:
                if done and sum(c.drops for c in chunks) >= workload.min_drops:
                    break
                chunk = runner.run_chunk(i, False)
                after = calibrate(chunk.wall_s)
                chunk.slowdown = slowdown(before, after)
                before = after
                chunks.append(chunk)
            i += 1

    attempted = sum(c.drops for c in chunks)
    failed = sum(c.failed for c in chunks)
    metrics = (
        per_layer_metrics(workload, chunks, untraced_wall) if trace
        else end_to_end_metrics(workload, chunks, setup)
    )
    return {
        "slowdown": None if trace else statistics.median(c.slowdown for c in chunks),
        "manifest": manifest(workload, seed, seconds, trace),
        "output_digest": chunks[0].digest,
        "reference_digest": runner.reference_digest(0),
        "failed_frac": failed / attempted,
        "problems": [p for c in chunks for p in c.problems],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
