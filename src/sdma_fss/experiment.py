"""Scenario configuration, Monte-Carlo drops, sweeps and reporting.

A drop is one independent realization of MS placement and channels; the
channel is static within a drop (low mobility) and every frame runs the
full pipeline: traffic -> CSI -> grouping -> candidate list -> frame
construction -> commit. (cfg, seed) -> metrics is a pure function, so
sweep cells and seeds parallelize trivially and CSV output is bit-stable
across runs and worker counts.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .channel import ChannelParams, CsiReport, decimate_csi, generate_channel
from .frame import OfdmaFrame, frame_construction, initial_vertical_limit, predict_map_size
from .geometry import ConfigurationError, FrameGeometry, partition_frame
from .grouping import form_groups, link_evaluators
from .phy import McsTable, default_mcs_table
from .qos import (
    TrafficStats,
    build_candidate_list,
    commit_transmissions,
    generate_traffic,
    make_flows,
    update_pf_averages,
)

# (fft size, DL subchannels) per channel bandwidth in MHz; subchannel
# counts are kept divisible by every subband split in {1,2,3,6}
BANDWIDTH_DEFAULTS = {5.0: (512, 12), 10.0: (1024, 30), 20.0: (2048, 60)}
# the type a ScenarioConfig field's annotation names; a bool is no int or float
_FIELD_TYPES = {"bool": bool, "int": Integral, "Optional[int]": Integral, "float": Real,
                "Optional[str]": str}


@dataclass
class ScenarioConfig:
    bandwidth_mhz: float = 10.0
    num_antennas: int = 4
    num_ms: int = 12
    num_subbands: int = 1
    max_subbands: int = 6
    los: bool = True
    fft_size: Optional[int] = None
    num_subchannels: Optional[int] = None
    dl_columns: int = 17
    subcarrier_spacing_hz: float = 10937.5
    frame_duration_s: float = 5e-3
    frames_per_drop: int = 50
    num_seeds: int = 64
    csi_decimation: int = 8
    tx_power_dbm: float = 46.0
    noise_density_dbm_hz: float = -167.0
    cell_radius_m: float = 288.0
    min_distance_m: float = 10.0
    num_taps: int = 6
    rms_delay_spread_us: float = 0.5
    ricean_k_db: float = 7.0
    pathloss_exponent_nlos: float = 3.5
    pathloss_exponent_los: float = 2.6
    mcs_table_path: Optional[str] = None
    saturated_traffic: bool = True
    offered_bytes_per_frame_total: float = 0.0
    buffer_capacity_bytes: int = 13271
    max_groups_per_subband: Optional[int] = None
    allow_displacement: bool = False

    def __post_init__(self):
        for f in fields(self):  # a JSON config may carry "false", 2.5 or NaN where it is wrong
            v, kind = getattr(self, f.name), _FIELD_TYPES.get(f.type)
            if kind and not (isinstance(v, kind) and (kind is bool or not isinstance(v, bool))
                             or v is None and f.type.startswith("Optional")):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {v!r}")
        self._mcs_table = default_mcs_table()
        if self.mcs_table_path:  # a bad table file fails here, not in every drop of a sweep
            try:
                self._mcs_table = McsTable.from_json(self.mcs_table_path)
            except (OSError, ValueError) as exc:
                raise ConfigurationError(f"MCS table {self.mcs_table_path!r}: {exc}") from None
        if self.fft_size is None or self.num_subchannels is None:
            if self.bandwidth_mhz not in BANDWIDTH_DEFAULTS:
                raise ConfigurationError(
                    f"no geometry defaults for bandwidth {self.bandwidth_mhz} MHz; "
                    "set fft_size and num_subchannels explicitly"
                )
            fft, sc = BANDWIDTH_DEFAULTS[self.bandwidth_mhz]
            if self.fft_size is None:
                self.fft_size = fft
            if self.num_subchannels is None:
                self.num_subchannels = sc
        if self.num_ms < 0 or self.num_antennas < 1:
            raise ConfigurationError("need num_ms >= 0 and num_antennas >= 1")
        if self.geometry().num_subcarriers > self.fft_size:
            raise ConfigurationError(
                f"{self.geometry().num_subcarriers} data subcarriers exceed FFT size {self.fft_size}"
            )
        d = self.csi_decimation  # CSI samples sit at multiples of d; each subband needs one
        if not 1 <= d <= self.geometry().num_subcarriers or any(
            -(-sb.subcarrier_lo // d) * d >= sb.subcarrier_hi
            for sb in partition_frame(self.geometry())
        ):
            raise ConfigurationError(f"bad CSI decimation {d}")
        if self.frames_per_drop < 1 or self.num_seeds < 1:
            raise ConfigurationError("need frames_per_drop >= 1 and num_seeds >= 1")
        # time grows linearly with the load and memory with the buffer: capped at 10**7 B
        if not 0 <= self.offered_bytes_per_frame_total <= 10**7:
            raise ConfigurationError("offered_bytes_per_frame_total must be in [0, 10**7]")
        if not 0 < self.min_distance_m <= self.cell_radius_m < 1e150:  # the radius is squared
            raise ConfigurationError("need 0 < min_distance_m <= cell_radius_m < 1e150")
        if not 0 <= self.buffer_capacity_bytes <= 10**7:
            raise ConfigurationError("buffer_capacity_bytes must be in [0, 10**7]")
        for name in ("tx_power_dbm", "noise_density_dbm_hz", "ricean_k_db"):
            if not abs(getattr(self, name)) < 3000:  # 10 ** (dB / 10) must stay a finite float
                raise ConfigurationError(f"{name} must be finite and within +-3000 dB")
        for name in ("frame_duration_s", "subcarrier_spacing_hz", "rms_delay_spread_us",
                     "pathloss_exponent_los", "pathloss_exponent_nlos"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0")
        if self.num_taps < 1:
            raise ConfigurationError("need num_taps >= 1")
        if not (0 < self.noise_power_w < math.inf and self.tx_power_w > 0):
            raise ConfigurationError("noise and transmit power must be finite and > 0 W")
        tau = self.rms_delay_spread_us * 1e-6  # in seconds, as ChannelParams reads it
        if not 0 < tau * 2 * math.pi * self.num_taps * self.occupied_bandwidth_hz < math.inf:
            raise ConfigurationError("the largest tap phase in the band must be finite and > 0")
        if self.max_groups_per_subband is not None and self.max_groups_per_subband < 1:
            raise ConfigurationError("max_groups_per_subband must be >= 1")

    def geometry(self) -> FrameGeometry:
        return FrameGeometry(
            num_subchannels=self.num_subchannels,
            num_columns=self.dl_columns,
            num_subbands=self.num_subbands,
            max_subbands=self.max_subbands,
        )

    def channel_params(self) -> ChannelParams:
        return ChannelParams(
            num_ms=self.num_ms,
            num_subcarriers=self.geometry().num_subcarriers,
            subcarrier_spacing_hz=self.subcarrier_spacing_hz,
            num_antennas=self.num_antennas,
            num_taps=self.num_taps,
            rms_delay_spread_s=self.rms_delay_spread_us * 1e-6,
            ricean_k_db=self.ricean_k_db,
            los=self.los,
            pathloss_exponent_nlos=self.pathloss_exponent_nlos,
            pathloss_exponent_los=self.pathloss_exponent_los,
            cell_radius_m=self.cell_radius_m,
            min_distance_m=self.min_distance_m,
        )

    def mcs_table(self) -> McsTable:
        return self._mcs_table

    @property
    def occupied_bandwidth_hz(self) -> float:
        return self.geometry().num_subcarriers * self.subcarrier_spacing_hz

    @property
    def noise_power_w(self) -> float:
        dbm = self.noise_density_dbm_hz + 10.0 * np.log10(self.occupied_bandwidth_hz)
        return 10.0 ** (dbm / 10.0) / 1000.0

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** (self.tx_power_dbm / 10.0) / 1000.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class RunMetrics:
    goodput_bytes_per_s: float
    map_overhead_fraction: float
    map_overhead_columns_fraction: float
    per_ms_served_bytes: list[int]
    jain_fairness: float
    util_evals: int
    util_evals_max_frame: int
    frames: int
    transmitted_bytes: int
    generated_bytes: int
    dropped_bytes: int
    wall_time_s: float


def jain_index(values: Sequence[float]) -> float:
    x = np.asarray(values, dtype=float)
    if x.size == 0 or x.sum() == 0:
        return 1.0
    return float(x.sum() ** 2 / (x.size * (x**2).sum()))


class FrameRecord(NamedTuple):
    """What drop_frames yields per frame."""

    traffic: TrafficStats
    frame: OfdmaFrame
    served: dict[int, int]  # bytes served per MS


@functools.lru_cache(maxsize=1)
def _drop_csi(params: ChannelParams, seed: int, decimation: int,
              noise_power_w: float) -> CsiReport:
    """The drop's decimated CSI, with read-only arrays. The channel is a pure
    function of (params, seed) and params hold no subband split, so
    run_sweep's sibling tasks (one per split, run back to back) share one
    draw. Calls generate_channel and decimate_csi through this module's
    names, so a wrapper set on them sees every draw."""
    csi = decimate_csi(generate_channel(params, seed), decimation, noise_power_w)
    for a in (csi.sample_indices, csi.samples, csi.pathloss_db):
        a.flags.writeable = False
    return csi


def drop_frames(cfg: ScenarioConfig, seed: int) -> Iterator[FrameRecord]:
    """One drop frame by frame: a static channel and its link evaluators,
    then frames_per_drop MAC frames, each through traffic -> grouping (again
    only when the active set changes) -> candidate list -> frame
    construction -> commit and PF update. Yields each frame's traffic
    stats, the frame and the bytes it served per MS; a frame with no packet
    queued is MAP-only."""
    geometry = cfg.geometry()
    table = cfg.mcs_table()
    subbands = partition_frame(geometry)
    links = []  # with no MS there is no channel to draw
    if cfg.num_ms:  # the channel is static: one set of links scores groups all drop
        csi = _drop_csi(cfg.channel_params(), seed, cfg.csi_decimation, cfg.noise_power_w)
        links = link_evaluators(csi, subbands, table, cfg.tx_power_w)
    flows = make_flows(cfg.num_ms)
    ids = itertools.count()

    avg_mcs = table.entries[len(table.entries) // 2]
    init_columns = initial_vertical_limit(
        geometry,
        cfg.num_antennas,
        predict_map_size(geometry, avg_mcs, table.most_robust.bytes_per_slot),
    )

    grouping = None
    active_prev: Optional[tuple[int, ...]] = None
    for frame_index in range(cfg.frames_per_drop):
        tstats = generate_traffic(flows, frame_index, seed, cfg, ids)
        active = tuple(f.ms for f in flows if f.ids)
        if active != active_prev:
            grouping = form_groups(links, subbands, active, cfg.max_groups_per_subband)
            active_prev = active
        candidates = build_candidate_list(flows, grouping.best_bytes_per_slot)
        frame = frame_construction(
            grouping, candidates, geometry, table,
            init_columns=init_columns, allow_displacement=cfg.allow_displacement,
        )
        served = commit_transmissions(flows, frame.packed_packet_ids())
        update_pf_averages(flows, served)
        yield FrameRecord(tstats, frame, served)


def run_drop(cfg: ScenarioConfig, seed: int) -> RunMetrics:
    """Simulate one drop and total its frames (see drop_frames)."""
    t0 = time.perf_counter()
    geometry = cfg.geometry()
    frames = cfg.frames_per_drop
    per_ms = [0] * cfg.num_ms
    gen_bytes = 0
    drop_bytes = 0
    map_slot_sum = 0
    map_col_sum = 0
    util_evals = 0
    util_evals_max = 0

    for rec in drop_frames(cfg, seed):
        gen_bytes += rec.traffic.generated_bytes
        drop_bytes += rec.traffic.dropped_bytes
        for ms, nbytes in rec.served.items():
            per_ms[ms] += nbytes
        map_slot_sum += rec.frame.map_region.slots
        map_col_sum += rec.frame.map_region.columns
        util_evals += rec.frame.build_stats.util_evals
        util_evals_max = max(util_evals_max, rec.frame.build_stats.util_evals)

    tx_bytes = sum(per_ms)
    return RunMetrics(
        goodput_bytes_per_s=tx_bytes / (frames * cfg.frame_duration_s),
        map_overhead_fraction=map_slot_sum / (frames * geometry.frame_size_slots),
        map_overhead_columns_fraction=map_col_sum / (frames * geometry.num_columns),
        per_ms_served_bytes=per_ms,
        jain_fairness=jain_index(per_ms),
        util_evals=util_evals,
        util_evals_max_frame=util_evals_max,
        frames=frames,
        transmitted_bytes=tx_bytes,
        generated_bytes=gen_bytes,
        dropped_bytes=drop_bytes,
        wall_time_s=time.perf_counter() - t0,
    )


# sweep section key -> the ScenarioConfig field it sweeps. The order is that
# of the key columns of rows.csv/flows.csv, of their sort and of report cells.
SWEEP_AXES = {
    "bandwidths_mhz": "bandwidth_mhz",
    "antennas": "num_antennas",
    "users": "num_ms",
    "subbands": "num_subbands",
    "los": "los",
}
KEY_COLUMNS = [*SWEEP_AXES.values(), "seed"]
_AXIS_TYPES = {f.name: type(f.default) for f in fields(ScenarioConfig) if f.name in KEY_COLUMNS}
_AXIS_TYPES["seed"] = int


def _axis_value(field: str, value):
    """An axis value as its config field's type; CSV rows hold strings."""
    if _AXIS_TYPES[field] is bool:
        return str(value) in ("True", "true", "1")
    return _AXIS_TYPES[field](value)


@dataclass
class SweepSpec:
    bandwidths_mhz: list[float]
    antennas: list[int]
    users: list[int]
    subbands: list[int]
    los: list[bool]
    seeds: list[int]

    @classmethod
    def from_config(cls, cfg: ScenarioConfig, raw: Optional[dict] = None) -> "SweepSpec":
        """Axes absent from the sweep section take the base config's value.
        Each key needs a nonempty list of values of its field's type."""
        raw = {} if raw is None else raw
        if not isinstance(raw, dict):
            raise ConfigurationError(f"the sweep section must be a JSON object, got {raw!r}")
        unknown = set(raw) - {*SWEEP_AXES, "seeds"}
        if unknown:
            raise ConfigurationError(
                f"unknown sweep keys: {sorted(unknown)}; known: {[*SWEEP_AXES, 'seeds']}"
            )
        axes = {}
        for key, field in [*SWEEP_AXES.items(), ("seeds", "seed")]:
            default = list(range(cfg.num_seeds)) if key == "seeds" else [getattr(cfg, field)]
            values = raw.get(key, default)
            try:
                axes[key] = [_axis_value(field, v) for v in values]
            except (TypeError, ValueError, OverflowError):  # "x" or inf where an int belongs
                axes[key] = None
            if not values or not isinstance(values, list) or axes[key] != values:  # or 2.5 cut to 2
                raise ConfigurationError(f"sweep {key} must be a nonempty list of {field} values, "
                                         f"got {values!r}")
        return cls(**axes)


CSV_COLUMNS = [
    *KEY_COLUMNS,
    "frames", "goodput_bytes_per_s", "map_overhead_fraction",
    "map_overhead_columns_fraction", "transmitted_bytes", "generated_bytes",
    "dropped_bytes", "jain_fairness", "util_evals", "util_evals_max_frame",
    "error",
]

FLOW_CSV_COLUMNS = [*KEY_COLUMNS, "ms", "served_bytes"]


def _run_cell(args: tuple[dict, dict]) -> tuple[dict, list[dict]]:
    """One drop of a sweep: the base config with the key's axis values.

    A config the model rejects (a ValueError, such as ConfigurationError)
    becomes an error row; any other exception is a bug and propagates.
    """
    base_raw, key = args
    raw = {**base_raw, **{field: key[field] for field in SWEEP_AXES.values()}}
    if raw["bandwidth_mhz"] != base_raw["bandwidth_mhz"]:
        # geometry follows the swept bandwidth; explicit overrides only
        # apply to the base bandwidth
        raw.update(fft_size=None, num_subchannels=None)
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(key)
    try:
        metrics = run_drop(ScenarioConfig.from_dict(raw), key["seed"])
    except ValueError as exc:  # record the bad config, keep sweeping
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row, []
    row.update(
        (c, repr(v) if isinstance(v, float) else v)
        for c, v in asdict(metrics).items() if c in row
    )
    flow_rows = [
        {**key, "ms": ms, "served_bytes": served}
        for ms, served in enumerate(metrics.per_ms_served_bytes)
    ]
    return row, flow_rows


def run_sweep(
    cfg: ScenarioConfig,
    sweep: SweepSpec,
    jobs: int = 1,
    out_dir: Optional[Path] = None,
) -> list[dict]:
    """Cartesian product over the sweep axes, one row per (cell, seed).

    Rows are sorted canonically before writing, so output is independent of
    worker count and scheduling order. The subband splits of one (other
    axes, seed) are sibling tasks: they run back to back in one worker and
    share one channel draw (see _drop_csi). jobs >= 1 worker processes run
    the tasks, never more than there are sibling sets.
    """
    if jobs < 1:
        raise ConfigurationError(f"need jobs >= 1, got {jobs}")
    base_raw = cfg.to_dict()
    axes = dict(zip(KEY_COLUMNS, [*(getattr(sweep, key) for key in SWEEP_AXES), sweep.seeds]))
    splits = axes.pop("num_subbands")
    tasks = [
        (base_raw, {**dict(zip(axes, values)), "num_subbands": sb})
        for values in itertools.product(*axes.values()) for sb in splits
    ]
    # a fork start forks every worker up front: at most one per sibling set
    workers = min(jobs, len(tasks) // max(len(splits), 1))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # spares one-process runs the import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks, chunksize=len(splits)))
    else:
        results = [_run_cell(t) for t in tasks]

    rows = [r for r, _ in results]
    flow_rows = [fr for _, frs in results for fr in frs]
    sort_key = lambda r: tuple(r[c] for c in KEY_COLUMNS)
    rows.sort(key=sort_key)
    flow_rows.sort(key=lambda r: sort_key(r) + (r["ms"],))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_rows(out_dir / "rows.csv", rows, CSV_COLUMNS)
        write_rows(out_dir / "flows.csv", flow_rows, FLOW_CSV_COLUMNS)
        manifest = {
            "version": __version__,
            "config": cfg.to_dict(),
            "sweep": asdict(sweep),
            "rows": len(rows),
        }
        with open(out_dir / "manifest.json", "w") as f:
            json.dump(manifest, f, indent=2, default=list)
    return rows


def write_rows(path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _mean_ci(values: list[float]) -> tuple[float, Optional[float]]:
    x = np.asarray(values, dtype=float)
    mean = float(x.mean())
    if x.size < 2:
        return mean, None
    half = 1.96 * float(x.std(ddof=1)) / np.sqrt(x.size)
    return mean, half


@dataclass
class CellSummary:
    bandwidth_mhz: float
    num_antennas: int
    num_ms: int
    num_subbands: int
    los: bool
    n: int
    goodput_mean: float
    goodput_ci95: Optional[float]
    overhead_mean: float
    overhead_ci95: Optional[float]
    fss_gain: Optional[float] = None


def summarize(rows: list[dict]) -> list[CellSummary]:
    """Aggregate raw rows into per-cell means/CIs and attach the gain of
    frequency-selective scheduling relative to the single-subband baseline."""
    values = ("goodput_bytes_per_s", "map_overhead_fraction")
    needed = [*SWEEP_AXES.values(), *values]
    if missing := [c for c in needed if any(c not in r for r in rows)]:
        raise ConfigurationError(f"rows lack the columns {missing}: not a sweep's rows.csv?")
    cells: dict[tuple, list[list[float]]] = {}  # key cells -> each row's value cells
    for i, r in enumerate(rows, 1):
        if r.get("error"):
            continue
        parsed = []
        for field in needed:
            try:
                parsed.append(float(r[field]) if field in values else _axis_value(field, r[field]))
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(f"row {i}: bad {field} value {r[field]!r}") from None
        cells.setdefault(tuple(parsed[:len(SWEEP_AXES)]), []).append(parsed[len(SWEEP_AXES):])

    summaries: dict[tuple, CellSummary] = {}
    for key in sorted(cells):
        goodput, overhead = zip(*cells[key])
        gp_mean, gp_ci = _mean_ci(list(goodput))
        ov_mean, ov_ci = _mean_ci(list(overhead))
        summaries[key] = CellSummary(
            **dict(zip(SWEEP_AXES.values(), key)), n=len(goodput),
            goodput_mean=gp_mean, goodput_ci95=gp_ci,
            overhead_mean=ov_mean, overhead_ci95=ov_ci,
        )

    for key, s in summaries.items():
        # the FD baseline is the same cell with a single subband
        base = summaries.get(
            tuple(1 if field == "num_subbands" else v for field, v in zip(SWEEP_AXES.values(), key))
        )
        if base and base.goodput_mean > 0:
            s.fss_gain = s.goodput_mean / base.goodput_mean - 1.0
    return list(summaries.values())


def report(rows: list[dict], out_dir: Optional[Path] = None) -> str:
    """Text summary table; optionally writes aggregated plot data."""
    summaries = summarize(rows)
    have_baseline = any(s.num_subbands == 1 for s in summaries)
    lines = [
        f"{'bw':>5} {'M':>2} {'K':>3} {'SB':>3} {'los':>5} {'n':>4} "
        f"{'goodput[B/s]':>14} {'ci95':>10} {'overhead':>9} {'ci95':>9} {'fss_gain':>9}"
    ]
    for s in summaries:
        ci = f"{s.goodput_ci95:.3g}" if s.goodput_ci95 is not None else "n/a"
        oci = f"{s.overhead_ci95:.3g}" if s.overhead_ci95 is not None else "n/a"
        gain = f"{100 * s.fss_gain:+.1f}%" if s.fss_gain is not None else "n/a"
        lines.append(
            f"{s.bandwidth_mhz:>5.0f} {s.num_antennas:>2} {s.num_ms:>3} "
            f"{s.num_subbands:>3} {str(s.los):>5} {s.n:>4} "
            f"{s.goodput_mean:>14.1f} {ci:>10} {s.overhead_mean:>9.4f} {oci:>9} {gain:>9}"
        )
    if not have_baseline:
        lines.append("warning: no single-subband baseline present; gain column omitted")
    text = "\n".join(lines)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        agg = [
            {k: "" if v is None else repr(v) if isinstance(v, float) else v
             for k, v in asdict(s).items()}
            for s in summaries
        ]
        cols = list(agg[0].keys()) if agg else []
        write_rows(out_dir / "summary.csv", agg, cols)
        (out_dir / "summary.txt").write_text(text + "\n")
    return text
