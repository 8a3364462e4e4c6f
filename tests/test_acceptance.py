"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines and the reported distributions.
"""

import dataclasses
import itertools
import logging
import math
import time
from collections import defaultdict

import numpy as np
import pytest

from sdma_fss.experiment import ScenarioConfig, SweepSpec, run_drop, run_sweep, summarize
from sdma_fss.frame import (
    frame_construction,
    initial_vertical_limit,
    map_columns,
    map_slots_for_ies,
)
from sdma_fss.geometry import FrameGeometry
from sdma_fss.phy import default_mcs_table, compute_sinr, minmse_weights
from synth import (
    audit_frame,
    candidate_rows,
    fd_baseline_pack,
    init_columns_for,
    make_candidates,
    make_group,
    make_grouping,
    random_instance,
)
from test_frame import assert_same_frames
from test_phy import eesm_batch, oracle_minmse, oracle_sinr_scalar

logging.disable(logging.WARNING)

TABLE = default_mcs_table()


def _report(n, msg):
    print(f"\nACCEPTANCE {n} PASS — {msg}")


# ------------------------------------------------------------------ 1

def test_acceptance_1_packing_validity():
    """>=1000 randomized constructions with zero invariant violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xACCE11)
    runs = 0
    for i in range(1000):
        small = bool(rng.integers(0, 2))
        grouping, candidates, geometry = random_instance(
            rng, max_sb=3, max_k=6, max_packets=40, small=small
        )
        frame = frame_construction(
            grouping, candidates, geometry, TABLE, init_columns=init_columns_for(geometry),
            allow_displacement=bool(rng.integers(0, 4) == 0),
        )
        audit_frame(frame, candidates, num_ms=6)
        runs += 1
    dt = time.perf_counter() - t0
    assert runs >= 1000
    assert dt < 120, f"validity suite took {dt:.0f}s"
    _report(1, f"{runs} randomized constructions, zero violations, {dt:.1f}s")


# ------------------------------------------------------------------ 2

def tiny_instance(rng):
    sb = int(rng.integers(1, 3))
    geometry = FrameGeometry(
        num_subchannels=4, num_columns=int(rng.integers(4, 7)),
        num_subbands=sb, max_subbands=6,
    )
    k = int(rng.integers(1, 4))
    per_subband = []
    for j in range(sb):
        groups = []
        for _ in range(2):
            size = int(rng.integers(1, min(2, k) + 1))
            members = rng.choice(k, size=size, replace=False)
            groups.append(
                make_group(j, {int(m): int(rng.choice([12, 18, 24, 27])) for m in members})
            )
        groups.sort(key=lambda g: (-g.metric, g.members))
        per_subband.append(groups)
    grouping = make_grouping(per_subband)
    rows = [
        (pid, int(rng.integers(0, k)), int(rng.choice([40, 60])), float(rng.uniform(0.5, 5.0)))
        for pid in range(int(rng.integers(1, 9)))
    ]
    rows.sort(key=lambda r: -r[3])
    return grouping, make_candidates(rows), geometry


def exhaustive_optimum(grouping, candidates, geometry):
    """Enumerate group choice per subband and packet-to-subband assignment
    under the same area/MAP constraints the packer obeys."""
    sb_n, scsb, dl = geometry.num_subbands, geometry.rows_per_subband, geometry.num_columns
    rows = candidate_rows(candidates)
    options = [[None] + list(lst) for lst in grouping.per_subband]
    best = 0.0
    for combo in itertools.product(*options):
        bps = []
        for gsel in combo:
            d = {}
            if gsel is not None:
                for ms, mcs in zip(gsel.members, gsel.mcs):
                    if mcs is not None:
                        d[ms] = mcs.bytes_per_slot
            bps.append(d)
        choices = [[-1] + [j for j in range(sb_n) if ms in bps[j]] for _, ms, _, _ in rows]
        for assign in itertools.product(*choices):
            slots = [defaultdict(int) for _ in range(sb_n)]
            util = 0.0
            for (_, ms, size, u), j in zip(rows, assign):
                if j >= 0:
                    slots[j][ms] += math.ceil(size / bps[j][ms])
                    util += u
            if util <= best:
                continue
            ies = sum(len(s) for s in slots)
            mcols = map_columns(map_slots_for_ies(ies, 6), geometry)
            if all(
                math.ceil(max(s.values()) / scsb) + mcols <= dl
                for s in slots
                if s
            ):
                best = util
    return best


def test_acceptance_2_oracle_optimality_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(200):
        grouping, candidates, geometry = tiny_instance(rng)
        frame = frame_construction(grouping, candidates, geometry, TABLE, init_columns=1)
        audit_frame(frame, candidates, num_ms=4)
        opt = exhaustive_optimum(grouping, candidates, geometry)
        assert frame.utility <= opt + 1e-9, "greedy exceeded exhaustive optimum"
        ratios.append(1.0 if opt <= 0 else frame.utility / opt)
    r = np.array(ratios)
    frac = float(np.mean(r >= 0.7))
    assert frac >= 0.9, f"only {frac:.0%} of instances within 70% of optimum"
    dt = time.perf_counter() - t0
    assert dt < 300
    deciles = np.round(np.percentile(r, [0, 10, 25, 50, 75, 90, 100]), 3)
    _report(
        2,
        f"{len(r)} tiny instances: greedy<=opt in 100%, >=0.7*opt in {frac:.0%}; "
        f"ratio percentiles [0,10,25,50,75,90,100]% = {deciles.tolist()}, {dt:.1f}s",
    )


# ------------------------------------------------------------------ 3

def test_acceptance_3_sb1_equivalence():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        grouping, candidates, geometry = random_instance(
            rng, max_sb=1, max_packets=50, small=bool(rng.integers(0, 2))
        )
        init = int(rng.integers(1, 4))
        a = frame_construction(grouping, candidates, geometry, TABLE, init_columns=init)
        b = fd_baseline_pack(
            grouping.per_subband[0], candidates, geometry, TABLE,
            init_columns=init, best_bytes_per_slot=grouping.best_bytes_per_slot,
        )
        assert_same_frames(a, b)
        checked += 1
    _report(3, f"{checked} random single-subband inputs burst-for-burst identical to the FD baseline")


# ------------------------------------------------------------------ 4

def _slope_instance(rng, sb, k=8, dl=16, sc=12, bps=24):
    geometry = FrameGeometry(num_subchannels=sc, num_columns=dl, num_subbands=sb, max_subbands=6)
    per_subband = []
    for j in range(sb):
        groups = []
        for _ in range(2):
            members = sorted(int(x) for x in rng.choice(k, size=2, replace=False))
            groups.append(make_group(j, {ms: bps for ms in members}))
        groups.sort(key=lambda g: (-g.metric, g.members))
        per_subband.append(groups)
    grouping = make_grouping(per_subband)
    rows = []
    pid = 0
    for ms in range(k):
        for _ in range(80):
            rows.append((pid, ms, 40, float(rng.uniform(0.5, 5.0))))
            pid += 1
    rows.sort(key=lambda r: -r[3])
    return grouping, make_candidates(rows), geometry


def test_acceptance_4_complexity():
    rng = np.random.default_rng(4)
    counts = {}
    k, dl = 8, 16
    for sb in (1, 2, 3, 6):
        per = []
        for _ in range(10):
            grouping, candidates, geometry = _slope_instance(rng, sb, k=k, dl=dl)
            frame = frame_construction(grouping, candidates, geometry, TABLE, init_columns=1)
            bound = dl * k * sb * sb
            assert frame.build_stats.util_evals <= bound
            per.append(frame.build_stats.util_evals)
        counts[sb] = float(np.mean(per))
    slope = float(np.polyfit(np.log(list(counts)), np.log(list(counts.values())), 1)[0])
    assert 1.5 <= slope <= 2.2, f"log-log slope {slope:.2f} outside [1.5, 2.2]"
    _report(4, f"eval counts vs SB {counts} -> slope {slope:.2f}; per-run bound held everywhere")


# ------------------------------------------------------------------ 5

def test_acceptance_5_numerical_oracles():
    rng = np.random.default_rng(5)
    # Eq. 1 against scalar expansion
    worst_sinr = 0.0
    for _ in range(200):
        g = int(rng.integers(1, 5))
        m = int(rng.integers(g, 9))
        h = rng.standard_normal((g, m)) + 1j * rng.standard_normal((g, m))
        w = rng.standard_normal((g, m)) + 1j * rng.standard_normal((g, m))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        p = float(rng.uniform(0.1, 10.0))
        noise = float(rng.uniform(1e-3, 1.0))
        got = compute_sinr(w[None], h[None, :, None, :], p, noise)[0, :, 0]
        ref = np.array(oracle_sinr_scalar(w, h, p, noise))
        worst_sinr = max(worst_sinr, float(np.max(np.abs(got - ref) / ref)))
    assert worst_sinr < 1e-12

    # MinMSE against Gaussian elimination
    worst_w = 0.0
    for _ in range(200):
        g = int(rng.integers(1, 5))
        m = int(rng.integers(g, 9))
        h = rng.standard_normal((g, m)) + 1j * rng.standard_normal((g, m))
        noise = float(rng.uniform(1e-4, 1.0))
        power = float(rng.uniform(0.5, 20.0))
        w = minmse_weights(h[None], noise, power)[0]
        ref = oracle_minmse(h, noise, power)
        worst_w = max(worst_w, float(np.abs(w - ref).max() / np.abs(ref).max()))
    assert worst_w < 1e-9

    # EESM Jensen envelope on 1e5 random inputs
    violations = 0
    for _ in range(100_000):
        n = int(rng.integers(1, 9))
        x = rng.uniform(0.0, 10.0 ** rng.uniform(0, 6), size=n)
        beta = float(10.0 ** rng.uniform(-1, 1.5))
        val = eesm_batch(x[None], [beta])[0, 0]
        if not (x.min() <= val <= x.mean()):
            violations += 1
    assert violations == 0
    _report(
        5,
        f"Eq.1 worst rel err {worst_sinr:.1e} (<1e-12); MinMSE worst rel err "
        f"{worst_w:.1e} (<1e-9); EESM envelope 0 violations in 1e5",
    )


# ------------------------------------------------------------------ 6

def _gain(summaries, bw, m, sb):
    for s in summaries:
        if (s.bandwidth_mhz, s.num_antennas, s.num_subbands) == (bw, m, sb):
            return s
    raise AssertionError(f"missing cell bw={bw} M={m} SB={sb}")


@pytest.mark.slow
def test_acceptance_6_trend_reproduction():
    t0 = time.perf_counter()
    cfg = ScenarioConfig(num_ms=12, los=True, frames_per_drop=16, num_seeds=64)
    sweep = SweepSpec(
        bandwidths_mhz=[5.0, 10.0, 20.0],
        antennas=[2, 8],
        users=[12],
        subbands=[1, 2, 3, 6],
        los=[True],
        seeds=list(range(64)),
    )
    rows = run_sweep(cfg, sweep)
    bad = [r for r in rows if r["error"]]
    assert not bad, f"{len(bad)} failed cells, first: {bad[0]}"
    summaries = summarize(rows)

    # (a) mean MAP overhead strictly increasing in SB in every (M, bw) cell
    for bw in (5.0, 10.0, 20.0):
        for m in (2, 8):
            ov = [_gain(summaries, bw, m, sb).overhead_mean for sb in (1, 2, 3, 6)]
            assert all(b > a for a, b in zip(ov, ov[1:])), (
                f"overhead not strictly increasing at bw={bw} M={m}: {ov}"
            )

    gain = lambda bw, m: _gain(summaries, bw, m, 6).fss_gain
    # (b) larger bandwidth gives at least the FSS gain of the small one (M=2)
    assert gain(20.0, 2) >= gain(5.0, 2)
    # (c) fewer antennas gains at least as much as many antennas (10 MHz)
    assert gain(10.0, 2) >= gain(10.0, 8)
    # (d) overhead-driven loss at 5 MHz with 8 antennas and 6 subbands
    assert _gain(summaries, 5.0, 8, 6).goodput_mean <= _gain(summaries, 5.0, 8, 1).goodput_mean

    dt = time.perf_counter() - t0
    lines = []
    for s in summaries:
        ci = 0.0 if s.goodput_ci95 is None else s.goodput_ci95
        g = "" if s.fss_gain is None else f" gain={100 * s.fss_gain:+.1f}%"
        lines.append(
            f"  bw={s.bandwidth_mhz:4.0f} M={s.num_antennas} SB={s.num_subbands}: "
            f"goodput {s.goodput_mean / 1e6:6.2f}±{ci / 1e6:4.2f} MB/s "
            f"overhead {s.overhead_mean:.4f}±{s.overhead_ci95:.4f}{g}"
        )
    _report(
        6,
        f"64 seeds x 24 cells in {dt:.0f}s; (a)-(d) hold; "
        f"gain(20MHz,M2)={100 * gain(20.0, 2):+.1f}% vs gain(5MHz,M2)={100 * gain(5.0, 2):+.1f}%; "
        f"gain(10MHz,M2)={100 * gain(10.0, 2):+.1f}% vs gain(10MHz,M8)={100 * gain(10.0, 8):+.1f}%\n"
        + "\n".join(lines),
    )


# ------------------------------------------------------------------ 7

def test_acceptance_7_determinism(tmp_path):
    cfg = ScenarioConfig(
        bandwidth_mhz=10.0, fft_size=256, num_subchannels=6, dl_columns=8,
        num_antennas=2, num_ms=3, num_subbands=3, frames_per_drop=4,
        csi_decimation=4, los=False,
    )
    a = dataclasses.asdict(run_drop(cfg, seed=11))
    b = dataclasses.asdict(run_drop(cfg, seed=11))
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b

    sweep = SweepSpec.from_config(cfg, {"subbands": [1, 3], "seeds": [0, 1, 2]})
    run_sweep(cfg, sweep, jobs=1, out_dir=tmp_path / "serial")
    run_sweep(cfg, sweep, jobs=2, out_dir=tmp_path / "parallel")
    serial = (tmp_path / "serial" / "rows.csv").read_bytes()
    parallel = (tmp_path / "parallel" / "rows.csv").read_bytes()
    assert serial == parallel
    run_sweep(cfg, sweep, jobs=1, out_dir=tmp_path / "serial2")
    assert (tmp_path / "serial2" / "rows.csv").read_bytes() == serial
    _report(7, "bit-identical metrics across reruns and across 1 vs 2 workers")


# ------------------------------------------------------------------ 8

def test_acceptance_8_initial_vertical_limit():
    g = FrameGeometry(num_subchannels=30, num_columns=17, num_subbands=3, max_subbands=6)
    assert initial_vertical_limit(g, num_antennas=4, predicted_map_slots=10) == 4

    full = FrameGeometry(num_subchannels=30, num_columns=17, num_subbands=6, max_subbands=6)
    for m in (1, 4, 8):
        assert initial_vertical_limit(full, m, 0) == 16  # DL_sl - 1

    # predicted MAP at least the per-subband share: clamped to one column
    assert initial_vertical_limit(g, num_antennas=2, predicted_map_slots=40) == 1
    assert initial_vertical_limit(g, num_antennas=8, predicted_map_slots=40) == 1
    _report(8, "worked example initSz=4 and both boundary cases exact")
