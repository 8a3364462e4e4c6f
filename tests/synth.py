"""Synthetic test instances, the frame auditor and the FD baseline packer
shared by the tests.

Groups and candidate lists are built directly (no PHY in the loop) so the
packer can be exercised against independent oracles over thousands of
random instances.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from sdma_fss.frame import (
    Burst,
    MapModel,
    OfdmaFrame,
    _min_slot_size,
    _Packer,
    map_columns,
    map_slots_for_ies,
)
from sdma_fss.geometry import FrameGeometry
from sdma_fss.grouping import GroupingResult, SdmaGroup
from sdma_fss.phy import LinkResult, McsTable, default_mcs_table
from sdma_fss.qos import CandidateEntry, CandidateList

TABLE = default_mcs_table()


def make_group(subband: int, member_bps: dict[int, int | None], num_antennas: int = 4) -> SdmaGroup:
    """Group with prescribed per-member slot payloads (None = infeasible)."""
    members = tuple(sorted(member_bps))
    links = []
    metric = 0.0
    for ms in members:
        bps = member_bps[ms]
        if bps is None:
            links.append(LinkResult(ms=ms, sinr=np.array([0.0]), eff_sinr=0.0, mcs=None))
            continue
        entry = next(e for e in TABLE.entries if e.bytes_per_slot == bps)
        links.append(
            LinkResult(ms=ms, sinr=np.array([100.0]), eff_sinr=100.0, mcs=entry)
        )
        metric += bps
    w = np.ones((len(members), num_antennas), dtype=complex) / math.sqrt(num_antennas)
    return SdmaGroup(subband=subband, members=members, weights=w, link=links, metric=metric)


def make_grouping(per_subband: list[list[SdmaGroup]]) -> GroupingResult:
    best: dict[int, int] = {}
    for groups in per_subband:
        for g in groups:
            for lr in g.link:
                if lr.mcs is not None:
                    best[lr.ms] = max(best.get(lr.ms, 0), lr.mcs.bytes_per_slot)
    return GroupingResult(
        per_subband=per_subband, best_bytes_per_slot=best, feasible_ms=frozenset(best)
    )


def make_candidates(rows: list[tuple[int, int, int, float]], best_bps: dict[int, int]) -> CandidateList:
    """rows: (id, ms, size_bytes, utility) in the desired final order."""
    entries = []
    for pid, ms, size, util in rows:
        slots = math.ceil(size / best_bps.get(ms, 6))
        entries.append(
            CandidateEntry(id=pid, ms=ms, size_bytes=size, utility=util,
                           utility_per_slot=util / slots)
        )
    return CandidateList(entries)


def random_instance(rng: np.random.Generator, *, max_sb: int = 3, max_k: int = 6,
                    max_packets: int = 40, small: bool = False):
    """Random synthetic (grouping, candidates, geometry) for the validity suite."""
    if small:
        sb = int(rng.integers(1, min(max_sb, 2) + 1))
        scsb = int(rng.integers(1, 3))
        sc = sb * scsb
        dl = int(rng.integers(3, 7))
    else:
        sb = int(rng.integers(1, max_sb + 1))
        scsb = int(rng.integers(1, 5))
        sc = sb * scsb
        dl = int(rng.integers(3, 14))
    geometry = FrameGeometry(
        num_subchannels=sc, num_columns=dl, num_subbands=sb, max_subbands=max(sb, 6)
    )
    k = int(rng.integers(1, max_k + 1))
    bps_choices = [e.bytes_per_slot for e in TABLE.entries]
    per_subband: list[list[SdmaGroup]] = []
    for j in range(sb):
        groups = []
        n_groups = int(rng.integers(1, 4))
        for _ in range(n_groups):
            size = int(rng.integers(1, min(4, k) + 1))
            members = rng.choice(k, size=size, replace=False)
            member_bps = {int(ms): int(rng.choice(bps_choices)) for ms in members}
            groups.append(make_group(j, member_bps))
        groups.sort(key=lambda g: (-g.metric, g.members))
        per_subband.append(groups)
    grouping = make_grouping(per_subband)

    n_pkts = int(rng.integers(0, max_packets + 1))
    rows = []
    for pid in range(n_pkts):
        ms = int(rng.integers(0, k))
        size = int(rng.choice([40, 120, 576, 1500]))
        util = float(rng.uniform(0.1, 10.0))
        rows.append((pid, ms, size, util))
    rows.sort(key=lambda r: -r[3])
    candidates = make_candidates(rows, grouping.best_bytes_per_slot)
    return grouping, candidates, geometry


def audit_frame(frame: OfdmaFrame, candidates: CandidateList, num_ms: int) -> None:
    """Assert every packing invariant; raises AssertionError with context."""
    g = frame.geometry
    region = frame.map_region

    # MAP consistency: IE count matches bursts, slots match the bit model
    ies = sum(b.ie_count for b in frame.bursts.values())
    assert region.ie_count == ies, f"map IE count {region.ie_count} != bursts {ies}"
    expect_slots = map_slots_for_ies(ies, frame.map_model, frame.robust_bytes_per_slot)
    assert region.slots == expect_slots
    assert region.columns == map_columns(region.slots, g)

    grid = np.zeros((g.num_subchannels, g.num_columns), dtype=int)
    grid[:, : region.columns] += 1
    seen_ids: set[int] = set()
    total_util = 0.0
    for j, b in frame.bursts.items():
        assert b.subband == j
        assert 1 <= b.columns <= g.num_columns
        assert b.col_hi == g.num_columns and b.col_lo == g.num_columns - b.columns
        assert b.col_lo >= region.columns, (
            f"burst in subband {j} overlaps MAP: col_lo={b.col_lo} map={region.columns}"
        )
        rows = slice(j * g.rows_per_subband, (j + 1) * g.rows_per_subband)
        grid[rows, b.col_lo : b.col_hi] += 1
        for ms, pids in b.member_packets.items():
            assert pids, "member allocation without packets"
            assert ms in b.member_mcs
            bps = b.member_mcs[ms].bytes_per_slot
            slots = 0
            for pid in pids:
                assert pid not in seen_ids, f"packet {pid} packed twice"
                seen_ids.add(pid)
                entry = candidates.by_id[pid]
                assert entry.ms == ms, f"packet {pid} packed for wrong MS"
                slots += math.ceil(entry.size_bytes / bps)
                total_util += entry.utility
            assert slots == b.member_slots[ms]
            assert slots <= b.columns * g.rows_per_subband, "member overflows burst area"
    assert (grid <= 1).all(), "slot covered twice"
    assert abs(total_util - frame.utility) < 1e-9 * max(1.0, abs(frame.utility))

    acc = frame.build_stats.accepted_utilities
    assert all(b > a for a, b in zip(acc, acc[1:])), "accepted utility not strictly increasing"
    if acc:
        assert abs(acc[-1] - frame.utility) < 1e-9 * max(1.0, abs(frame.utility))
    assert frame.build_stats.rounds <= g.num_columns, (
        f"{frame.build_stats.rounds} extension rounds exceed DL_sl={g.num_columns}"
    )
    bound = g.num_columns * max(num_ms, 1) * g.num_subbands**2
    assert frame.build_stats.util_evals <= bound, (
        f"{frame.build_stats.util_evals} util evals exceed bound {bound}"
    )


def fd_baseline_pack(
    groups: Sequence[SdmaGroup],
    candidates: CandidateList,
    geometry: FrameGeometry,
    table: McsTable,
    *,
    init_columns: int,
    best_bytes_per_slot: dict[int, int],
    map_model: MapModel = MapModel(),
) -> OfdmaFrame:
    """Frequency-diversity reference packer: the whole band is one subband
    and a single burst grows greedily column by column toward the MAP.

    Deliberately written as a plain loop, independent of the multi-subband
    bookkeeping, so it can serve as a cross-check for the degenerate case.
    """
    g = geometry
    if g.num_subbands != 1:
        raise ValueError("baseline packer handles a single subband only")
    sc = g.num_subchannels
    packer = _Packer(g, table, map_model, candidates)

    max_area = (g.num_columns - 1) * sc
    step = -(-_min_slot_size(candidates, best_bytes_per_slot, sc, max_area) // sc) * sc
    v_limit = max(init_columns * sc, step)
    chosen: Optional[SdmaGroup] = None
    utility = 0.0

    while v_limit + packer.map_slots() < g.frame_size_slots:
        packer.stats.rounds += 1
        offered = v_limit // sc
        pool = [chosen] if chosen is not None else list(groups)
        best: Optional[Burst] = None
        for grp in pool:
            packer.stats.util_evals += 1
            burst = packer.trial(grp, offered)
            if burst is not None and (best is None or burst.utility > best.utility):
                best = burst
        if best is not None and best.utility > utility:
            packer.commit(best)
            chosen = best.group
            utility = best.utility
            packer.stats.accepted_utilities.append(utility)
        free_cols = g.num_columns - map_columns(packer.map_slots(), g) - packer.max_cols()
        step = min(max(free_cols, 1) * sc, step)
        v_limit += step

    return packer.finish()
