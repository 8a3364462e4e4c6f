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
    OfdmaFrame,
    _min_slot_size,
    _Packer,
    initial_vertical_limit,
    map_columns,
    map_slots_for_ies,
    predict_map_size,
)
from sdma_fss.geometry import FrameGeometry
from sdma_fss.grouping import GroupingResult, SdmaGroup
from sdma_fss.phy import McsTable, default_mcs_table
from sdma_fss.qos import CandidateList

TABLE = default_mcs_table()


def make_group(subband: int, member_bps: dict[int, int | None]) -> SdmaGroup:
    """Group with prescribed per-member slot payloads (None = infeasible)."""
    members = tuple(sorted(member_bps))
    by_bps = {e.bytes_per_slot: e for e in reversed(TABLE.entries)}  # first entry per payload
    mcs = tuple(None if member_bps[ms] is None else by_bps[member_bps[ms]] for ms in members)
    metric = float(sum(e.bytes_per_slot for e in mcs if e is not None))
    return SdmaGroup(subband=subband, members=members, mcs=mcs, metric=metric)


def make_grouping(per_subband: list[list[SdmaGroup]]) -> GroupingResult:
    best: dict[int, int] = {}
    for groups in per_subband:
        for g in groups:
            for ms, mcs in zip(g.members, g.mcs):
                if mcs is not None:
                    best[ms] = max(best.get(ms, 0), mcs.bytes_per_slot)
    return GroupingResult(per_subband=per_subband, best_bytes_per_slot=best)


def init_columns_for(geometry: FrameGeometry, num_antennas: int = 4) -> int:
    """The initial vertical limit run_drop seeds frame_construction with, for
    the default MCS table."""
    avg = TABLE.entries[len(TABLE.entries) // 2]
    robust = TABLE.most_robust.bytes_per_slot
    return initial_vertical_limit(
        geometry, num_antennas, predict_map_size(geometry, avg, robust)
    )


def member_packets(burst: Burst) -> dict[int, list[int]]:
    """ms -> packed packet ids of each member that got packets."""
    return {ms: packed for ms, packed, _ in burst.fits}


def make_candidates(rows: list[tuple[int, int, int, float]]) -> CandidateList:
    """rows: (id, ms, size_bytes, utility); each MS's rows, in the given
    order, become its FIFO queue."""
    by_ms: dict[int, tuple[list[int], list[int], list[float]]] = {}
    for pid, ms, size, util in rows:
        for column, value in zip(by_ms.setdefault(ms, ([], [], [])), (pid, size, util)):
            column.append(value)
    return CandidateList(by_ms)


def candidate_rows(candidates: CandidateList) -> list[tuple[int, int, int, float]]:
    """The (id, ms, size_bytes, utility) rows of a candidate list, MS by
    MS in FIFO order."""
    return [
        (pid, ms, size, util)
        for ms, (ids, sizes, utils) in candidates.by_ms.items()
        for pid, size, util in zip(ids, sizes, utils)
    ]


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
    return grouping, make_candidates(rows), geometry


def audit_frame(frame: OfdmaFrame, candidates: CandidateList, num_ms: int) -> None:
    """Assert every packing invariant; raises AssertionError with context."""
    g = frame.geometry
    region = frame.map_region

    # MAP consistency: IE count matches bursts, slots match the bit model
    ies = sum(b.ie_count for b in frame.bursts.values())
    assert region.ie_count == ies, f"map IE count {region.ie_count} != bursts {ies}"
    expect_slots = map_slots_for_ies(ies, frame.robust_bytes_per_slot)
    assert region.slots == expect_slots
    assert region.columns == map_columns(region.slots, g)

    by_id = {pid: (ms, size, util) for pid, ms, size, util in candidate_rows(candidates)}
    grid = np.zeros((g.num_subchannels, g.num_columns), dtype=int)
    grid[:, : region.columns] += 1
    seen_ids: set[int] = set()
    total_util = 0.0
    for j, b in frame.bursts.items():
        assert b.subband == j
        assert 1 <= b.columns <= g.num_columns
        first = g.num_columns - b.columns  # bursts are anchored at the right edge
        assert first >= region.columns, (
            f"burst in subband {j} overlaps MAP: first column {first} map={region.columns}"
        )
        rows = slice(j * g.rows_per_subband, (j + 1) * g.rows_per_subband)
        grid[rows, first:] += 1
        mcs = dict(zip(b.group.members, b.group.mcs))
        assert len({ms for ms, _, _ in b.fits}) == len(b.fits), "member allocated twice"
        for ms, pids, used in b.fits:
            assert pids, "member allocation without packets"
            assert mcs.get(ms) is not None, f"ms {ms} packed without a feasible MCS"
            bps = mcs[ms].bytes_per_slot
            slots = 0
            for pid in pids:
                assert pid not in seen_ids, f"packet {pid} packed twice"
                seen_ids.add(pid)
                owner, size, util = by_id[pid]
                assert owner == ms, f"packet {pid} packed for wrong MS"
                slots += math.ceil(size / bps)
                total_util += util
            assert slots == used
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
    packer = _Packer(g, table, candidates)

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
        free_cols = g.num_columns - map_columns(packer.map_slots(), g) - packer.cols[None]
        step = min(max(free_cols, 1) * sc, step)
        v_limit += step

    return packer.finish()
