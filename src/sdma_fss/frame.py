"""OFDMA frame construction: MAP modelling and the extension/selection packer.

The DL subframe is a grid of SC subchannel rows by DL_sl slot columns. The
DL-MAP occupies full columns on the left and grows with the number of
burst-member allocations it must reference; data bursts are anchored at the
right edge, one per subband, each spanning an integer number of columns.

The packer alternates an extension phase, which raises a per-subband
vertical limit stepwise, and a selection phase, which repeatedly commits
the group (over all not-yet-extended subbands) whose tentative packing
increases total carried utility the most. A packet is carried in at most
one subband: packing freezes packets, and only the burst that froze a
packet may release it again.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .geometry import FrameGeometry
from .grouping import GroupingResult, SdmaGroup
from .phy import McsEntry, McsTable
from .qos import CandidateList

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MapModel:
    """Bit cost of the DL-MAP: fixed header plus one information element
    per burst-member allocation, broadcast at the most robust MCS."""

    fixed_bits: int = 88
    ie_bits: int = 60
    repetition: int = 1


@dataclass
class MapRegion:
    ie_count: int
    slots: int
    columns: int


@dataclass
class Burst:
    """One SDMA group's allocation: the rightmost `columns` columns of its
    subband, one spatial layer per member."""

    subband: int
    group: SdmaGroup
    columns: int
    col_lo: int
    col_hi: int
    member_mcs: dict[int, McsEntry]
    member_packets: dict[int, list[int]]
    member_slots: dict[int, int]
    utility: float

    @property
    def ie_count(self) -> int:
        return sum(1 for pk in self.member_packets.values() if pk)

    def packet_ids(self) -> list[int]:
        return [pid for pk in self.member_packets.values() for pid in pk]


@dataclass
class BuildStats:
    util_evals: int = 0
    rounds: int = 0
    accepted_utilities: list[float] = field(default_factory=list)


@dataclass
class OfdmaFrame:
    geometry: FrameGeometry
    map_model: MapModel
    robust_bytes_per_slot: int
    map_region: MapRegion
    bursts: dict[int, Burst]
    utility: float
    build_stats: BuildStats

    def packed_packet_ids(self) -> list[int]:
        return [pid for b in self.bursts.values() for pid in b.packet_ids()]


def map_slots_for_ies(ie_count: int, map_model: MapModel, robust_bytes_per_slot: int) -> int:
    bits = (map_model.fixed_bits + ie_count * map_model.ie_bits) * map_model.repetition
    return math.ceil(bits / (8 * robust_bytes_per_slot))


def map_size_slots(frame: OfdmaFrame) -> int:
    """MAP size implied by the frame's current burst set, in slots."""
    ies = sum(b.ie_count for b in frame.bursts.values())
    return map_slots_for_ies(ies, frame.map_model, frame.robust_bytes_per_slot)


def map_columns(slots: int, geometry: FrameGeometry) -> int:
    return math.ceil(slots / geometry.num_subchannels)


def predict_map_size(
    geometry: FrameGeometry,
    avg_mcs: McsEntry,
    map_model: MapModel = MapModel(),
    robust_bytes_per_slot: int = 6,
) -> int:
    """Pessimistic per-layer MAP estimate used to seed the vertical limit:
    assume SC slots at the average MCS are filled with 40-byte packets and
    every packet needs its own reference."""
    n_packets = (geometry.num_subchannels * avg_mcs.bytes_per_slot) // 40
    return map_slots_for_ies(n_packets, map_model, robust_bytes_per_slot)


def initial_vertical_limit(
    geometry: FrameGeometry, num_antennas: int, predicted_map_slots: int
) -> int:
    """Initial vertical limit in full columns.

    Reserves the predicted MAP (scaled by the number of spatial layers) out
    of an equal per-subband share of the frame, so that any subband count up
    to the maximum starts from the same slot budget. Exact rational
    arithmetic so boundary cases round predictably.
    """
    if num_antennas <= 0 or predicted_map_slots < 0:
        raise ValueError("need positive antenna count and nonnegative MAP estimate")
    g = geometry
    raw = (
        (Fraction((g.num_columns - 1) * g.num_subchannels, g.max_subbands)
         - predicted_map_slots * num_antennas)
        / g.num_subchannels
        * g.num_subbands
    )
    init = math.ceil(raw)
    if init < 1:
        log.warning(
            "initial vertical limit %s nonpositive (MAP estimate %s x %s antennas); clamped to 1",
            init, predicted_map_slots, num_antennas,
        )
        return 1
    return init


def pack_group_area(
    group: SdmaGroup,
    columns: int,
    candidates: CandidateList,
    frozen: dict[int, int],
    scsb: int,
    col_hi: int,
) -> Burst:
    """Fill a columns-wide area of the group's subband, one layer per member.

    Walks each member's packets in candidate-list order (first-fit: a packet
    that does not fit is skipped, later ones may still fit). Packets frozen
    in other subbands are skipped; whatever this subband held before and no
    longer packs is unfrozen, and every newly packed packet is frozen here.
    A packet occupies ceil(size / bytes_per_slot) slots at the member's MCS.
    """
    if columns < 1:
        raise ValueError("need at least one column")
    j = group.subband
    for pid in [pid for pid, sb in frozen.items() if sb == j]:
        del frozen[pid]

    cap = columns * scsb
    member_mcs: dict[int, McsEntry] = {}
    member_packets: dict[int, list[int]] = {}
    member_slots: dict[int, int] = {}
    utility = 0.0
    for lr in group.link:
        if lr.mcs is None:
            continue
        bps = lr.mcs.bytes_per_slot
        used = 0
        packed: list[int] = []
        for entry in candidates.by_ms.get(lr.ms, ()):
            if frozen.get(entry.id) is not None:
                continue
            need = -(-entry.size_bytes // bps)
            if used + need <= cap:
                used += need
                packed.append(entry.id)
                utility += entry.utility
        if packed:
            member_mcs[lr.ms] = lr.mcs
            member_packets[lr.ms] = packed
            member_slots[lr.ms] = used
    for pk in member_packets.values():
        for pid in pk:
            frozen[pid] = j

    used_cols = 0
    if member_slots:
        used_cols = -(-max(member_slots.values()) // scsb)
    return Burst(
        subband=j,
        group=group,
        columns=used_cols,
        col_lo=col_hi - used_cols,
        col_hi=col_hi,
        member_mcs=member_mcs,
        member_packets=member_packets,
        member_slots=member_slots,
        utility=utility,
    )


def _min_slot_size(
    candidates: CandidateList, best_bps: dict[int, int], scsb: int, max_area_slots: int
) -> int:
    """Largest over MSs of the slots the head-of-line packet needs at that
    MS's best MCS; SCSB when every queue is empty.

    Head-of-line packets larger than the widest possible burst area can
    never be packed at this subband height, so they must not drive the
    step size (they would stall the whole frame); first-fit skips them."""
    worst = 0
    for ms, entries in candidates.by_ms.items():
        bps = best_bps.get(ms, 0)
        if not entries or bps <= 0:
            continue
        need = -(-entries[0].size_bytes // bps)
        if need <= max_area_slots:
            worst = max(worst, need)
    return worst if worst > 0 else scsb


class _Packer:
    """Shared state of one frame construction run."""

    def __init__(self, geometry, table, map_model, candidates):
        self.g = geometry
        self.scsb = geometry.rows_per_subband
        self.robust = table.most_robust.bytes_per_slot
        self.map_model = map_model
        self.candidates = candidates
        self.bursts: dict[int, Burst] = {}
        self.frozen: dict[int, int] = {}
        self.stats = BuildStats()

    def total_ies(self, without: Optional[int] = None) -> int:
        return sum(b.ie_count for j, b in self.bursts.items() if j != without)

    def map_slots(self, ies: Optional[int] = None) -> int:
        if ies is None:
            ies = self.total_ies()
        return map_slots_for_ies(ies, self.map_model, self.robust)

    def utility(self, without: Optional[int] = None) -> float:
        return sum(b.utility for j, b in self.bursts.items() if j != without)

    def max_cols(self, without: Optional[int] = None) -> int:
        cols = [b.columns for j, b in self.bursts.items() if j != without]
        return max(cols, default=0)

    def trial(self, group: SdmaGroup, offered_cols: int) -> Optional[Burst]:
        """Tentatively pack `group` at up to offered_cols columns, shrinking
        until the grown MAP and every burst still fit in the frame. Returns
        None when nothing (or nothing legal) can be packed. Does not touch
        committed state."""
        j = group.subband
        cols = offered_cols
        base_ies = self.total_ies(without=j)
        other_cols = self.max_cols(without=j)
        while cols >= 1:
            scratch = dict(self.frozen)
            burst = pack_group_area(
                group, cols, self.candidates, scratch, self.scsb, self.g.num_columns
            )
            if not burst.member_packets:
                return None
            new_map_cols = map_columns(
                self.map_slots(base_ies + burst.ie_count), self.g
            )
            limit = self.g.num_columns - new_map_cols
            if burst.columns <= limit and other_cols <= limit:
                return burst
            cols = min(cols - 1, burst.columns, limit)
        return None

    def commit(self, burst: Burst) -> None:
        # replaying first-fit at the trimmed width reproduces the trial's
        # packed set exactly (the cap only shrinks onto already-used slots)
        pack_group_area(
            burst.group, burst.columns, self.candidates, self.frozen,
            self.scsb, self.g.num_columns,
        )
        self.bursts[burst.subband] = burst

    def finish(self) -> OfdmaFrame:
        slots = self.map_slots()
        region = MapRegion(
            ie_count=self.total_ies(), slots=slots, columns=map_columns(slots, self.g)
        )
        return OfdmaFrame(
            geometry=self.g,
            map_model=self.map_model,
            robust_bytes_per_slot=self.robust,
            map_region=region,
            bursts=self.bursts,
            utility=self.utility(),
            build_stats=self.stats,
        )


def frame_construction(
    grouping: GroupingResult,
    candidates: CandidateList,
    geometry: FrameGeometry,
    table: McsTable,
    *,
    init_columns: Optional[int] = None,
    num_antennas: Optional[int] = None,
    map_model: MapModel = MapModel(),
    allow_displacement: bool = False,
) -> OfdmaFrame:
    """Two-phase extension/selection packing over all subbands.

    Grow-only by default: once a subband has a committed group, later rounds
    only re-offer that group a larger area; with allow_displacement=True
    competing groups of the subband stay candidates for the leftover space.
    """
    g = geometry
    scsb = g.rows_per_subband
    packer = _Packer(g, table, map_model, candidates)

    if init_columns is None:
        if num_antennas is None:
            num_antennas = max(
                (gr.weights.shape[1] for gr in grouping.groups()), default=1
            )
        avg = table.entries[len(table.entries) // 2]
        init_columns = initial_vertical_limit(
            g, num_antennas, predict_map_size(g, avg, map_model, packer.robust)
        )

    max_area = (g.num_columns - 1) * scsb  # at least one column is MAP
    min_slots = _min_slot_size(candidates, grouping.best_bytes_per_slot, scsb, max_area)
    step = -(-min_slots // scsb) * scsb
    v_limit = max(init_columns * scsb, step)
    used_space = [0] * g.num_subbands
    utility_total = 0.0

    while v_limit * g.num_subbands + packer.map_slots() < g.frame_size_slots:
        packer.stats.rounds += 1
        j_set = set(range(g.num_subbands))
        while j_set:
            best: Optional[tuple[float, int, int, Burst]] = None
            for j in sorted(j_set):
                committed = packer.bursts.get(j)
                if committed is not None and not allow_displacement:
                    cand = [committed.group]
                else:
                    cand = list(grouping.per_subband[j])
                for gi, grp in enumerate(cand):
                    current = committed.columns * scsb if (
                        committed is not None and grp is committed.group
                    ) else 0
                    offered = (v_limit - used_space[j] + current) // scsb
                    if offered < 1:
                        continue
                    packer.stats.util_evals += 1
                    burst = packer.trial(grp, offered)
                    if burst is None:
                        continue
                    util_new = packer.utility(without=j) + burst.utility
                    if best is None or util_new > best[0]:
                        best = (util_new, j, gi, burst)
            if best is None or best[0] <= utility_total:
                j_set.clear()
                continue
            util_new, j, _, burst = best
            packer.commit(burst)
            utility_total = util_new
            packer.stats.accepted_utilities.append(util_new)
            used_space[j] = burst.columns * scsb
            j_set.discard(j)
        free_cols = g.num_columns - map_columns(packer.map_slots(), g) - packer.max_cols()
        step = min(max(free_cols, 1) * scsb, step)
        v_limit += step

    return packer.finish()


def render_frame(frame: OfdmaFrame) -> str:
    """Stable structured-text rendering of the slot grid for golden tests."""
    g = frame.geometry
    lines = [
        f"frame SC={g.num_subchannels} DL_sl={g.num_columns} SB={g.num_subbands} "
        f"util={frame.utility:.6f}",
        f"map: ies={frame.map_region.ie_count} slots={frame.map_region.slots} "
        f"columns=[0,{frame.map_region.columns})",
    ]
    for j in range(g.num_subbands):
        b = frame.bursts.get(j)
        if b is None:
            lines.append(f"subband {j}: -")
            continue
        lines.append(
            f"subband {j}: members={list(b.group.members)} "
            f"columns=[{b.col_lo},{b.col_hi}) util={b.utility:.6f}"
        )
        for ms in sorted(b.member_packets):
            lines.append(
                f"  ms {ms} mcs={b.member_mcs[ms].name} slots={b.member_slots[ms]} "
                f"packets={b.member_packets[ms]}"
            )
    return "\n".join(lines)
