"""OFDMA frame construction: MAP modelling and the extension/selection packer.

The DL subframe is a grid of SC subchannel rows by DL_sl slot columns. The
DL-MAP occupies full columns on the left and grows with the number of
burst-member allocations it must reference; data bursts are anchored at the
right edge, one per subband, each spanning an integer number of columns.

The packer alternates an extension phase, which raises a per-subband
vertical limit stepwise, and a selection phase, which repeatedly commits
the group (over all not-yet-extended subbands) whose tentative packing
increases total carried utility the most. A packet is carried in at most
one subband: committing a burst freezes its packets in its subband, and
only a later commit in that subband releases them again. Trials never
change the frozen state; they read it, and a per-frame memo of per-member
first-fit results that a commit retires for exactly the MSs it touched.
A trial returns a slotted record; a commit updates the totals it changed.
Within one selection step, a group whose members and slot payloads
(`SdmaGroup.trial_key`) were already tried in a subband with no burst is
counted in util_evals but not tried again in another such subband. No MS
holds frozen packets in a subband with no burst, the whole limit is
offered, and the other bursts' IEs, columns and utility are those of all
bursts; so the trial would repeat the earlier one bit for bit, and a tie
never wins.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .geometry import FrameGeometry
from .grouping import GroupingResult, SdmaGroup
from .phy import McsEntry, McsTable
from .qos import CandidateList

log = logging.getLogger(__name__)


# Bit cost of the DL-MAP: a fixed header plus one information element per
# burst-member allocation, broadcast at the most robust MCS.
MAP_FIXED_BITS = 88
MAP_IE_BITS = 60


@dataclass
class MapRegion:
    ie_count: int
    slots: int
    columns: int


@dataclass(slots=True)
class Burst:
    """One SDMA group's allocation: the rightmost `columns` columns of the
    group's subband, one spatial layer per member.

    `fits` holds one (ms, packed ids, used slots) per member that got
    packets, in member order; each is one MAP IE."""

    group: SdmaGroup
    columns: int
    fits: tuple[tuple[int, list[int], int], ...]
    utility: float

    @property
    def ie_count(self) -> int:
        return len(self.fits)

    def packet_ids(self) -> list[int]:
        return [pid for _, packed, _ in self.fits for pid in packed]


@dataclass
class BuildStats:
    util_evals: int = 0
    rounds: int = 0
    accepted_utilities: list[float] = field(default_factory=list)


@dataclass
class OfdmaFrame:
    map_region: MapRegion
    bursts: dict[int, Burst]
    utility: float
    build_stats: BuildStats

    def packed_packet_ids(self) -> list[int]:
        return [pid for b in self.bursts.values() for pid in b.packet_ids()]


def map_slots_for_ies(ie_count: int, robust_bytes_per_slot: int) -> int:
    bits = MAP_FIXED_BITS + ie_count * MAP_IE_BITS
    return math.ceil(bits / (8 * robust_bytes_per_slot))


def map_columns(slots: int, geometry: FrameGeometry) -> int:
    return math.ceil(slots / geometry.num_subchannels)


def predict_map_size(geometry: FrameGeometry, avg_mcs: McsEntry, robust_bytes_per_slot: int) -> int:
    """Pessimistic per-layer MAP estimate used to seed the vertical limit:
    assume SC slots at the average MCS are filled with 40-byte packets and
    every packet needs its own reference, sent at the table's most robust
    payload robust_bytes_per_slot."""
    n_packets = (geometry.num_subchannels * avg_mcs.bytes_per_slot) // 40
    return map_slots_for_ies(n_packets, robust_bytes_per_slot)


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


class FitMemo:
    """Per-member first-fit results within one frame construction.

    A member's first fit depends on its queue in the candidate list (fixed
    for the frame), its MCS, the area's slot cap, and which of its packets
    are frozen in other subbands. Only a commit that takes or releases the
    MS's packets changes the last, and it retires the MS's dict `fits[ms]`,
    keyed (bytes per slot, cap, subband). The subband is None where a given
    `held` (ms -> subbands holding its frozen packets) lacks it: the walk,
    which skips all its frozen packets, is the same in every such subband.
    An entry is ((ms, packed ids, used slots), packet utilities); its first
    part goes into the bursts built from it and is never mutated.
    """

    def __init__(self, held: Optional[defaultdict[int, set[int]]] = None):
        self.fits: defaultdict[int, dict] = defaultdict(dict)
        self.held = held
        self._rows: dict[tuple[int, int], list[tuple[int, int, float]]] = {}

    def first_fit(self, candidates: CandidateList, ms: int, key: tuple[int, int, Optional[int]],
                  frozen: dict[int, int]) -> tuple[tuple[int, list[int], int], list[float]]:
        """The fit of ms at key = (bps, cap, j), for a miss in fits[ms]:
        walk ms's queue in FIFO order, packing each packet that is not
        frozen outside subband j and still fits in cap slots (a packet that
        does not fit is skipped, later ones may still fit). Stores it."""
        bps, cap, j = key
        rows = self._rows.get((ms, bps))
        if rows is None:  # (id, slots needed, utility) of each queued packet
            ids, sizes, utils = candidates.by_ms.get(ms, ((), (), ()))
            rows = self._rows[ms, bps] = [
                (pid, -(-size // bps), u) for pid, size, u in zip(ids, sizes, utils)
            ]
        used = 0
        packed: list[int] = []
        utils: list[float] = []
        for pid, need, u in rows:
            if used + need <= cap and frozen.get(pid, j) == j:
                used += need
                packed.append(pid)
                utils.append(u)
                if used == cap:  # every packet needs at least one slot
                    break
        entry = self.fits[ms][key] = ((ms, packed, used), utils)
        return entry


def pack_group_area(
    group: SdmaGroup,
    columns: int,
    candidates: CandidateList,
    frozen: dict[int, int],
    scsb: int,
    memo: Optional[FitMemo] = None,
) -> Burst:
    """Fill a columns-wide area of the group's subband, one layer per member.

    Each member gets the first fit of its packets (see FitMemo.first_fit);
    packets frozen in other subbands are skipped. A packet occupies
    ceil(size / bytes_per_slot) slots at the member's MCS. Read-only:
    `frozen` is not changed, committing the burst is the caller's job.
    `memo` carries first-fit results between calls on the same candidates
    and frozen map; without one every fit is computed afresh.
    """
    if columns < 1:
        raise ValueError("need at least one column")
    memo = FitMemo() if memo is None else memo
    j, held = group.subband, memo.held
    cap = columns * scsb
    fits = []
    top = 0
    utility = 0.0
    for ms, mcs in zip(group.members, group.mcs):
        if mcs is None:
            continue
        key = (mcs.bytes_per_slot, cap, j if held is None or j in held[ms] else None)
        fit, utils = memo.fits[ms].get(key) or memo.first_fit(candidates, ms, key, frozen)
        if utils:
            for u in utils:
                utility += u
            fits.append(fit)
            if fit[2] > top:
                top = fit[2]
    return Burst(group, -(-top // scsb), tuple(fits), utility)


def _min_slot_size(
    candidates: CandidateList, best_bps: dict[int, int], scsb: int, max_area_slots: int
) -> int:
    """Largest over MSs of the slots the head-of-line packet needs at that
    MS's best MCS; SCSB when every queue is empty.

    Head-of-line packets larger than the widest possible burst area can
    never be packed at this subband height, so they must not drive the
    step size (they would stall the whole frame); first-fit skips them."""
    worst = 0
    for ms, (_, sizes, _) in candidates.by_ms.items():
        bps = best_bps.get(ms, 0)
        if bps <= 0:
            continue
        need = -(-sizes[0] // bps)
        if need <= max_area_slots:
            worst = max(worst, need)
    return worst if worst > 0 else scsb


class _Packer:
    """Shared state of one frame construction run.

    Trials are read-only: they pack against the committed frozen map
    through the frame's FitMemo and leave both unchanged. `commit` alone
    owns the frozen map and the memo's `held`. It releases the replaced
    burst's packets, freezes the new burst's, retires the memoized fits of
    every MS in either burst, and updates the totals: `ies` by the changed
    burst, and `cols`/`util`, the column maximum and utility sum of the
    bursts without each subband
    (key None: of all of them), recomputed with the sums in `bursts` order.
    `limits[n]` memoizes the columns that a MAP of n IEs leaves to bursts.
    """

    def __init__(self, geometry, table, candidates):
        self.g = geometry
        self.scsb = geometry.rows_per_subband
        self.robust = table.most_robust.bytes_per_slot
        self.candidates = candidates
        self.bursts: dict[int, Burst] = {}
        self.frozen: dict[int, int] = {}
        self.memo = FitMemo(defaultdict(set))
        self.stats = BuildStats()
        self.ies = 0
        self.cols = dict.fromkeys([None, *range(geometry.num_subbands)], 0)
        self.util = dict.fromkeys(self.cols, 0.0)
        self.limits: dict[int, int] = {}

    def total_ies(self, without: Optional[int] = None) -> int:
        b = self.bursts.get(without)
        return self.ies - (0 if b is None else b.ie_count)

    def map_slots(self) -> int:
        return map_slots_for_ies(self.ies, self.robust)

    def trial(self, group: SdmaGroup, offered_cols: int) -> Optional[Burst]:
        """Tentatively pack `group` at up to offered_cols columns, shrinking
        until the grown MAP and every burst still fit in the frame. Returns
        None when nothing (or nothing legal) can be packed. Does not touch
        committed state."""
        j = group.subband
        cols = offered_cols
        base_ies = self.total_ies(j)
        other_cols = self.cols[j]
        while cols >= 1:
            burst = pack_group_area(group, cols, self.candidates, self.frozen, self.scsb, self.memo)
            if not burst.fits:
                return None
            ies = base_ies + len(burst.fits)
            limit = self.limits.get(ies)
            if limit is None:
                limit = self.limits[ies] = self.g.num_columns - map_columns(
                    map_slots_for_ies(ies, self.robust), self.g
                )
            if burst.columns <= limit and other_cols <= limit:
                return burst
            cols = min(cols - 1, burst.columns, limit)
        return None

    def commit(self, burst: Burst) -> None:
        """Make `burst` its subband's burst, replacing any earlier one."""
        j = burst.group.subband
        old, held = self.bursts.get(j), self.memo.held
        if old is not None:
            self.ies -= old.ie_count
            for ms, packed, _ in old.fits:
                self.memo.fits.pop(ms, None)
                held[ms].discard(j)
                for pid in packed:
                    del self.frozen[pid]
        for ms, packed, _ in burst.fits:
            self.memo.fits.pop(ms, None)
            held[ms].add(j)
            self.frozen.update(dict.fromkeys(packed, j))
        self.ies += burst.ie_count
        self.bursts[j] = burst
        for w in self.cols:
            cols, util = 0, 0.0
            for k, b in self.bursts.items():
                if k != w:
                    util += b.utility
                    if b.columns > cols:
                        cols = b.columns
            self.cols[w], self.util[w] = cols, util

    def finish(self) -> OfdmaFrame:
        slots = self.map_slots()
        region = MapRegion(ie_count=self.ies, slots=slots, columns=map_columns(slots, self.g))
        return OfdmaFrame(map_region=region, bursts=self.bursts, utility=self.util[None],
                          build_stats=self.stats)


def frame_construction(
    grouping: GroupingResult,
    candidates: CandidateList,
    geometry: FrameGeometry,
    table: McsTable,
    *,
    init_columns: int,
    allow_displacement: bool = False,
) -> OfdmaFrame:
    """Two-phase extension/selection packing over all subbands.

    init_columns seeds the vertical limit (see initial_vertical_limit).
    Grow-only by default: once a subband has a committed group, later rounds
    only re-offer that group a larger area; with allow_displacement=True
    competing groups of the subband stay candidates for the leftover space.
    """
    g = geometry
    scsb = g.rows_per_subband
    packer = _Packer(g, table, candidates)
    if not candidates.by_ms:  # nothing to offer: a MAP-only frame, no rounds
        return packer.finish()
    max_area = (g.num_columns - 1) * scsb  # at least one column is MAP
    min_slots = _min_slot_size(candidates, grouping.best_bytes_per_slot, scsb, max_area)
    step = -(-min_slots // scsb) * scsb
    v_limit = max(init_columns * scsb, step)
    utility_total = 0.0

    while v_limit * g.num_subbands + packer.map_slots() < g.frame_size_slots:
        packer.stats.rounds += 1
        j_set = set(range(g.num_subbands))
        while j_set:
            best: Optional[tuple[float, Burst]] = None
            tried = set()  # trial keys of this step's groups in subbands with no burst
            for j in sorted(j_set):
                committed = packer.bursts.get(j)
                if committed is not None and not allow_displacement:
                    cand = [committed.group]
                else:
                    cand = grouping.per_subband[j]
                for grp in cand:
                    # the committed group is offered the whole limit, a
                    # competitor what the committed burst leaves of it
                    taken = 0
                    if committed is not None and grp is not committed.group:
                        taken = committed.columns * scsb
                    packer.stats.util_evals += 1
                    if committed is None:  # a repeat would tie an earlier trial
                        if grp.trial_key in tried:
                            continue
                        tried.add(grp.trial_key)
                    burst = packer.trial(grp, (v_limit - taken) // scsb)
                    if burst is None:
                        continue
                    util_new = packer.util[j] + burst.utility
                    if best is None or util_new > best[0]:
                        best = (util_new, burst)
            if best is None or best[0] <= utility_total:
                j_set.clear()
                continue
            utility_total, burst = best
            packer.commit(burst)
            packer.stats.accepted_utilities.append(utility_total)
            j_set.discard(burst.group.subband)
        free_cols = g.num_columns - map_columns(packer.map_slots(), g) - packer.cols[None]
        step = min(max(free_cols, 1) * scsb, step)
        v_limit += step

    return packer.finish()

