"""Per-subband SDMA group formation.

Groups are formed independently on every subband from the decimated CSI
falling inside it. A candidate group is scored by its capacity metric: the
sum over members of the slot payload of the MCS each member sustains given
the group's precoding and intra-group interference, with intra-subband
frequency selectivity compressed by EESM.

The search is a greedy best-fit: seed with the best uncovered singleton,
then keep adding the MS that maximizes the metric while it strictly
improves. Subbands with equal CSI sample counts are searched in lockstep,
one kernel batch per greedy step; the kernels are row-independent, so the
bits are those of searching one subband at a time. For the same reason a
cache may outlive one call while the channel stays the same. It holds each
scored group's metric and the MCS entry each member sustains, which is all a
final group carries: a group goes through the kernels once per cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from .channel import CsiReport, subband_csi
from .geometry import SubbandSpec
from .phy import McsEntry, McsTable, compute_sinr, minmse_weights, select_mcs_batch

Key = tuple[int, tuple[int, ...]]  # (position in the subbands list, sorted members)
# (metric, then each member's index into the MCS entries, -1 for none feasible)
Scored = tuple[int, ...]


@dataclass
class SdmaGroup:
    """A spatially compatible member set on one subband, with the MCS each
    member sustains there given the group's precoding."""

    subband: int
    members: tuple[int, ...]
    mcs: tuple[Optional[McsEntry], ...]  # aligned with members, None: no MCS feasible
    metric: float  # capacity score: members' slot payloads summed, infeasible ones add 0


@dataclass
class GroupingResult:
    per_subband: list[list[SdmaGroup]]  # aligned with the subband list, best first
    best_bytes_per_slot: dict[int, int]  # per MS, best singleton MCS payload anywhere

    def groups(self) -> list[SdmaGroup]:
        return [g for lst in self.per_subband for g in lst]


class SubbandLinkEvaluator:
    """Evaluates member sets on a stack of subbands with equal CSI sample
    counts: MinMSE weights from the center CSI sample, per-sample SINR
    across the whole subband, EESM + MCS per member. Keys name a subband by
    its position in the caller's subbands list, not in the stack (stacks
    vary with the sample counts) nor by SubbandSpec.index (it may repeat).
    metrics_for looks keys up in the caller's cache and evaluates only the
    misses."""

    def __init__(self, eff_channels: np.ndarray, positions: Sequence[int], ms_ids: Sequence[int],
                 noise_power_w: float, total_power_w: float, table: McsTable, cache: dict):
        self.eff = eff_channels  # (S, K, N, M) pathloss-scaled CSI samples of S subbands
        self.stack = {j: s for s, j in enumerate(positions)}  # list position -> stack index
        self.row = {ms: i for i, ms in enumerate(ms_ids)}
        self.noise, self.total_power, self.table = noise_power_w, total_power_w, table
        self.payload = np.array([e.bytes_per_slot for e in table.entries] + [0])  # index -1: 0
        self.rep_idx = eff_channels.shape[2] // 2
        self.num_antennas = eff_channels.shape[3]
        self.cache: dict[Key, Scored] = cache

    def metrics_for(self, keys: Sequence[Key]) -> np.ndarray:
        for g, batch in _by_size([k for k in keys if k not in self.cache]).items():
            self._eval_batch(batch, g)
        return np.array([self.cache[k][0] for k in keys], dtype=float)

    def _eval_batch(self, keys: list[Key], g: int) -> None:
        sb = np.array([[self.stack[j]] for j, _ in keys])  # (R, 1)
        rows = np.array([[self.row[ms] for ms in t] for _, t in keys])  # (R, G)
        w = minmse_weights(self.eff[sb, rows, self.rep_idx, :], self.noise, self.total_power)
        sinr = compute_sinr(w, self.eff[sb, rows], self.total_power / g, self.noise)  # (R, G, N)

        idx, _ = select_mcs_batch(sinr.reshape(-1, sinr.shape[2]), self.table)
        idx = idx.reshape(-1, g)
        # small integer payloads: the sums are exact, as floats too
        metrics = self.payload[idx].sum(axis=1).tolist()
        self.cache.update((k, (m, *i)) for k, m, i in zip(keys, metrics, idx.tolist()))


def _by_size(keys: list[Key]) -> dict[int, list[Key]]:
    return {g: [k for k in keys if len(k[1]) == g] for g in sorted({len(t) for _, t in keys})}


def greedy_capacity_grouper(
    singleton: dict[int, float], feasible: list[int], max_groups: int, num_antennas: int
) -> Generator:
    """Best-fit construction; argmax ties always break to the lowest MS id.

    A generator: it yields each step's trial member tuples, is sent their
    metrics, and returns the groups. Every feasible MS ends up in at least
    one group (each new group is seeded with an uncovered MS), so the frame
    constructor can schedule any MS on any subband.
    """
    uncovered = set(feasible)
    groups: list[tuple[int, ...]] = []
    while uncovered and len(groups) < max_groups:
        seed = max(sorted(uncovered), key=lambda ms: (singleton[ms], -ms))
        members, metric = (seed,), singleton[seed]
        while len(members) < num_antennas:
            trials = [tuple(sorted(members + (c,))) for c in feasible if c not in members]
            if not trials:
                break
            scores = yield trials
            best = int(np.argmax(scores))
            if not scores[best] > metric:
                break
            members, metric = trials[best], float(scores[best])
        groups.append(members)
        uncovered -= set(members)
    return groups


def run_lockstep(ev: SubbandLinkEvaluator, searches: dict[int, Generator]) -> dict[int, list]:
    """Drive one greedy search per subband of ev's stack, keyed by list
    position, in lockstep: each round scores the trials of every live search
    in one metrics_for call."""
    found: dict[int, list[tuple[int, ...]]] = dict.fromkeys(searches)
    scores: dict[int, Optional[np.ndarray]] = dict.fromkeys(searches)
    while scores:
        trials = {}
        for j, sent in scores.items():
            try:
                trials[j] = searches[j].send(sent)
            except StopIteration as done:
                found[j] = done.value
        flat = ev.metrics_for([(j, t) for j, ts in trials.items() for t in ts])
        cuts = np.cumsum([len(ts) for ts in trials.values()])[:-1]
        scores = dict(zip(trials, np.split(flat, cuts)))
    return found


def form_groups(
    csi: Optional[CsiReport],
    subbands: Sequence[SubbandSpec],
    active_ms: Sequence[int],
    table: McsTable,
    total_power_w: float,
    max_groups_per_subband: Optional[int] = None,
    cache: Optional[dict[Key, Scored]] = None,
) -> GroupingResult:
    """Run the greedy grouper independently on every subband.

    active_ms are the MSs with queued traffic. MSs with no feasible MCS on
    a subband are simply left ungrouped there; MSs feasible nowhere are
    absent from best_bytes_per_slot. With no active MS every subband gets
    an empty group list and csi is not read (it may be None).

    cache maps (position in subbands, sorted members) to a group's metric
    and its members' MCS entry indices; None uses a fresh dict. Calls with
    the same csi, subbands, table and power may share one (drop_frames
    shares one per drop): both depend only on the members' CSI, and the
    kernels are row-independent, so a cached entry has the bits a fresh
    batch would give it.
    """
    cache = {} if cache is None else cache
    active = sorted(set(active_ms))
    if max_groups_per_subband is not None and max_groups_per_subband < 1:
        raise ValueError("max_groups_per_subband must be >= 1")
    if not active:
        return GroupingResult(per_subband=[[] for _ in subbands], best_bytes_per_slot={})
    max_groups = max_groups_per_subband or len(active)

    amp = np.sqrt(10.0 ** (-csi.pathloss_db / 10.0))[:, None, None]
    eff = [(subband_csi(csi, sb)[0] * amp)[active] for sb in subbands]
    counts = [e.shape[1] for e in eff]  # subbands with equal sample counts share a stack

    entries = [*table.entries, None]  # entry index -1 (none feasible) -> None
    per_subband: list[list[SdmaGroup]] = [[] for _ in subbands]
    best_bps: dict[int, int] = {}
    for n in dict.fromkeys(counts):
        pos = [j for j, c in enumerate(counts) if c == n]
        ev = SubbandLinkEvaluator(np.stack([eff[j] for j in pos]), pos, active,
                                  csi.noise_power_w, total_power_w, table, cache)
        single = ev.metrics_for([(j, (ms,)) for j in pos for ms in active])
        searches = {}
        for j, row in zip(pos, single.reshape(len(pos), len(active)).tolist()):
            singleton = dict(zip(active, row))
            feasible = [ms for ms in active if singleton[ms] > 0]
            for ms in feasible:  # a one-member metric is the member's payload
                best_bps[ms] = max(best_bps.get(ms, 0), int(singleton[ms]))
            searches[j] = greedy_capacity_grouper(singleton, feasible, max_groups, ev.num_antennas)
        for j, found in run_lockstep(ev, searches).items():
            for members in found:  # every final group was scored during its search
                metric, *idx = cache[j, members]
                per_subband[j].append(SdmaGroup(subbands[j].index, members,
                                                tuple(entries[i] for i in idx), float(metric)))
    for built in per_subband:
        built.sort(key=lambda g: (-g.metric, g.members))
    return GroupingResult(per_subband=per_subband, best_bytes_per_slot=best_bps)
