"""Per-subband SDMA group formation.

Groups are formed independently on every subband from the decimated CSI
falling inside it. A candidate group is scored by its capacity metric: the
sum over members of the slot payload of the MCS each member sustains given
the group's precoding and intra-group interference, with intra-subband
frequency selectivity compressed by EESM.

The search is a greedy best-fit: seed with the best uncovered singleton,
then keep adding the MS that maximizes the metric while it strictly
improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import CsiReport, subband_csi
from .geometry import SubbandSpec
from .phy import LinkResult, McsTable, compute_sinr, minmse_weights, select_mcs_batch


@dataclass
class SdmaGroup:
    """A spatially compatible member set on one subband, with its link
    results evaluated over that subband's CSI samples."""

    subband: int
    members: tuple[int, ...]
    link: list[LinkResult]
    metric: float  # capacity score: members' slot payloads summed, infeasible ones add 0


@dataclass
class GroupingResult:
    per_subband: list[list[SdmaGroup]]  # aligned with the subband list, best first
    best_bytes_per_slot: dict[int, int]  # per MS, best singleton MCS payload anywhere

    def groups(self) -> list[SdmaGroup]:
        return [g for lst in self.per_subband for g in lst]


class SubbandLinkEvaluator:
    """Evaluates member sets on one subband: MinMSE weights from the center
    CSI sample, per-sample SINR across the whole subband, EESM + MCS per
    member. Results are cached per member tuple."""

    def __init__(
        self,
        subband: SubbandSpec,
        eff_channels: np.ndarray,  # (K, N, M) pathloss-scaled CSI samples
        ms_ids: Sequence[int],
        noise_power_w: float,
        total_power_w: float,
        table: McsTable,
    ):
        if noise_power_w <= 0:
            raise ValueError("noise power must be positive")
        self.subband = subband
        self.eff = eff_channels
        self.ms_ids = list(ms_ids)
        self.row = {ms: i for i, ms in enumerate(self.ms_ids)}
        self.noise = noise_power_w
        self.total_power = total_power_w
        self.table = table
        self.rep_idx = eff_channels.shape[1] // 2
        self.num_antennas = eff_channels.shape[2]
        self._cache: dict[tuple[int, ...], tuple[list[LinkResult], float]] = {}

    def metrics_for(self, member_tuples: Sequence[tuple[int, ...]]) -> np.ndarray:
        missing = [t for t in member_tuples if t not in self._cache]
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for t in missing:
            by_size.setdefault(len(t), []).append(t)
        for size, tuples in by_size.items():
            self._eval_batch(tuples, size)
        return np.array([self._cache[t][1] for t in member_tuples])

    def result(self, members: tuple[int, ...]) -> tuple[list[LinkResult], float]:
        if members not in self._cache:
            self._eval_batch([members], len(members))
        return self._cache[members]

    def _eval_batch(self, tuples: list[tuple[int, ...]], g: int) -> None:
        rows = np.array([[self.row[ms] for ms in t] for t in tuples])  # (R, G)
        w = minmse_weights(self.eff[rows, self.rep_idx, :], self.noise, self.total_power)
        sinr = compute_sinr(w, self.eff[rows], self.total_power / g, self.noise)  # (R, G, N)

        n = sinr.shape[2]
        picks = select_mcs_batch(sinr.reshape(-1, n), self.table)
        for r, t in enumerate(tuples):
            links = []
            metric = 0.0
            for u, ms in enumerate(t):
                mcs, geff = picks[r * g + u]
                links.append(LinkResult(ms=ms, sinr=sinr[r, u], eff_sinr=geff, mcs=mcs))
                if mcs is not None:
                    metric += mcs.bytes_per_slot
            self._cache[t] = (links, metric)


def greedy_capacity_grouper(
    ev: SubbandLinkEvaluator, feasible: list[int], max_groups: int
) -> list[tuple[int, ...]]:
    """Best-fit construction; argmax ties always break to the lowest MS id.

    Every feasible MS ends up in at least one group (each new group is
    seeded with an uncovered MS), so the frame constructor can schedule any
    MS on any subband.
    """
    singleton = {ms: float(ev.metrics_for([(ms,)])[0]) for ms in feasible}
    uncovered = set(feasible)
    groups: list[tuple[int, ...]] = []
    while uncovered and len(groups) < max_groups:
        seed = max(sorted(uncovered), key=lambda ms: (singleton[ms], -ms))
        members = (seed,)
        metric = singleton[seed]
        while len(members) < ev.num_antennas:
            cands = [ms for ms in feasible if ms not in members]
            if not cands:
                break
            trials = [tuple(sorted(members + (c,))) for c in cands]
            scores = ev.metrics_for(trials)
            best_i = None
            best_score = metric
            for i, c in enumerate(cands):
                if scores[i] > best_score:
                    best_i, best_score = i, scores[i]
            if best_i is None:
                break
            members = trials[best_i]
            metric = float(best_score)
        groups.append(members)
        uncovered -= set(members)
    return groups


def form_groups(
    csi: Optional[CsiReport],
    subbands: Sequence[SubbandSpec],
    active_ms: Sequence[int],
    table: McsTable,
    total_power_w: float,
    max_groups_per_subband: Optional[int] = None,
) -> GroupingResult:
    """Run the greedy grouper independently on every subband.

    active_ms are the MSs with queued traffic. MSs with no feasible MCS on
    a subband are simply left ungrouped there; MSs feasible nowhere are
    absent from best_bytes_per_slot. With no active MS every subband gets
    an empty group list and csi is not read (it may be None).
    """
    active = sorted(set(active_ms))
    if max_groups_per_subband is not None and max_groups_per_subband < 1:
        raise ValueError("max_groups_per_subband must be >= 1")
    if not active:
        return GroupingResult(per_subband=[[] for _ in subbands], best_bytes_per_slot={})
    if max_groups_per_subband is None:
        max_groups_per_subband = len(active)

    gain = 10.0 ** (-csi.pathloss_db / 10.0)
    amp = np.sqrt(gain)[:, None, None]

    per_subband: list[list[SdmaGroup]] = []
    best_bps: dict[int, int] = {}
    for sb in subbands:
        samples, _ = subband_csi(csi, sb)
        eff = (samples * amp)[active]
        ev = SubbandLinkEvaluator(
            sb, eff, active, csi.noise_power_w, total_power_w, table
        )
        single = ev.metrics_for([(ms,) for ms in active])
        feasible = [ms for ms, met in zip(active, single) if met > 0]
        for ms in feasible:
            links, _ = ev.result((ms,))
            bps = links[0].mcs.bytes_per_slot
            best_bps[ms] = max(best_bps.get(ms, 0), bps)

        built = []
        if feasible:
            for members in greedy_capacity_grouper(ev, feasible, max_groups_per_subband):
                links, metric = ev.result(members)
                built.append(
                    SdmaGroup(subband=sb.index, members=members, link=links, metric=metric)
                )
        built.sort(key=lambda g: (-g.metric, g.members))
        per_subband.append(built)

    return GroupingResult(per_subband=per_subband, best_bytes_per_slot=best_bps)
