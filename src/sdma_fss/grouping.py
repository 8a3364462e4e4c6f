"""Per-subband SDMA group formation.

Groups are formed independently on every subband from the decimated CSI
falling inside it. A candidate group is scored by its capacity metric: the
sum over members of the slot payload of the MCS each member sustains given
the group's precoding and intra-group interference, with intra-subband
frequency selectivity compressed by EESM.

The search is a greedy best-fit: seed with the best uncovered singleton,
then keep adding the MS that maximizes the metric while it strictly
improves. A member set is an integer mask, bit ms for MS id ms. Each
subband's search is a generator that steps on while its trials are cached
and waits on its unscored ones, all of one size; its first wait is on the
singletons and, with more than one antenna, its second on every pair of
feasible MSs, since most of them get scored anyway. form_groups is the one
scheduler: it runs the searches of a stack of subbands with equal CSI
sample counts together, and each kernel batch scores the trials of every
search waiting on the size that most of them wait on (the smaller on a
tie), so the singletons of every subband form the first batch and their
pairs the second. A batch runs as consecutive kernel calls that each
gather at most CALL_CSI_BYTES of CSI, since an all-pairs batch grows as the
square of the MS count. The kernels are row-independent, so the bits are
those of searching one subband at a time, trial by trial.
For the same reason the link evaluators that link_evaluators builds from
one drop's static CSI serve all its frames. Each keeps, per subband and
member mask, the group's metric and the MCS entry each member sustains,
which is all a final group carries: a group goes through the kernels once
per evaluator, whatever the active set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import CsiReport, subband_csi
from .geometry import SubbandSpec
from .phy import McsEntry, McsTable, compute_sinr, minmse_weights, select_mcs_batch

# the most CSI one kernel call gathers, in bytes: an all-pairs batch holds
# K^2/2 keys, and a call's transients are about three times its CSI stack
CALL_CSI_BYTES = 1 << 20

Key = tuple[int, int]  # (position in the subbands list, member mask)
# (metric, then each member's index into the MCS entries by ascending MS id, -1: none feasible)
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
    across the whole subband, EESM + MCS per member. It names a subband by
    its position in the caller's subbands list, not in the stack (stacks
    vary with the sample counts) nor by SubbandSpec.index (it may repeat).
    cache[position] maps a member mask to the group's metric and its
    members' MCS entry indices, filled by one _eval_batch call per kernel
    batch."""

    def __init__(self, eff: Sequence[np.ndarray], positions: Sequence[int],
                 noise_power_w: float, total_power_w: float, table: McsTable):
        # the stacked subbands' pathloss-scaled (K, N, M) CSI as one read-only
        # flat (S*K, N, M) stack, row s*K + ms holding MS ms on subband s, and
        # its read-only contiguous center sample (S*K, M)
        self.flat = np.concatenate(eff)
        self.center = self.flat[:, self.flat.shape[1] // 2].copy()
        self.flat.flags.writeable = self.center.flags.writeable = False
        k = len(self.flat) // len(positions)  # MSs per subband
        self.base = {j: s * k for s, j in enumerate(positions)}  # list position -> first row
        self.noise, self.total_power, self.table = noise_power_w, total_power_w, table
        self.num_antennas = self.flat.shape[2]
        self.cache: dict[int, dict[int, Scored]] = {j: {} for j in positions}
        self._members: dict[int, list[int]] = {}

    def members(self, mask: int) -> list[int]:
        """The set bits of a member mask, ascending: its members' MS ids,
        kept per mask for the evaluator's life."""
        if (members := self._members.get(mask)) is None:
            members = self._members[mask] = [ms for ms in range(mask.bit_length())
                                             if mask >> ms & 1]
        return members

    def _eval_batch(self, keys: list[Key], g: int) -> None:
        """Score keys, all of g members, in consecutive kernel calls that
        each gather at most CALL_CSI_BYTES of CSI, or one key."""
        n, m = self.flat.shape[1:]
        step = max(1, CALL_CSI_BYTES // (g * n * m * self.flat.itemsize))
        for start in range(0, len(keys), step):
            chunk = keys[start:start + step]
            rows = []  # stack row of each member, ascending MS id within a key
            for j, mask in chunk:
                base = self.base[j]
                rows += [base + ms for ms in self.members(mask)]
            rows = np.array(rows)
            h = self.flat.take(rows, axis=0).reshape(-1, g, n, m)  # (R, G, N, M)
            w = minmse_weights(self.center.take(rows, axis=0).reshape(-1, g, m), self.noise,
                               self.total_power)
            sinr = compute_sinr(w, h, self.total_power / g, self.noise)  # (R, G, N)
            idx = select_mcs_batch(sinr.reshape(-1, n), self.table).reshape(-1, g)
            # small integer payloads: the sums are exact, as floats too
            metrics = self.table.payloads[idx].sum(axis=1).tolist()
            for (j, mask), metric, i in zip(chunk, metrics, idx.tolist()):
                self.cache[j][mask] = (metric, *i)


def _search(scored: dict[int, Scored], bits: list[int], max_groups: int, num_antennas: int,
            groups: list[int]) -> Iterator[list[int]]:
    """Best-fit construction on one subband over the one-member masks bits;
    argmax ties always break to the lowest MS id. Yields the unscored
    trials it waits on, all of one size, the singletons first, and appends
    each closed group's mask to groups. Every feasible MS ends up in at
    least one group (each new group is seeded with an uncovered MS), so the
    frame constructor can schedule any MS on any subband."""
    if misses := [bit for bit in bits if bit not in scored]:
        yield misses
    bits = [bit for bit in bits if scored[bit][0] > 0]  # a one-member metric is the payload
    # most pairs get scored anyway: score them all in one wait, not one per group
    if num_antennas > 1 and (misses := [a | b for a, b in itertools.combinations(bits, 2)
                                        if a | b not in scored]):
        yield misses
    seeds = sorted(bits, key=lambda bit: -scored[bit][0])  # stable: ties by id
    while seeds and len(groups) < max_groups:
        mask, metric = seeds[0], scored[seeds[0]][0]
        while mask.bit_count() < num_antennas and (
                trials := [mask | bit for bit in bits if not mask & bit]):
            if misses := [t for t in trials if t not in scored]:
                yield misses
            grown = mask
            for t in trials:  # the first maximum: ties break to the lowest id
                if (m := scored[t][0]) > metric:
                    grown, metric = t, m
            if grown == mask:  # no trial strictly improves: close the group
                break
            mask = grown
        groups.append(mask)
        seeds = [bit for bit in seeds if not bit & mask]  # uncovered


def link_evaluators(csi: CsiReport, subbands: Sequence[SubbandSpec], table: McsTable,
                    total_power_w: float) -> list[SubbandLinkEvaluator]:
    """One evaluator per stack of subbands with equal CSI sample counts, in
    order of first appearance, holding every MS's pathloss-scaled CSI.
    Each subband's CSI is sliced once here; form_groups calls that share the
    evaluators share their scores. drop_frames builds them once per drop:
    the channel is static, an entry depends only on its members' CSI and
    the kernels are row-independent, so a shared entry has the bits a fresh
    evaluator would give it."""
    amp = np.sqrt(10.0 ** (-csi.pathloss_db / 10.0))[:, None, None]
    eff = [subband_csi(csi, sb)[0] * amp for sb in subbands]
    counts = [e.shape[1] for e in eff]
    by_count = ([j for j, c in enumerate(counts) if c == n] for n in dict.fromkeys(counts))
    return [SubbandLinkEvaluator([eff[j] for j in pos], pos, csi.noise_power_w, total_power_w,
                                 table) for pos in by_count]


def form_groups(
    links: Sequence[SubbandLinkEvaluator],
    subbands: Sequence[SubbandSpec],
    active_ms: Sequence[int],
    max_groups_per_subband: Optional[int] = None,
) -> GroupingResult:
    """Run the greedy grouper independently on every subband.

    links are link_evaluators(csi, subbands, ...), and subbands label the
    groups. active_ms are the MSs with queued traffic. MSs with no feasible
    MCS on a subband are simply left ungrouped there; MSs feasible nowhere
    are absent from best_bytes_per_slot. With no active MS every subband
    gets an empty group list (links may then be empty). Bit ms of a mask
    is MS id ms, not its place among active_ms, so the evaluators' scores
    stay valid as the active set changes.
    """
    active = sorted(set(active_ms))
    if max_groups_per_subband is not None and max_groups_per_subband < 1:
        raise ValueError("max_groups_per_subband must be >= 1")
    max_groups = max_groups_per_subband or len(active)

    per_subband: list[list[SdmaGroup]] = [[] for _ in subbands]
    best_bps: dict[int, int] = {}
    bits = [1 << ms for ms in active]
    for ev in links:
        groups: dict[int, list[int]] = {j: [] for j in ev.cache}
        searches = {j: _search(ev.cache[j], bits, max_groups, ev.num_antennas, groups[j])
                    for j in ev.cache}
        waiting = {j: misses for j, s in searches.items() if (misses := next(s, None))}
        while waiting:  # one batch: the trial size most searches wait on, the smaller on a tie
            sizes = [misses[0].bit_count() for misses in waiting.values()]
            g = max(sorted(set(sizes)), key=sizes.count)
            batch = [j for j, n in zip(waiting, sizes) if n == g]
            ev._eval_batch([(j, t) for j in batch for t in waiting.pop(j)], g)
            waiting.update((j, misses) for j in batch if (misses := next(searches[j], None)))
        for j, scored in ev.cache.items():
            for ms, bit in zip(active, bits):
                if (metric := scored[bit][0]) > 0:
                    best_bps[ms] = max(best_bps.get(ms, 0), metric)
            for mask in groups[j]:  # every final group was scored during its search
                metric, *idx = scored[mask]
                members = tuple(ev.members(mask))
                mcs = tuple([ev.table.choices[i] for i in idx])
                per_subband[j].append(SdmaGroup(subbands[j].index, members, mcs, float(metric)))
    for built in per_subband:
        built.sort(key=lambda g: (-g.metric, g.members))
    return GroupingResult(per_subband=per_subband, best_bytes_per_slot=best_bps)
