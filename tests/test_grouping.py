import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdma_fss import experiment, grouping, phy
from sdma_fss.channel import ChannelRealization, subband_csi
from sdma_fss.geometry import SubbandSpec
from sdma_fss.grouping import SubbandLinkEvaluator, form_groups, link_evaluators
from sdma_fss.phy import (
    compute_sinr,
    default_mcs_table,
    minmse_weights,
    select_mcs_batch,
)
from test_phy import oracle_minmse, oracle_select, oracle_sinr_scalar

TABLE = default_mcs_table()


def evaluator(h, noise=1.0, power=1.0):
    """Evaluator over one subband's (K, N, M) CSI, MS ids 0..K-1."""
    return SubbandLinkEvaluator([h], [0], noise, power, TABLE)


def group(csi, subbands, active, power, max_groups=None):
    """form_groups on fresh link evaluators at unit noise power."""
    return form_groups(link_evaluators(csi, subbands, TABLE, 1.0, power), subbands, active,
                       max_groups)


def mask(members) -> int:
    return sum(1 << ms for ms in members)


def score(ev, trials) -> None:
    """Score the member masks of {position: masks} that the evaluator's
    cache lacks, one kernel batch per group size, smallest first."""
    misses = {}
    for j, masks in trials.items():
        for bits in masks:
            if bits not in ev.cache[j]:
                misses.setdefault(bits.bit_count(), []).append((j, bits))
    for g in sorted(misses):
        ev._eval_batch(misses[g], g)


def metric(ev, members) -> float:
    score(ev, {0: [mask(members)]})
    return float(ev.cache[0][mask(members)][0])


def kernel_rows(monkeypatch) -> list[np.ndarray]:
    """Wrap grouping.select_mcs_batch; the returned list collects the
    (rows, samples) SINR block of every call the evaluator makes."""
    seen = []
    select = grouping.select_mcs_batch

    def spy(samples, table):
        seen.append(samples.copy())
        return select(samples, table)

    monkeypatch.setattr(grouping, "select_mcs_batch", spy)
    return seen


def greedy_groups(ev, feasible, max_groups):
    """The greedy search alone on the evaluator's subband 0."""
    result = form_groups([ev], bands(ev.flat.shape[1]), feasible, max_groups)
    return [g.members for g in result.per_subband[0]]


def make_csi(samples: np.ndarray) -> ChannelRealization:
    k, n, m = samples.shape
    return ChannelRealization(samples, np.arange(n), np.zeros(k))


def bands(n_samples: int, count: int = 1) -> list[SubbandSpec]:
    per = n_samples // count
    return [
        SubbandSpec(index=j,
                    subcarrier_lo=j * per,
                    subcarrier_hi=(j + 1) * per if j < count - 1 else n_samples)
        for j in range(count)
    ]


def random_csi(rng, k=4, n=8, m=2, scale=1.0):
    h = scale * (rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m)))
    return make_csi(h)


def test_single_ms_gives_singleton_groups():
    rng = np.random.default_rng(0)
    csi = random_csi(rng, k=1, n=12, m=2)
    result = group(csi, bands(12, 3), [0], 50.0)
    for groups in result.per_subband:
        assert len(groups) == 1
        assert groups[0].members == (0,)


def test_orthogonal_pair_grouped_together():
    n = 6
    h = np.zeros((2, n, 2), dtype=complex)
    h[0, :, 0] = 2.0
    h[1, :, 1] = 2.0
    csi = make_csi(h)
    result = group(csi, bands(n), [0, 1], 100.0)
    groups = result.per_subband[0]
    assert groups[0].members == (0, 1)
    singles = {}
    ev_groups = {g.members: g.metric for g in groups}
    ev = evaluator(h, 1.0, 100.0)
    singles[0] = metric(ev, (0,))
    singles[1] = metric(ev, (1,))
    assert ev_groups[(0, 1)] > singles[0]
    assert ev_groups[(0, 1)] > singles[1]


def test_group_metric_single_member_qpsk():
    # weak channel: only the most robust MCS is feasible -> metric 6
    h = np.full((1, 4, 2), 0.11 + 0.0j)
    csi = make_csi(h)
    result = group(csi, bands(4), [0], 100.0)
    g = result.per_subband[0][0]
    assert g.mcs[0] is not None and g.mcs[0].name == "QPSK 1/2"
    assert g.metric == 6


def test_group_metric_infeasible_members_zero():
    h = np.full((2, 4, 2), 1e-3 + 0.0j)
    csi = make_csi(h)
    result = group(csi, bands(4), [0, 1], 1.0)
    assert result.per_subband[0] == []
    assert result.best_bytes_per_slot == {}


def test_no_active_ms_gives_empty_groups():
    # an idle frame groups nobody, with or without links (a drop with no MS
    # has none); it still rejects a bad group cap
    csi = random_csi(np.random.default_rng(3), k=3, n=12, m=2)
    links = link_evaluators(csi, bands(12, 3), TABLE, 1.0, 10.0)
    for evs in (links, []):
        result = form_groups(evs, bands(12, 3), [])
        assert result.per_subband == [[], [], []]
        assert result.best_bytes_per_slot == {}
    with pytest.raises(ValueError):
        form_groups(links, bands(12, 3), [], max_groups_per_subband=0)
    with pytest.raises(ValueError):
        form_groups(links, bands(12, 3), [0, 1], max_groups_per_subband=0)


def test_evaluator_matches_scalar_phy_path(monkeypatch):
    # the batched evaluator must agree with the scalar oracles applied by
    # hand: weights from the center sample, Eq.-1 SINR at every sample with
    # equal power split
    rng = np.random.default_rng(40)
    h = rng.standard_normal((6, 9, 4)) + 1j * rng.standard_normal((6, 9, 4))
    noise, power = 0.7, 55.0
    ev = evaluator(h, noise, power)
    seen = kernel_rows(monkeypatch)
    for members in [(0,), (1, 4), (0, 2, 5), (0, 1, 2, 3)]:
        score(ev, {0: [mask(members)]})
        rep = h[list(members), 9 // 2, :]
        w_ref = oracle_minmse(rep, noise, power)
        p = power / len(members)
        sinr_ref = np.array(
            [oracle_sinr_scalar(w_ref, h[list(members), n], p, noise) for n in range(9)]
        ).T
        got = seen.pop()  # one kernel call, one row per member
        assert not seen
        assert np.allclose(got, sinr_ref, rtol=1e-12)


def test_group_metric_matches_per_member_recomputation(monkeypatch):
    rng = np.random.default_rng(11)
    h = rng.standard_normal((5, 9, 4)) + 1j * rng.standard_normal((5, 9, 4))
    ev = evaluator(h, 1.0, 60.0)
    seen = kernel_rows(monkeypatch)
    got = metric(ev, (0, 2, 4))
    (rows,) = seen
    _, *idx = ev.cache[0][mask((0, 2, 4))]
    total = 0
    for row, i in zip(rows, idx, strict=True):
        entry, _ = oracle_select(row, TABLE)
        assert entry is (TABLE.entries[i] if i >= 0 else None)
        if entry is not None:
            total += entry.bytes_per_slot
    assert got == total


def test_greedy_vs_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    ratios = []
    for trial in range(20):
        k, m, n = 4, 2, 6
        h = rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))
        ev = evaluator(h, 1.0, 40.0)
        feasible = [ms for ms in range(k) if metric(ev, (ms,)) > 0]
        if not feasible:
            continue
        groups = greedy_groups(ev, feasible, max_groups=k)
        greedy_best = max(metric(ev, g) for g in groups)
        best = 0.0
        for size in (1, 2):
            for combo in itertools.combinations(feasible, size):
                best = max(best, metric(ev, tuple(combo)))
        assert greedy_best <= best + 1e-9
        assert greedy_best >= 0.5 * best
        ratios.append(greedy_best / best)
    assert ratios, "no feasible instances drawn"
    print(f"greedy/best ratios: min={min(ratios):.3f} mean={np.mean(ratios):.3f}")


def test_group_size_never_exceeds_antennas():
    rng = np.random.default_rng(5)
    csi = random_csi(rng, k=6, n=8, m=2, scale=2.0)
    result = group(csi, bands(8, 2), range(6), 100.0)
    for groups in result.per_subband:
        for g in groups:
            assert 1 <= len(g.members) <= 2
            assert len(set(g.members)) == len(g.members)


def test_every_feasible_ms_covered_per_subband():
    rng = np.random.default_rng(6)
    csi = random_csi(rng, k=5, n=12, m=3, scale=1.5)
    result = group(csi, bands(12, 3), range(5), 80.0)
    for sb_idx, groups in enumerate(result.per_subband):
        covered = {ms for g in groups for ms in g.members}
        ev_feasible = {
            ms for ms in range(5)
            if any(m == ms and e is not None for g in groups for m, e in zip(g.members, g.mcs))
        }
        # every member that shows up feasible anywhere in this subband is covered
        assert ev_feasible <= covered


def test_determinism_and_subband_independence():
    rng = np.random.default_rng(7)
    csi = random_csi(rng, k=4, n=12, m=2, scale=1.2)
    subbands = bands(12, 3)
    r1 = group(csi, subbands, range(4), 60.0)
    r2 = group(csi, subbands, range(4), 60.0)
    sig = lambda r: [[(g.members, g.metric) for g in lst] for lst in r.per_subband]
    assert sig(r1) == sig(r2)

    permuted = [subbands[2], subbands[0], subbands[1]]
    r3 = group(csi, permuted, range(4), 60.0)
    assert sig(r3) == [sig(r1)[2], sig(r1)[0], sig(r1)[1]]


def test_groups_sorted_by_metric():
    rng = np.random.default_rng(8)
    csi = random_csi(rng, k=6, n=8, m=2, scale=1.5)
    result = group(csi, bands(8), range(6), 70.0)
    metrics = [g.metric for g in result.per_subband[0]]
    assert metrics == sorted(metrics, reverse=True)


def test_metric_strictly_increases_along_greedy_construction():
    rng = np.random.default_rng(9)
    h = 1.4 * (rng.standard_normal((5, 6, 4)) + 1j * rng.standard_normal((5, 6, 4)))
    ev = evaluator(h, 1.0, 90.0)
    feasible = [ms for ms in range(5) if metric(ev, (ms,)) > 0]
    for members in greedy_groups(ev, feasible, max_groups=5):
        # replaying prefixes in construction order must strictly increase
        if len(members) < 2:
            continue
        # construction order is not recorded; check the full group beats
        # every proper subset obtained by removing one member
        full = metric(ev, members)
        for drop in members:
            sub = tuple(ms for ms in members if ms != drop)
            assert full > metric(ev, sub)



# ---------------------------------------------------------------- sequential oracle
# The grouper as it was before lockstep: one subband at a time, one kernel
# batch per group size per request, (member MCS entries, metric) cached per
# member tuple.

class SequentialEvaluator:
    def __init__(self, eff, ms_ids, noise, power, table):
        self.eff, self.noise, self.power, self.table = eff, noise, power, table
        self.row = {ms: i for i, ms in enumerate(ms_ids)}
        self.rep_idx = eff.shape[1] // 2
        self.num_antennas = eff.shape[2]
        self.cache = {}

    def metrics_for(self, tuples):
        by_size = {}
        for t in tuples:
            if t not in self.cache:
                by_size.setdefault(len(t), []).append(t)
        for size, batch in by_size.items():
            self._eval_batch(batch, size)
        return np.array([self.cache[t][1] for t in tuples])

    def _eval_batch(self, tuples, g):
        rows = np.array([[self.row[ms] for ms in t] for t in tuples])
        w = minmse_weights(self.eff[rows, self.rep_idx, :], self.noise, self.power)
        sinr = compute_sinr(w, self.eff[rows], self.power / g, self.noise)
        idx = select_mcs_batch(sinr.reshape(-1, sinr.shape[2]), self.table)
        for r, t in enumerate(tuples):
            entries, total = [], 0.0
            for u in range(g):
                i = idx[r * g + u]
                mcs = self.table.entries[i] if i >= 0 else None
                entries.append(mcs)
                if mcs is not None:
                    total += mcs.bytes_per_slot
            self.cache[t] = (tuple(entries), total)


def sequential_greedy(ev, feasible, max_groups):
    singleton = {ms: float(ev.metrics_for([(ms,)])[0]) for ms in feasible}
    uncovered = set(feasible)
    groups = []
    while uncovered and len(groups) < max_groups:
        seed = max(sorted(uncovered), key=lambda ms: (singleton[ms], -ms))
        members, best_metric = (seed,), singleton[seed]
        while len(members) < ev.num_antennas:
            cands = [ms for ms in feasible if ms not in members]
            if not cands:
                break
            trials = [tuple(sorted(members + (c,))) for c in cands]
            scores = ev.metrics_for(trials)
            best_i, best_score = None, best_metric
            for i in range(len(cands)):
                if scores[i] > best_score:
                    best_i, best_score = i, scores[i]
            if best_i is None:
                break
            members, best_metric = trials[best_i], float(best_score)
        groups.append(members)
        uncovered -= set(members)
    return groups


def sequential_form_groups(csi, subbands, active_ms, table, noise, power, max_groups=None):
    """(per-subband [(subband, members, member MCS entries, metric)], best_bytes_per_slot)."""
    active = sorted(set(active_ms))
    max_groups = len(active) if max_groups is None else max_groups
    amp = np.sqrt(10.0 ** (-csi.pathloss_db / 10.0))[:, None, None]
    per_subband, best_bps = [], {}
    for sb in subbands:
        samples, _ = subband_csi(csi, sb)
        ev = SequentialEvaluator((samples * amp)[active], active, noise, power, table)
        single = ev.metrics_for([(ms,) for ms in active])
        feasible = [ms for ms, met in zip(active, single) if met > 0]
        for ms in feasible:
            best_bps[ms] = max(best_bps.get(ms, 0), ev.cache[(ms,)][0][0].bytes_per_slot)
        built = []
        if feasible:
            for members in sequential_greedy(ev, feasible, max_groups):
                entries, total = ev.cache[members]
                built.append((sb.index, members, entries, total))
        built.sort(key=lambda g: (-g[3], g[1]))
        per_subband.append(built)
    return per_subband, best_bps


def unequal_bands(edges):
    return [SubbandSpec(index=j, subcarrier_lo=lo, subcarrier_hi=hi)
            for j, (lo, hi) in enumerate(zip(edges, edges[1:]))]


GEOMETRIES = {
    "sb1": bands(24, 1),
    "sb3": bands(24, 3),
    "sb6": bands(24, 6),
    # sample counts 5, 3, 5, 2, 9: four stacks, one of them two subbands high
    "unequal": unequal_bands([0, 5, 8, 13, 15, 24]),
}


@pytest.mark.parametrize("max_groups", [None, 1, 2])
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_lockstep_matches_sequential_oracle(geometry, max_groups):
    # lockstep across subbands gives bit for bit the groups, metrics and
    # MCS entries of searching the subbands one after another
    subbands = GEOMETRIES[geometry]
    rng = np.random.default_rng([len(subbands), max_groups or 0])
    checked = 0
    for trial in range(6):
        k, m = int(rng.integers(3, 10)), int(rng.choice([2, 4]))
        cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        csi = make_csi(3.0 * (cn(k, 1, m) + 0.3 * cn(k, 24, m)))  # mildly selective
        csi.pathloss_db[:] = rng.uniform(-6.0, 6.0, size=k)
        active = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
        power = float(rng.uniform(5.0, 80.0))

        got = group(csi, subbands, active, power, max_groups)
        want, want_bps = sequential_form_groups(csi, subbands, active, TABLE, 1.0, power,
                                                max_groups)
        assert got.best_bytes_per_slot == want_bps
        assert len(got.per_subband) == len(want)
        for groups, ref in zip(got.per_subband, want):
            assert [(g.subband, g.members, g.metric) for g in groups] == [
                (sb, members, total) for sb, members, _, total in ref
            ]
            for g, (_, _, entries, _) in zip(groups, ref):
                for mcs, mcs_ref in zip(g.mcs, entries, strict=True):
                    assert mcs is mcs_ref
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("g", range(1, 9))
def test_flat_stack_batch_matches_sequential_oracle(monkeypatch, g):
    # a batch gathers its members from the flat stack, row stack position
    # * K + MS id; with three subbands in one stack, 13 MSs (masks wider
    # than a byte) and 8 antennas, each score entry has the bits that the
    # fancy-index sequential oracle gives on its subband alone
    rng = np.random.default_rng([13, g])
    k, n, m = 13, 6, 8
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    eff = [10 ** rng.uniform(-0.5, 1.0, (k, 1, 1)) * (cn(k, 1, m) + 0.4 * cn(k, n, m))
           for _ in range(3)]
    positions = [4, 0, 2]  # the stacked subbands' places in a subbands list
    ev = SubbandLinkEvaluator(eff, positions, 1.0, 50.0, TABLE)
    trials = {j: sorted({mask(rng.choice(k, g, replace=False).tolist()) for _ in range(8)})
              for j in positions}
    seen = kernel_rows(monkeypatch)
    score(ev, trials)
    assert len(seen) == 1  # one batch for all three subbands
    picked = set()
    for s, j in enumerate(positions):
        oracle = SequentialEvaluator(eff[s], range(k), 1.0, 50.0, TABLE)
        groups = [tuple(ms for ms in range(k) if bits >> ms & 1) for bits in trials[j]]
        oracle.metrics_for(groups)
        for bits, members in zip(trials[j], groups):
            entries, total = oracle.cache[members]
            idx = [TABLE.entries.index(e) if e else -1 for e in entries]
            want = np.array([total, *idx])
            assert np.array(ev.cache[j][bits], dtype=float).tobytes() == want.tobytes()
            picked.update(idx)
    assert len(picked) > 1


def test_cached_stacks_and_identity_are_read_only():
    # a drop's link evaluators keep their flat and center stacks, and MinMSE
    # its identity, across calls: a write to one would corrupt every later batch
    csi = random_csi(np.random.default_rng(2), k=5, n=13, m=4)
    links = link_evaluators(csi, bands(13, 3), TABLE, 1.0, 10.0)
    form_groups(links, bands(13, 3), range(5))
    assert [list(ev.cache) for ev in links] == [[0, 1], [2]]  # 4, 4 and 5 samples
    for ev in links:
        flat, center = ev.flat, ev.center
        assert flat.shape == (5 * len(ev.cache), flat.shape[1], 4)
        assert center.shape == (5 * len(ev.cache), 4)
        assert center.flags.c_contiguous
        assert np.array_equal(center, flat[:, flat.shape[1] // 2])
        for cached in (flat, center):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0
    assert not phy._eye(4).flags.writeable


@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 12))
def test_group_scores_alone_as_in_any_batch(seed, extra):
    # the drop cache and the search loop's batches need a group's bits not to
    # depend on the groups batched with it. At sigma^2 = 1e-300 W and
    # P = 1e20 W the regularizer is lost to rounding, so the dependent pair
    # (0, 1) leaves its Gram singular; MS 2 is an all-zero row, and (3, 4) is
    # the group that came out 3.48e-16 away when the whole batch took pinv
    noise, power, k, n, m = 1e-300, 1e20, 9, 5, 4
    rng5 = np.random.default_rng(5)
    pair5 = rng5.standard_normal((2, m)) + 1j * rng5.standard_normal((2, m))
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))
    h[:2, n // 2] = [[1, 2, 0, 0], [2, 4, 0, 0]]
    h[2] = 0
    h[3:5, n // 2] = pair5
    pairs = [(0, 1), (2, 3), (3, 4)] + [tuple(sorted(rng.choice(k, 2, replace=False).tolist()))
                                        for _ in range(extra)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]

    def evaluate(batch):
        hb = h[np.array(batch)]  # (R, 2, N, M)
        w = minmse_weights(hb[:, :, n // 2], noise, power)
        sinr = compute_sinr(w, hb, power / 2, noise)
        ev = SubbandLinkEvaluator([h], [0], noise, power, TABLE)
        ev._eval_batch([(0, mask(p)) for p in batch], 2)
        return w, sinr, select_mcs_batch(sinr.reshape(-1, n), TABLE).reshape(-1, 2), ev.cache[0]

    with np.errstate(over="ignore", invalid="ignore"):  # inf SINRs; nan weights of MS 2
        w, sinr, idx, cache = evaluate(pairs)
        alone = [evaluate([p]) for p in pairs]
    for r, (p, (w_r, sinr_r, idx_r, cache_r)) in enumerate(zip(pairs, alone)):
        assert w_r[0].tobytes() == w[r].tobytes()
        assert sinr_r[0].tobytes() == sinr[r].tobytes()
        assert idx_r[0].tobytes() == idx[r].tobytes()
        assert np.array(cache_r[mask(p)]).tobytes() == np.array(cache[mask(p)]).tobytes()


# ---------------------------------------------------------------- drop-scoped links

# 10 MHz carries 720 subcarriers, CSI every 8th: sample counts 12, 8, 12, 3,
# 55 give four stacks, one of them two subbands high, and SubbandSpec.index
# repeats (0, 0, 1, 1, 2)
UNEQUAL_10MHZ = [
    SubbandSpec(index=j // 2, subcarrier_lo=lo, subcarrier_hi=hi)
    for j, (lo, hi) in enumerate(zip([0, 96, 160, 256, 280], [96, 160, 256, 280, 720]))
]


def assert_same_grouping(got, want):
    assert got.best_bytes_per_slot == want.best_bytes_per_slot
    assert len(got.per_subband) == len(want.per_subband)
    for groups, ref in zip(got.per_subband, want.per_subband):
        assert [(g.subband, g.members, g.metric) for g in groups] == [
            (g.subband, g.members, g.metric) for g in ref
        ]
        for g, r in zip(groups, ref):
            for mcs, mcs_ref in zip(g.mcs, r.mcs, strict=True):
                assert mcs is mcs_ref


def slices(monkeypatch) -> list:
    """Wrap grouping.subband_csi; the returned list collects every subband
    whose CSI it slices."""
    sliced = []
    slice_csi = grouping.subband_csi

    def spy(csi, subband):
        sliced.append(subband)
        return slice_csi(csi, subband)

    monkeypatch.setattr(grouping, "subband_csi", spy)
    return sliced


def drop_inputs(monkeypatch, cfg):
    """The link_evaluators arguments (csi, subbands, table, noise, power) of cfg's
    seed-0 drop and the active set of its first frame."""
    seen = []
    build, form = experiment.link_evaluators, experiment.form_groups

    def built(*args):
        seen.append(args)
        return build(*args)

    def formed(links, subbands, active, *rest):
        seen.append(active)
        return form(links, subbands, active, *rest)

    with monkeypatch.context() as m:
        m.setattr(experiment, "link_evaluators", built)
        m.setattr(experiment, "form_groups", formed)
        next(experiment.drop_frames(cfg, 0))
    link_args, active = seen
    return link_args, active


@pytest.mark.parametrize("num_subbands", [1, 3, 6])
def test_drop_cache_matches_fresh_grouping(monkeypatch, num_subbands):
    # drop_frames builds its link evaluators once per drop, slicing each
    # subband's CSI exactly once, and their scores serve every frame while
    # the active set changes; on every frame the grouping must equal one
    # from fresh link_evaluators, bit for bit, on the drop's subbands and on
    # a list with unequal sample counts
    build, form = experiment.link_evaluators, experiment.form_groups
    sliced = slices(monkeypatch)
    drops, hits = [], []

    def built(csi, subbands, table, noise, power):
        links = build(csi, subbands, table, noise, power)
        assert sliced == list(subbands)
        drops.append(((csi, table, noise, power), build(csi, UNEQUAL_10MHZ, table, noise, power)))
        return links

    def checked(links, subbands, active, max_groups):
        sliced.clear()
        hits.append(sum(1 << ms in ev.cache[j] for ev in links for j in ev.cache for ms in active))
        (csi, table, noise, power), unequal_links = drops[-1]
        got = form(links, subbands, active, max_groups)
        unequal = form(unequal_links, UNEQUAL_10MHZ, active, max_groups)
        assert sliced == []  # the frames slice no CSI
        for result, sbs in ((got, subbands), (unequal, UNEQUAL_10MHZ)):
            assert_same_grouping(result, form(build(csi, sbs, table, noise, power), sbs, active,
                                              max_groups))
        assert got.groups() and unequal.groups()
        return got

    monkeypatch.setattr(experiment, "link_evaluators", built)
    monkeypatch.setattr(experiment, "form_groups", checked)
    cfg = experiment.ScenarioConfig(
        bandwidth_mhz=10.0, num_antennas=4, num_ms=12, num_subbands=num_subbands,
        saturated_traffic=False, offered_bytes_per_frame_total=8000.0, frames_per_drop=10,
    )
    for seed in (0, 1):
        sliced.clear()
        groupings = len(hits)
        assert sum(1 for _ in experiment.drop_frames(cfg, seed)) == cfg.frames_per_drop
        assert len(hits) - groupings > 2  # form_groups runs only when the active set changes
    assert len(drops) == 2  # one set of links per drop
    assert len(hits) > 10 and sum(h > 0 for h in hits) > len(hits) // 2  # the scores are reused


def test_warm_cache_runs_no_kernel(monkeypatch):
    # the link evaluators hold everything a final group carries, so grouping
    # the same active set again evaluates nothing; their stacks hold every
    # MS, so no grouping, of this active set or another, slices subband CSI
    cfg = experiment.ScenarioConfig(bandwidth_mhz=10.0, num_subbands=3, frames_per_drop=1)
    (csi, subbands, table, noise, power), active = drop_inputs(monkeypatch, cfg)
    seen = kernel_rows(monkeypatch)
    sliced = slices(monkeypatch)
    links = link_evaluators(csi, subbands, table, noise, power)
    assert sliced == list(subbands)
    sliced.clear()
    cold = form_groups(links, subbands, active)
    assert seen and cold.groups() and sliced == []
    seen.clear()
    warm = form_groups(links, subbands, active)
    assert seen == [] and sliced == []
    assert_same_grouping(warm, cold)
    other = form_groups(links, subbands, active[::2])
    assert sliced == []
    assert_same_grouping(other, form_groups(link_evaluators(csi, subbands, table, noise, power),
                                            subbands, active[::2]))
    assert sliced == list(subbands)  # fresh links: fresh stacks


@pytest.mark.parametrize("geometry", ["sb3", "unequal"])
def test_ms_ids_beyond_64_bits(geometry):
    # a member mask has bit ms for MS id ms, so ids 63 and up need more
    # than 64 bits; the groups still equal the sequential oracle's, and
    # links shared across active sets still give fresh links' bits
    subbands = GEOMETRIES[geometry]
    rng = np.random.default_rng(64)
    k, m = 70, 4
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    csi = make_csi(3.0 * (cn(k, 1, m) + 0.3 * cn(k, 24, m)))
    csi.pathloss_db[:] = rng.uniform(-6.0, 6.0, size=k)
    others = rng.choice(63, size=6, replace=False).tolist()
    active = sorted(others + [63, 64, 69])
    power = 40.0

    got = group(csi, subbands, active, power)
    want, want_bps = sequential_form_groups(csi, subbands, active, TABLE, 1.0, power)
    assert got.best_bytes_per_slot == want_bps
    assert {63, 64, 69} <= {ms for g in got.groups() for ms in g.members}
    for groups, ref in zip(got.per_subband, want, strict=True):
        assert [(g.subband, g.members, g.metric) for g in groups] == [
            (sb, members, total) for sb, members, _, total in ref
        ]
        for g, (_, _, entries, _) in zip(groups, ref):
            assert all(mcs is r for mcs, r in zip(g.mcs, entries, strict=True))

    links = link_evaluators(csi, subbands, TABLE, 1.0, power)
    form_groups(links, subbands, active)
    second = sorted(others[:3] + [64, 65, 66, 69])
    assert_same_grouping(form_groups(links, subbands, second),
                         group(csi, subbands, second, power))


# ---------------------------------------------------------------- lockstep oracle
# The search loop as it was before searches stepped through cached trials:
# each round, every live search takes one step and the round scores all of
# their trials, one kernel batch per trial size.

class LockstepSearch:
    def __init__(self, scored, feasible, max_groups, num_antennas):
        self.scored, self.max_groups, self.num_antennas = scored, max_groups, num_antennas
        self.bits = [1 << ms for ms in feasible]
        self.seeds = sorted(self.bits, key=lambda bit: -scored[bit][0])
        self.groups = []
        self.mask = self.metric = 0
        self.trials = []

    def advance(self):
        scored, mask, metric = self.scored, self.mask, self.metric
        for t in self.trials:
            if scored[t][0] > metric:
                mask, metric = t, scored[t][0]
        while True:
            if mask == self.mask:
                if mask:
                    self.groups.append(mask)
                    self.seeds = [bit for bit in self.seeds if not bit & mask]
                if not self.seeds or len(self.groups) == self.max_groups:
                    return []
                mask, metric = self.seeds[0], scored[self.seeds[0]][0]
            self.mask, self.metric = mask, metric
            if mask.bit_count() < self.num_antennas:
                self.trials = [mask | bit for bit in self.bits if not mask & bit]
                if self.trials:
                    return self.trials


def lockstep_form_groups(links, subbands, active_ms, max_groups=None):
    active = sorted(set(active_ms))
    max_groups = max_groups or len(active)
    per_subband, best_bps = [[] for _ in subbands], {}
    for ev in links:
        score(ev, {j: [1 << ms for ms in active] for j in ev.cache})
        searches = {}
        for j, scored in ev.cache.items():
            feasible = [ms for ms in active if scored[1 << ms][0] > 0]
            for ms in feasible:
                best_bps[ms] = max(best_bps.get(ms, 0), scored[1 << ms][0])
            searches[j] = LockstepSearch(scored, feasible, max_groups, ev.num_antennas)
        live = searches
        while live := {j: s for j, s in live.items() if s.advance()}:
            score(ev, {j: s.trials for j, s in live.items()})
        for j, search in searches.items():
            for bits in search.groups:
                metric, *idx = ev.cache[j][bits]
                members = tuple(ms for ms in active if bits >> ms & 1)
                per_subband[j].append(grouping.SdmaGroup(
                    subbands[j].index, members, tuple(ev.table.choices[i] for i in idx),
                    float(metric)))
    for built in per_subband:
        built.sort(key=lambda g: (-g.metric, g.members))
    return grouping.GroupingResult(per_subband, best_bps)


def feasible_pairs(ev, j, active) -> set[int]:
    """The masks of every pair of active MSs that are feasible alone on
    position j (their singletons scored): what a search scores in its one
    pair wait, given more than one antenna."""
    if ev.num_antennas < 2:
        return set()
    bits = [1 << ms for ms in active if ev.cache[j][1 << ms][0] > 0]
    return {a | b for a, b in itertools.combinations(bits, 2)}


def assert_same_cache(got, want, actives):
    """got holds want's scores bit for bit, and beyond them exactly the
    feasible pairs of the active sets actives that want never scored."""
    assert [list(ev.cache) for ev in got] == [list(ev.cache) for ev in want]
    for ev, ref in zip(got, want):
        for j, scored in ev.cache.items():
            pairs = set().union(*(feasible_pairs(ref, j, active) for active in actives))
            assert ref.cache[j].keys() <= scored.keys()
            assert scored.keys() - ref.cache[j].keys() == pairs - ref.cache[j].keys()
            for bits, entry in ref.cache[j].items():
                assert np.array(entry).tobytes() == np.array(scored[bits]).tobytes()


@pytest.mark.parametrize("max_groups", [None, 2])
def test_search_loop_matches_lockstep_oracle(max_groups):
    # searches that step through cached trials and batches by trial size
    # give the lockstep loop's scores, groups, metrics and MCS, bit for bit,
    # on fresh links and on links warmed by another active set
    rng = np.random.default_rng([3, max_groups or 0])
    k, m = 13, 8
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for trial in range(4):
        csi = make_csi(3.0 * (cn(k, 1, m) + 0.3 * cn(k, 24, m)))
        csi.pathloss_db[:] = rng.uniform(-6.0, 6.0, size=k)
        power = float(rng.uniform(20.0, 200.0))
        links, oracle = (link_evaluators(csi, bands(24, 3), TABLE, 1.0, power) for _ in range(2))
        actives = []
        for _ in range(3):  # a drop's frames: the active set changes, the links stay
            active = sorted(rng.choice(k, size=int(rng.integers(2, k + 1)),
                                       replace=False).tolist())
            actives.append(active)
            got = form_groups(links, bands(24, 3), active, max_groups)
            want = lockstep_form_groups(oracle, bands(24, 3), active, max_groups)
            assert_same_grouping(got, want)
            assert_same_cache(links, oracle, actives)
            assert [len(g.members) for g in got.groups()].count(1) < len(got.groups())


def test_search_loop_scores_no_pair_of_an_infeasible_ms():
    # the pair wait covers the feasible MSs only: MSs 0 and 1, feasible
    # nowhere, join no scored pair, and the cache holds the lockstep loop's
    # entries plus the other MSs' pairs
    rng = np.random.default_rng(11)
    k, m = 9, 4
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    csi = make_csi(3.0 * (cn(k, 1, m) + 0.3 * cn(k, 24, m)))
    csi.pathloss_db[:] = rng.uniform(-6.0, 6.0, size=k)
    csi.pathloss_db[:2] = 60.0
    links, oracle = (link_evaluators(csi, bands(24, 3), TABLE, 1.0, 50.0) for _ in range(2))
    actives = [list(range(k)), [0, 1, 4, 6, 7]]
    for active in actives:
        got = form_groups(links, bands(24, 3), active)
        assert_same_grouping(got, lockstep_form_groups(oracle, bands(24, 3), active))
        assert not {0, 1} & {ms for g in got.groups() for ms in g.members}
        assert any(len(g.members) > 1 for g in got.groups())
    assert_same_cache(links, oracle, actives)
    assert all(scored[1 << ms][0] == 0 for ev in links for scored in ev.cache.values()
               for ms in (0, 1))


def batch_spy(monkeypatch) -> list[tuple[SubbandLinkEvaluator, list, int]]:
    """Wrap SubbandLinkEvaluator._eval_batch; the returned list collects the
    (evaluator, keys, size) of every kernel batch."""
    batches = []
    eval_batch = SubbandLinkEvaluator._eval_batch

    def spy(self, keys, g):
        batches.append((self, list(keys), g))
        return eval_batch(self, keys, g)

    monkeypatch.setattr(SubbandLinkEvaluator, "_eval_batch", spy)
    return batches


def test_search_loop_batches_by_trial_size(monkeypatch):
    # on one 20 MHz, M = 8, SB = 6 drop the subbands' searches reach
    # different trial sizes; each batch holds one size, and there are fewer
    # batches than the lockstep loop's. They score the lockstep loop's rows
    # plus every feasible pair it never scored, none twice. Each
    # evaluator's first batch holds every subband's singletons, subband by
    # subband, and its second every subband's feasible pairs.
    cfg = experiment.ScenarioConfig(bandwidth_mhz=20.0, num_antennas=8, num_subbands=6,
                                    frames_per_drop=1)
    (csi, subbands, table, noise, power), active = drop_inputs(monkeypatch, cfg)
    batches = batch_spy(monkeypatch)
    links = link_evaluators(csi, subbands, table, noise, power)
    got = form_groups(links, subbands, active)
    ours = batches[:]
    batches.clear()
    assert_same_grouping(got, lockstep_form_groups(
        link_evaluators(csi, subbands, table, noise, power), subbands, active))
    assert all({bits.bit_count() for _, bits in keys} == {g} for _, keys, g in ours)
    scored = [key for _, keys, _ in ours for key in keys]
    pairs = {(j, p) for ev in links for j in ev.cache for p in feasible_pairs(ev, j, active)}
    assert len(scored) == len(set(scored))
    assert set(scored) == {key for _, keys, _ in batches for key in keys} | pairs
    assert len({g for *_, g in ours}) > 2
    assert len(ours) < len(batches), (len(ours), len(batches))
    for ev in links:
        first, second = [(keys, g) for owner, keys, g in ours if owner is ev][:2]
        assert first == ([(j, 1 << ms) for j in ev.cache for ms in sorted(active)], 1)
        assert second[1] == 2
        assert sorted(second[0]) == sorted((j, p) for j in ev.cache
                                           for p in feasible_pairs(ev, j, active))


@pytest.mark.parametrize("num_subbands", [1, 3, 6])
def test_two_antennas_two_batches_per_evaluator(monkeypatch, num_subbands):
    # at M = 2 a group is a singleton or a pair: an evaluator's singletons
    # form one batch and its feasible pairs the other, and the greedy steps
    # read only cached scores; the groups are the lockstep loop's
    cfg = experiment.ScenarioConfig(bandwidth_mhz=20.0, num_antennas=2,
                                    num_subbands=num_subbands, frames_per_drop=1)
    (csi, subbands, table, noise, power), active = drop_inputs(monkeypatch, cfg)
    batches = batch_spy(monkeypatch)
    links = link_evaluators(csi, subbands, table, noise, power)
    got = form_groups(links, subbands, active)
    assert [(owner, g) for owner, _, g in batches] == [(ev, g) for ev in links for g in (1, 2)]
    assert any(len(g.members) == 2 for g in got.groups())
    batches.clear()
    assert_same_grouping(got, lockstep_form_groups(
        link_evaluators(csi, subbands, table, noise, power), subbands, active))


# ---------------------------------------------------------------- per-call CSI budget


def thirty_six_users(monkeypatch):
    """Fresh link evaluators of the seed-0 drop at 20 MHz, M = 8, K = 36,
    SB = 1, where the pair batch gathers several budgets of CSI, and the
    (subbands, active) arguments of its first form_groups call."""
    cfg = experiment.ScenarioConfig(bandwidth_mhz=20.0, num_antennas=8, num_ms=36,
                                    num_subbands=1, frames_per_drop=1)
    (csi, subbands, table, noise, power), active = drop_inputs(monkeypatch, cfg)
    return link_evaluators(csi, subbands, table, noise, power), subbands, active


def test_chunked_calls_keep_every_entry(monkeypatch):
    # with a budget of a few members' CSI, every batch of G = 1..8 runs as
    # several kernel calls, none above the budget unless it holds one key,
    # and every entry keeps the bits of one call per batch
    rng = np.random.default_rng(27)
    k, n, m = 14, 6, 8
    h = rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))
    batches = {g: [(0, mask(rng.choice(k, g, replace=False).tolist())) for _ in range(30)]
               for g in range(1, m + 1)}
    batches = {g: list(dict.fromkeys(keys)) for g, keys in batches.items()}
    one, chunked = evaluator(h), evaluator(h)
    for g, keys in batches.items():
        one._eval_batch(keys, g)
    member_bytes = n * m * h.itemsize
    monkeypatch.setattr(grouping, "CALL_CSI_BYTES", 5 * member_bytes)
    calls = kernel_rows(monkeypatch)
    for g, keys in batches.items():
        calls.clear()
        chunked._eval_batch(keys, g)
        assert len(calls) == -(-len(keys) // max(1, 5 // g)) > 1
        assert all(len(c) * member_bytes <= max(5 * member_bytes, g * member_bytes)
                   for c in calls)
    assert list(chunked.cache[0]) == list(one.cache[0])
    for bits, entry in one.cache[0].items():
        assert np.array(entry).tobytes() == np.array(chunked.cache[0][bits]).tobytes()


def test_budget_bounds_every_call_at_36_users(monkeypatch):
    # the pair batch of 36 users gathers more than the budget: it runs as
    # several calls, and no call gathers more than the budget (one M = 8
    # key of a 20 MHz subband is far below it)
    links, subbands, active = thirty_six_users(monkeypatch)
    (ev,) = links
    n, m = ev.flat.shape[1:]
    member_bytes = n * m * ev.flat.itemsize
    assert m * member_bytes < grouping.CALL_CSI_BYTES
    batches = batch_spy(monkeypatch)
    calls = kernel_rows(monkeypatch)
    form_groups(links, subbands, active)
    pairs = next(keys for _, keys, g in batches if g == 2)
    assert len(pairs) * 2 * member_bytes > 2 * grouping.CALL_CSI_BYTES
    assert len(calls) > len(batches)
    assert max(len(c) for c in calls) * member_bytes <= grouping.CALL_CSI_BYTES


def test_cold_grouping_peak_memory_at_36_users(monkeypatch):
    # one cold grouping of 36 users once traced a 45 MiB peak, most of it
    # the transients of its one all-pairs kernel call
    links, subbands, active = thirty_six_users(monkeypatch)
    tracemalloc.start()
    try:
        form_groups(links, subbands, active)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"
