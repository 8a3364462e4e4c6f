import itertools

import numpy as np

from sdma_fss.channel import CsiReport
from sdma_fss.geometry import SubbandSpec
from sdma_fss.grouping import (
    SubbandLinkEvaluator,
    form_groups,
    greedy_capacity_grouper,
    group_metric,
)
from sdma_fss.phy import default_mcs_table
from test_phy import oracle_minmse, oracle_select, oracle_sinr_scalar

TABLE = default_mcs_table()


def make_csi(samples: np.ndarray, noise: float = 1.0) -> CsiReport:
    k, n, m = samples.shape
    return CsiReport(
        decimation=1,
        sample_indices=np.arange(n),
        samples=samples,
        noise_power_w=noise,
        pathloss_db=np.zeros(k),
        los=np.zeros(k, dtype=bool),
    )


def bands(n_samples: int, count: int = 1) -> list[SubbandSpec]:
    per = n_samples // count
    return [
        SubbandSpec(index=j, row_lo=j, row_hi=j + 1,
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
    result = form_groups(csi, bands(12, 3), [0], TABLE, total_power_w=50.0)
    for groups in result.per_subband:
        assert len(groups) == 1
        assert groups[0].members == (0,)


def test_orthogonal_pair_grouped_together():
    n = 6
    h = np.zeros((2, n, 2), dtype=complex)
    h[0, :, 0] = 2.0
    h[1, :, 1] = 2.0
    csi = make_csi(h, noise=1.0)
    result = form_groups(csi, bands(n), [0, 1], TABLE, total_power_w=100.0)
    groups = result.per_subband[0]
    assert groups[0].members == (0, 1)
    singles = {}
    ev_groups = {g.members: g.metric for g in groups}
    ev = SubbandLinkEvaluator(bands(n)[0], h, [0, 1], 1.0, 100.0, TABLE)
    singles[0] = float(ev.metrics_for([(0,)])[0])
    singles[1] = float(ev.metrics_for([(1,)])[0])
    assert ev_groups[(0, 1)] > singles[0]
    assert ev_groups[(0, 1)] > singles[1]


def test_group_metric_single_member_qpsk():
    # weak channel: only the most robust MCS is feasible -> metric 6
    h = np.full((1, 4, 2), 0.11 + 0.0j)
    csi = make_csi(h, noise=1.0)
    result = form_groups(csi, bands(4), [0], TABLE, total_power_w=100.0)
    g = result.per_subband[0][0]
    assert g.link[0].mcs is not None and g.link[0].mcs.name == "QPSK 1/2"
    assert group_metric(g) == 6


def test_group_metric_infeasible_members_zero():
    h = np.full((2, 4, 2), 1e-3 + 0.0j)
    csi = make_csi(h, noise=1.0)
    result = form_groups(csi, bands(4), [0, 1], TABLE, total_power_w=1.0)
    assert result.per_subband[0] == []
    assert result.best_bytes_per_slot == {}
    assert result.feasible_ms == frozenset()


def test_evaluator_matches_scalar_phy_path():
    # the batched evaluator must agree with the scalar oracles applied by
    # hand: weights from the center sample, Eq.-1 SINR at every sample with
    # equal power split
    rng = np.random.default_rng(40)
    h = rng.standard_normal((6, 9, 4)) + 1j * rng.standard_normal((6, 9, 4))
    noise, power = 0.7, 55.0
    ev = SubbandLinkEvaluator(bands(9)[0], h, list(range(6)), noise, power, TABLE)
    for members in [(0,), (1, 4), (0, 2, 5), (0, 1, 2, 3)]:
        w, links, _ = ev.result(members)
        rep = h[list(members), 9 // 2, :]
        w_ref = oracle_minmse(rep, noise, power)
        assert np.allclose(w, w_ref, atol=1e-12)
        p = power / len(members)
        sinr_ref = np.array(
            [oracle_sinr_scalar(w_ref, h[list(members), n], p, noise) for n in range(9)]
        ).T
        got = np.stack([lr.sinr for lr in links])
        assert np.allclose(got, sinr_ref, rtol=1e-12)


def test_group_metric_matches_per_member_recomputation():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((5, 9, 4)) + 1j * rng.standard_normal((5, 9, 4))
    ev = SubbandLinkEvaluator(bands(9)[0], h, list(range(5)), 1.0, 60.0, TABLE)
    _, links, metric = ev.result((0, 2, 4))
    total = 0
    for lr in links:
        entry, _ = oracle_select(lr.sinr, TABLE)
        assert (entry is None) == (lr.mcs is None)
        if entry is not None:
            assert entry is lr.mcs
            total += entry.bytes_per_slot
    assert metric == total


def test_greedy_vs_exhaustive_enumeration():
    rng = np.random.default_rng(2024)
    ratios = []
    for trial in range(20):
        k, m, n = 4, 2, 6
        h = rng.standard_normal((k, n, m)) + 1j * rng.standard_normal((k, n, m))
        ev = SubbandLinkEvaluator(bands(n)[0], h, list(range(k)), 1.0, 40.0, TABLE)
        feasible = [ms for ms in range(k) if ev.metrics_for([(ms,)])[0] > 0]
        if not feasible:
            continue
        groups = greedy_capacity_grouper(ev, feasible, max_groups=k)
        greedy_best = max(float(ev.metrics_for([g])[0]) for g in groups)
        best = 0.0
        for size in (1, 2):
            for combo in itertools.combinations(feasible, size):
                best = max(best, float(ev.metrics_for([tuple(combo)])[0]))
        assert greedy_best <= best + 1e-9
        assert greedy_best >= 0.5 * best
        ratios.append(greedy_best / best)
    assert ratios, "no feasible instances drawn"
    print(f"greedy/best ratios: min={min(ratios):.3f} mean={np.mean(ratios):.3f}")


def test_group_size_never_exceeds_antennas():
    rng = np.random.default_rng(5)
    csi = random_csi(rng, k=6, n=8, m=2, scale=2.0)
    result = form_groups(csi, bands(8, 2), range(6), TABLE, total_power_w=100.0)
    for groups in result.per_subband:
        for g in groups:
            assert 1 <= len(g.members) <= 2
            assert len(set(g.members)) == len(g.members)


def test_every_feasible_ms_covered_per_subband():
    rng = np.random.default_rng(6)
    csi = random_csi(rng, k=5, n=12, m=3, scale=1.5)
    result = form_groups(csi, bands(12, 3), range(5), TABLE, total_power_w=80.0)
    for sb_idx, groups in enumerate(result.per_subband):
        covered = {ms for g in groups for ms in g.members}
        ev_feasible = {
            ms for ms in range(5)
            if any(lr.ms == ms and lr.mcs is not None for g in groups for lr in g.link)
        }
        # every member that shows up feasible anywhere in this subband is covered
        assert ev_feasible <= covered


def test_determinism_and_subband_independence():
    rng = np.random.default_rng(7)
    csi = random_csi(rng, k=4, n=12, m=2, scale=1.2)
    subbands = bands(12, 3)
    r1 = form_groups(csi, subbands, range(4), TABLE, total_power_w=60.0)
    r2 = form_groups(csi, subbands, range(4), TABLE, total_power_w=60.0)
    sig = lambda r: [[(g.members, g.metric) for g in lst] for lst in r.per_subband]
    assert sig(r1) == sig(r2)

    permuted = [subbands[2], subbands[0], subbands[1]]
    r3 = form_groups(csi, permuted, range(4), TABLE, total_power_w=60.0)
    assert sig(r3) == [sig(r1)[2], sig(r1)[0], sig(r1)[1]]


def test_groups_sorted_by_metric():
    rng = np.random.default_rng(8)
    csi = random_csi(rng, k=6, n=8, m=2, scale=1.5)
    result = form_groups(csi, bands(8), range(6), TABLE, total_power_w=70.0)
    metrics = [g.metric for g in result.per_subband[0]]
    assert metrics == sorted(metrics, reverse=True)


def test_metric_strictly_increases_along_greedy_construction():
    rng = np.random.default_rng(9)
    h = 1.4 * (rng.standard_normal((5, 6, 4)) + 1j * rng.standard_normal((5, 6, 4)))
    ev = SubbandLinkEvaluator(bands(6)[0], h, list(range(5)), 1.0, 90.0, TABLE)
    feasible = [ms for ms in range(5) if ev.metrics_for([(ms,)])[0] > 0]
    for members in greedy_capacity_grouper(ev, feasible, max_groups=5):
        # replaying prefixes in construction order must strictly increase
        if len(members) < 2:
            continue
        # construction order is not recorded; check the full group beats
        # every proper subset obtained by removing one member
        full = float(ev.metrics_for([members])[0])
        for drop in members:
            sub = tuple(ms for ms in members if ms != drop)
            assert full > float(ev.metrics_for([sub])[0])

