import math

import numpy as np
import pytest

import sdma_fss.frame as frame_module
from sdma_fss.frame import (
    Burst,
    FitMemo,
    OfdmaFrame,
    _Packer,
    frame_construction,
    initial_vertical_limit,
    map_columns,
    map_slots_for_ies,
    pack_group_area,
    predict_map_size,
)
from sdma_fss.geometry import FrameGeometry
from sdma_fss.phy import default_mcs_table
from synth import (
    audit_frame,
    fd_baseline_pack,
    init_columns_for,
    make_candidates,
    make_group,
    make_grouping,
    member_packets,
    random_instance,
    render_frame,
)

TABLE = default_mcs_table()


def geo(sc=30, dl=17, sb=3, msb=6):
    return FrameGeometry(num_subchannels=sc, num_columns=dl, num_subbands=sb, max_subbands=msb)


# ------------------------------------------------- initial vertical limit

def test_initial_vertical_limit_worked_example():
    assert initial_vertical_limit(geo(30, 17, 3, 6), num_antennas=4, predicted_map_slots=10) == 4


def test_initial_vertical_limit_full_band_boundary():
    # SB == MSB and no MAP estimate: the whole frame minus one column
    for m in (1, 4, 8):
        assert initial_vertical_limit(geo(30, 17, 6, 6), m, 0) == 16


def test_initial_vertical_limit_clamped():
    # MAP estimate eats the whole share: (17-1)*30/6 = 80 slots
    with_logs = initial_vertical_limit(geo(30, 17, 3, 6), num_antennas=2, predicted_map_slots=40)
    assert with_logs == 1
    assert initial_vertical_limit(geo(30, 17, 3, 6), 8, 40) == 1


# ------------------------------------------------- MAP size model

def test_predict_map_size_arithmetic():
    qpsk12 = TABLE.entries[0]
    # 30 slots * 6 B = 180 B -> 4 whole 40-B packets -> 88 + 4*60 = 328 bits
    assert predict_map_size(geo(), qpsk12) == math.ceil(328 / 48) == 7


def test_map_bits_linear_in_ie_size():
    # the MAP bit count is an 88-bit header plus 60 bits per IE, so each
    # extra IE adds exactly MAP_IE_BITS; slots hold that count in 48-bit units
    bits = lambda n: frame_module.MAP_FIXED_BITS + n * frame_module.MAP_IE_BITS
    assert (frame_module.MAP_FIXED_BITS, frame_module.MAP_IE_BITS) == (88, 60)
    for n in (1, 4, 37):
        assert bits(2 * n) - 88 == 2 * (bits(n) - 88)
        assert map_slots_for_ies(n, 6) == math.ceil(bits(n) / 48)


def test_map_slots_bit_arithmetic_oracle():
    # an 88-bit header plus 60 bits per IE, in 6-byte (48-bit) robust slots
    assert map_slots_for_ies(0, 6) == math.ceil(88 / 48) == 2
    assert map_slots_for_ies(1, 6) == math.ceil((88 + 60) / 48) == 4
    assert map_slots_for_ies(4, 6) == math.ceil((88 + 4 * 60) / 48) == 7
    assert map_slots_for_ies(37, 6) == math.ceil((88 + 37 * 60) / 48) == 49
    assert map_columns(49, geo()) == 2


def test_map_size_counts_member_allocations_not_bursts():
    mk = lambda members: Burst(
        subband=0, group=make_group(0, {ms: 6 for ms in members}), columns=1,
        fits=tuple((ms, [ms], 1) for ms in members), utility=1.0,
    )
    ten_single = [mk([i]) for i in range(10)]
    five_double = [mk([2 * i, 2 * i + 1]) for i in range(5)]
    ies = [sum(b.ie_count for b in bursts) for bursts in (ten_single, five_double)]
    assert ies == [10, 10]
    assert map_slots_for_ies(ies[0], 6) == map_slots_for_ies(ies[1], 6)


# ------------------------------------------------- pack_group_area

def test_pack_single_small_packet():
    group = make_group(0, {0: 6})
    cand = make_candidates([(0, 0, 6, 1.0)])
    frozen = {}
    burst = pack_group_area(group, 1, cand, frozen, scsb=10)
    assert burst.fits == ((0, [0], 1),)
    assert burst.columns == 1
    assert frozen == {}


def test_pack_skips_packets_frozen_elsewhere():
    group = make_group(0, {0: 6})
    cand = make_candidates([(0, 0, 6, 1.0)])
    frozen = {0: 1}
    burst = pack_group_area(group, 1, cand, frozen, scsb=10)
    assert member_packets(burst) == {}
    assert burst.columns == 0
    assert frozen == {0: 1}


def test_pack_releases_stale_own_freezes():
    # packets frozen in the group's own subband are eligible again (99 is
    # ours but gone from the list); 1 is foreign and stays skipped
    group = make_group(0, {0: 6})
    cand = make_candidates([(1, 0, 6, 1.0), (2, 0, 6, 1.0)])
    frozen = {99: 0, 1: 1, 2: 0}
    burst = pack_group_area(group, 1, cand, frozen, scsb=10)
    assert frozen == {99: 0, 1: 1, 2: 0}
    assert member_packets(burst) == {0: [2]}


def two_subband_packer(rows):
    """A _Packer over a 2-subband, 10-rows-per-subband frame."""
    return _Packer(geo(sc=20, dl=17, sb=2), TABLE, make_candidates(rows))


def test_commit_freezes_single_small_packet():
    group = make_group(0, {0: 6})
    packer = two_subband_packer([(0, 0, 6, 1.0)])
    burst = packer.trial(group, 1)
    assert packer.frozen == {}
    packer.commit(burst)
    assert packer.frozen == {0: 0}
    assert packer.bursts == {0: burst}
    assert (packer.total_ies(), packer.util[None], packer.cols[None]) == (1, 1.0, 1)
    without = (packer.total_ies(without=0), packer.util[0], packer.cols[0])
    assert without == (0, 0, 0)


def test_commit_keeps_packets_frozen_elsewhere():
    g0 = make_group(0, {0: 6, 1: 6})
    g1 = make_group(1, {0: 6})
    packer = two_subband_packer([(0, 0, 6, 1.0), (2, 1, 6, 1.0)])
    packer.commit(packer.trial(g1, 1))
    assert packer.frozen == {0: 1}
    burst = packer.trial(g0, 1)
    assert member_packets(burst) == {1: [2]}
    packer.commit(burst)
    assert packer.frozen == {0: 1, 2: 0}


def test_commit_releases_stale_own_freezes():
    # a displacing commit in subband 0 releases what the replaced burst held
    # there and leaves the freeze in subband 1 alone
    g0a = make_group(0, {0: 6})
    g0b = make_group(0, {1: 6})
    g1 = make_group(1, {2: 6})
    rows = [(0, 0, 6, 1.0), (1, 2, 6, 1.0), (2, 1, 6, 1.0)]
    packer = two_subband_packer(rows)
    packer.commit(packer.trial(g0a, 1))
    packer.commit(packer.trial(g1, 1))
    assert packer.frozen == {0: 0, 1: 1}
    burst = packer.trial(g0b, 1)
    packer.commit(burst)
    assert packer.frozen == {1: 1, 2: 0}
    assert packer.bursts[0] is burst
    assert packer.total_ies() == 2


def test_commit_retires_memoized_fits_of_its_members():
    # MS 0 can be served in both subbands; after subband 1 takes its first
    # two packets, a trial in subband 0 at the same width must not reuse the
    # memoized fit that packed them
    g0 = make_group(0, {0: 6})
    g1 = make_group(1, {0: 6})
    rows = [(i, 0, 40, 1.0) for i in range(4)]  # 7 slots each at 6 B/slot
    packer = two_subband_packer(rows)
    assert member_packets(packer.trial(g0, 2)) == {0: [0, 1]}
    taken = packer.trial(g1, 2)
    assert member_packets(taken) == {0: [0, 1]}
    packer.commit(taken)
    again = packer.trial(g0, 2)
    assert member_packets(again) == {0: [2, 3]}
    assert not set(again.packet_ids()) & set(taken.packet_ids())


def test_commit_keeps_memoized_fits_of_untouched_members(monkeypatch):
    # a commit in subband 1 takes MS 0's packets and leaves MS 1 alone: the
    # next trial in subband 0 at the same width walks MS 0's queue again and
    # reuses MS 1's fit; so it does after a commit that releases MS 0's
    # packets. A memo hit never reaches FitMemo.first_fit. The trial in
    # subband 1 reuses MS 0's fit from subband 0: MS 0 holds no packets in
    # either, so the walk is the same.
    walks = []
    first_fit = FitMemo.first_fit

    def counting_first_fit(self, candidates, ms, key, frozen):
        walks.append(ms)
        return first_fit(self, candidates, ms, key, frozen)

    monkeypatch.setattr(FitMemo, "first_fit", counting_first_fit)
    g0 = make_group(0, {0: 6, 1: 6})
    g1 = make_group(1, {0: 6})
    rows = [(0, 0, 40, 1.0), (1, 0, 40, 1.0), (2, 1, 40, 1.0), (3, 1, 40, 1.0), (4, 2, 40, 1.0)]
    packer = two_subband_packer(rows)
    before = packer.trial(g0, 2)
    assert member_packets(before) == {0: [0, 1], 1: [2, 3]}
    assert walks == [0, 1]
    assert packer.trial(g0, 2).fits == before.fits
    assert walks == [0, 1]
    packer.commit(packer.trial(g1, 2))
    assert walks == [0, 1]
    after = packer.trial(g0, 2)
    assert walks == [0, 1, 0]
    assert member_packets(after) == {1: [2, 3]}
    assert after.fits[0] is before.fits[1]
    packer.commit(packer.trial(make_group(1, {2: 6}), 2))
    assert packer.frozen == {4: 1}
    assert member_packets(packer.trial(g0, 2)) == {0: [0, 1], 1: [2, 3]}
    assert walks == [0, 1, 0, 2, 0]


@pytest.mark.parametrize("allow_displacement", [False, True])
def test_shared_fits_equal_fresh_walks(monkeypatch, allow_displacement):
    # a fit memoized under key None, in a subband that holds none of the
    # MS's frozen packets, serves every such subband; each use equals a
    # fresh memo=None walk there. `held` names exactly the subbands that
    # hold each MS's frozen packets after every commit and release.
    pack, commit = frame_module.pack_group_area, _Packer.commit
    walked_in: dict = {}
    shared = []

    def checked_pack(group, columns, candidates, frozen, scsb, memo=None):
        for ms, mcs in zip(group.members, group.mcs):
            if mcs is not None and group.subband not in memo.held[ms]:
                key = (id(memo), ms, mcs.bytes_per_slot, columns * scsb)
                shared.append(walked_in.setdefault(key, group.subband) != group.subband)
        burst = pack(group, columns, candidates, frozen, scsb, memo)
        fresh = pack(group, columns, candidates, frozen, scsb)
        assert (burst.columns, burst.fits, burst.utility) == (fresh.columns, fresh.fits, fresh.utility)
        return burst

    def checked_commit(packer, burst):
        commit(packer, burst)
        owner = {pid: ms for ms, (ids, _, _) in packer.candidates.by_ms.items() for pid in ids}
        want: dict = {}
        for pid, j in packer.frozen.items():
            want.setdefault(owner[pid], set()).add(j)
        assert {ms: js for ms, js in packer.memo.held.items() if js} == want

    monkeypatch.setattr(frame_module, "pack_group_area", checked_pack)
    monkeypatch.setattr(_Packer, "commit", checked_commit)
    for seed in range(40):
        grouping, candidates, geometry = random_instance(np.random.default_rng(seed), max_sb=4)
        frame_construction(
            grouping, candidates, geometry, TABLE, init_columns=init_columns_for(geometry),
            allow_displacement=allow_displacement,
        )
    assert sum(shared) > 50


def recount(packer, without):
    """IE total, column maximum and in-order utility sum of the committed
    bursts outside subband `without`, counted afresh."""
    rest = [b for j, b in packer.bursts.items() if j != without]
    utility = 0.0
    for b in rest:
        utility += b.utility
    return sum(b.ie_count for b in rest), max((b.columns for b in rest), default=0), utility


@pytest.mark.parametrize("allow_displacement", [False, True])
def test_incremental_totals_equal_recount(monkeypatch, allow_displacement):
    commit = _Packer.commit
    replaced = []

    def checked_commit(packer, burst):
        replaced.append(burst.subband in packer.bursts)
        commit(packer, burst)
        for w in [None, *range(packer.g.num_subbands)]:
            ies, cols, utility = recount(packer, w)
            assert packer.total_ies(w) == ies
            assert packer.cols[w] == cols
            assert packer.util[w] == utility  # the same bits, not approximately

    monkeypatch.setattr(_Packer, "commit", checked_commit)
    for seed in range(60):
        grouping, candidates, geometry = random_instance(np.random.default_rng(seed), max_sb=4)
        frame_construction(
            grouping, candidates, geometry, TABLE, init_columns=init_columns_for(geometry),
            allow_displacement=allow_displacement,
        )
    assert sum(replaced) > 20 and not all(replaced)


def first_fit_oracle(sizes, bps, cap):
    used = 0
    packed = []
    for i, size in enumerate(sizes):
        need = math.ceil(size / bps)
        if used + need <= cap:
            used += need
            packed.append(i)
    return packed, used


def test_pack_matches_first_fit_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        sizes = [int(rng.choice([40, 576, 1500])) for _ in range(12)]
        group = make_group(0, {0: 18})
        rows = [(i, 0, s, 1.0) for i, s in enumerate(sizes)]
        cand = make_candidates(rows)
        burst = pack_group_area(group, 2, cand, {}, scsb=10)
        ref_packed, ref_used = first_fit_oracle(sizes, 18, cap=20)
        packed, used = {ms: (p, u) for ms, p, u in burst.fits}.get(0, ([], 0))
        assert packed == ref_packed
        assert used == ref_used


def test_pack_rejects_nonpositive_columns():
    group = make_group(0, {0: 6})
    cand = make_candidates([])
    with pytest.raises(ValueError):
        pack_group_area(group, 0, cand, {}, scsb=4)


# ------------------------------------------------- frame construction

def build_one(seed, **kw):
    rng = np.random.default_rng(seed)
    grouping, candidates, geometry = random_instance(rng, **kw)
    frame = frame_construction(
        grouping, candidates, geometry, TABLE, init_columns=init_columns_for(geometry)
    )
    return grouping, candidates, geometry, frame


def test_random_instances_pass_audit():
    for seed in range(60):
        grouping, candidates, geometry, frame = build_one(seed)
        audit_frame(frame, candidates, num_ms=6)


def test_empty_when_frame_too_small():
    grouping = make_grouping([[make_group(0, {0: 6})]])
    cand = make_candidates([(0, 0, 1500, 5.0)])
    g = FrameGeometry(num_subchannels=4, num_columns=3, num_subbands=1, max_subbands=6)
    frame = frame_construction(grouping, cand, g, TABLE, init_columns=50)
    assert frame.bursts == {}
    assert frame.utility == 0.0
    assert frame.map_region.ie_count == 0


def test_no_candidates_gives_map_only_frame():
    grouping = make_grouping([[make_group(0, {0: 6})], [make_group(1, {0: 6})]])
    cand = make_candidates([])
    g = FrameGeometry(num_subchannels=4, num_columns=8, num_subbands=2, max_subbands=6)
    frame = frame_construction(grouping, cand, g, TABLE, init_columns=1)
    assert frame.bursts == {}
    assert frame.map_region.slots == map_slots_for_ies(0, 6)
    # nothing queued: no extension round runs and no group is offered
    assert frame.build_stats.rounds == 0
    assert frame.build_stats.util_evals == 0


def test_sb1_matches_fd_baseline():
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        grouping, candidates, geometry = random_instance(rng, max_sb=1)
        if geometry.num_subbands != 1:
            continue
        init = 2
        a = frame_construction(
            grouping, candidates, geometry, TABLE, init_columns=init
        )
        b = fd_baseline_pack(
            grouping.per_subband[0], candidates, geometry, TABLE,
            init_columns=init, best_bytes_per_slot=grouping.best_bytes_per_slot,
        )
        assert_same_frames(a, b)


def assert_same_frames(a: OfdmaFrame, b: OfdmaFrame):
    assert a.map_region == b.map_region
    assert set(a.bursts) == set(b.bursts)
    for j in a.bursts:
        ba, bb = a.bursts[j], b.bursts[j]
        assert ba.group.members == bb.group.members
        assert ba.columns == bb.columns
        assert member_packets(ba) == member_packets(bb)
        sent = lambda b: {m: e.name for m, e in zip(b.group.members, b.group.mcs)
                          if m in member_packets(b)}
        assert sent(ba) == sent(bb)
    assert a.utility == pytest.approx(b.utility, rel=1e-12)


def test_grow_only_single_burst_per_subband():
    for seed in (3, 77, 1234):
        grouping, candidates, geometry, frame = build_one(seed)
        assert len(frame.bursts) <= geometry.num_subbands
        for j, b in frame.bursts.items():
            groups_in_j = [g.members for g in grouping.per_subband[j]]
            assert b.group.members in groups_in_j


def test_packet_never_in_two_bursts():
    for seed in range(30):
        grouping, candidates, geometry, frame = build_one(seed, max_packets=60)
        ids = frame.packed_packet_ids()
        assert len(ids) == len(set(ids))


def test_displacement_flag_allows_competitors():
    # two groups on one subband; displacement mode may still only improve utility
    g0 = make_group(0, {0: 27})
    g1 = make_group(0, {1: 6})
    grouping = make_grouping([[g0, g1]])
    rows = [(i, 0, 576, 5.0) for i in range(4)] + [(10 + i, 1, 40, 4.0) for i in range(4)]
    cand = make_candidates(rows)
    geometry = FrameGeometry(num_subchannels=4, num_columns=10, num_subbands=1, max_subbands=6)
    a = frame_construction(grouping, cand, geometry, TABLE, init_columns=2)
    b = frame_construction(
        grouping, cand, geometry, TABLE, init_columns=2, allow_displacement=True
    )
    audit_frame(a, cand, num_ms=2)
    audit_frame(b, cand, num_ms=2)
    assert b.utility >= a.utility - 1e-12


def test_render_frame_stable():
    grouping = make_grouping(
        [[make_group(0, {0: 6})], [make_group(1, {1: 18})]]
    )
    rows = [(0, 0, 40, 3.0), (1, 1, 120, 2.0), (2, 0, 40, 1.0)]
    cand = make_candidates(rows)
    geometry = FrameGeometry(num_subchannels=4, num_columns=8, num_subbands=2, max_subbands=6)
    frame = frame_construction(grouping, cand, geometry, TABLE, init_columns=1)
    audit_frame(frame, cand, num_ms=2)
    text = render_frame(frame)
    assert text.splitlines()[0] == "frame SC=4 DL_sl=8 SB=2 util=5.000000"
    assert "map: ies=2" in text
    for j in frame.bursts:
        assert f"subband {j}:" in text


def test_work_bound_instrumentation():
    for seed in range(20):
        grouping, candidates, geometry, frame = build_one(seed, max_packets=50)
        bound = geometry.num_columns * 6 * geometry.num_subbands**2
        assert frame.build_stats.util_evals <= bound
