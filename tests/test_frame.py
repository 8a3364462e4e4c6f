import math

import numpy as np
import pytest

from sdma_fss.frame import (
    Burst,
    MapModel,
    MapRegion,
    OfdmaFrame,
    BuildStats,
    frame_construction,
    initial_vertical_limit,
    map_columns,
    map_size_slots,
    map_slots_for_ies,
    pack_group_area,
    predict_map_size,
    render_frame,
)
from sdma_fss.geometry import FrameGeometry
from sdma_fss.phy import default_mcs_table
from synth import (
    audit_frame,
    fd_baseline_pack,
    make_candidates,
    make_group,
    make_grouping,
    random_instance,
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


def test_predict_map_size_zero_ie_model():
    qpsk12 = TABLE.entries[0]
    assert predict_map_size(geo(), qpsk12, MapModel(ie_bits=0)) == math.ceil(88 / 48)


def test_map_bits_linear_in_ie_size():
    base = MapModel(ie_bits=60)
    double = MapModel(ie_bits=120)
    for n in (1, 4, 37):
        bits = lambda mm: (mm.fixed_bits + n * mm.ie_bits) * mm.repetition
        assert bits(double) - 88 == 2 * (bits(base) - 88)
        assert map_slots_for_ies(n, base, 6) == math.ceil(bits(base) / 48)


def test_map_slots_bit_arithmetic_oracle():
    assert map_slots_for_ies(0, MapModel(), 6) == math.ceil(88 / 48) == 2
    assert map_slots_for_ies(37, MapModel(), 6) == math.ceil((88 + 37 * 60) / 48) == 49
    assert map_columns(49, geo()) == 2


def test_map_size_counts_member_allocations_not_bursts():
    g = geo(sc=10, dl=10, sb=1, msb=6)
    mk = lambda members: Burst(
        subband=0, group=make_group(0, {ms: 6 for ms in members}), columns=1,
        col_lo=9, col_hi=10,
        member_mcs={ms: TABLE.entries[0] for ms in members},
        member_packets={ms: [ms] for ms in members},
        member_slots={ms: 1 for ms in members},
        utility=1.0,
    )
    def frame_with(bursts):
        ies = sum(b.ie_count for b in bursts.values())
        slots = map_slots_for_ies(ies, MapModel(), 6)
        return OfdmaFrame(
            geometry=g, map_model=MapModel(), robust_bytes_per_slot=6,
            map_region=MapRegion(ies, slots, map_columns(slots, g)),
            bursts=bursts, utility=0.0, build_stats=BuildStats(),
        )
    ten_single = frame_with({i: mk([i]) for i in range(10)})
    five_double = frame_with({i: mk([2 * i, 2 * i + 1]) for i in range(5)})
    assert map_size_slots(ten_single) == map_size_slots(five_double)


# ------------------------------------------------- pack_group_area

def test_pack_single_small_packet():
    group = make_group(0, {0: 6})
    cand = make_candidates([(0, 0, 6, 1.0)], {0: 6})
    frozen = {}
    burst = pack_group_area(group, 1, cand, frozen, scsb=10, col_hi=17)
    assert burst.member_slots == {0: 1}
    assert burst.columns == 1
    assert burst.member_packets == {0: [0]}
    assert frozen == {0: 0}


def test_pack_skips_packets_frozen_elsewhere():
    group = make_group(0, {0: 6})
    cand = make_candidates([(0, 0, 6, 1.0)], {0: 6})
    frozen = {0: 1}
    burst = pack_group_area(group, 1, cand, frozen, scsb=10, col_hi=17)
    assert burst.member_packets == {}
    assert burst.columns == 0
    assert frozen == {0: 1}


def test_pack_releases_stale_own_freezes():
    group = make_group(0, {0: 6})
    cand = make_candidates([(1, 0, 6, 1.0)], {0: 6})
    frozen = {99: 0, 1: 1}  # 99 held by us but gone from the list; 1 is foreign
    burst = pack_group_area(group, 1, cand, frozen, scsb=10, col_hi=17)
    assert 99 not in frozen
    assert frozen == {1: 1}
    assert burst.member_packets == {}


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
        cand = make_candidates(rows, {0: 18})
        burst = pack_group_area(group, 2, cand, {}, scsb=10, col_hi=17)
        ref_packed, ref_used = first_fit_oracle(sizes, 18, cap=20)
        assert burst.member_packets.get(0, []) == ref_packed
        assert burst.member_slots.get(0, 0) == ref_used


def test_pack_rejects_nonpositive_columns():
    group = make_group(0, {0: 6})
    cand = make_candidates([], {})
    with pytest.raises(ValueError):
        pack_group_area(group, 0, cand, {}, scsb=4, col_hi=10)


# ------------------------------------------------- frame construction

def build_one(seed, **kw):
    rng = np.random.default_rng(seed)
    grouping, candidates, geometry = random_instance(rng, **kw)
    frame = frame_construction(grouping, candidates, geometry, TABLE, num_antennas=4)
    return grouping, candidates, geometry, frame


def test_random_instances_pass_audit():
    for seed in range(60):
        grouping, candidates, geometry, frame = build_one(seed)
        audit_frame(frame, candidates, num_ms=6)


def test_empty_when_frame_too_small():
    grouping = make_grouping([[make_group(0, {0: 6})]])
    cand = make_candidates([(0, 0, 1500, 5.0)], {0: 6})
    g = FrameGeometry(num_subchannels=4, num_columns=3, num_subbands=1, max_subbands=6)
    frame = frame_construction(grouping, cand, g, TABLE, init_columns=50)
    assert frame.bursts == {}
    assert frame.utility == 0.0
    assert frame.map_region.ie_count == 0


def test_no_candidates_gives_map_only_frame():
    grouping = make_grouping([[make_group(0, {0: 6})], [make_group(1, {0: 6})]])
    cand = make_candidates([], {})
    g = FrameGeometry(num_subchannels=4, num_columns=8, num_subbands=2, max_subbands=6)
    frame = frame_construction(grouping, cand, g, TABLE, init_columns=1)
    assert frame.bursts == {}
    assert frame.map_region.slots == map_slots_for_ies(0, MapModel(), 6)


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
        assert (ba.columns, ba.col_lo, ba.col_hi) == (bb.columns, bb.col_lo, bb.col_hi)
        assert ba.member_packets == bb.member_packets
        assert {m: e.name for m, e in ba.member_mcs.items()} == {
            m: e.name for m, e in bb.member_mcs.items()
        }
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
    cand = make_candidates(rows, grouping.best_bytes_per_slot)
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
    cand = make_candidates(rows, grouping.best_bytes_per_slot)
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
