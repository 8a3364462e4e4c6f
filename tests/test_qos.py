import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdma_fss.experiment import ScenarioConfig
from sdma_fss.qos import (
    EPSILON_BYTES_PER_FRAME,
    PACKET_SIZE_PROBS,
    PACKET_SIZES,
    PF_HORIZON_FRAMES,
    Flow,
    TrafficStats,
    build_candidate_list,
    commit_transmissions,
    generate_traffic,
    make_flows,
    update_pf_averages,
)


def finite_params(total, capacity=10**7):
    return ScenarioConfig(
        saturated_traffic=False, offered_bytes_per_frame_total=total,
        buffer_capacity_bytes=capacity,
    )


def test_make_flows_weight_split():
    flows = make_flows(12)
    heavy = [f.load_weight for f in flows[:6]]
    light = [f.load_weight for f in flows[6:]]
    assert all(w == pytest.approx(0.8 / 6) for w in heavy)
    assert all(w == pytest.approx(0.2 / 6) for w in light)
    assert sum(f.load_weight for f in flows) == pytest.approx(1.0)


def test_zero_offered_load():
    flows = make_flows(4)
    stats = generate_traffic(
        flows, 0, seed=1, cfg=finite_params(0.0), id_source=itertools.count()
    )
    assert stats.generated_bytes == 0
    assert all(not f.ids and not f.sizes for f in flows)


def test_tail_drop_keeps_oldest():
    cfg = ScenarioConfig(saturated_traffic=True, buffer_capacity_bytes=2000)
    flows = make_flows(1)
    ids = itertools.count()
    generate_traffic(flows, 0, seed=3, cfg=cfg, id_source=ids)
    flow = flows[0]
    first_ids = list(flow.ids)
    occupancy = flow.occupancy_bytes
    assert occupancy <= 2000
    # refill attempt: buffer already full-ish, the oldest packets stay
    generate_traffic(flows, 1, seed=3, cfg=cfg, id_source=ids)
    assert flow.ids[: len(first_ids)] == first_ids
    assert flow.occupancy_bytes <= 2000


def test_byte_conservation():
    cfg = ScenarioConfig(saturated_traffic=True, buffer_capacity_bytes=5000)
    flows = make_flows(3)
    ids = itertools.count()  # ids unique across frames, as in a drop
    enqueued = served = 0
    for i in range(5):
        stats = generate_traffic(flows, i, seed=9, cfg=cfg, id_source=ids)
        assert 0 <= stats.dropped_bytes <= stats.generated_bytes
        enqueued += stats.generated_bytes - stats.dropped_bytes
        every_other = [pid for f in flows for pid in f.ids[::2]]
        served += sum(commit_transmissions(flows, every_other).values())
        assert enqueued == served + sum(size for f in flows for size in f.sizes)
    for f in flows:
        assert f.occupancy_bytes == sum(f.sizes)
        assert len(f.ids) == len(f.sizes)


def test_traffic_deterministic_per_seed_and_frame():
    cfg = finite_params(3000)
    a = make_flows(2)
    b = make_flows(2)
    generate_traffic(a, 4, seed=7, cfg=cfg, id_source=itertools.count())
    generate_traffic(b, 4, seed=7, cfg=cfg, id_source=itertools.count())
    assert [(f.ms, size) for f in a for size in f.sizes] == [
        (f.ms, size) for f in b for size in f.sizes
    ]
    c = make_flows(2)
    generate_traffic(c, 5, seed=7, cfg=cfg, id_source=itertools.count())
    assert [(f.ms, size) for f in a for size in f.sizes] != [
        (f.ms, size) for f in c for size in f.sizes
    ]


def test_heavy_half_generates_80_percent():
    cfg = finite_params(4000)
    flows = make_flows(4)
    generated = [0] * len(flows)
    ids = itertools.count()
    for frame in range(10_000):
        stats = generate_traffic(flows, frame, seed=13, cfg=cfg, id_source=ids)
        assert stats.dropped_bytes == 0
        for f in flows:  # drain so quota, not capacity, limits arrivals
            generated[f.ms] += sum(f.sizes)
            f.ids.clear()
            f.sizes.clear()
            f.occupancy_bytes = 0
    heavy = sum(generated[:2])
    assert heavy / sum(generated) == pytest.approx(0.8, abs=0.02)


def scalar_generate_traffic(flows, frame_index, seed, cfg, id_source):
    """The per-packet loop that generate_traffic replaced: one scalar
    rng.choice per packet from the same per-frame generator."""
    rng = np.random.default_rng(
        np.random.SeedSequence([0x7AFF1C, seed & 0xFFFFFFFFFFFFFFFF, frame_index])
    )
    sizes = np.asarray(PACKET_SIZES)
    probs = np.asarray(PACKET_SIZE_PROBS)
    stats = TrafficStats()
    for flow in flows:
        if cfg.saturated_traffic:
            while True:
                size = int(rng.choice(sizes, p=probs))
                stats.generated_bytes += size
                if flow.occupancy_bytes + size > cfg.buffer_capacity_bytes:
                    stats.dropped_bytes += size
                    break
                flow.ids.append(next(id_source))
                flow.sizes.append(size)
                flow.occupancy_bytes += size
        else:
            flow.offered_credit_bytes += cfg.offered_bytes_per_frame_total * flow.load_weight
            while flow.offered_credit_bytes > 0:
                size = int(rng.choice(sizes, p=probs))
                flow.offered_credit_bytes -= size
                stats.generated_bytes += size
                if flow.occupancy_bytes + size > cfg.buffer_capacity_bytes:
                    stats.dropped_bytes += size
                    continue
                flow.ids.append(next(id_source))
                flow.sizes.append(size)
                flow.occupancy_bytes += size
    return stats


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(saturated_traffic=True),  # ~270 draws in frame 0: block edges mid-flow
    ScenarioConfig(saturated_traffic=True, buffer_capacity_bytes=0),
    ScenarioConfig(saturated_traffic=True, buffer_capacity_bytes=2000),
    ScenarioConfig(saturated_traffic=False, offered_bytes_per_frame_total=0.0),
    ScenarioConfig(saturated_traffic=False, offered_bytes_per_frame_total=8000.0),
    ScenarioConfig(saturated_traffic=False, offered_bytes_per_frame_total=1e5),  # tail drops
], ids=["saturated", "capacity0", "capacity2000", "rate0", "rate8000", "rate1e5"])
def test_block_draws_match_scalar_oracle(cfg):
    state = []
    for gen in (generate_traffic, scalar_generate_traffic):
        flows = make_flows(12)
        ids = itertools.count()
        frames = []
        for frame_index in range(6):
            stats = gen(flows, frame_index, 5, cfg, ids)
            frames.append((
                stats,
                [list(zip(f.ids, f.sizes)) for f in flows],
                [(f.occupancy_bytes, f.offered_credit_bytes) for f in flows],
            ))
            # serve every third packet so the next top-up draws again
            commit_transmissions(flows, [pid for f in flows for pid in f.ids[::3]])
        state.append(frames)
    assert state[0] == state[1]


def queues(cl):
    """{ms: [(id, utility), ...]} of a candidate list."""
    return {ms: list(zip(ids, utils)) for ms, (ids, _, utils) in cl.by_ms.items()}


def test_candidate_order_equal_utility_ties():
    flows = [Flow(ms=i) for i in range(3)]
    for i, f in enumerate(flows):
        f.ids, f.sizes = [10 * i], [576]
    best = {0: 6, 1: 27, 2: 27}
    cl = build_candidate_list(flows, best)
    # the MCS does not enter the utility: equal sizes and averages tie
    assert queues(cl) == {0: [(0, 288.0)], 1: [(10, 288.0)], 2: [(20, 288.0)]}


def test_candidate_starved_ms_ranks_first():
    flows = [Flow(ms=0), Flow(ms=1)]
    flows[0].avg_throughput = 5000.0
    flows[1].avg_throughput = EPSILON_BYTES_PER_FRAME
    for f in flows:
        f.ids, f.sizes = [f.ms], [1500]
    cl = build_candidate_list(flows, {0: 18, 1: 18})
    assert queues(cl) == {0: [(0, 1500 / 5001)], 1: [(1, 750.0)]}
    assert cl.by_ms[1][2][0] > cl.by_ms[0][2][0]


def oracle_candidates(flows, best):
    """Each feasible MS's buffer ids in FIFO order, with the PF utility
    size / (avg + epsilon) of each."""
    return {
        f.ms: [(pid, size / (f.avg_throughput + EPSILON_BYTES_PER_FRAME))
               for pid, size in zip(f.ids, f.sizes)]
        for f in flows
        if f.ids and best.get(f.ms, 0) > 0
    }


def test_candidate_list_matches_resort_oracle():
    rng = np.random.default_rng(21)
    flows = [Flow(ms=i) for i in range(3)]
    pid = itertools.count()
    for f in flows:
        f.avg_throughput = float(rng.uniform(1, 4000))
        f.sizes = [int(rng.choice([40, 576, 1500])) for _ in range(int(rng.integers(1, 8)))]
        f.ids = [next(pid) for _ in f.sizes]
    best = {0: 6, 1: 18, 2: 27}
    cl = build_candidate_list(flows, best)
    assert queues(cl) == oracle_candidates(flows, best)  # utilities bit for bit


@given(
    sizes=st.lists(st.sampled_from([40, 120, 576, 1500]), min_size=1, max_size=12),
    sizes_b=st.lists(st.sampled_from([40, 120, 576, 1500]), min_size=0, max_size=12),
    avg_a=st.floats(min_value=1.0, max_value=1e5),
    avg_b=st.floats(min_value=1.0, max_value=1e5),
)
def test_candidate_list_preserves_fifo_within_flow(sizes, sizes_b, avg_a, avg_b):
    flows = [Flow(ms=0), Flow(ms=1)]
    flows[0].avg_throughput, flows[1].avg_throughput = avg_a, avg_b
    flows[0].ids, flows[0].sizes = list(range(len(sizes))), list(sizes)
    flows[1].ids, flows[1].sizes = [100 + i for i in range(len(sizes_b))], list(sizes_b)
    cl = build_candidate_list(flows, {0: 18, 1: 6})
    assert list(cl.by_ms) == ([0, 1] if sizes_b else [0])
    for f in flows:
        queued_ids, queued_sizes, _ = cl.by_ms.get(f.ms, ([], [], []))
        assert queued_ids == f.ids and queued_sizes == f.sizes
    assert len(cl) == len(sizes) + len(sizes_b)


def test_candidate_list_excludes_unschedulable():
    flows = [Flow(ms=0), Flow(ms=1)]
    for f in flows:
        f.ids, f.sizes = [f.ms], [40]
    cl = build_candidate_list(flows, {0: 6})
    assert list(cl.by_ms) == [0]
    assert len(cl) == 1


def test_pf_decay_to_floor():
    flow = Flow(ms=0)
    flow.avg_throughput = 1000.0
    for _ in range(3000):
        update_pf_averages([flow], {})
    assert flow.avg_throughput == pytest.approx(EPSILON_BYTES_PER_FRAME)


def test_pf_converges_to_constant_service():
    flow = Flow(ms=0)
    c = 7777.0
    for _ in range(5 * PF_HORIZON_FRAMES):
        update_pf_averages([flow], {0: c})
    assert abs(flow.avg_throughput - c) / c < 0.01


def test_pf_matches_reference_recurrence():
    rng = np.random.default_rng(31)
    served = [int(rng.integers(0, 5000)) for _ in range(200)]
    flow = Flow(ms=0)
    ref = flow.avg_throughput
    for s in served:
        update_pf_averages([flow], {0: s})
        ref = max((1 - 1 / PF_HORIZON_FRAMES) * ref + s / PF_HORIZON_FRAMES,
                  EPSILON_BYTES_PER_FRAME)
    assert flow.avg_throughput == pytest.approx(ref, rel=1e-12)


def test_commit_transmissions_audit():
    flow = Flow(ms=0)
    flow.ids, flow.sizes = list(range(4)), [100] * 4
    flow.occupancy_bytes = 400
    served = commit_transmissions([flow], [1, 3])
    assert served == {0: 200}
    assert flow.ids == [0, 2] and flow.sizes == [100, 100]
    assert flow.occupancy_bytes == 200


def test_commit_rejects_duplicate_and_unknown_ids():
    def one_flow():
        flow = Flow(ms=0)
        flow.ids, flow.sizes = list(range(4)), [100] * 4
        flow.occupancy_bytes = 400
        return flow

    with pytest.raises(RuntimeError, match="twice"):
        commit_transmissions([one_flow()], [1, 1])
    # an id queued nowhere, e.g. a packet already sent in an earlier frame
    with pytest.raises(RuntimeError, match="no buffer"):
        commit_transmissions([one_flow()], [1, 7])
