"""Traffic generation, per-MS buffers and proportional-fair packet tagging.

Packet sizes follow a trimodal internet mix (TCP-dominated); a frame's
sizes are drawn TRAFFIC_BLOCK_DRAWS at a time from one generator per (seed,
frame index) and read in order across the flows. Offered load is either
saturated (buffers topped up every frame) or finite-rate with an unbalanced
split where half of the MSs generate 80% of the bytes. Before each frame
every queued packet of an MS with a feasible MCS is tagged with a
proportional-fair utility; the candidate list the frame constructor
consumes is each such MS's FIFO queue with those utilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .experiment import ScenarioConfig

EPSILON_BYTES_PER_FRAME = 1.0
PF_HORIZON_FRAMES = 64
HEAVY_TRAFFIC_SHARE = 0.8  # of the finite-rate load, offered to the heavy half of the MSs

PACKET_SIZES = (40, 576, 1500)
PACKET_SIZE_PROBS = (0.5, 0.2, 0.3)
# the sizes, and their CDF as Generator.choice builds it: cumsum, divided by the last element
_SIZES, _SIZE_CDF = np.array(PACKET_SIZES), np.array(PACKET_SIZE_PROBS).cumsum()
_SIZE_CDF /= _SIZE_CDF[-1]
TRAFFIC_BLOCK_DRAWS = 64  # packet sizes per block of uniform draws


@dataclass
class Flow:
    """Per-MS downlink buffer plus PF bookkeeping. The FIFO queue is the
    parallel lists `ids` and `sizes` (bytes), oldest packet first."""

    ms: int
    load_weight: float = 1.0
    ids: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    occupancy_bytes: int = 0
    avg_throughput: float = EPSILON_BYTES_PER_FRAME
    offered_credit_bytes: float = 0.0


def make_flows(num_ms: int) -> list[Flow]:
    """One flow per MS. In finite-rate mode the first half of the MSs (the
    heavy half) shares HEAVY_TRAFFIC_SHARE of the total offered bytes."""
    heavy = (num_ms + 1) // 2
    light = num_ms - heavy
    share = HEAVY_TRAFFIC_SHARE
    flows = []
    for ms in range(num_ms):
        if light == 0:
            w = 1.0 / heavy
        elif ms < heavy:
            w = share / heavy
        else:
            w = (1.0 - share) / light
        flows.append(Flow(ms=ms, load_weight=w))
    return flows


@dataclass
class TrafficStats:
    generated_bytes: int = 0  # enqueued: generated_bytes - dropped_bytes
    dropped_bytes: int = 0


def _packet_sizes(rng: np.random.Generator) -> Iterator[int]:
    """Endless packet sizes, TRAFFIC_BLOCK_DRAWS uniforms at a time looked
    up in the size CDF as rng.choice does: bit for bit those of one scalar
    choice per packet (same doubles, same CDF)."""
    while True:
        yield from _SIZES[_SIZE_CDF.searchsorted(rng.random(TRAFFIC_BLOCK_DRAWS), "right")].tolist()


def generate_traffic(
    flows: Sequence[Flow],
    frame_index: int,
    seed: int,
    cfg: ScenarioConfig,
    id_source: Iterator[int],
) -> TrafficStats:
    """Draw this frame's arrivals into buffers of cfg.buffer_capacity_bytes
    (tail drop when full).

    Deterministic per (seed, frame_index); the flows read their sizes in
    order from one block-drawn stream. With cfg.saturated_traffic each buffer
    is topped up until the next arrival no longer fits; otherwise each flow
    draws its share of cfg.offered_bytes_per_frame_total and arrivals that do
    not fit are dropped. id_source must stay unique across a drop's frames.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([0x7AFF1C, seed & 0xFFFFFFFFFFFFFFFF, frame_index])
    )
    draw = _packet_sizes(rng)
    stats = TrafficStats()
    cap = cfg.buffer_capacity_bytes
    for flow in flows:
        ids, sizes = flow.ids, flow.sizes
        if cfg.saturated_traffic:
            while True:
                size = next(draw)
                stats.generated_bytes += size
                if flow.occupancy_bytes + size > cap:
                    stats.dropped_bytes += size
                    break
                ids.append(next(id_source))
                sizes.append(size)
                flow.occupancy_bytes += size
        else:
            # byte credit carried across frames so the long-run generated
            # volume matches the configured weight exactly
            flow.offered_credit_bytes += cfg.offered_bytes_per_frame_total * flow.load_weight
            while flow.offered_credit_bytes > 0:
                size = next(draw)
                flow.offered_credit_bytes -= size
                stats.generated_bytes += size
                if flow.occupancy_bytes + size > cap:
                    stats.dropped_bytes += size
                    continue
                ids.append(next(id_source))
                sizes.append(size)
                flow.occupancy_bytes += size
    return stats


@dataclass
class CandidateList:
    """The schedulable queued packets, per MS.

    by_ms maps every MS with a feasible MCS and a nonempty queue to the
    parallel lists (ids, sizes, PF utilities) of its packets in FIFO order.
    """

    by_ms: dict[int, tuple[list[int], list[int], list[float]]]

    def __len__(self) -> int:
        return sum(len(ids) for ids, _, _ in self.by_ms.values())


def build_candidate_list(
    flows: Sequence[Flow], best_bytes_per_slot: dict[int, int]
) -> CandidateList:
    """Tag queued packets with PF utility = size / (avg throughput + epsilon).

    MSs with no feasible MCS anywhere in the band are excluded entirely.
    """
    by_ms = {}
    for flow in flows:
        if flow.ids and best_bytes_per_slot.get(flow.ms, 0) > 0:
            denom = flow.avg_throughput + EPSILON_BYTES_PER_FRAME
            by_ms[flow.ms] = (flow.ids[:], flow.sizes[:], [size / denom for size in flow.sizes])
    return CandidateList(by_ms)


def update_pf_averages(flows: Sequence[Flow], served_bytes: dict[int, int]) -> None:
    """Exponential average over PF_HORIZON_FRAMES, floored at epsilon."""
    a = 1.0 - 1.0 / PF_HORIZON_FRAMES
    b = 1.0 / PF_HORIZON_FRAMES
    for flow in flows:
        served = served_bytes.get(flow.ms, 0)
        flow.avg_throughput = max(
            a * flow.avg_throughput + b * served, EPSILON_BYTES_PER_FRAME
        )


def commit_transmissions(
    flows: Sequence[Flow], packed_ids: Sequence[int]
) -> dict[int, int]:
    """Drop packed packets from the buffers and return served bytes per MS.

    Raises RuntimeError if an id is packed twice or is queued in no buffer,
    as a packet already transmitted in an earlier frame would be.
    """
    wanted = set(packed_ids)
    if len(wanted) != len(packed_ids):
        dup = sorted({i for i in packed_ids if packed_ids.count(i) > 1})
        raise RuntimeError(f"packet ids packed twice: {dup[:5]}")
    served: dict[int, int] = {}
    for flow in flows:
        if wanted.isdisjoint(flow.ids):
            continue
        ids, sizes, nbytes = [], [], 0
        for pid, size in zip(flow.ids, flow.sizes):
            if pid in wanted:
                wanted.discard(pid)
                nbytes += size
            else:
                ids.append(pid)
                sizes.append(size)
        flow.ids, flow.sizes = ids, sizes
        flow.occupancy_bytes -= nbytes
        served[flow.ms] = nbytes
    if wanted:
        raise RuntimeError(f"packed ids in no buffer: {sorted(wanted)[:5]}")
    return served
