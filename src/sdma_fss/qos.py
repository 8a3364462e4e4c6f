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
from typing import Iterator, Sequence

import numpy as np

EPSILON_BYTES_PER_FRAME = 1.0
PF_HORIZON_FRAMES = 64
DEFAULT_BUFFER_CAPACITY_BYTES = 13271  # 12.96 KiB per MS

PACKET_SIZES = (40, 576, 1500)
PACKET_SIZE_PROBS = (0.5, 0.2, 0.3)
TRAFFIC_BLOCK_DRAWS = 64  # packet sizes per block of uniform draws


@dataclass
class Flow:
    """Per-MS downlink buffer plus PF bookkeeping. The FIFO queue is the
    parallel lists `ids` and `sizes` (bytes), oldest packet first."""

    ms: int
    buffer_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY_BYTES
    load_weight: float = 1.0
    ids: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    occupancy_bytes: int = 0
    avg_throughput: float = EPSILON_BYTES_PER_FRAME
    offered_credit_bytes: float = 0.0


@dataclass(frozen=True)
class TrafficParams:
    saturated: bool = True
    offered_bytes_per_frame_total: float = 0.0
    heavy_traffic_share: float = 0.8
    buffer_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY_BYTES
    packet_sizes: tuple[int, ...] = PACKET_SIZES
    packet_size_probs: tuple[float, ...] = PACKET_SIZE_PROBS

    def __post_init__(self):
        """Checks the size mix as Generator.choice would, then stores its
        CDF the way choice builds it: cumsum, divided by the last element."""
        if not self.packet_sizes or any(size <= 0 for size in self.packet_sizes):
            raise ValueError("packet sizes must be nonempty and positive")
        p = np.array(self.packet_size_probs, dtype=float)
        if p.shape != (len(self.packet_sizes),) or not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("need one finite, nonnegative probability per packet size")
        if abs(p.sum() - 1.0) > np.sqrt(np.finfo(float).eps):  # choice's tolerance
            raise ValueError("packet size probabilities must sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_sizes", np.array(self.packet_sizes))


def make_flows(num_ms: int, params: TrafficParams = TrafficParams()) -> list[Flow]:
    """One flow per MS. In finite-rate mode the first half of the MSs (the
    heavy half) shares heavy_traffic_share of the total offered bytes."""
    heavy = (num_ms + 1) // 2
    light = num_ms - heavy
    share = params.heavy_traffic_share
    flows = []
    for ms in range(num_ms):
        if light == 0:
            w = 1.0 / heavy
        elif ms < heavy:
            w = share / heavy
        else:
            w = (1.0 - share) / light
        flows.append(
            Flow(ms=ms, buffer_capacity_bytes=params.buffer_capacity_bytes, load_weight=w)
        )
    return flows


@dataclass
class TrafficStats:
    generated_bytes: int = 0
    enqueued_bytes: int = 0
    dropped_bytes: int = 0


def _packet_sizes(rng: np.random.Generator, params: TrafficParams) -> Iterator[int]:
    """Endless packet sizes, TRAFFIC_BLOCK_DRAWS uniforms at a time looked
    up in the size CDF as rng.choice does: bit for bit those of one scalar
    choice per packet (same doubles, same CDF)."""
    cdf, sizes = params._cdf, params._sizes
    while True:
        yield from sizes[cdf.searchsorted(rng.random(TRAFFIC_BLOCK_DRAWS), "right")].tolist()


def generate_traffic(
    flows: Sequence[Flow],
    frame_index: int,
    seed: int,
    params: TrafficParams,
    id_source: Iterator[int],
) -> TrafficStats:
    """Draw this frame's arrivals into the buffers (tail drop when full).

    Deterministic per (seed, frame_index); the flows read their sizes in
    order from one block-drawn stream. In saturated mode each buffer is
    topped up until the next arrival no longer fits; in finite-rate mode each
    flow draws its share of the per-frame offered bytes and arrivals that do
    not fit are dropped. id_source must stay unique across a drop's frames.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([0x7AFF1C, seed & 0xFFFFFFFFFFFFFFFF, frame_index])
    )
    draw = _packet_sizes(rng, params)
    stats = TrafficStats()
    for flow in flows:
        ids, sizes, cap = flow.ids, flow.sizes, flow.buffer_capacity_bytes
        if params.saturated:
            while True:
                size = next(draw)
                stats.generated_bytes += size
                if flow.occupancy_bytes + size > cap:
                    stats.dropped_bytes += size
                    break
                ids.append(next(id_source))
                sizes.append(size)
                flow.occupancy_bytes += size
                stats.enqueued_bytes += size
        else:
            # byte credit carried across frames so the long-run generated
            # volume matches the configured weight exactly
            flow.offered_credit_bytes += params.offered_bytes_per_frame_total * flow.load_weight
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
                stats.enqueued_bytes += size
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
