"""Traffic generation, per-MS buffers and proportional-fair packet tagging.

Packet sizes follow a trimodal internet mix (TCP-dominated). Offered load
is either saturated (buffers topped up every frame) or finite-rate with an
unbalanced split where half of the MSs generate 80% of the bytes. Before
each frame the queued packets are tagged with a proportional-fair utility
and ordered into the candidate list the frame constructor consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

EPSILON_BYTES_PER_FRAME = 1.0
PF_HORIZON_FRAMES = 64
DEFAULT_BUFFER_CAPACITY_BYTES = 13271  # 12.96 KiB per MS

PACKET_SIZES = (40, 576, 1500)
PACKET_SIZE_PROBS = (0.5, 0.2, 0.3)


@dataclass
class Packet:
    id: int
    ms: int
    size_bytes: int
    transmitted: bool = False

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("packet size must be positive")


@dataclass
class Flow:
    """Per-MS downlink buffer plus PF bookkeeping."""

    ms: int
    buffer_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY_BYTES
    load_weight: float = 1.0
    buffer: list[Packet] = field(default_factory=list)
    occupancy_bytes: int = 0
    avg_throughput: float = EPSILON_BYTES_PER_FRAME
    offered_credit_bytes: float = 0.0
    generated_bytes: int = 0
    enqueued_bytes: int = 0
    dropped_bytes: int = 0
    served_bytes: int = 0


@dataclass(frozen=True)
class TrafficParams:
    saturated: bool = True
    offered_bytes_per_frame_total: float = 0.0
    heavy_traffic_share: float = 0.8
    buffer_capacity_bytes: int = DEFAULT_BUFFER_CAPACITY_BYTES
    packet_sizes: tuple[int, ...] = PACKET_SIZES
    packet_size_probs: tuple[float, ...] = PACKET_SIZE_PROBS


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


def generate_traffic(
    flows: Sequence[Flow],
    frame_index: int,
    seed: int,
    params: TrafficParams = TrafficParams(),
    id_source: Optional[Iterator[int]] = None,
) -> TrafficStats:
    """Draw this frame's arrivals into the buffers (tail drop when full).

    Deterministic per (seed, frame_index). In saturated mode each buffer is
    topped up until the next arrival no longer fits; in finite-rate mode
    each flow draws its share of the per-frame offered bytes and arrivals
    that do not fit are dropped.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([0x7AFF1C, seed & 0xFFFFFFFFFFFFFFFF, frame_index])
    )
    ids = id_source if id_source is not None else itertools.count()
    sizes = np.asarray(params.packet_sizes)
    probs = np.asarray(params.packet_size_probs)
    stats = TrafficStats()
    for flow in flows:
        if params.saturated:
            while True:
                size = int(rng.choice(sizes, p=probs))
                stats.generated_bytes += size
                flow.generated_bytes += size
                if flow.occupancy_bytes + size > flow.buffer_capacity_bytes:
                    stats.dropped_bytes += size
                    flow.dropped_bytes += size
                    break
                flow.buffer.append(Packet(id=next(ids), ms=flow.ms, size_bytes=size))
                flow.occupancy_bytes += size
                stats.enqueued_bytes += size
                flow.enqueued_bytes += size
        else:
            # byte credit carried across frames so the long-run generated
            # volume matches the configured weight exactly
            flow.offered_credit_bytes += params.offered_bytes_per_frame_total * flow.load_weight
            while flow.offered_credit_bytes > 0:
                size = int(rng.choice(sizes, p=probs))
                flow.offered_credit_bytes -= size
                stats.generated_bytes += size
                flow.generated_bytes += size
                if flow.occupancy_bytes + size > flow.buffer_capacity_bytes:
                    stats.dropped_bytes += size
                    flow.dropped_bytes += size
                    continue
                flow.buffer.append(Packet(id=next(ids), ms=flow.ms, size_bytes=size))
                flow.occupancy_bytes += size
                stats.enqueued_bytes += size
                flow.enqueued_bytes += size
    return stats


@dataclass(frozen=True)
class CandidateEntry:
    id: int
    ms: int
    size_bytes: int
    utility: float
    utility_per_slot: float


class CandidateList:
    """Utility-ordered view of all schedulable queued packets.

    Global order is by utility per slot descending; within one flow the
    FIFO queue order is preserved (the flow's packets are re-laid into the
    positions the sort gave that flow).
    """

    def __init__(self, entries: list[CandidateEntry]):
        self.entries = entries
        self.by_ms: dict[int, list[CandidateEntry]] = {}
        for e in entries:
            self.by_ms.setdefault(e.ms, []).append(e)
        self.by_id = {e.id: e for e in entries}

    def __len__(self) -> int:
        return len(self.entries)


def build_candidate_list(
    flows: Sequence[Flow], best_bytes_per_slot: dict[int, int]
) -> CandidateList:
    """Tag queued packets with PF utility and order them for packing.

    utility = size / (avg throughput + epsilon); utility per slot divides by
    the slots the packet needs at the MS's best feasible MCS anywhere in the
    band. MSs with no feasible MCS are excluded entirely.
    """
    raw: list[tuple[float, int, int, CandidateEntry]] = []
    for flow in flows:
        bps = best_bytes_per_slot.get(flow.ms, 0)
        if bps <= 0:
            continue
        denom = flow.avg_throughput + EPSILON_BYTES_PER_FRAME
        for fifo_idx, pkt in enumerate(flow.buffer):
            u = pkt.size_bytes / denom
            slots = -(-pkt.size_bytes // bps)
            e = CandidateEntry(
                id=pkt.id, ms=pkt.ms, size_bytes=pkt.size_bytes,
                utility=u, utility_per_slot=u / slots,
            )
            raw.append((e.utility_per_slot, flow.ms, fifo_idx, e))

    order = sorted(raw, key=lambda r: (-r[0], r[1], r[2]))
    # re-lay each flow's packets into its sorted positions in FIFO order
    per_ms_positions: dict[int, list[int]] = {}
    for pos, (_, ms, _, _) in enumerate(order):
        per_ms_positions.setdefault(ms, []).append(pos)
    final: list[Optional[CandidateEntry]] = [None] * len(order)
    fifo_by_ms: dict[int, list[CandidateEntry]] = {}
    for _, ms, _, e in raw:
        fifo_by_ms.setdefault(ms, []).append(e)
    for ms, positions in per_ms_positions.items():
        for pos, e in zip(positions, fifo_by_ms[ms]):
            final[pos] = e
    return CandidateList([e for e in final if e is not None])


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
    flows: Sequence[Flow], packed_ids: Iterable[int]
) -> dict[int, int]:
    """Mark packed packets transmitted, drop them from the buffers and
    return served bytes per MS."""
    wanted = set(packed_ids)
    served: dict[int, int] = {}
    for flow in flows:
        keep = []
        for pkt in flow.buffer:
            if pkt.id in wanted:
                if pkt.transmitted:
                    raise RuntimeError(f"packet {pkt.id} transmitted twice")
                pkt.transmitted = True
                flow.occupancy_bytes -= pkt.size_bytes
                flow.served_bytes += pkt.size_bytes
                served[flow.ms] = served.get(flow.ms, 0) + pkt.size_bytes
            else:
                keep.append(pkt)
        flow.buffer = keep
    return served
