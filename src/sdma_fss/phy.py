"""Link-level abstraction: transmit precoding, per-sample SINR, EESM
compression and MCS selection.

Precoding weights are regularized channel inversion (minimum mean square
error transmit filter), one unit-norm weight vector per served MS. SINR per
CSI sample follows the standard intra-group interference form; a set of
per-sample SINRs is collapsed into an effective SINR via exponential
effective SIR mapping, with a per-MCS calibration factor beta.

Each kernel has one implementation, batched over a leading axis of R rows:
R groups for the weights and the SINR, R per-member sample vectors for EESM
and MCS selection. A single group or vector is the case R = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class McsEntry:
    name: str
    min_sinr_db: float
    bytes_per_slot: int
    beta: float


@dataclass(frozen=True)
class McsTable:
    """Ordered MCS ladder: thresholds strictly increasing, payload
    non-decreasing (two entries may share bytes/slot but differ in beta)."""

    entries: tuple[McsEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("MCS table must be nonempty")
        for e in self.entries:
            if e.bytes_per_slot <= 0 or e.beta <= 0:
                raise ValueError(f"nonpositive field in MCS entry {e.name}")
        thr = [e.min_sinr_db for e in self.entries]
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("MCS thresholds must be strictly increasing")
        payload = [e.bytes_per_slot for e in self.entries]
        if any(b < a for a, b in zip(payload, payload[1:])):
            raise ValueError("MCS payloads must be non-decreasing")

    @property
    def most_robust(self) -> McsEntry:
        return self.entries[0]

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"entries": [e.__dict__ for e in self.entries]}, f, indent=2)

    @classmethod
    def from_json(cls, path) -> "McsTable":
        with open(path) as f:
            raw = json.load(f)
        return cls(tuple(McsEntry(**e) for e in raw["entries"]))


def default_mcs_table() -> McsTable:
    """802.16-style ladder: 48 data symbols per slot, so e.g. QPSK 1/2
    carries 48*2*0.5/8 = 6 bytes. Thresholds and betas are calibration
    knobs, not measured link curves."""
    rows = [
        ("QPSK 1/2", 3.0, 6, 1.49),
        ("QPSK 3/4", 6.0, 9, 1.57),
        ("16QAM 1/2", 8.5, 12, 3.45),
        ("16QAM 3/4", 11.5, 18, 4.56),
        ("64QAM 1/2", 15.0, 18, 9.52),
        ("64QAM 2/3", 18.5, 24, 11.0),
        ("64QAM 3/4", 21.0, 27, 13.8),
    ]
    return McsTable(tuple(McsEntry(*r) for r in rows))


@dataclass
class LinkResult:
    """Per-member outcome on one subband."""

    ms: int
    sinr: np.ndarray  # linear, one per CSI sample
    eff_sinr: float
    mcs: Optional[McsEntry]


def minmse_weights(channels: np.ndarray, noise_power_w: float, total_power_w: float) -> np.ndarray:
    """Regularized channel-inversion weights for R groups of G members.

    channels: (R, G, M), row r holding group r's member channel vectors.
    Returns (R, G, M) weights, one unit-norm vector per member, from
    (H H^H + (G sigma^2 / P) I)^-1 H with H the M x G matrix of a group's
    member channels as columns. A zero precoding column is left at zero.
    """
    ch = np.asarray(channels, dtype=complex)
    if ch.ndim != 3:
        raise ValueError(f"expected (R, G, M) channels, got shape {ch.shape}")
    g, m = ch.shape[1:]
    if g > m:
        raise ValueError(f"group size {g} exceeds antenna count {m}")
    if not np.isfinite(ch).all():
        raise ValueError("non-finite channel coefficients")
    if noise_power_w <= 0 or total_power_w <= 0:
        raise ValueError("need positive noise and total power")

    ht = ch.transpose(0, 2, 1)  # (R, M, G) members as columns
    gram = np.einsum("rmg,rng->rmn", ht, ht.conj(), optimize=True)
    reg = g * noise_power_w / total_power_w
    raw = np.linalg.solve(gram + reg * np.eye(m), ht)  # (R, M, G)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms = np.where(norms == 0, 1.0, norms)
    return (raw / norms).transpose(0, 2, 1)


def compute_sinr(
    weights: np.ndarray,
    channels: np.ndarray,
    per_member_power_w: float,
    noise_power_w: float,
) -> np.ndarray:
    """Per-member, per-sample SINR with intra-group interference.

    weights: (R, G, M). channels: (R, G, N, M); entry [r, u, n] is the
    channel member u of group r sees at CSI sample n. per_member_power_w is
    the transmit power of every member. Returns (R, G, N).
    """
    w = np.asarray(weights, dtype=complex)
    h = np.asarray(channels, dtype=complex)
    if (w.ndim, h.ndim) != (3, 4) or w.shape[:2] != h.shape[:2] or w.shape[2] != h.shape[3]:
        raise ValueError(f"weights {w.shape} inconsistent with channels {h.shape}")
    if noise_power_w <= 0:
        raise ValueError("noise power must be positive")
    if per_member_power_w < 0:
        raise ValueError("negative power")

    # cross[r, u, v, n] = |w_{r,v}^H h_{r,u,n}|^2
    cross = np.abs(np.einsum("rvm,runm->ruvn", w.conj(), h, optimize=True)) ** 2
    ar = np.arange(w.shape[1])
    signal = cross[:, ar, ar, :]  # (R, G, N)
    interference = cross.sum(axis=2) - signal
    p = per_member_power_w
    return (p * signal) / (noise_power_w + p * interference)


def eesm_batch(samples: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Exponential effective SIR mapping of each row of linear SINRs (R, N)
    under each beta (B,) -> (R, B).

    Computed in shifted form for numerical range; the result is pinned to
    the mathematically guaranteed [min, mean] envelope of its row so
    round-off can never violate it.
    """
    x = np.asarray(samples, dtype=float)
    b = np.asarray(betas, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"EESM needs (R, N >= 1) samples, got shape {x.shape}")
    if (b <= 0).any():
        raise ValueError("beta must be positive")
    if (x < 0).any():
        raise ValueError("SINR samples must be nonnegative")
    lo = x.min(axis=1, keepdims=True)
    hi = x.mean(axis=1, keepdims=True)
    # (R, N, B) exponent block; N and B stay small
    z = np.exp(-(x[:, :, None] - lo[:, :, None]) / b)
    val = lo - b * (np.log(z.sum(axis=1)) - np.log(x.shape[1]))
    # floor last: the mean of a (near-)constant row can round below its min
    return np.maximum(np.minimum(val, hi), lo)


def select_mcs_batch(samples: np.ndarray, table: McsTable) -> list[tuple[Optional[McsEntry], float]]:
    """Highest MCS whose own-beta effective SINR meets its threshold, for
    each row of samples (R, N).

    Each candidate entry is judged by the effective SINR computed with that
    entry's beta. A row with no feasible entry gives (None, gamma_eff under
    the most robust entry's beta).
    """
    betas = np.array([e.beta for e in table.entries])
    thr = np.array([db_to_linear(e.min_sinr_db) for e in table.entries])
    geff = eesm_batch(samples, betas)  # (R, B)
    out: list[tuple[Optional[McsEntry], float]] = []
    for row in geff:
        chosen: Optional[McsEntry] = None
        used = float(row[0])
        for i in range(len(table.entries) - 1, -1, -1):
            if row[i] >= thr[i]:
                chosen = table.entries[i]
                used = float(row[i])
                break
        out.append((chosen, used))
    return out
