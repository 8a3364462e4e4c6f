"""Link-level abstraction: transmit precoding, per-sample SINR, EESM
compression and MCS selection.

Precoding weights are regularized channel inversion (minimum mean square
error transmit filter), one unit-norm weight vector per served MS. SINR per
CSI sample follows the standard intra-group interference form; a set of
per-sample SINRs is collapsed into an effective SINR via exponential
effective SIR mapping, with a per-MCS calibration factor beta.

Each kernel has one implementation, batched over a leading axis of R rows:
R groups for the weights and the SINR, R per-member sample vectors for EESM
and MCS selection. A single group or vector is the case R = 1. The SINRs
and effective SINRs are only steps toward the MCS: select_mcs_batch returns
entry indices, and a group keeps its members' entries, nothing more. The
weights solve a G x G system per group, not an M x M one. The SINR cross
products are the batch matmuls that numpy 2.4.6's einsum plan runs for
them, with einsum's bits, and the interference sum adds whole slices in
the order of numpy 2.4.6's own reduction; CI's numpy pin guards those bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

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
    non-decreasing (two entries may share bytes/slot but differ in beta).
    `betas` and `thresholds` (linear) hold the entries' values as arrays;
    `choices` and `payloads` map an entry index, -1 (none feasible) last,
    to the entry (None) and its bytes per slot (0)."""

    entries: tuple[McsEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("MCS table must be nonempty")
        for e in self.entries:
            if e.bytes_per_slot <= 0 or not 0 < e.beta < np.inf:
                raise ValueError(f"nonpositive field in MCS entry {e.name}")
        thr = [e.min_sinr_db for e in self.entries]
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("MCS thresholds must be strictly increasing")
        payload = [e.bytes_per_slot for e in self.entries]
        if any(b < a for a, b in zip(payload, payload[1:])):
            raise ValueError("MCS payloads must be non-decreasing")
        object.__setattr__(self, "betas", np.array([e.beta for e in self.entries]))
        object.__setattr__(self, "thresholds", np.array([db_to_linear(t) for t in thr]))
        object.__setattr__(self, "choices", (*self.entries, None))
        object.__setattr__(self, "payloads", np.array(payload + [0]))

    @property
    def most_robust(self) -> McsEntry:
        return self.entries[0]

    @classmethod
    def from_json(cls, path) -> "McsTable":
        """{"entries": [McsEntry fields, ...]}; malformed content raises
        ValueError, an unreadable file OSError."""
        with open(path) as f:
            raw = json.load(f)
        try:  # no "entries", a missing or extra field, a string where a number belongs
            return cls(tuple(McsEntry(**e) for e in raw["entries"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed MCS table: {type(exc).__name__}: {exc}") from None


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


def minmse_weights(channels: np.ndarray, noise_power_w: float, total_power_w: float) -> np.ndarray:
    """Regularized channel-inversion weights for R groups of G members.

    channels: (R, G, M), row r holding group r's member channel vectors.
    Returns (R, G, M) weights, one unit-norm vector per member, from
    (H H^H + (G sigma^2 / P) I)^-1 H with H the M x G matrix of a group's
    member channels as columns, solved in the G x G form H (H^H H + r I)^-1
    (push-through identity), which stays well-conditioned where r falls
    below the M x M Gram's rounding. A zero precoding column is left at zero.
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

    hh = ch.conj()  # (R, G, M): H^H
    gram = hh @ ch.mT  # H^H H
    gram += g * noise_power_w / total_power_w * _eye(g)
    raw = _solve(gram, hh)  # (H^H H + r I)^-1 H^H, the weights' conjugate
    if raw is None:  # some group's solve failed: each group on its own, so a
        raw = np.empty_like(hh)  # row's bits do not depend on the rows batched with it
        for i in range(len(gram)):
            one = slice(i, i + 1)
            sol = _solve(gram[one], hh[one])
            # dependent members, or a zero member beside a subnormal r: the ZF limit
            raw[one] = np.linalg.pinv(gram[one]) @ hh[one] if sol is None else sol
    np.conjugate(raw, out=raw)
    # row 2-norms as numpy 2.4.6 takes them for a vector norm, a zero one left at 1
    norms = np.sqrt(np.add.reduce((raw.conj() * raw).real, axis=2, keepdims=True))
    np.copyto(norms, 1.0, where=norms == 0)
    raw /= norms
    return raw


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """solve(gram, rhs), or None if a Gram is singular or the result is not
    finite, as where 1/r overflows against a zero member's zero row."""
    try:
        out = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return None
    return out if np.isfinite(out).all() else None


_log = cache(np.log)  # np.log of a sample count, taken once per count


@cache
def _eye(size: int) -> np.ndarray:
    """The read-only identity of the given size."""
    eye = np.eye(size)
    eye.flags.writeable = False
    return eye


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

    A member's interference is its received power summed over all G
    weights, in the order numpy 2.4.6's cross.sum(axis=2) adds them (see
    _sum_axis2), minus its own signal.
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
    (r, g, n, m), wc = h.shape, w.conj()
    if g * m > 1:
        prod = (h.reshape(r, g * n, m) @ wc.mT).reshape(r, g, n, g).transpose(0, 1, 3, 2)
    else:  # G = M = 1: einsum multiplies here, and a matmul would round differently
        prod = h[:, :, None, :, 0] * wc[:, :, :, None]
    cross = np.abs(prod)
    np.square(cross, out=cross)
    signal = cross.diagonal(axis1=1, axis2=2).mT  # (R, G, N)
    interference = _sum_axis2(cross) - signal
    p = per_member_power_w
    return (p * signal) / (noise_power_w + p * interference)


def _sum_axis2(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=2) of a 4-d x by whole-array adds of its slices, in the
    order numpy 2.4.6's add.reduce takes along that axis: one running sum
    below 8 terms; up to 128, eight running partial sums folded as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the remaining terms one at a time;
    above that, two halves split at a multiple of 8. numpy's strided
    reduction over so few terms costs several times these adds."""
    n = x.shape[2]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_axis2(x[:, :, :half]) + _sum_axis2(x[:, :, half:])
    if n == 1:
        return x[:, :, 0]
    if n < 8:
        s, rest = x[:, :, 0] + x[:, :, 1], range(2, n)
    else:  # the running sums start as the first block, or the sum of the first two
        rest = range(n - n % 8, n)
        s = x[:, :, :8] + x[:, :, 8:16] if rest.start > 8 else x[:, :, :8]
        for i in range(16, rest.start, 8):
            s += x[:, :, i:i + 8]
        while s.shape[2] > 1:
            s = s[:, :, 0::2] + s[:, :, 1::2]
        s = s[:, :, 0]
    for v in rest:
        s += x[:, :, v]
    return s


def _envelope(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (R, N) SINR rows, their mins and their means."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"EESM needs (R, N >= 1) samples, got shape {x.shape}")
    if (x < 0).any():
        raise ValueError("SINR samples must be nonnegative")
    return x, np.minimum.reduce(x, 1), np.add.reduce(x, 1) / x.shape[1]  # np.mean's sum and divide


def _eesm_pairs(x, lo, hi, rows, b, pairwise: bool) -> np.ndarray:
    """Effective SINR of row rows[p] of x (mins lo, means hi) under beta b[p],
    in shifted form and pinned to the [min, mean] envelope. The N-sum of the
    C-contiguous (N, P) exponent block adds whole rows in order, as numpy
    does for an (R, N, B >= 2) block; it sums (R, N, 1) pairwise, and so a
    one-entry table (`pairwise`) sums the rows of a (P, N) block."""
    n, neg = len(rows), lo[:, None] - x  # -(x - lo) but for zeros' signs, and exp(-0) = exp(0)
    if n == 1 and not pairwise:  # numpy sums a one-column block pairwise: add a twin
        rows, b = rows.repeat(2), b.repeat(2)
    z = neg[rows] if pairwise else neg.T.take(rows, axis=1)
    z /= b[:, None] if pairwise else b
    s = np.exp(z, out=z).sum(axis=1 if pairwise else 0)
    floor = lo[rows]
    val = floor - b * (np.log(s) - _log(x.shape[1]))
    # floor last: the mean of a (near-)constant row can round below its min
    np.minimum(val, hi[rows], out=val)
    return np.maximum(val, floor, out=val)[:n]


def select_mcs_batch(samples: np.ndarray, table: McsTable) -> np.ndarray:
    """Highest MCS whose own-beta effective SINR meets its threshold, for
    each row of samples (R, N).

    Each candidate entry is judged by the effective SINR computed with that
    entry's beta. Returns (R,) entry indices into table.entries, -1 for a
    row with no feasible entry.

    Any effective SINR of a row lies in [min, max(min, mean)], so EESM runs
    only from the highest entry at or below the min (entry 0 if none) to
    the highest entry not above that top. A row whose min is inf or nan
    needs no special case: it runs the top entry alone, whose effective
    SINR is nan, and gets -1 as it would from every entry.
    """
    x, lo, hi = _envelope(samples)
    thr = table.thresholds
    first = np.maximum(thr.searchsorted(lo, "right") - 1, 0)
    last = np.maximum(thr.searchsorted(np.maximum(lo, hi), "right") - 1, 0)
    counts = last - first + 1
    starts = counts.cumsum() - counts
    rows = np.arange(len(x)).repeat(counts)
    entry = np.arange(len(rows)) - (starts - first).repeat(counts)
    geff = _eesm_pairs(x, lo, hi, rows, table.betas[entry], len(thr) == 1)
    return np.maximum.reduceat(np.where(geff >= thr[entry], entry, -1), starts)
