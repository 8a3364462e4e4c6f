import dataclasses
import struct

import numpy as np
import pytest

from sdma_fss.channel import (
    ChannelRealization,
    InsufficientCsiError,
    decimate_csi,
    generate_channel,
    subband_csi,
)
from sdma_fss.experiment import ScenarioConfig
from sdma_fss.geometry import SubbandSpec


def params(k=3, s=256, m=2, taps=6, spread=0.5e-6, los=False, spacing=10937.5):
    """The default scenario's channel at any subcarrier count, which
    ScenarioConfig itself cannot express (24 per subchannel)."""
    return dataclasses.replace(
        ScenarioConfig().channel_params(),
        num_ms=k,
        num_subcarriers=s,
        subcarrier_spacing_hz=spacing,
        num_antennas=m,
        num_taps=taps,
        rms_delay_spread_s=spread,
        los=los,
    )


def test_single_tap_is_frequency_flat():
    ch = generate_channel(params(k=2, s=64, m=1, taps=1), seed=7)
    mags = np.abs(ch.h[:, :, 0])
    assert np.allclose(mags, mags[:, :1])


def test_determinism():
    p = params()
    a = generate_channel(p, seed=42)
    b = generate_channel(p, seed=42)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.pathloss_db, b.pathloss_db)
    c = generate_channel(p, seed=43)
    assert not np.array_equal(a.h, c.h)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        params(k=0)
    with pytest.raises(ValueError):
        params(s=0)
    with pytest.raises(ValueError):
        params(m=0)
    with pytest.raises(ValueError):
        params(taps=0)


def coherence_bandwidth_50(ch: ChannelRealization) -> float:
    """50%-correlation width of the frequency autocorrelation, in Hz.

    Averages H(f) H*(f+lag) over MSs, antennas and frequency, normalizes by
    the zero-lag value, and returns the first lag (linearly interpolated)
    where the magnitude drops below one half.
    """
    h = ch.h
    s = ch.num_subcarriers
    corr = np.empty(s)
    for lag in range(s):
        prod = h[:, : s - lag, :] * np.conj(h[:, lag:, :])
        corr[lag] = np.abs(prod.mean())
    corr /= corr[0]
    below = np.nonzero(corr < 0.5)[0]
    if below.size == 0:
        return s * ch.subcarrier_spacing_hz
    i = below[0]
    if i == 0:
        return 0.0
    frac = (corr[i - 1] - 0.5) / (corr[i - 1] - corr[i])
    return (i - 1 + frac) * ch.subcarrier_spacing_hz


_DUMP_MAGIC = b"HMATv1\x00\x00"


def dump_channel(ch: ChannelRealization, path) -> None:
    """Binary channel dump for cross-implementation comparison.

    Layout: 8-byte magic, int64 K, S, M, float64 subcarrier spacing,
    float64 pathloss[K], uint8 los[K], float64 distances[K], then the
    response MS-major, subcarrier, antenna with each complex value stored
    as interleaved re/im 64-bit floats.
    """
    with open(path, "wb") as f:
        f.write(_DUMP_MAGIC)
        f.write(struct.pack("<qqqd", *ch.h.shape, ch.subcarrier_spacing_hz))
        ch.pathloss_db.astype("<f8").tofile(f)
        ch.los.astype(np.uint8).tofile(f)
        ch.distances_m.astype("<f8").tofile(f)
        inter = np.empty(ch.h.shape + (2,))
        inter[..., 0] = ch.h.real
        inter[..., 1] = ch.h.imag
        inter.astype("<f8").tofile(f)


def load_channel_dump(path) -> ChannelRealization:
    """Inverse of dump_channel."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _DUMP_MAGIC:
            raise ValueError(f"not a channel dump (magic {magic!r})")
        k, s, m, spacing = struct.unpack("<qqqd", f.read(32))
        pathloss = np.fromfile(f, dtype="<f8", count=k)
        los = np.fromfile(f, dtype=np.uint8, count=k).astype(bool)
        dist = np.fromfile(f, dtype="<f8", count=k)
        inter = np.fromfile(f, dtype="<f8", count=k * s * m * 2).reshape(k, s, m, 2)
    return ChannelRealization(
        h=inter[..., 0] + 1j * inter[..., 1],
        pathloss_db=pathloss,
        los=los,
        distances_m=dist,
        subcarrier_spacing_hz=spacing,
    )


def _oracle_coherence_bw(h, spacing):
    """Brute-force frequency autocorrelation over every subcarrier lag,
    one antenna/MS pair at a time."""
    s = h.shape[1]
    corr = []
    for lag in range(s):
        acc = 0.0 + 0.0j
        n = 0
        for u in range(h.shape[0]):
            for m in range(h.shape[2]):
                acc += np.vdot(h[u, lag:, m], h[u, : s - lag, m])
                n += s - lag
        corr.append(abs(acc / n))
    corr = np.array(corr) / corr[0]
    for i in range(s):
        if corr[i] < 0.5:
            if i == 0:
                return 0.0
            frac = (corr[i - 1] - 0.5) / (corr[i - 1] - corr[i])
            return (i - 1 + frac) * spacing
    return s * spacing


def test_coherence_bandwidth_matches_bruteforce_oracle():
    # 10 MHz-class spacing, 1024 subcarriers, M=4, L=6
    p = params(k=2, s=1024, m=4, taps=6)
    ch = generate_channel(p, seed=5)
    fast = coherence_bandwidth_50(ch)
    oracle = _oracle_coherence_bw(ch.h, p.subcarrier_spacing_hz)
    assert abs(fast - oracle) < 1e-6 * max(1.0, oracle)
    assert 0 < fast < 1024 * 10937.5


def test_power_normalization():
    # expected small-scale power per subcarrier/antenna is 1 (within 5%)
    total = 0.0
    n = 0
    for seed in range(25):
        ch = generate_channel(params(k=100, s=4, m=2, taps=6), seed=seed)
        total += float((np.abs(ch.h) ** 2).sum())
        n += ch.h.size
    assert n >= 10_000
    assert abs(total / n - 1.0) < 0.05


def test_power_normalization_los():
    total = 0.0
    n = 0
    for seed in range(25):
        ch = generate_channel(params(k=100, s=4, m=2, taps=6, los=True), seed=seed)
        total += float((np.abs(ch.h) ** 2).sum())
        n += ch.h.size
    assert abs(total / n - 1.0) < 0.05


def test_coherence_bw_monotone_in_delay_spread():
    narrow, wide = [], []
    for seed in range(100):
        narrow.append(coherence_bandwidth_50(generate_channel(params(k=1, s=128, spread=0.2e-6), seed)))
        wide.append(coherence_bandwidth_50(generate_channel(params(k=1, s=128, spread=1.0e-6), seed)))
    assert np.mean(wide) < np.mean(narrow)


def test_decimation_identity_and_boundary():
    p = params(k=2, s=64)
    ch = generate_channel(p, seed=3)
    full = decimate_csi(ch, 1, noise_power_w=1e-13)
    assert full.samples.shape[1] == 64
    assert np.array_equal(full.samples, ch.h)
    one = decimate_csi(ch, 64, noise_power_w=1e-13)
    assert one.samples.shape[1] == 1
    assert np.array_equal(one.samples[:, 0, :], ch.h[:, 0, :])


def test_decimation_indices_oracle():
    p = params(k=2, s=1024, m=2)
    ch = generate_channel(p, seed=11)
    csi = decimate_csi(ch, 8, noise_power_w=1e-13)
    assert csi.samples.shape[1] == 128
    expected = [i for i in range(1024) if i % 8 == 0]  # 0-based: 1st, 9th, 17th...
    assert list(csi.sample_indices) == expected
    for j, f in enumerate(expected):
        assert np.array_equal(csi.samples[:, j, :], ch.h[:, f, :])


def test_decimation_rejects_bad_d():
    ch = generate_channel(params(k=1, s=16), seed=0)
    with pytest.raises(ValueError):
        decimate_csi(ch, 0, 1e-13)
    with pytest.raises(ValueError):
        decimate_csi(ch, 17, 1e-13)


def _band(idx, lo, hi):
    return SubbandSpec(index=idx, subcarrier_lo=lo, subcarrier_hi=hi)


def test_subband_csi_identity_and_counts():
    ch = generate_channel(params(k=2, s=1024, m=2), seed=4)
    csi = decimate_csi(ch, 8, 1e-13)
    samples, idx = subband_csi(csi, _band(0, 0, 1024))
    assert samples.shape[1] == 128
    half, _ = subband_csi(csi, _band(0, 0, 512))
    assert half.shape[1] == 64


def test_subband_csi_partition_oracle():
    ch = generate_channel(params(k=2, s=1024, m=2), seed=4)
    csi = decimate_csi(ch, 8, 1e-13)
    thirds = [(0, 342), (342, 684), (684, 1024)]
    sizes = []
    for j, (lo, hi) in enumerate(thirds):
        samples, idx = subband_csi(csi, _band(j, lo, hi))
        expect = [i for i in range(0, 1024, 8) if lo <= i < hi]
        assert list(idx) == expect
        sizes.append(samples.shape[1])
    assert sum(sizes) == 128


def test_subband_csi_insufficient_resolution():
    ch = generate_channel(params(k=1, s=64), seed=1)
    csi = decimate_csi(ch, 16, 1e-13)
    with pytest.raises(InsufficientCsiError):
        subband_csi(csi, _band(0, 1, 9))  # gap between samples 0 and 16


def test_dump_roundtrip(tmp_path):
    ch = generate_channel(params(k=3, s=32, m=2, los=True), seed=9)
    path = tmp_path / "h.bin"
    dump_channel(ch, path)
    back = load_channel_dump(path)
    assert np.array_equal(back.h, ch.h)
    assert np.array_equal(back.pathloss_db, ch.pathloss_db)
    assert np.array_equal(back.los, ch.los)
    assert back.subcarrier_spacing_hz == ch.subcarrier_spacing_hz
