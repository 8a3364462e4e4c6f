"""Seeded frequency-selective multi-antenna downlink channel generator.

Stands in for a full geometric channel simulator: per MS an L-tap
tapped-delay-line with exponential power-delay profile, per-tap Rayleigh
(or Ricean, for line-of-sight MSs) fading, and per-tap angles of departure
mapped onto a uniform-linear-array steering vector. Frequency responses are
obtained by evaluating the tap delay line at every subcarrier. Large-scale
pathloss uses a log-distance model with uniform MS placement in a disc.

One record, ChannelRealization, holds a drop's response at a set of
absolute subcarrier indices: generate_channel gives every subcarrier, and
decimate_csi keeps every D-th, the error-free CSI the scheduler sees.
Everything is a pure function of (params, seed): the same inputs give a
bit-identical realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SubbandSpec

SPEED_OF_LIGHT = 299_792_458.0
CARRIER_FREQUENCY_HZ = 2.5e9
ELEMENT_SPACING_WAVELENGTHS = 0.5  # of the BS's uniform linear array
ANGULAR_SPREAD_RAD = np.pi / 12  # a tap departs within this of its MS's azimuth
# free-space loss at 1 m, used as the log-distance intercept
PATHLOSS_REF_DB = 20.0 * np.log10(4.0 * np.pi * CARRIER_FREQUENCY_HZ / SPEED_OF_LIGHT)


class InsufficientCsiError(ValueError):
    """Subband narrower than the CSI decimation grid."""


@dataclass(frozen=True)
class ChannelParams:
    """Everything the generator needs, from ScenarioConfig.channel_params;
    num_antennas elements make up the BS's uniform linear array."""

    num_ms: int
    num_subcarriers: int
    subcarrier_spacing_hz: float
    num_antennas: int
    num_taps: int
    rms_delay_spread_s: float
    ricean_k_db: float
    los: bool
    pathloss_exponent_nlos: float
    pathloss_exponent_los: float
    cell_radius_m: float
    min_distance_m: float

    def __post_init__(self):
        if self.num_ms <= 0:
            raise ValueError(f"need K > 0 MSs, got {self.num_ms}")
        if self.num_subcarriers <= 0:
            raise ValueError(f"need S > 0 subcarriers, got {self.num_subcarriers}")
        if self.num_antennas < 1:
            raise ValueError(f"need at least one antenna element, got {self.num_antennas}")
        if self.num_taps <= 0:
            raise ValueError(f"need L > 0 taps, got {self.num_taps}")
        if self.rms_delay_spread_s <= 0:
            raise ValueError("delay spread must be positive")


@dataclass
class ChannelRealization:
    """One drop at the subcarriers it holds.

    h: complex (K, n, M) amplitude gains, unit average power per entry, at
    the absolute subcarrier indices subcarriers (n,), ascending.
    pathloss_db: (K,) large-scale loss.
    """

    h: np.ndarray
    subcarriers: np.ndarray
    pathloss_db: np.ndarray


def generate_channel(params: ChannelParams, seed: int) -> ChannelRealization:
    """Draw one independent drop (placement + small-scale fading).

    Tap powers follow an exponential profile with tap spacing equal to the
    RMS delay spread; taps are normalized to unit total power so the
    expected per-subcarrier, per-antenna gain is one before pathloss.
    LOS MSs get a non-fading dominant tap at delay zero with the configured
    Ricean K-factor; the diffuse taps are scaled to keep total power one.
    """
    k, s, m = params.num_ms, params.num_subcarriers, params.num_antennas
    l = params.num_taps
    rng = np.random.default_rng(np.random.SeedSequence([0x5D3A, seed & 0xFFFFFFFFFFFFFFFF]))

    # placement: uniform in the disc annulus [min_distance, cell_radius]
    u = rng.random(k)
    distances = np.sqrt(
        params.min_distance_m**2 + u * (params.cell_radius_m**2 - params.min_distance_m**2)
    )
    azimuths = rng.uniform(-np.pi / 2, np.pi / 2, size=k)

    exponent = params.pathloss_exponent_los if params.los else params.pathloss_exponent_nlos
    pathloss_db = PATHLOSS_REF_DB + 10.0 * exponent * np.log10(distances)

    delays = np.arange(l) * params.rms_delay_spread_s
    powers = np.exp(-delays / params.rms_delay_spread_s)
    powers /= powers.sum()

    # per-tap complex gains and departure angles
    gains = (rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))) * np.sqrt(
        powers / 2.0
    )
    aod = azimuths[:, None] + rng.uniform(-ANGULAR_SPREAD_RAD, ANGULAR_SPREAD_RAD, size=(k, l))
    los_phase = rng.uniform(0.0, 2.0 * np.pi, size=k)

    if params.los:
        k_lin = 10.0 ** (params.ricean_k_db / 10.0)
        gains *= np.sqrt(1.0 / (k_lin + 1.0))
        det = np.sqrt(k_lin / (k_lin + 1.0)) * np.exp(1j * los_phase)
        gains = np.concatenate([det[:, None], gains], axis=1)
        aod = np.concatenate([azimuths[:, None], aod], axis=1)
        delays = np.concatenate([[0.0], delays])

    # the uniform linear array's steering vectors at the departure angles, (K, taps, M)
    phase = -2j * np.pi * ELEMENT_SPACING_WAVELENGTHS * np.sin(aod[..., None]) * np.arange(m)
    steer = np.exp(phase)
    freqs = np.arange(s) * params.subcarrier_spacing_hz
    tap_phase = np.exp(-2j * np.pi * np.outer(delays, freqs))  # (taps, S)
    h = np.einsum("kl,lf,klm->kfm", gains, tap_phase, steer, optimize=True)

    return ChannelRealization(h, np.arange(s), pathloss_db)


def decimate_csi(ch: ChannelRealization, decimation: int) -> ChannelRealization:
    """Sample the channel at every D-th of its subcarriers (no estimation error)."""
    s = len(ch.subcarriers)
    if not 1 <= decimation <= s:
        raise ValueError(f"decimation {decimation} outside [1, {s}]")
    return ChannelRealization(ch.h[:, ::decimation].copy(), ch.subcarriers[::decimation],
                              ch.pathloss_db)


def subband_csi(csi: ChannelRealization, subband: SubbandSpec) -> tuple[np.ndarray, np.ndarray]:
    """The channel at its subcarriers inside the subband's contiguous range.

    Returns (h (K, n, M), their subcarrier indices). Raises
    InsufficientCsiError when none of them falls inside the subband.
    """
    mask = (csi.subcarriers >= subband.subcarrier_lo) & (csi.subcarriers < subband.subcarrier_hi)
    if not mask.any():
        raise InsufficientCsiError(
            f"insufficient CSI resolution: subband {subband.index} "
            f"[{subband.subcarrier_lo}, {subband.subcarrier_hi}) has no samples"
        )
    return csi.h[:, mask, :], csi.subcarriers[mask]
