"""Seeded frequency-selective multi-antenna downlink channel generator.

Stands in for a full geometric channel simulator: per MS an L-tap
tapped-delay-line with exponential power-delay profile, per-tap Rayleigh
(or Ricean, for line-of-sight MSs) fading, and per-tap angles of departure
mapped onto a uniform-linear-array steering vector. Frequency responses are
obtained by evaluating the tap delay line at every subcarrier. Large-scale
pathloss uses a log-distance model with uniform MS placement in a disc.

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
class AntennaArrayConfig:
    """Uniform linear array at the BS."""

    num_elements: int

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError(f"need at least one antenna element, got {self.num_elements}")

    def steering(self, angles_rad: np.ndarray) -> np.ndarray:
        """Steering vectors for angles of departure, shape (..., M)."""
        m = np.arange(self.num_elements)
        phase = -2j * np.pi * ELEMENT_SPACING_WAVELENGTHS * np.sin(
            np.asarray(angles_rad)[..., None]
        ) * m
        return np.exp(phase)


@dataclass(frozen=True)
class ChannelParams:
    """Everything the generator needs; built from the scenario config."""

    num_ms: int
    num_subcarriers: int
    subcarrier_spacing_hz: float
    array: AntennaArrayConfig
    num_taps: int = 6
    rms_delay_spread_s: float = 0.5e-6
    ricean_k_db: float = 7.0
    los: bool = False
    pathloss_exponent_nlos: float = 3.5
    pathloss_exponent_los: float = 2.6
    cell_radius_m: float = 288.0
    min_distance_m: float = 10.0

    def __post_init__(self):
        if self.num_ms <= 0:
            raise ValueError(f"need K > 0 MSs, got {self.num_ms}")
        if self.num_subcarriers <= 0:
            raise ValueError(f"need S > 0 subcarriers, got {self.num_subcarriers}")
        if self.num_taps <= 0:
            raise ValueError(f"need L > 0 taps, got {self.num_taps}")
        if self.rms_delay_spread_s <= 0:
            raise ValueError("delay spread must be positive")


@dataclass
class ChannelRealization:
    """One drop: small-scale frequency response plus large-scale terms.

    h: complex (K, S, M) amplitude gains, unit average power per entry.
    pathloss_db: (K,) large-scale loss; distances_m kept for diagnostics.
    """

    h: np.ndarray
    pathloss_db: np.ndarray
    los: np.ndarray
    distances_m: np.ndarray
    subcarrier_spacing_hz: float

    @property
    def num_subcarriers(self) -> int:
        return self.h.shape[1]


@dataclass
class CsiReport:
    """Decimated but error-free CSI available to the scheduler."""

    decimation: int
    sample_indices: np.ndarray
    samples: np.ndarray  # (K, ceil(S/D), M), true channel at sampled indices
    noise_power_w: float
    pathloss_db: np.ndarray


def generate_channel(params: ChannelParams, seed: int) -> ChannelRealization:
    """Draw one independent drop (placement + small-scale fading).

    Tap powers follow an exponential profile with tap spacing equal to the
    RMS delay spread; taps are normalized to unit total power so the
    expected per-subcarrier, per-antenna gain is one before pathloss.
    LOS MSs get a non-fading dominant tap at delay zero with the configured
    Ricean K-factor; the diffuse taps are scaled to keep total power one.
    """
    k, s, m = params.num_ms, params.num_subcarriers, params.array.num_elements
    l = params.num_taps
    rng = np.random.default_rng(np.random.SeedSequence([0x5D3A, seed & 0xFFFFFFFFFFFFFFFF]))

    # placement: uniform in the disc annulus [min_distance, cell_radius]
    u = rng.random(k)
    distances = np.sqrt(
        params.min_distance_m**2 + u * (params.cell_radius_m**2 - params.min_distance_m**2)
    )
    azimuths = rng.uniform(-np.pi / 2, np.pi / 2, size=k)

    los = np.full(k, bool(params.los))
    exponent = np.where(los, params.pathloss_exponent_los, params.pathloss_exponent_nlos)
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

    steer = params.array.steering(aod)  # (K, taps, M)
    freqs = np.arange(s) * params.subcarrier_spacing_hz
    tap_phase = np.exp(-2j * np.pi * np.outer(delays, freqs))  # (taps, S)
    h = np.einsum("kl,lf,klm->kfm", gains, tap_phase, steer, optimize=True)

    return ChannelRealization(
        h=h,
        pathloss_db=pathloss_db,
        los=los,
        distances_m=distances,
        subcarrier_spacing_hz=params.subcarrier_spacing_hz,
    )


def decimate_csi(ch: ChannelRealization, decimation: int, noise_power_w: float) -> CsiReport:
    """Sample the true channel at every D-th subcarrier (no estimation error)."""
    s = ch.num_subcarriers
    if not 1 <= decimation <= s:
        raise ValueError(f"decimation {decimation} outside [1, {s}]")
    idx = np.arange(0, s, decimation)
    return CsiReport(
        decimation=decimation,
        sample_indices=idx,
        samples=ch.h[:, idx, :].copy(),
        noise_power_w=noise_power_w,
        pathloss_db=ch.pathloss_db.copy(),
    )


def subband_csi(csi: CsiReport, subband: SubbandSpec) -> tuple[np.ndarray, np.ndarray]:
    """CSI samples falling inside the subband's contiguous subcarrier range.

    Returns (samples (K, n, M), their subcarrier indices). Raises
    InsufficientCsiError when the subband is narrower than the CSI grid.
    """
    mask = (csi.sample_indices >= subband.subcarrier_lo) & (
        csi.sample_indices < subband.subcarrier_hi
    )
    if not mask.any():
        raise InsufficientCsiError(
            f"insufficient CSI resolution: subband {subband.index} "
            f"[{subband.subcarrier_lo}, {subband.subcarrier_hi}) has no samples at D={csi.decimation}"
        )
    return csi.samples[:, mask, :], csi.sample_indices[mask]
