"""OFDMA downlink frame geometry: slot grid dimensions and subband partitioning.

The frame is a 2-D grid of slots (subchannel rows x slot columns). Subchannels
map to adjacent physical subcarriers (ASCA permutation), so a subband is both
a contiguous block of subchannel rows and a contiguous subcarrier range.
"""

from __future__ import annotations

from dataclasses import dataclass

SUBCARRIERS_PER_SUBCHANNEL = 24


class ConfigurationError(ValueError):
    """Raised for inconsistent frame/scenario parameters."""


@dataclass(frozen=True)
class FrameGeometry:
    """Dimensions of the DL slot grid and its subband split.

    num_subchannels: subchannel rows (SC)
    num_columns: slot columns in the DL subframe (DL_sl)
    num_subbands: subband count (SB)
    max_subbands: largest subband count the deployment sweeps over (MSB)
    """

    num_subchannels: int
    num_columns: int
    num_subbands: int
    max_subbands: int = 6

    def __post_init__(self):
        if self.num_subchannels <= 0 or self.num_columns < 2:
            raise ConfigurationError(
                f"need positive subchannels and >=2 columns, got "
                f"SC={self.num_subchannels}, DL_sl={self.num_columns}"
            )
        if not (1 <= self.num_subbands <= self.max_subbands):
            raise ConfigurationError(
                f"subband count {self.num_subbands} outside [1, {self.max_subbands}]"
            )
        if self.num_subchannels % self.num_subbands != 0:
            raise ConfigurationError(
                f"SC={self.num_subchannels} not divisible by SB={self.num_subbands}"
            )

    @property
    def rows_per_subband(self) -> int:
        return self.num_subchannels // self.num_subbands

    @property
    def frame_size_slots(self) -> int:
        return self.num_subchannels * self.num_columns

    @property
    def num_subcarriers(self) -> int:
        return self.num_subchannels * SUBCARRIERS_PER_SUBCHANNEL


@dataclass(frozen=True)
class SubbandSpec:
    """Subband `index`: the index-th block of rows_per_subband subchannel
    rows, and the subcarrier range [subcarrier_lo, subcarrier_hi) it covers."""

    index: int
    subcarrier_lo: int
    subcarrier_hi: int


def partition_frame(geometry: FrameGeometry) -> list[SubbandSpec]:
    """Split the frame into SB contiguous, equal-height subbands.

    Divisibility is enforced by FrameGeometry; this never truncates rows.
    """
    per = geometry.rows_per_subband
    spc = SUBCARRIERS_PER_SUBCHANNEL
    return [
        SubbandSpec(
            index=j,
            subcarrier_lo=j * per * spc,
            subcarrier_hi=(j + 1) * per * spc,
        )
        for j in range(geometry.num_subbands)
    ]
