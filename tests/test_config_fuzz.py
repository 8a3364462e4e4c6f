"""Fuzzed tiny scenarios: a config is either rejected at construction with a
ConfigurationError or runs a whole drop without raising."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sdma_fss.experiment import ScenarioConfig, drop_frames, run_drop
from sdma_fss.geometry import ConfigurationError

HOSTILE_FLOATS = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan,
                  "5e-3", False]
HOSTILE_INTS = [0, -1, -(2**63), 2.5, math.nan, math.inf, "2", True]
HOSTILE_FLAGS = ["false", "no", "", 0, 1, None, math.nan]

# Typical values of every numeric field, kept tiny: K in 0..4, M in 1..3,
# at most 12 subchannels unless a default bandwidth geometry is drawn, at
# most 3 frames.
TYPICAL = {
    "bandwidth_mhz": st.sampled_from([5.0, 10.0, 20.0]),
    "num_antennas": st.integers(1, 3),
    "num_ms": st.integers(0, 4),
    "num_subbands": st.sampled_from([1, 2, 3, 6]),
    "max_subbands": st.sampled_from([6, 12]),
    "los": st.booleans(),
    "fft_size": st.sampled_from([None, 512, 2048]),
    "num_subchannels": st.sampled_from([None, 6, 12]),
    "dl_columns": st.integers(2, 12),
    "subcarrier_spacing_hz": st.floats(1e3, 2e4),
    "frame_duration_s": st.floats(1e-3, 1e-2),
    "frames_per_drop": st.integers(1, 3),
    "num_seeds": st.integers(1, 4),
    "csi_decimation": st.integers(1, 64),
    "tx_power_dbm": st.floats(0.0, 60.0),
    "noise_density_dbm_hz": st.floats(-180.0, -120.0),
    "cell_radius_m": st.floats(50.0, 2000.0),
    "min_distance_m": st.floats(1.0, 50.0),
    "num_taps": st.integers(1, 8),
    "rms_delay_spread_us": st.floats(0.01, 5.0),
    "ricean_k_db": st.floats(-20.0, 30.0),
    "pathloss_exponent_nlos": st.floats(1.5, 5.0),
    "pathloss_exponent_los": st.floats(1.5, 5.0),
    "saturated_traffic": st.booleans(),
    "offered_bytes_per_frame_total": st.floats(0.0, 2e4),
    "buffer_capacity_bytes": st.integers(0, 20000),
    "max_groups_per_subband": st.sampled_from([None, 1, 2, 3]),
    "allow_displacement": st.booleans(),
}

# Hostile values per field: signs, zeros, extremes, non-finite values,
# floats where a count belongs, and strings, numbers or bools where a value
# of another type belongs. Values that are valid but merely large (many
# frames, MSs or taps) cost time linear in the value; they are not errors
# and are left out. Loads and buffers are capped at 10**7 bytes.
FLAGS = ("los", "saturated_traffic", "allow_displacement")
COUNTS = ("num_antennas", "num_ms", "num_subbands", "max_subbands", "fft_size",
          "num_subchannels", "dl_columns", "frames_per_drop", "num_seeds", "num_taps",
          "max_groups_per_subband")
HOSTILE = {
    name: HOSTILE_FLAGS if name in FLAGS else HOSTILE_INTS if name in COUNTS else HOSTILE_FLOATS
    for name in TYPICAL
}
HOSTILE["bandwidth_mhz"] = HOSTILE_FLOATS + [7.0]  # no default geometry
HOSTILE["csi_decimation"] = HOSTILE_INTS + [145, 10**9]
HOSTILE["offered_bytes_per_frame_total"] = HOSTILE_FLOATS + [2.0**53, 1e7 + 1]
HOSTILE["buffer_capacity_bytes"] = HOSTILE_INTS + [1e300, 2**53, 2**63, 10**7 + 1]
for name in ("tx_power_dbm", "noise_density_dbm_hz", "ricean_k_db"):
    HOSTILE[name] = HOSTILE_FLOATS + [-2999.0, 2999.0]  # just inside the +-3000 dB bound


@st.composite
def tiny_configs(draw) -> dict:
    """Typical values everywhere, then up to two fields made hostile."""
    raw = {name: draw(values) for name, values in TYPICAL.items()}
    for name in draw(st.lists(st.sampled_from(sorted(HOSTILE)), max_size=2, unique=True)):
        raw[name] = draw(st.sampled_from(HOSTILE[name]))
    return raw


@settings(max_examples=400)
@given(raw=tiny_configs(), seed=st.integers(0, 2**64 - 1))
def test_fuzzed_configs_reject_or_run(raw, seed):
    try:
        cfg = ScenarioConfig(**raw)
    except ConfigurationError:
        return
    m = run_drop(cfg, seed)
    assert m.frames == cfg.frames_per_drop
    assert len(m.per_ms_served_bytes) == cfg.num_ms
    assert m.transmitted_bytes == sum(m.per_ms_served_bytes)
    assert 0.0 <= m.map_overhead_fraction <= m.map_overhead_columns_fraction <= 1.0
    # generated = transmitted + dropped + queued, with nothing queued below 0
    queued = 0
    for tstats, _, served in drop_frames(cfg, seed):
        assert 0 <= tstats.dropped_bytes <= tstats.generated_bytes
        queued += tstats.generated_bytes - tstats.dropped_bytes - sum(served.values())
        assert queued >= 0
    assert m.generated_bytes == m.transmitted_bytes + m.dropped_bytes + queued
