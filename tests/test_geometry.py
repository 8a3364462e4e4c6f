import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdma_fss.geometry import ConfigurationError, FrameGeometry, partition_frame


def test_equal_split():
    g = FrameGeometry(num_subchannels=30, num_columns=17, num_subbands=3)
    subbands = partition_frame(g)
    assert len(subbands) == 3
    assert [sb.index * g.rows_per_subband for sb in subbands] == [0, 10, 20]
    assert subbands[1].subcarrier_lo == 240 and subbands[1].subcarrier_hi == 480


def test_single_subband_is_whole_band():
    g = FrameGeometry(num_subchannels=30, num_columns=17, num_subbands=1)
    (sb,) = partition_frame(g)
    assert sb.index == 0 and g.rows_per_subband == 30
    assert sb.subcarrier_lo == 0 and sb.subcarrier_hi == g.num_subcarriers


def test_nondivisible_rejected():
    with pytest.raises(ConfigurationError):
        FrameGeometry(num_subchannels=30, num_columns=17, num_subbands=4)


def test_bad_dimensions_rejected():
    with pytest.raises(ConfigurationError):
        FrameGeometry(num_subchannels=0, num_columns=17, num_subbands=1)
    with pytest.raises(ConfigurationError):
        FrameGeometry(num_subchannels=30, num_columns=1, num_subbands=1)
    with pytest.raises(ConfigurationError):
        FrameGeometry(num_subchannels=30, num_columns=17, num_subbands=7, max_subbands=6)


@given(
    scsb=st.integers(min_value=1, max_value=8),
    sb=st.integers(min_value=1, max_value=6),
    dl=st.integers(min_value=2, max_value=40),
)
def test_partition_covers_frame(scsb, sb, dl):
    g = FrameGeometry(num_subchannels=scsb * sb, num_columns=dl, num_subbands=sb)
    subbands = partition_frame(g)
    per = g.rows_per_subband
    rows = [r for s in subbands for r in range(s.index * per, (s.index + 1) * per)]
    assert rows == list(range(g.num_subchannels))
    subcarriers = [c for s in subbands for c in range(s.subcarrier_lo, s.subcarrier_hi)]
    assert subcarriers == list(range(g.num_subcarriers))
    assert g.frame_size_slots == g.num_subchannels * dl
