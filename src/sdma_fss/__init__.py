"""Packet-level SDMA-OFDMA downlink simulator with frequency-selective
scheduling, per-subband SDMA grouping and explicit DL-MAP overhead."""

import os
import sys
import warnings

# BLAS on one thread unless the caller set otherwise, before the submodules
# import numpy (BLAS reads it then); forked `sweep --jobs N` workers inherit it.
_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
          if v not in os.environ]
os.environ.update(dict.fromkeys(_unset, "1"))
if _unset and "numpy" in sys.modules:
    warnings.warn(f"numpy was imported before sdma_fss, so pinning {', '.join(_unset)} "
                  "to 1 has no effect", RuntimeWarning, stacklevel=2)

__version__ = "0.1.0"

from .channel import (
    AntennaArrayConfig,
    ChannelParams,
    ChannelRealization,
    CsiReport,
    decimate_csi,
    generate_channel,
    subband_csi,
)
from .frame import (
    Burst,
    OfdmaFrame,
    frame_construction,
    initial_vertical_limit,
    pack_group_area,
    predict_map_size,
)
from .geometry import ConfigurationError, FrameGeometry, SubbandSpec, partition_frame
from .grouping import GroupingResult, SdmaGroup, form_groups
from .phy import (
    McsEntry,
    McsTable,
    compute_sinr,
    default_mcs_table,
    minmse_weights,
    select_mcs_batch,
)
from .qos import (
    CandidateList,
    Flow,
    TrafficParams,
    build_candidate_list,
    generate_traffic,
    make_flows,
    update_pf_averages,
)
from .experiment import (
    RunMetrics,
    ScenarioConfig,
    SweepSpec,
    drop_frames,
    report,
    run_drop,
    run_sweep,
)
