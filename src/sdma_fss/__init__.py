"""Packet-level SDMA-OFDMA downlink simulator with frequency-selective
scheduling, per-subband SDMA grouping and explicit DL-MAP overhead."""

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
    MapModel,
    OfdmaFrame,
    frame_construction,
    initial_vertical_limit,
    map_size_slots,
    pack_group_area,
    predict_map_size,
    render_frame,
)
from .geometry import ConfigurationError, FrameGeometry, SubbandSpec, partition_frame
from .grouping import GroupingResult, SdmaGroup, form_groups, group_metric
from .phy import (
    LinkResult,
    McsEntry,
    McsTable,
    compute_sinr,
    default_mcs_table,
    eesm_batch,
    minmse_weights,
    select_mcs_batch,
)
from .qos import (
    CandidateList,
    Flow,
    Packet,
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
    report,
    run_drop,
    run_sweep,
)
