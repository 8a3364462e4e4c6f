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
