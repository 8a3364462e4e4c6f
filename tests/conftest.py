import os

# One BLAS thread, as perfbench/bench.py pins it: the kernels work on small
# matrices, where extra OpenBLAS threads burn CPU without saving wall time.
# Must precede the first numpy import (hypothesis does not import it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hypothesis  # noqa: E402

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")

import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_channel_draws():
    """Every test starts without a cached drop CSI, so a test that wraps
    experiment.generate_channel sees every draw it asks for."""
    from sdma_fss import experiment

    experiment._drop_csi.cache_clear()
