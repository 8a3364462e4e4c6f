"""Golden pin: two small sweeps must reproduce their recorded CSV bytes.

Each `tests/golden/<name>.json` is a scenario config with a sweep section;
`tests/golden/<name>/` holds the `rows.csv` and `flows.csv` it produced.
Together the two sweeps cover every sweep axis (bandwidth, antennas, users,
subbands, LOS), both traffic modes and both sides of the swept-bandwidth
geometry rule. A refactor must leave these bytes alone; changing them is a
behaviour change. To re-record after one:

    PYTHONPATH=src python -m sdma_fss.cli sweep \
        --config tests/golden/<name>.json --out tests/golden/<name>

and delete the `manifest.json` it writes next to the CSVs.
"""

from pathlib import Path

import pytest

from sdma_fss.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["saturated", "finite_rate"])
def test_sweep_matches_golden_bytes(name, tmp_path):
    config = GOLDEN / f"{name}.json"
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    for csv_name in ("rows.csv", "flows.csv"):
        got = (tmp_path / csv_name).read_bytes()
        assert got == (GOLDEN / name / csv_name).read_bytes(), csv_name
