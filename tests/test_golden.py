"""Golden pins: small sweeps and rendered frames must reproduce recorded bytes.

Each `tests/golden/<name>.json` is a scenario config with a sweep section;
`tests/golden/<name>/` holds the `rows.csv` and `flows.csv` it produced.
Together the two sweeps cover every sweep axis (bandwidth, antennas, users,
subbands, LOS), both traffic modes and both sides of the swept-bandwidth
geometry rule. A refactor must leave these bytes alone; changing them is a
behaviour change. To re-record after one:

    PYTHONPATH=src python -m sdma_fss.cli sweep \
        --config tests/golden/<name>.json --out tests/golden/<name>

and delete the `manifest.json` it writes next to the CSVs.

`tests/golden/frames/<case>.txt` holds the `synth.render_frame` text of the
FRAMES frames of one drop per case in FRAME_CASES, as `drop_frames` (the
generator whose frames `run_drop` totals) yields them. The CSV pins see
only per-drop totals; these see every burst, member, MCS and packet id.
Re-record them with

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from sdma_fss.cli import main as cli_main
from sdma_fss.experiment import ScenarioConfig, drop_frames
from synth import render_frame

GOLDEN = Path(__file__).parent / "golden"
FRAMES = 4
FRAME_SEED = 0


def _case(**fields) -> ScenarioConfig:
    return ScenarioConfig(num_ms=12, frames_per_drop=FRAMES, **fields)


FRAME_CASES = {
    f"bw{bw:g}_m{m}_sb{sb}": _case(bandwidth_mhz=bw, num_antennas=m, num_subbands=sb)
    for bw in (5.0, 20.0) for m in (2, 8) for sb in (1, 3, 6)
}
FRAME_CASES.update(
    # the default `sdma-fss run` scenario at SB=6, which perfbench's
    # saturated_long workload runs for 100 frames; its displacement twin
    # commits the same bursts (23 of its 47 commits replace a burst, each by
    # a burst of the same group), so the two files are equal
    bw10_m4_sb6=_case(num_subbands=6),
    displace_bw10_m4_sb6=_case(num_subbands=6, allow_displacement=True),
    # with displacement on, these two drops build frames that differ from
    # their grow-only twins
    displace_bw20_m2_sb6=_case(
        bandwidth_mhz=20.0, num_antennas=2, num_subbands=6, allow_displacement=True
    ),
    displace_bw5_m8_sb6_nlos=_case(
        bandwidth_mhz=5.0, num_antennas=8, num_subbands=6, los=False, allow_displacement=True
    ),
)


def render_drop(cfg: ScenarioConfig, seed: int) -> str:
    """`render_frame` of every frame `drop_frames` builds for one drop."""
    geometry = cfg.geometry()
    return "".join(
        f"# frame {i}\n{render_frame(rec.frame, geometry)}\n"
        for i, rec in enumerate(drop_frames(cfg, seed))
    )


@pytest.mark.parametrize("name", ["saturated", "finite_rate"])
def test_sweep_matches_golden_bytes(name, tmp_path):
    config = GOLDEN / f"{name}.json"
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    for csv_name in ("rows.csv", "flows.csv"):
        got = (tmp_path / csv_name).read_bytes()
        assert got == (GOLDEN / name / csv_name).read_bytes(), csv_name


@pytest.mark.parametrize("case", sorted(FRAME_CASES))
def test_rendered_frames_match_golden_bytes(case):
    got = render_drop(FRAME_CASES[case], FRAME_SEED).encode()
    assert got == (GOLDEN / "frames" / f"{case}.txt").read_bytes()


if __name__ == "__main__":
    out = GOLDEN / "frames"
    out.mkdir(exist_ok=True)
    for case, cfg in FRAME_CASES.items():
        (out / f"{case}.txt").write_bytes(render_drop(cfg, FRAME_SEED).encode())
