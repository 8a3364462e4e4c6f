import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdma_fss
from sdma_fss import experiment
from sdma_fss.cli import _load_config as load_config
from sdma_fss.cli import main as cli_main
from sdma_fss.experiment import (
    CSV_COLUMNS,
    SWEEP_AXES,
    ScenarioConfig,
    SweepSpec,
    jain_index,
    read_rows,
    report,
    run_drop,
    run_sweep,
    summarize,
)
from sdma_fss.geometry import ConfigurationError

STUDIES = Path(__file__).parent.parent / "scripts"


def tiny_cfg(**kw):
    base = dict(
        bandwidth_mhz=10.0,
        fft_size=256,
        num_subchannels=6,
        dl_columns=8,
        num_antennas=2,
        num_ms=3,
        num_subbands=3,
        frames_per_drop=3,
        csi_decimation=4,
        los=False,
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("cfg", [
    tiny_cfg(num_ms=0),
    # no packet ever arrives: every frame is idle, over a drawn channel
    tiny_cfg(num_ms=12, saturated_traffic=False, offered_bytes_per_frame_total=0.0),
], ids=["no_users", "zero_load"])
def test_zero_users_map_only(cfg):
    m = run_drop(cfg, seed=0)
    assert m.goodput_bytes_per_s == 0.0
    assert m.transmitted_bytes == 0
    # fixed MAP part only: ceil(88/48) = 2 slots out of 48
    assert m.map_overhead_fraction == pytest.approx(2 / 48)
    assert m.per_ms_served_bytes == [0] * cfg.num_ms
    assert m.jain_fairness == 1.0


def test_infinite_noise_schedules_nothing():
    m = run_drop(tiny_cfg(noise_density_dbm_hz=-20.0), seed=1)
    assert m.transmitted_bytes == 0
    assert m.goodput_bytes_per_s == 0.0
    assert m.map_overhead_fraction == pytest.approx(2 / 48)


def test_run_drop_deterministic():
    cfg = tiny_cfg()
    a = run_drop(cfg, seed=3)
    b = run_drop(cfg, seed=3)
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db
    c = dataclasses.asdict(run_drop(cfg, seed=4))
    c.pop("wall_time_s")
    assert c != da


def test_accounting_identity():
    cfg = tiny_cfg(frames_per_drop=5)
    m = run_drop(cfg, seed=7)
    assert m.transmitted_bytes > 0
    assert m.goodput_bytes_per_s * cfg.frames_per_drop * cfg.frame_duration_s == pytest.approx(
        m.transmitted_bytes
    )
    assert m.transmitted_bytes == sum(m.per_ms_served_bytes)
    assert m.generated_bytes >= m.transmitted_bytes


def test_overhead_fractions_consistent():
    m = run_drop(tiny_cfg(frames_per_drop=4), seed=5)
    # full-column quantization can only increase the fraction
    assert 0.0 <= m.map_overhead_fraction <= m.map_overhead_columns_fraction <= 1.0


def test_jain_index():
    assert jain_index([5, 5, 5]) == pytest.approx(1.0)
    assert jain_index([1, 0, 0]) == pytest.approx(1 / 3)
    assert jain_index([]) == 1.0


def test_pf_fairness_symmetric_placement():
    # all MSs at the same distance; fading is static within a drop, so the
    # long run is the aggregate over independent drops
    cfg = tiny_cfg(
        num_ms=8,
        num_subbands=2,
        frames_per_drop=96,
        cell_radius_m=150.0,
        min_distance_m=150.0,
    )
    total = np.zeros(cfg.num_ms)
    for seed in range(12):
        total += np.array(run_drop(cfg, seed).per_ms_served_bytes)
    assert jain_index(total) >= 0.9


def test_mcs_table_via_config(tmp_path):
    from sdma_fss.phy import default_mcs_table

    path = tmp_path / "mcs.json"
    entries = [dataclasses.asdict(e) for e in default_mcs_table().entries]
    path.write_text(json.dumps({"entries": entries}))
    cfg = tiny_cfg(mcs_table_path=str(path))
    assert cfg.mcs_table() == default_mcs_table()
    a = run_drop(cfg, seed=1)
    b = run_drop(tiny_cfg(), seed=1)
    assert a.transmitted_bytes == b.transmitted_bytes


# MCS table files that used to raise KeyError, TypeError or FileNotFoundError
# from inside a drop, so one of them aborted a whole sweep
BAD_TABLES = {
    "empty": "{}",
    "no_beta": json.dumps({"entries": [{"name": "a", "min_sinr_db": 3.0, "bytes_per_slot": 6}]}),
    "extra_field": json.dumps({"entries": [
        {"name": "a", "min_sinr_db": 3.0, "bytes_per_slot": 6, "beta": 1.0, "rate": 1}]}),
    "string_beta": json.dumps({"entries": [
        {"name": "a", "min_sinr_db": 3.0, "bytes_per_slot": 6, "beta": "1.0"}]}),
    "not_a_dict": "[1, 2]",
    "no_entries": json.dumps({"entries": []}),
    "not_json": "{entries",
    "missing": None,
}


def bad_table(tmp_path, kind) -> str:
    path = tmp_path / f"{kind}.json"
    if BAD_TABLES[kind] is not None:
        path.write_text(BAD_TABLES[kind])
    return str(path)


@pytest.mark.parametrize("kind", list(BAD_TABLES))
def test_bad_mcs_table_rejected_at_construction(tmp_path, kind):
    path = bad_table(tmp_path, kind)
    with pytest.raises(ConfigurationError, match=re.escape(f"MCS table {path!r}")):
        tiny_cfg(mcs_table_path=path)
    if kind != "missing":  # the loader itself names malformed content a ValueError
        with pytest.raises(ValueError):
            sdma_fss.McsTable.from_json(path)


@pytest.mark.parametrize("kind", ["empty", "no_beta", "missing"])
def test_bad_mcs_table_gives_error_rows(tmp_path, kind):
    # a table file that goes bad after the base config was built fails each
    # cell's config with an error row; the sweep runs to the end
    path = tmp_path / "mcs.json"
    entries = [dataclasses.asdict(e) for e in sdma_fss.default_mcs_table().entries]
    path.write_text(json.dumps({"entries": entries}))
    cfg = tiny_cfg(frames_per_drop=1, mcs_table_path=str(path))
    path.unlink()
    if BAD_TABLES[kind] is not None:
        path.write_text(BAD_TABLES[kind])
    rows = run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0, 1]}), out_dir=tmp_path / "s")
    assert len(rows) == 2
    assert all(r["error"].startswith("ConfigurationError: MCS table") for r in rows)
    assert len(read_rows(tmp_path / "s" / "rows.csv")) == 2


@pytest.mark.parametrize("kind", ["empty", "no_beta", "missing"])
def test_cli_bad_mcs_table_exit_code(tmp_path, capsys, kind):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**tiny_cfg(frames_per_drop=1).to_dict(),
                                    "mcs_table_path": bad_table(tmp_path, kind)}))
    for argv in (["run"], ["sweep", "--out", str(tmp_path / "s")]):
        assert cli_main([*argv, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: MCS table ")
    assert not (tmp_path / "s").exists()


def test_sweep_one_row_per_seed(tmp_path):
    cfg = tiny_cfg(frames_per_drop=2)
    sweep = SweepSpec.from_config(cfg, {"seeds": [0, 1, 2]})
    rows = run_sweep(cfg, sweep, out_dir=tmp_path)
    assert len(rows) == 3
    assert all(not r["error"] for r in rows)
    disk = read_rows(tmp_path / "rows.csv")
    assert len(disk) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["rows"] == 3
    assert manifest["config"]["num_ms"] == cfg.num_ms
    flows = read_rows(tmp_path / "flows.csv")
    assert len(flows) == 3 * cfg.num_ms


def test_sweep_partial_failure_recorded():
    cfg = tiny_cfg(frames_per_drop=2)
    sweep = SweepSpec.from_config(cfg, {"subbands": [3, 5], "seeds": [0]})
    rows = run_sweep(cfg, sweep)
    by_sb = {int(r["num_subbands"]): r for r in rows}
    assert not by_sb[3]["error"]
    assert "ConfigurationError" in by_sb[5]["error"]  # 6 rows not divisible by 5


def test_sweep_propagates_internal_errors(monkeypatch):
    # only config errors (ValueError) become error rows; a bug must not
    # pass for a bad config
    def broken(cfg, seed):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(experiment, "run_drop", broken)
    cfg = tiny_cfg(frames_per_drop=2)
    with pytest.raises(RuntimeError, match="internal bug"):
        run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0]}))


def test_sweep_rejects_unknown_keys(tmp_path):
    cfg = tiny_cfg()
    with pytest.raises(ConfigurationError, match="antenna"):
        SweepSpec.from_config(cfg, {"antenna": [2, 8]})  # a typo of "antennas"
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps({**cfg.to_dict(), "sweep": {"seed": [0]}}))
    assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "s")]) == 2
    assert not (tmp_path / "s").exists()
    for path in [*STUDIES.glob("*.json"), *(Path(__file__).parent / "golden").glob("*.json")]:
        SweepSpec.from_config(*load_config(str(path)))


@pytest.mark.parametrize("raw", [
    {"seeds": [1.5]},  # was a TypeError in run_drop
    {"seeds": ["a"]},  # likewise
    {"seeds": []},
    {"seeds": 3},
    {"antennas": ["x"]},  # was a bare ValueError
    {"antennas": [2.5]},  # was cut to 2
    {"los": ["yes"]},  # was False
    {"subbands": []},
], ids=str)
def test_sweep_rejects_bad_values(raw):
    with pytest.raises(ConfigurationError, match=next(iter(raw))):
        SweepSpec.from_config(tiny_cfg(), raw)


def test_cli_bad_sweep_values_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**tiny_cfg().to_dict(), "sweep": {"antennas": ["x"]}}))
    assert cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    # zero or negative jobs used to run the sweep serially without a word
    cfg = tiny_cfg(frames_per_drop=1)
    with pytest.raises(ConfigurationError):
        run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0]}), jobs=jobs)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "s"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out), "--seeds", "0:1",
                     "--jobs", str(jobs)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_sweep_starts_at_most_one_worker_per_task(monkeypatch):
    # a fork start forks all max_workers up front, so --jobs 64 on a
    # two-task sweep must ask for two; the stand-in pool starts no process
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = tiny_cfg(frames_per_drop=1)
    two = SweepSpec.from_config(cfg, {"seeds": [0, 1]})
    serial = run_sweep(cfg, two, jobs=1)
    assert asked == []
    assert run_sweep(cfg, two, jobs=64) == serial
    assert asked == [2]
    run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0]}), jobs=64)
    assert asked == [2]  # one task runs in this process


def test_sweep_draws_one_channel_per_sibling_set(tmp_path, monkeypatch):
    # a CLI sweep over SB {1, 2, 3, 6} draws each seed's channel once for
    # its four splits, and writes the bytes of a sweep that draws it afresh
    # for every cell; the shared CSI is read-only
    draws = []
    generate = experiment.generate_channel

    def counted(params, seed):
        draws.append((params, seed))
        return generate(params, seed)

    monkeypatch.setattr(experiment, "generate_channel", counted)
    cfg = tiny_cfg(frames_per_drop=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg.to_dict(),
                                    "sweep": {"subbands": [1, 2, 3, 6], "seeds": [0, 1]}}))
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "shared")]) == 0
    assert [seed for _, seed in draws] == [0, 1] and draws[0][0] == cfg.channel_params()

    run_cell = experiment._run_cell

    def fresh(args):
        experiment._drop_csi.cache_clear()
        return run_cell(args)

    monkeypatch.setattr(experiment, "_run_cell", fresh)
    draws.clear()
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "fresh")]) == 0
    assert len(draws) == 8
    for name in ("rows.csv", "flows.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    csi = experiment._drop_csi(cfg.channel_params(), 1, cfg.csi_decimation, cfg.noise_power_w)
    assert len(draws) == 8  # the last cell's draw is still cached
    for a in (csi.samples, csi.sample_indices, csi.pathloss_db):
        assert not a.flags.writeable


def test_study_configs_match_their_grids():
    grids = {
        "bandwidth_study": ([5.0, 10.0, 20.0], [2, 4, 8], [12], [1, 2, 3, 6], [True]),
        "user_study": ([10.0], [2, 8], [12, 24, 36], [1, 2, 3, 6], [True]),
        "los_study": ([10.0], [4, 8], [12], [1, 2, 3, 6], [True, False]),
    }
    for name, axes in grids.items():
        cfg, sweep_raw = load_config(str(STUDIES / f"{name}.json"))
        sweep = SweepSpec.from_config(cfg, sweep_raw)
        assert [getattr(sweep, key) for key in SWEEP_AXES] == list(axes), name
        assert all(type(b) is float for b in sweep.bandwidths_mhz)
        assert sweep.seeds == list(range(64))
        assert cfg.frames_per_drop == 16


def test_summary_matches_reaggregation_oracle(tmp_path):
    cfg = tiny_cfg(frames_per_drop=2)
    sweep = SweepSpec.from_config(cfg, {"seeds": [0, 1, 2, 3]})
    run_sweep(cfg, sweep, out_dir=tmp_path)
    rows = read_rows(tmp_path / "rows.csv")
    summaries = summarize(rows)
    assert len(summaries) == 1
    vals = [float(r["goodput_bytes_per_s"]) for r in rows]
    assert summaries[0].goodput_mean == pytest.approx(np.mean(vals), rel=1e-12)
    assert summaries[0].goodput_ci95 == pytest.approx(
        1.96 * np.std(vals, ddof=1) / math.sqrt(len(vals)), rel=1e-12
    )


def fake_row(sb, seed, goodput, overhead=0.1, bw=10.0, m=2, k=12, los=True):
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(
        bandwidth_mhz=bw, num_antennas=m, num_ms=k, num_subbands=sb, los=los,
        seed=seed, goodput_bytes_per_s=repr(float(goodput)),
        map_overhead_fraction=repr(float(overhead)),
    )
    return row


def test_report_gain_zero_for_identical_goodput():
    rows = [fake_row(1, 0, 5e6), fake_row(6, 0, 5e6)]
    summaries = summarize(rows)
    gains = {s.num_subbands: s.fss_gain for s in summaries}
    assert gains[6] == pytest.approx(0.0)


def test_report_formats_gain_percentage():
    rows = [fake_row(1, 0, 1e6), fake_row(6, 0, 1.168e6)]
    text = report(rows)
    assert "+16.8%" in text


def test_report_single_row_ci_na():
    text = report([fake_row(1, 0, 1e6)])
    assert "n/a" in text


def test_summarize_skips_error_rows():
    failed = dict.fromkeys(CSV_COLUMNS, "")
    failed.update(bandwidth_mhz=10.0, num_antennas=2, num_ms=12, num_subbands=5, los=True,
                  seed=0, error="ConfigurationError: 6 rows not divisible by 5")
    rows = [fake_row(1, 0, 1e6), failed, fake_row(1, 1, 3e6)]
    (summary,) = summarize(rows)
    assert (summary.num_subbands, summary.n, summary.goodput_mean) == (1, 2, 2e6)


def test_report_missing_baseline_warns():
    text = report([fake_row(6, 0, 1e6)])
    assert "no single-subband baseline" in text


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioConfig(bandwidth_mhz=7.0)  # no defaults, nothing explicit
    with pytest.raises(ConfigurationError):
        ScenarioConfig.from_dict({"bogus_key": 1})
    with pytest.raises(ConfigurationError):
        tiny_cfg(num_subbands=4)  # 6 rows not divisible
    with pytest.raises(ConfigurationError):
        tiny_cfg(fft_size=64)  # 144 data subcarriers > 64 FFT
    with pytest.raises(ConfigurationError):
        tiny_cfg(csi_decimation=0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(frames_per_drop=0)  # was a ZeroDivisionError at the end of run_drop
    with pytest.raises(ConfigurationError):
        tiny_cfg(frame_duration_s=0.0)  # likewise
    with pytest.raises(ConfigurationError):
        tiny_cfg(saturated_traffic=False, offered_bytes_per_frame_total=-1.0)
    # each of these used to run: on an inverted annulus, transmitting 0
    # bytes, or raising ValueError or LinAlgError in every drop
    for bad in [
        dict(min_distance_m=500.0),
        dict(cell_radius_m=math.nan),
        dict(buffer_capacity_bytes=-1),
        dict(tx_power_dbm=math.inf),
        dict(tx_power_dbm=math.nan),
        dict(noise_density_dbm_hz=-math.inf),
        dict(num_taps=0),
        dict(rms_delay_spread_us=0.0),
        dict(max_groups_per_subband=0),
        dict(subcarrier_spacing_hz=-10937.5),
        dict(subcarrier_spacing_hz=0.0),
        dict(subcarrier_spacing_hz=math.inf),
        dict(pathloss_exponent_los=-2.6),
        dict(pathloss_exponent_nlos=math.nan),
        dict(cell_radius_m=-100.0, min_distance_m=-200.0),
        dict(min_distance_m=0.0),
        dict(ricean_k_db=math.nan),
        dict(saturated_traffic=False, offered_bytes_per_frame_total=math.inf),  # never returned
        dict(saturated_traffic=False, offered_bytes_per_frame_total=math.nan),
        dict(saturated_traffic=False, offered_bytes_per_frame_total=1e300),  # never returned
        dict(saturated_traffic=False, offered_bytes_per_frame_total=2.0**53),
        dict(cell_radius_m=math.inf),
        dict(frame_duration_s=math.inf),
        dict(num_seeds=0),  # a sweep without seeds then failed on an empty seed list
        dict(num_seeds=-3),
        dict(buffer_capacity_bytes=math.inf),  # saturated top-up would never stop
        # found by tests/test_config_fuzz.py: each raised mid-run or never returned
        dict(buffer_capacity_bytes=1e300),
        dict(num_ms=2.5),
        dict(num_antennas=math.nan),
        dict(dl_columns=2.5),
        dict(csi_decimation=100),  # subband 1, subcarriers [48, 96), holds no multiple of 100
        dict(cell_radius_m=1e300),
        dict(los=True, ricean_k_db=1e300),
        dict(tx_power_dbm=1e300),
        dict(rms_delay_spread_us=5e-324),
        dict(subcarrier_spacing_hz=5e-324),  # the noise power underflows to 0 W
        dict(subcarrier_spacing_hz=1e300, rms_delay_spread_us=1e300),  # tap phases overflow
        # a flag or number of the wrong type: the strings ran as True, the
        # numbers raised TypeError mid-validation, and True ran as 1
        dict(los="false"),
        dict(saturated_traffic="false"),
        dict(allow_displacement="no"),
        dict(los=1),
        dict(tx_power_dbm="46"),
        dict(frame_duration_s="5e-3"),
        dict(num_subbands=True),
        dict(max_groups_per_subband=True),
        # a path that is no string: 7 opened file descriptor 7 at drop time,
        # and the others raised TypeError mid-run
        dict(mcs_table_path=7),
        dict(mcs_table_path=True),
        dict(mcs_table_path=["a"]),
    ]:
        with pytest.raises(ConfigurationError):
            tiny_cfg(**bad)


def test_traffic_load_and_buffer_capped_at_construction():
    # a saturated top-up holds memory linear in the buffer and a finite-rate
    # frame takes time linear in the load, so both stop at 10**7 bytes
    for field, top in (("buffer_capacity_bytes", 10**7), ("offered_bytes_per_frame_total", 1e7)):
        assert getattr(tiny_cfg(saturated_traffic=False, **{field: top}), field) == top
        with pytest.raises(ConfigurationError):
            tiny_cfg(saturated_traffic=False, **{field: top + 1})


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg.to_dict(), "sweep": {"seeds": [1]}}))
    back, sweep_raw = load_config(str(path))
    assert back == cfg
    assert sweep_raw == {"seeds": [1]}


def test_cli_run_and_report(tmp_path, capsys):
    cfg = tiny_cfg(frames_per_drop=2)
    cfg_path = tmp_path / "cfg.json"
    raw = cfg.to_dict()
    raw["sweep"] = {"seeds": [0, 1]}
    cfg_path.write_text(json.dumps(raw))

    assert cli_main(["run", "--config", str(cfg_path), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "goodput_bytes_per_s" in out

    sweep_dir = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(sweep_dir)]) == 0
    assert (sweep_dir / "rows.csv").exists()

    assert cli_main(["report", "--rows", str(sweep_dir / "rows.csv"),
                     "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "summary.csv").exists()


def test_cli_report_bad_key_cell_exit_code(tmp_path, capsys):
    # a key cell that is no number was a ValueError from int()
    cfg = tiny_cfg(frames_per_drop=1)
    run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0, 1]}), out_dir=tmp_path / "s")
    rows = read_rows(tmp_path / "s" / "rows.csv")
    rows[1]["num_antennas"] = "x"
    experiment.write_rows(tmp_path / "bad.csv", rows, CSV_COLUMNS)
    assert cli_main(["report", "--rows", str(tmp_path / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err and "num_antennas" in err


@pytest.mark.parametrize("column", ["goodput_bytes_per_s", "map_overhead_fraction"])
def test_cli_report_bad_value_cell_exit_code(tmp_path, capsys, column):
    # a value cell that is no number was a ValueError from float()
    cfg = tiny_cfg(frames_per_drop=1)
    run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0, 1]}), out_dir=tmp_path / "s")
    rows = read_rows(tmp_path / "s" / "rows.csv")
    rows[1][column] = "x"
    experiment.write_rows(tmp_path / "bad.csv", rows, CSV_COLUMNS)
    assert cli_main(["report", "--rows", str(tmp_path / "bad.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err and column in err


@pytest.mark.parametrize("command", ["run", "sweep", "report"])
def test_cli_directory_as_input_exit_code(tmp_path, capsys, monkeypatch, command):
    # a directory where a file belongs was an IsADirectoryError
    monkeypatch.chdir(tmp_path)
    argv = {"run": ["run", "--config", "."], "sweep": ["sweep", "--config", ".", "--out", "s"],
            "report": ["report", "--rows", "."]}[command]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s").exists()


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_subchannels": 6, "num_subbands": 4,
                               "fft_size": 256}))
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("raw", [
    [1, 2],  # was a TypeError from list.pop
    "cfg",
    {"sweep": [{}]},  # was a TypeError: unhashable type 'dict'
    {"sweep": 3},
], ids=str)
def test_cli_non_object_config_exit_code(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    for argv in (["run"], ["sweep", "--out", str(tmp_path / "s")],
                 ["sweep", "--out", str(tmp_path / "s"), "--seeds", "0:1"]):
        assert cli_main([*argv, "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s").exists()


def test_sweep_section_must_be_an_object():
    for raw in ([{}], [], 3):
        with pytest.raises(ConfigurationError, match="JSON object"):
            SweepSpec.from_config(tiny_cfg(), raw)


def test_cli_report_on_flows_names_missing_columns(tmp_path, capsys):
    # flows.csv has the key columns but no goodput: was a KeyError
    cfg = tiny_cfg(frames_per_drop=1)
    run_sweep(cfg, SweepSpec.from_config(cfg, {"seeds": [0]}), out_dir=tmp_path / "s")
    assert cli_main(["report", "--rows", str(tmp_path / "s" / "flows.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "goodput_bytes_per_s" in err and "map_overhead_fraction" in err
    assert "num_subbands" not in err


def test_cli_run_default_config_writes_printed_metrics(tmp_path, capsys):
    assert cli_main(["run", "--seed", "1", "--out", str(tmp_path / "r")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads((tmp_path / "r" / "metrics.json").read_text()) == printed
    want = dataclasses.asdict(run_drop(ScenarioConfig(), 1))
    assert {**printed, "wall_time_s": 0} == {**want, "wall_time_s": 0}


@pytest.mark.parametrize("seeds", ["abc", "1:x", "1,,2", "5:2"])  # 5:2 was an empty sweep
def test_cli_bad_seeds_exit_code(tmp_path, capsys, seeds):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_cfg(frames_per_drop=1).to_dict()))
    out = tmp_path / "s"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--seeds", seeds]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_seed_override(tmp_path):
    cfg = tiny_cfg(frames_per_drop=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "s"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--seeds", "5:7"]) == 0
    rows = read_rows(out / "rows.csv")
    assert [int(r["seed"]) for r in rows] == [5, 6]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads_unless_set(preset):
    # the CLI and the sweep's forked workers import the package, and so
    # numpy, before any of their own code runs
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(sdma_fss.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = f"import os, sdma_fss; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out == [preset or "1", "1", "1"]


def test_pin_after_numpy_import_warns_in_process(monkeypatch):
    # the subprocess case below, run in this interpreter (numpy is loaded)
    # so that a line trace of the suite sees the warning raised
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    monkeypatch.setattr(os, "environ", env)
    with pytest.warns(RuntimeWarning, match="numpy was imported before sdma_fss"):
        importlib.reload(sdma_fss)
    assert [env[v] for v in BLAS_VARS] == ["1", "1", "1"]


@pytest.mark.parametrize("preset", [(), BLAS_VARS[:1], BLAS_VARS])
def test_pin_after_numpy_import_warns(preset):
    # BLAS reads its thread count when numpy is first imported, so a pin
    # that sdma_fss sets after that has no effect; it says so unless the
    # caller had set every variable itself
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(sdma_fss.__file__).parents[1])
    env.update(dict.fromkeys(preset, "2"))
    code = "import numpy, warnings; warnings.simplefilter('error'); import sdma_fss"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    if len(preset) == len(BLAS_VARS):
        assert done.returncode == 0, done.stderr
    else:
        assert done.returncode != 0 and "RuntimeWarning" in done.stderr
        assert all((v in done.stderr) != (v in preset) for v in BLAS_VARS)
