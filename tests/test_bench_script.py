"""The claim check of scripts/bench.py, the BENCH trajectory's recorder."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_recorder", SCRIPT)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)


def workload(seeds, values):
    """A record's workload entry: per end-to-end metric, the summary of its
    values at the seeds given."""
    return {"seeds": seeds,
            "end_to_end": {m: recorder.summary(values[m]) for m in recorder.END_TO_END}}


def test_claim_check_gives_one_verdict_per_line():
    seeds = list(range(10))
    base = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
    flat = {m: base for m in recorder.END_TO_END}
    mine = dict(flat)
    mine["frames_per_s"] = [v + 10.0 for v in base]  # better in 10/10, by 10 > IQR
    mine["cpu_ms_per_frame"] = [v * 1.3 for v in base]  # 30 % worse, bound 25 %
    mine["drop_ms_p50"] = [v * 0.9 for v in base[:8]] + base[8:]  # 8/10 better, not enough
    mine["drop_ms_p90"] = [v - 1.0 for v in base]  # 10/10 better, by 1 < IQR
    mine["setup_s"] = [v * 1.2 for v in base]  # 20 % worse, within its 25 % bound
    subject = {"workloads": {"w": workload(seeds, mine)},
               "baselines": {"23": {"workloads": {"w": workload(seeds, flat)}}}}
    lines = recorder.claim_check(subject)
    verdicts = {line.split(":")[0]: line.rsplit(": ", 1)[1] for line in lines}
    assert verdicts == {
        "w frames_per_s": "gain",
        "w cpu_ms_per_frame": "worse beyond bound",
        "w drop_ms_p50": "within noise",
        "w drop_ms_p90": "within noise",
        "w setup_s": "within noise",
        "w peak_rss_mib": "within noise",
    }
    assert "better in 10/10 pairs" in lines[0] and "(PR 23)" in lines[0]


def test_compile_bytecode_writes_pycache_under_dontwritebytecode(tmp_path, monkeypatch):
    # setup_s must not time a compile: the recorder writes each checkout's
    # bytecode before its first run, whatever the calling shell sets
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for name in ("src/pkg/mod.py", "perfbench/tool.py"):
        (tmp_path / name).parent.mkdir(parents=True)
        (tmp_path / name).write_text("X = 1\n")
    recorder.compile_bytecode(tmp_path)
    assert [p.name.split(".")[0] for p in (tmp_path / "src" / "pkg" / "__pycache__").iterdir()] \
        == ["mod"]
    assert [p.name.split(".")[0] for p in (tmp_path / "perfbench" / "__pycache__").iterdir()] \
        == ["tool"]
