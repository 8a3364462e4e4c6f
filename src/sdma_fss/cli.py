"""Command-line interface: run one scenario, sweep a grid, or aggregate rows."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .experiment import (
    ScenarioConfig,
    SweepSpec,
    read_rows,
    report,
    run_drop,
    run_sweep,
)
from .geometry import ConfigurationError


def _load_config(path: str | None) -> tuple[ScenarioConfig, dict]:
    if path is None:
        return ScenarioConfig(), {}
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: a config must be a JSON object, got {raw!r}")
    sweep_raw = raw.pop("sweep", None)
    if not isinstance(sweep_raw, (dict, type(None))):
        raise ConfigurationError(f"the sweep section must be a JSON object, got {sweep_raw!r}")
    return ScenarioConfig.from_dict(raw), sweep_raw or {}


def _parse_seeds(spec: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = spec.split(":", 1)
            return list(range(int(lo), int(hi)))
        return [int(s) for s in spec.split(",")]
    except ValueError:
        raise ConfigurationError(f"bad --seeds {spec!r}: want lo:hi or a comma list") from None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="sdma-fss")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a single scenario drop")
    p_run.add_argument("--config", help="JSON scenario config")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", help="directory for metrics.json")

    p_sweep = sub.add_parser("sweep", help="run the configured parameter grid")
    p_sweep.add_argument("--config", help="JSON scenario config with optional sweep section")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--seeds", help="seed range lo:hi or comma list (overrides config)")

    p_rep = sub.add_parser("report", help="aggregate raw sweep rows")
    p_rep.add_argument("--rows", required=True, help="rows.csv from a sweep")
    p_rep.add_argument("--out", help="directory for summary.csv/summary.txt")

    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            cfg, _ = _load_config(args.config)
            metrics = run_drop(cfg, args.seed)
            payload = asdict(metrics)
            print(json.dumps(payload, indent=2))
            if args.out:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / "metrics.json").write_text(json.dumps(payload, indent=2))
        elif args.command == "sweep":
            cfg, sweep_raw = _load_config(args.config)
            if args.seeds:
                sweep_raw["seeds"] = _parse_seeds(args.seeds)
            sweep = SweepSpec.from_config(cfg, sweep_raw)
            rows = run_sweep(cfg, sweep, jobs=args.jobs, out_dir=Path(args.out))
            errors = sum(1 for r in rows if r.get("error"))
            print(f"{len(rows)} rows ({errors} failed) -> {args.out}/rows.csv")
        elif args.command == "report":
            rows = read_rows(args.rows)
            out = Path(args.out) if args.out else None
            print(report(rows, out_dir=out))
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
