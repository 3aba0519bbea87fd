"""Command-line entry point.

Exit codes: 0 all scenario assertions pass, 1 configuration error,
2 numeric assertion failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from . import __version__, reporting
from .config import SCENARIOS, ConfigError, parse_config, resolved_dict
from .experiments import (
    NumericCheckError,
    check_acceptance,
    run_acceptance,
    run_blowup,
    run_conservation,
    run_embedding_ensembles,
    run_identity,
    run_morawetz,
    run_scattering,
    run_simulation,
    run_strichartz_ensemble,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ounls",
        description="Pseudospectral runs and verification scenarios for the "
        "Ornstein-Uhlenbeck-confined NLS models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in SCENARIOS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to an INI config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument("--out", default=None, help="output directory (overrides run.out)")
        p.add_argument("--seed", type=int, default=None, help="ensemble seed")
        p.add_argument("--threads", type=int, default=None, help="ensemble workers")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    # the flags are the last overrides, so they win over the file and --set
    flags = {"scenario": args.command, "seed": args.seed, "threads": args.threads,
             "out": args.out}
    overrides = args.overrides + [
        f"run.{key}={value}" for key, value in flags.items() if value is not None
    ]
    try:
        cfg = parse_config(args.config, overrides)
        if args.command == "all":
            check_acceptance(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    outputs = []
    runs = []  # (the config a report ran on, the report)
    try:
        if args.command == "simulate":
            records, state = run_simulation(cfg)
            path = os.path.join(cfg.out_dir, "diagnostics.csv")
            reporting.emit_diagnostics(records, path)
            outputs.append(path)
            rep = reporting.Report("simulate")
            rep.add("completed_unflagged", float(state.blowup_flag), 0.0, comparator="==")
            runs.append((cfg, rep))
        elif args.command == "all":
            runs = run_acceptance(cfg)
        else:
            runner = {
                "conservation": run_conservation,
                "strichartz": run_strichartz_ensemble,
                "embeddings": run_embedding_ensembles,
                "scattering": run_scattering,
                "blowup": run_blowup,
                "identity": run_identity,
                "morawetz": run_morawetz,
            }[args.command]
            runs = [(cfg, runner(cfg))]
    except NumericCheckError as exc:
        print(f"numeric assertion failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except reporting.OutputError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        all_passed = True
        row_configs = {}
        for i, (run_cfg, rep) in enumerate(runs):
            stem = rep.scenario.split("(")[0]
            rep_path = os.path.join(cfg.out_dir, f"report_{i:02d}_{stem}.jsonl")
            reporting.emit_report(rep, rep_path)
            outputs.append(rep_path)
            # the resolved config of this report, beside it: an acceptance
            # row runs on its own box, grid and horizon, not the base config;
            # runner_settings holds what the runner fixed in place of config
            # entries (exponent pairs, identity grids, leg signs)
            cfg_path = os.path.join(cfg.out_dir, f"config_{i:02d}_{stem}.json")
            resolved = resolved_dict(replace(run_cfg, scenario=stem))
            resolved["runner_settings"] = rep.settings
            reporting.write_json(cfg_path, resolved)
            outputs.append(cfg_path)
            row_configs[os.path.basename(rep_path)] = os.path.basename(cfg_path)
            if rep.rows:
                rows_path = os.path.join(cfg.out_dir, f"rows_{i:02d}_{stem}.csv")
                reporting.emit_rows(rep.rows, rows_path)
                outputs.append(rows_path)
            for name, array in rep.artifacts.items():
                snap_path = os.path.join(cfg.out_dir, f"{name}_{i:02d}.bin")
                reporting.save_field(snap_path, array)
                outputs.append(snap_path)
            for check in rep.checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"[{status}] {rep.scenario}: {check.name} "
                      f"value={check.value:.6g} {check.gate} {check.note}")
            for note in rep.notes:
                print(f"       {rep.scenario}: {note}")
            all_passed &= rep.passed
        reporting.write_manifest(
            cfg.out_dir, resolved_dict(cfg), cfg.seed, started, outputs, __version__,
            row_configs,
        )
    except (reporting.OutputError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    return EXIT_OK if all_passed else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
