"""Command-line entry point.

Exit codes: 0 all scenario assertions pass, 1 configuration error,
2 numeric assertion failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, observables, reporting
from .config import ConfigError, ScenarioConfig, parse_config
from .experiments import (
    NumericCheckError,
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
    for name, help_text in (
        ("simulate", "integrate the configured model and emit diagnostics"),
        ("conservation", "mass/energy drift audit"),
        ("strichartz", "linear space-time ensemble boundedness proxy"),
        ("embeddings", "weighted Sobolev / nonlinear estimate ensembles"),
        ("scattering", "small-data pullback Cauchy ladder"),
        ("blowup", "focusing virial blow-up certificate"),
        ("identity", "divergence vs drift form operator identity"),
        ("morawetz", "interaction functional bound along a defocusing run"),
        ("all", "run the full acceptance scenario suite"),
    ):
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
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="ensemble seed")
        p.add_argument("--threads", type=int, default=None, help="ensemble workers")
    return parser


def _resolved_dict(cfg: ScenarioConfig) -> dict:
    return {
        "scenario": cfg.scenario,
        "model": {
            "model": cfg.model.model,
            "d": cfg.model.dim,
            "p": cfg.model.power,
            "sign": cfg.model.sign,
        },
        "grid": {
            "n_x": cfg.disc.n_x,
            "box_half_length": cfg.disc.resolved_box(cfg.model.dim),
            "n_alpha": cfg.disc.n_alpha,
            "div_nodes": cfg.disc.div_nodes,
            "div_half_width": cfg.disc.div_half_width,
            "dealias": cfg.disc.dealias,
        },
        "initial": vars(cfg.initial).copy(),
        "run": {
            "t": cfg.horizon,
            "dt": cfg.dt,
            "samples": cfg.n_samples,
            "seed": cfg.seed,
            "ensemble": cfg.ensemble,
            "threads": cfg.threads,
            "q": cfg.strichartz_q,
            "r": cfg.strichartz_r,
            "delta": cfg.scattering_delta,
        },
    }


def _acceptance_suite(cfg: ScenarioConfig):
    """The `all` subcommand: the full acceptance scenario set (criteria 2-9;
    the basis eigenvalue check of criterion 1 lives in the test suite)."""
    import math
    from dataclasses import replace

    from . import reporting
    from .models import DiscretizationSpec, ModelSpec

    cons_disc = DiscretizationSpec(n_x=256, box_half_length=8 * math.pi)
    blow_disc = DiscretizationSpec(n_x=128, box_half_length=4 * math.pi, div_nodes=257)
    reports = [run_identity(cfg)]
    for model, p in (("nondiv", 4), ("div", 2)):
        reports.append(
            run_conservation(
                replace(cfg, model=ModelSpec(model, 1, p), disc=cons_disc,
                        horizon=1.0, dt=1e-3, n_samples=101)
            )
        )
    stri_rows = {}
    for model in ("nondiv", "div"):
        stri = replace(cfg, model=ModelSpec(model, 1, 4), horizon=4.0,
                       disc=DiscretizationSpec(n_x=256), ensemble=64,
                       initial=replace(cfg.initial, band=8))
        report = run_strichartz_ensemble(stri, pairs=[(6.0, 6.0), (8.0, 4.0)])
        if model == "nondiv":
            stri_rows = {"cfg": stri, "rows": reporting.rows_csv_bytes(report.rows)}
        reports.append(report)
    emb = replace(cfg, model=ModelSpec("nondiv", 1, 2), ensemble=256,
                  initial=replace(cfg.initial, band=12))
    reports.append(run_embedding_ensembles(emb))
    reports.append(
        run_scattering(replace(cfg, model=ModelSpec("nondiv", 1, 4),
                               disc=DiscretizationSpec(n_x=256), horizon=16.0,
                               dt=1e-3))
    )
    reports.append(
        run_blowup(
            replace(cfg, model=ModelSpec("div", 1, 4), disc=blow_disc,
                    horizon=0.45, dt=1e-3)
        )
    )
    for model, p in (("div", 2), ("nondiv", 4)):
        reports.append(
            run_morawetz(
                replace(cfg, model=ModelSpec(model, 1, p), disc=cons_disc,
                        horizon=0.5, dt=1e-3)
            )
        )
    # determinism: the first ensemble rerun with the same seed must emit
    # byte-identical rows
    rerun = run_strichartz_ensemble(stri_rows["cfg"], pairs=[(6.0, 6.0), (8.0, 4.0)])
    det = reporting.Report("determinism")
    identical = reporting.rows_csv_bytes(rerun.rows) == stri_rows["rows"]
    det.add("byte_identical_rows", identical, float(identical), 1.0,
            note=f"{len(rerun.rows)} rows compared", comparator="==")
    reports.append(det)
    return reports


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = parse_config(args.config, args.overrides)
        cfg.scenario = args.command
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        cfg.out_dir = args.out
        if cfg.scenario == "strichartz":
            from .config import check_admissible_pair

            check_admissible_pair(cfg.strichartz_q, cfg.strichartz_r, cfg.model.dim)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    outputs = []
    reports = []
    try:
        if args.command == "simulate":
            records, state = run_simulation(cfg)
            path = os.path.join(cfg.out_dir, "diagnostics.csv")
            reporting.emit_diagnostics(records, path)
            outputs.append(path)
            rep = reporting.Report("simulate")
            rep.add("completed_unflagged", not state.blowup_flag,
                    float(state.blowup_flag), 0.0, comparator="==")
            reports.append(rep)
        elif args.command == "all":
            reports = _acceptance_suite(cfg)
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
            reports = [runner(cfg)]
    except NumericCheckError as exc:
        print(f"numeric assertion failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except reporting.OutputError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        all_passed = True
        for i, rep in enumerate(reports):
            stem = rep.scenario.split("(")[0]
            rep_path = os.path.join(cfg.out_dir, f"report_{i:02d}_{stem}.jsonl")
            reporting.emit_report(rep, rep_path)
            outputs.append(rep_path)
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
            cfg.out_dir, _resolved_dict(cfg), cfg.seed, started, outputs, __version__
        )
    except (reporting.OutputError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    return EXIT_OK if all_passed else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
