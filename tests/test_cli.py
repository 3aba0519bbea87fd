"""CLI surface: subcommands, exit codes, emitted files, manifest hashes."""

import json
import math
import os

import pytest

from ounls.cli import main


def run_cli(args):
    return main(args)


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\np = 3\n")
    code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1


def test_unknown_key_exit_code(tmp_path):
    code = run_cli(["simulate", "--set", "model.px=4", "--out", str(tmp_path / "o")])
    assert code == 1


def test_inadmissible_pair_exit_code(tmp_path):
    code = run_cli([
        "strichartz", "--set", "model.d=2", "--set", "model.p=2",
        "--set", "run.q=2", "--set", "run.r=inf", "--out", str(tmp_path / "o"),
    ])
    assert code == 1


def test_simulate_emits_outputs(tmp_path):
    out = str(tmp_path / "run")
    code = run_cli([
        "simulate",
        "--set", "grid.n_x=64",
        "--set", f"grid.box_half_length={4 * math.pi}",
        "--set", "run.t=0.05",
        "--set", "run.dt=0.005",
        "--set", "run.samples=3",
        "--out", out,
    ])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "diagnostics.csv" in names
    assert "manifest.json" in names
    header = open(os.path.join(out, "diagnostics.csv")).readline().strip()
    assert header.startswith("time,mass,energy,h1_native,virial")
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["run"]["dt"] == pytest.approx(5e-3)
    assert "diagnostics.csv" in manifest["outputs"]


def test_identity_subcommand_green(tmp_path):
    out = str(tmp_path / "ident")
    code = run_cli(["identity", "--out", out])
    assert code == 0
    files = os.listdir(out)
    assert any(name.startswith("report_") for name in files)
    assert any(name.startswith("rows_") for name in files)


def test_embeddings_subcommand_green(tmp_path):
    out = str(tmp_path / "emb")
    code = run_cli([
        "embeddings", "--set", "model.p=2", "--set", "run.ensemble=64",
        "--set", "initial.band=12", "--out", out,
    ])
    assert code == 0


def test_io_failure_exit_code(tmp_path):
    # output directory nested under a regular file cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    code = run_cli(["identity", "--out", str(blocker / "sub")])
    assert code == 3


def test_numeric_failure_exit_code(tmp_path):
    # a conservation run with an unresolvable grid must fail with code 2
    out = str(tmp_path / "bad")
    code = run_cli([
        "conservation",
        "--set", "grid.n_x=32",
        "--set", "grid.box_half_length=25.132741228718345",
        "--set", "initial.x_width=0.4",
        "--set", "run.t=0.2",
        "--set", "run.dt=0.01",
        "--set", "run.samples=5",
        "--out", out,
    ])
    assert code == 2


def test_verdict_lines_state_their_gate(tmp_path, capsys):
    # the halving-ratio gate is an interval, not the nominal ratio 4
    out = str(tmp_path / "gate")
    run_cli([
        "conservation",
        "--set", "grid.n_x=32",
        "--set", "grid.box_half_length=25.132741228718345",
        "--set", "initial.x_width=0.4",
        "--set", "run.t=0.2",
        "--set", "run.dt=0.01",
        "--set", "run.samples=5",
        "--out", out,
    ])
    lines = capsys.readouterr().out.splitlines()
    ratio_line = next(line for line in lines if "energy_drift_halving_ratio" in line)
    assert " in [3.5, 4.5] " in ratio_line
    mass_line = next(line for line in lines if ": mass_drift " in line)
    assert " < 1e-09" in mass_line
    report = next(name for name in os.listdir(out) if name.startswith("report_"))
    verdicts = [json.loads(line) for line in open(os.path.join(out, report))]
    ratio = next(v for v in verdicts if v["check"] == "energy_drift_halving_ratio")
    assert ratio["comparator"] == "in" and ratio["limit"] == [3.5, 4.5]


def test_morawetz_subcommand_green(tmp_path):
    # the drift-form criterion-8 configuration of the acceptance suite
    out = str(tmp_path / "mor")
    code = run_cli([
        "morawetz", "--set", "model.model=nondiv", "--set", "model.p=4",
        "--set", "grid.n_x=256", "--set", f"grid.box_half_length={8 * math.pi}",
        "--set", "run.t=0.5", "--set", "run.dt=1e-3", "--out", out,
    ])
    assert code == 0
    assert any(name.startswith("report_00_morawetz") for name in os.listdir(out))
