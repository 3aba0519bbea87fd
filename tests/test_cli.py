"""CLI surface: subcommands, exit codes, emitted files, manifest hashes."""

import dataclasses
import json
import math
import os

import pytest

from ounls import experiments
from ounls.cli import main
from ounls.reporting import Report


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


def test_threads_flag_is_validated_like_the_config_key(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["identity", "--threads", "0", "--out", str(out)]) == 1
    assert run_cli(["identity", "--set", "run.threads=0", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command,overrides", [
    ("simulate", ["grid.n_x=100"]),
    ("simulate", ["grid.n_alpha=1"]),
    ("simulate", ["model.model=div", "grid.div_nodes=2"]),
    ("simulate", ["grid.box_half_length=0"]),
    ("simulate", ["grid.box_half_length=-3"]),
    ("simulate", ["grid.div_half_width=inf"]),
    # a band wider than the alpha basis
    ("embeddings", ["grid.n_alpha=8", "initial.band=12"]),
    ("simulate", ["initial.kind=random", "grid.n_alpha=8", "initial.band=8"]),
    # nonfinite run and initial values
    ("simulate", ["run.t=inf"]),
    ("simulate", ["run.t=nan"]),
    ("simulate", ["run.dt=nan"]),
    ("simulate", ["run.dt=inf"]),
    ("scattering", ["run.delta=nan"]),
    ("scattering", ["run.delta=0"]),
    # two samples 0.01 apart leave no centred dI/dt
    ("morawetz", ["run.t=0.01"]),
    ("simulate", ["initial.amplitude=inf"]),
    ("simulate", ["initial.x_width=nan"]),
    ("simulate", ["initial.alpha_width=inf"]),
    ("simulate", ["initial.wavenumber=nan"]),
    # a scenario on a model it does not run on
    ("conservation", ["model.sign=focusing"]),
    ("scattering", ["model.model=div"]),
    ("blowup", ["model.model=nondiv"]),
], ids=["n_x-not-power-of-two", "n_alpha-1", "div_nodes-2", "box-zero", "box-negative",
        "div-width-inf", "embeddings-band-past-n_alpha", "random-band-past-n_alpha",
        "t-inf", "t-nan", "dt-nan", "dt-inf", "delta-nan", "delta-zero",
        "morawetz-t-below-three-samples", "amplitude-inf", "x_width-nan",
        "alpha_width-inf", "wavenumber-nan", "conservation-focusing", "scattering-div",
        "blowup-nondiv"])
def test_bad_grid_value_is_a_config_error(tmp_path, capsys, command, overrides):
    out = tmp_path / "o"
    args = [arg for item in overrides for arg in ("--set", item)]
    assert run_cli([command, *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:alpha truncation tail:RuntimeWarning")
@pytest.mark.parametrize("args,red", [
    # a ladder of one time: every ratio is 0, so no base maximum
    (["strichartz", "--set", "run.t=0.001", "--set", "run.ensemble=2"],
     "[FAIL] strichartz(q=6,r=6): resolution_stability_k0_q6_r6 value=nan"),
    # the focusing leg flags at t = 3e-5, with the t = 0 sample alone
    (["blowup", "--set", "model.model=div", "--set", "initial.amplitude=4",
      "--set", "grid.n_x=128", "--set", f"grid.box_half_length={4 * math.pi}",
      "--set", "grid.div_nodes=65"],
     "[FAIL] blowup: concavity_certificate value=nan"),
], ids=["strichartz-one-time", "blowup-one-sample"])
def test_degenerate_run_is_a_red_verdict(tmp_path, capsys, args, red):
    assert run_cli([*args, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert any(line.startswith(red) for line in captured.out.splitlines()), captured.out
    assert "Traceback" not in captured.err


def test_all_rejects_a_base_config_that_a_row_cannot_run(tmp_path, capsys):
    # row 5 draws 12 Hermite modes on the base n_alpha; every row's config
    # is checked before the output directory is made and before any row runs
    out = tmp_path / "o"
    assert run_cli(["all", "--set", "grid.n_alpha=8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: criterion 5 ") and "grid.n_alpha >= 12" in err
    assert "Traceback" not in err
    assert not out.exists()


SIMULATE_SMALL = [
    "--set", "grid.n_x=64", "--set", f"grid.box_half_length={4 * math.pi}",
    "--set", "run.t=0.05", "--set", "run.dt=0.005", "--set", "run.samples=3",
]


def test_config_file_out_is_used_and_out_flag_wins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nout = from_file\nseed = 7\n")
    assert run_cli(["simulate", "--config", str(cfg)] + SIMULATE_SMALL) == 0
    assert (tmp_path / "from_file" / "manifest.json").exists()
    assert not (tmp_path / "out").exists()
    flags = ["--out", str(tmp_path / "flag"), "--seed", "9", "--threads", "2"]
    assert run_cli(["simulate", "--config", str(cfg)] + SIMULATE_SMALL + flags) == 0
    manifest = json.load(open(tmp_path / "flag" / "manifest.json"))
    assert manifest["seed"] == 9 and manifest["config"]["run"]["threads"] == 2
    assert manifest["config"]["scenario"] == "simulate"


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


def test_all_runs_the_acceptance_table(tmp_path, monkeypatch, capsys):
    def stub(name, passed):
        def run(cfg, reports):
            report = Report(name)
            report.add("gate", 0.0 if passed else 1.0, 0.5, comparator="<")
            report.rows.append({"member": 0})
            return report
        return run

    monkeypatch.setattr(experiments, "ACCEPTANCE", (
        experiments.Criterion("green", "a passing row", stub("green", True)),
        experiments.Criterion("red", "a failing row", stub("red", False)),
    ))
    out = tmp_path / "all"
    assert run_cli(["all", "--out", str(out)]) == 2
    names = os.listdir(out)
    assert "report_00_green.jsonl" in names and "rows_00_green.csv" in names
    assert "report_01_red.jsonl" in names and "rows_01_red.csv" in names
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[PASS] green: gate value=0 < 0.5") for line in lines)
    assert any(line.startswith("[FAIL] red: gate value=1 < 0.5") for line in lines)


def test_all_writes_each_row_config(tmp_path, monkeypatch):
    # the table's own row configs, with stub runners: each report gets the
    # config its row ran on, not the base config of the manifest
    def stub(cfg, reports):
        report = Report(f"row{cfg.disc.n_x}", settings={"div_nodes": [cfg.disc.div_nodes]})
        report.add("gate", 0.0, 0.5, comparator="<")
        return report

    rows = {row.key: i for i, row in enumerate(experiments.ACCEPTANCE)}
    monkeypatch.setattr(experiments, "ACCEPTANCE", tuple(
        dataclasses.replace(row, run=stub) for row in experiments.ACCEPTANCE
    ))
    out = tmp_path / "all"
    assert run_cli(["all", "--out", str(out)]) == 0
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["config"]["grid"]["div_nodes"] == 513
    assert manifest["config"]["grid"]["box_half_length"] == pytest.approx(16 * math.pi)
    i = rows["7"]
    name = manifest["row_configs"][f"report_{i:02d}_row128.jsonl"]
    assert name == f"config_{i:02d}_row128.json" and name in manifest["outputs"]
    row = json.load(open(out / name))
    assert row["grid"]["box_half_length"] == pytest.approx(4 * math.pi)
    assert row["grid"]["div_nodes"] == 257 and row["grid"]["n_x"] == 128
    assert row["model"] == {"model": "div", "d": 1, "p": 4, "sign": 1}
    # what the runner fixed beyond its config rides along
    assert row["runner_settings"] == {"div_nodes": [257]}
