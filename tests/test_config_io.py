"""Config parsing (defaults, rejects, overrides) and the stable output
formats: diagnostics table, verdict lines, manifest, field snapshots."""

import json
import math
import os

import numpy as np
import pytest

from ounls.cli import _build_parser
from ounls.config import (
    _SCHEMA, SCENARIOS, ConfigError, check_admissible_pair, parse_config, resolved_dict,
)
from ounls.observables import DiagnosticsRecord
from ounls.reporting import (
    Report,
    diagnostics_csv_bytes,
    emit_diagnostics,
    emit_report,
    file_sha256,
    load_field,
    save_field,
    verdict_lines,
    write_manifest,
)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_minimal_config_fills_defaults(tmp_path):
    path = write_cfg(tmp_path, "[model]\nmodel = nondiv\nd = 1\np = 4\n")
    cfg = parse_config(path)
    assert cfg.model.model == "nondiv" and cfg.model.power == 4
    assert cfg.disc.n_x == 256
    assert cfg.disc.n_alpha == 64
    assert cfg.disc.resolved_box(1) == pytest.approx(16 * math.pi)
    assert cfg.disc.resolved_box(2) == pytest.approx(8 * math.pi)
    assert cfg.dt == pytest.approx(1e-3)


def test_odd_power_rejected(tmp_path):
    path = write_cfg(tmp_path, "[model]\np = 3\n")
    with pytest.raises(ConfigError, match="positive even integer"):
        parse_config(path)


def test_excluded_endpoint_pair_rejected(tmp_path):
    path = write_cfg(
        tmp_path,
        "[model]\nd = 2\np = 2\n[run]\nscenario = strichartz\nq = 2\nr = inf\n",
    )
    with pytest.raises(ConfigError, match="excluded endpoint"):
        parse_config(path)


def test_inadmissible_pair_message_cites_relation():
    with pytest.raises(ConfigError, match="2/q \\+ d/r"):
        check_admissible_pair(6.0, 4.0, 1)
    # valid pairs pass silently
    check_admissible_pair(6.0, 6.0, 1)
    check_admissible_pair(8.0, 4.0, 1)
    check_admissible_pair(math.inf, 2.0, 1)


@pytest.mark.parametrize("scenario,kind", [
    ("strichartz", "gaussian"), ("simulate", "random"),
])
def test_band_must_fit_on_the_grid(scenario, kind):
    base = [f"run.scenario={scenario}", f"initial.kind={kind}", "initial.band=8"]
    with pytest.raises(ConfigError, match="needs grid.n_x >= 17, got 16"):
        parse_config(overrides=base + ["grid.n_x=16"])
    assert parse_config(overrides=base + ["grid.n_x=32"]).disc.n_x == 32
    # a Gaussian simulate run draws no band modes, so it is not checked
    assert parse_config(overrides=["grid.n_x=16", "initial.band=8"]).disc.n_x == 16


@pytest.mark.parametrize("scenario,kind,n_modes", [
    ("embeddings", "gaussian", 8), ("simulate", "random", 9),
])
def test_band_must_fit_the_alpha_basis(scenario, kind, n_modes):
    # embeddings draw the modes n < band, random drift-form data n <= band
    base = [f"run.scenario={scenario}", f"initial.kind={kind}", "initial.band=8"]
    with pytest.raises(ConfigError, match=f"needs grid.n_alpha >= {n_modes}, got {n_modes - 1}"):
        parse_config(overrides=base + [f"grid.n_alpha={n_modes - 1}"])
    assert parse_config(overrides=base + [f"grid.n_alpha={n_modes}"]).disc.n_alpha == n_modes
    if scenario == "simulate":
        # random div-form data are shaped on the flux nodes, not the basis
        div = parse_config(overrides=base + ["model.model=div", "grid.n_alpha=8"])
        assert div.disc.n_alpha == 8


def test_unknown_keys_are_hard_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_cfg(tmp_path, "[model]\nmodle = nondiv\n"))
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(write_cfg(tmp_path, "[grids]\nn_x = 128\n"))
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "missing.ini"))


def test_every_cli_subcommand_is_a_config_scenario(tmp_path):
    parser = _build_parser()
    for name in SCENARIOS:
        assert parser.parse_args([name]).command == name
        # blowup runs on the divergence form only, not the default model
        model = "[model]\nmodel = div\n" if name == "blowup" else ""
        cfg = parse_config(write_cfg(tmp_path, f"{model}[run]\nscenario = {name}\n"))
        assert cfg.scenario == name
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config(write_cfg(tmp_path, "[run]\nscenario = morawitz\n"))


def test_overrides(tmp_path):
    path = write_cfg(tmp_path, "[model]\nmodel = div\nd = 1\np = 2\n")
    cfg = parse_config(path, ["grid.n_x=128", "run.dt=0.002", "model.sign=focusing"])
    assert cfg.disc.n_x == 128
    assert cfg.dt == pytest.approx(2e-3)
    assert cfg.model.sign == -1
    with pytest.raises(ConfigError):
        parse_config(path, ["grid.nx=128"])
    with pytest.raises(ConfigError):
        parse_config(path, ["badformat"])


def rec(t, **kw):
    return DiagnosticsRecord(
        time=t,
        mass=kw.get("mass", 1.0),
        energy=kw.get("energy", 0.5),
        h1_native=1.0,
        virial=kw.get("virial", math.nan),
        virial_rhs=math.nan,
        morawetz_I=2.0,
        morawetz_dI_bound=3.0,
        tail_mass_fraction=0.0,
        boundary_mass_fraction=0.0,
    )


def test_diagnostics_csv_format(tmp_path):
    records = [rec(0.0), rec(0.5, mass=1.0 + 1e-16)]
    path = str(tmp_path / "diag.csv")
    emit_diagnostics(records, path)
    lines = open(path).read().splitlines()
    assert lines[0] == (
        "time,mass,energy,h1_native,virial,virial_rhs,morawetz_I,"
        "morawetz_dI_bound,tail_mass_fraction,boundary_mass_fraction"
    )
    assert len(lines) == 3
    # nan serialized literally, never dropped
    assert "nan" in lines[1].split(",")[4]
    # 17 significant digits survive a roundtrip
    value = float(lines[1].split(",")[1])
    assert value == 1.0


def test_diagnostics_bytes_deterministic():
    records = [rec(0.0), rec(1.0 / 3.0, energy=math.pi)]
    assert diagnostics_csv_bytes(records) == diagnostics_csv_bytes(list(records))


def test_emit_diagnostics_requires_records(tmp_path):
    with pytest.raises(ValueError):
        emit_diagnostics([], str(tmp_path / "d.csv"))


def test_verdict_lines_roundtrip(tmp_path):
    report = Report("demo")
    report.add("alpha", 1.0, 2.0)
    report.add("beta", 3.0, 2.5, note="too big")
    path = str(tmp_path / "verdicts.jsonl")
    emit_report(report, path)
    lines = open(path).read().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["check"] == "alpha" and parsed[0]["passed"] is True
    assert parsed[1]["note"] == "too big"
    assert not report.passed
    assert verdict_lines(report) == verdict_lines(report)


def test_field_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    data = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    path = str(tmp_path / "field.bin")
    save_field(path, data)
    blob = open(path, "rb").read()
    assert blob[:16] == b"OUNLSFIELDSNAP01"
    assert int.from_bytes(blob[16:24], "little") == 2
    assert int.from_bytes(blob[24:32], "little") == 8
    back = load_field(path)
    np.testing.assert_array_equal(back, data)


def test_field_snapshot_bad_magic(tmp_path):
    path = str(tmp_path / "junk.bin")
    open(path, "wb").write(b"not a snapshot at all")
    with pytest.raises(OSError):
        load_field(path)


def test_manifest_hashes_outputs(tmp_path):
    out = str(tmp_path)
    data_path = os.path.join(out, "diag.csv")
    emit_diagnostics([rec(0.0)], data_path)
    manifest_path = write_manifest(out, {"k": 1}, 7, 0.0, [data_path], "0.1.0", {})
    manifest = json.load(open(manifest_path))
    assert manifest["seed"] == 7
    assert manifest["outputs"]["diag.csv"] == file_sha256(data_path)


def test_manifest_records_cpu_count_and_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    path = write_manifest(str(tmp_path), {}, 7, 0.0, [], "0.1.0", {})
    manifest = json.load(open(path))
    assert manifest["cpu_count"] == os.cpu_count()
    assert manifest["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2",
    }


def test_resolved_dict_has_every_schema_key():
    cfg = parse_config(None, ["model.d=2", "model.p=2", "run.out=elsewhere"])
    resolved = resolved_dict(cfg)
    assert resolved["scenario"] == "simulate"
    for section, keys in _SCHEMA.items():
        assert set(resolved[section]) == set(keys) - {"scenario", "out"}
    assert resolved["model"] == {"model": "nondiv", "d": 2, "p": 2, "sign": 1}
    assert resolved["grid"]["box_half_length"] == pytest.approx(8 * math.pi)


def test_readme_ini_example_parses_to_the_defaults(tmp_path):
    # the README's example, inline comments and all, spells out the defaults
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_cfg(tmp_path, example))
    resolved, default = resolved_dict(cfg), resolved_dict(parse_config(None))
    assert resolved["scenario"] == "conservation"
    for section in _SCHEMA:
        assert resolved[section] == default[section], section


# ------------------------------------------------------------ the gate table


def verdict(comparator, value, limit=math.inf):
    return Report("gates").add("c", value, limit, comparator=comparator).passed


@pytest.mark.parametrize("comparator, below, at, above", [
    ("<", True, False, False),
    ("<=", True, True, False),
    (">=", False, True, True),
    ("==", False, True, False),
])
def test_scalar_gates_at_their_boundary(comparator, below, at, above):
    step = math.ulp(2.0)
    assert verdict(comparator, 2.0 - step, 2.0) is below
    assert verdict(comparator, 2.0, 2.0) is at
    assert verdict(comparator, 2.0 + step, 2.0) is above


def test_interval_gate_is_closed_at_both_ends():
    for end in (3.5, 4.5):
        assert verdict("in", end, (3.5, 4.5))
    assert not verdict("in", math.nextafter(3.5, 0.0), (3.5, 4.5))
    assert not verdict("in", math.nextafter(4.5, 9.0), (3.5, 4.5))


def test_finite_gate():
    assert verdict("finite", 1e308, math.nan)
    assert not verdict("finite", math.inf)
    assert not verdict("finite", -math.inf)


@pytest.mark.parametrize("comparator", ["<", "<=", ">=", "==", "in", "finite",
                                        "increasing", "decreasing"])
def test_nan_is_red_for_every_comparator(comparator):
    if comparator in ("increasing", "decreasing"):
        for series in ([math.nan], [1.0, math.nan], [math.nan, 1.0], [1.0, math.nan, 2.0]):
            assert not verdict(comparator, series)
    else:
        limit = (0.0, 1.0) if comparator == "in" else 1.0
        assert not verdict(comparator, math.nan, limit)
        if comparator != "finite":
            assert not verdict(comparator, 0.5, (0.0, math.nan) if comparator == "in" else math.nan)


def test_monotone_gates_and_what_they_record():
    report = Report("gates")
    up = report.add("up", [1.0, 2.0, 5.0], comparator="increasing")
    assert up.passed and (up.value, up.limit) == (5.0, 2.0)
    assert report.add("down", [5.0, 2.0, 1.0], comparator="decreasing").passed
    single = report.add("single", [3.0], comparator="decreasing")
    assert single.passed and (single.value, single.limit) == (3.0, math.inf)
    # a tie is not strict
    assert not verdict("increasing", [1.0, 2.0, 2.0])
    assert not verdict("decreasing", [2.0, 2.0, 1.0])
    assert not verdict("increasing", [3.0, 2.0, 5.0])
    assert not verdict("decreasing", [1.0, 2.0])


def test_unknown_comparator_rejected():
    with pytest.raises(ValueError):
        Report("gates").add("c", 1.0, 2.0, comparator="<<")
