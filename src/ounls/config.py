"""Configuration parsing: flat INI sections [model], [grid], [initial], [run].

Unknown keys are hard errors, defaults are filled for everything else, and
physically inadmissible requests (odd nonlinearity power, excluded
space-time exponent pairs) are rejected here with exit-code-1 semantics.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import asdict, dataclass, field

from .models import MODEL_NONDIV, DiscretizationSpec, ModelSpec

# scenario name -> one-line description; the CLI subcommands are built
# from this table
SCENARIOS = {
    "simulate": "integrate the configured model and emit diagnostics",
    "conservation": "mass/energy drift audit",
    "strichartz": "linear space-time ensemble boundedness proxy",
    "embeddings": "weighted Sobolev / nonlinear estimate ensembles",
    "scattering": "small-data pullback Cauchy ladder",
    "blowup": "focusing virial blow-up certificate",
    "identity": "divergence vs drift form operator identity",
    "morawetz": "interaction functional bound along a defocusing run",
    "all": "run the full acceptance scenario suite",
}


class ConfigError(ValueError):
    """Malformed, unknown or inadmissible configuration input."""


@dataclass
class InitialData:
    kind: str = "gaussian"  # gaussian | random
    amplitude: float = 1.0
    x_width: float = 1.0
    alpha_width: float = math.sqrt(2.0)
    wavenumber: float = 0.0
    band: int = 8

    def validate(self):
        if self.kind not in ("gaussian", "random"):
            raise ConfigError(f"unknown initial data kind {self.kind!r}")
        for name in ("amplitude", "x_width", "alpha_width"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"initial.{name} must be positive and finite")
        if not math.isfinite(self.wavenumber):
            raise ConfigError("initial.wavenumber must be finite")
        if self.band < 1:
            raise ConfigError("initial.band must be >= 1")


@dataclass
class ScenarioConfig:
    scenario: str = "simulate"
    model: ModelSpec = field(default_factory=lambda: ModelSpec("nondiv", 1, 4))
    disc: DiscretizationSpec = field(default_factory=DiscretizationSpec)
    initial: InitialData = field(default_factory=InitialData)
    horizon: float = 1.0
    dt: float = 1e-3
    n_samples: int = 101
    seed: int = 1234
    ensemble: int = 64
    threads: int = 1
    strichartz_q: float = 6.0
    strichartz_r: float = 6.0
    scattering_delta: float = 0.05
    out_dir: str = "out"

    def sample_times(self):
        import numpy as np

        return np.linspace(0.0, self.horizon, self.n_samples)


def check_band_resolved(n_x: int, band: int):
    """The 2*band + 1 x modes of a band-limited draw must be distinct on n_x
    points per axis; on fewer, modes j and j - n_x are one grid mode."""
    if n_x < 2 * band + 1:
        raise ConfigError(
            f"initial.band = {band} needs grid.n_x >= {2 * band + 1}, got {n_x}: "
            f"the band modes would alias onto each other"
        )


def check_alpha_band_resolved(n_alpha: int, n_modes: int):
    """A band-limited alpha profile of n_modes Hermite modes needs a basis of
    at least that many eigenfunctions; n_alpha gives only n_alpha."""
    if n_alpha < n_modes:
        raise ConfigError(
            f"initial.band asks for {n_modes} Hermite modes, which needs "
            f"grid.n_alpha >= {n_modes}, got {n_alpha}"
        )


def check_admissible_pair(q: float, r: float, dim: int):
    """Space-time exponent admissibility: 2/q + d/r = d/2, q,r >= 2,
    excluding (q, r, d) = (2, inf, 2)."""
    if q < 2 or r < 2:
        raise ConfigError(f"(q, r) = ({q}, {r}) rejected: exponents must be >= 2")
    lhs = 2.0 / q + (dim / r if not math.isinf(r) else 0.0)
    if abs(lhs - dim / 2.0) > 1e-12:
        raise ConfigError(
            f"(q, r) = ({q}, {r}) is not admissible in dimension {dim}: "
            f"2/q + d/r = {lhs:.6g} != d/2 = {dim / 2.0:.6g}"
        )
    if q == 2 and math.isinf(r) and dim == 2:
        raise ConfigError(
            "(q, r, d) = (2, inf, 2) is the excluded endpoint pair"
        )


_SIGNS = {"defocusing": +1, "focusing": -1, "+1": +1, "-1": -1, "1": +1}


# numeric kind -> (parser, what a bad value is told it must be); float()
# reads "inf" and "infinity" itself
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


# section -> key -> (target attribute path, parser)
_SCHEMA = {
    "model": {
        "model": ("model.model", str),
        "d": ("model.dim", "int"),
        "p": ("model.power", "int"),
        "sign": ("model.sign", "sign"),
    },
    "grid": {
        "n_x": ("disc.n_x", "int"),
        "box_half_length": ("disc.box_half_length", "float"),
        "n_alpha": ("disc.n_alpha", "int"),
        "div_nodes": ("disc.div_nodes", "int"),
        "div_half_width": ("disc.div_half_width", "float"),
    },
    "initial": {
        "kind": ("initial.kind", str),
        "amplitude": ("initial.amplitude", "float"),
        "x_width": ("initial.x_width", "float"),
        "alpha_width": ("initial.alpha_width", "float"),
        "wavenumber": ("initial.wavenumber", "float"),
        "band": ("initial.band", "int"),
    },
    "run": {
        "scenario": ("scenario", str),
        "t": ("horizon", "float"),
        "dt": ("dt", "float"),
        "samples": ("n_samples", "int"),
        "seed": ("seed", "int"),
        "ensemble": ("ensemble", "int"),
        "threads": ("threads", "int"),
        "q": ("strichartz_q", "float"),
        "r": ("strichartz_r", "float"),
        "delta": ("scattering_delta", "float"),
        "out": ("out_dir", str),
    },
}


def resolved_dict(cfg: ScenarioConfig) -> dict:
    """The config by its INI sections and keys, with the box resolved; the
    scenario is a top-level entry and the output directory is left out."""
    resolved = {"scenario": cfg.scenario}
    for section, keys in _SCHEMA.items():
        resolved[section] = {
            key: functools.reduce(getattr, target.split("."), cfg)
            for key, (target, _) in keys.items()
            if target not in ("scenario", "out_dir")
        }
    resolved["grid"]["box_half_length"] = cfg.disc.resolved_box(cfg.model.dim)
    return resolved


def _coerce(section, key, raw, kind):
    if kind in _NUMBERS:
        parse, what = _NUMBERS[kind]
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key} must be {what}, got {raw!r}") from None
    if kind == "sign":
        if raw.lower() not in _SIGNS:
            raise ConfigError(
                f"{section}.{key} must be 'defocusing' or 'focusing', got {raw!r}"
            )
        return _SIGNS[raw.lower()]
    return raw


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> ScenarioConfig:
    """Resolve a ScenarioConfig from a file and/or ``section.key=value``
    override strings; unknown keys are hard errors."""
    staged: dict[str, dict[str, str]] = {}

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                staged.setdefault(section, {})[key] = raw

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        target, raw = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override key {target!r} must be section.key")
        section, key = target.split(".", 1)
        staged.setdefault(section, {})[key] = raw

    cfg = ScenarioConfig()
    # model fields must be built atomically (frozen dataclass with validation)
    model_kw = asdict(cfg.model)
    disc_kw: dict = {}

    for section, entries in staged.items():
        schema = _SCHEMA.get(section)
        if schema is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in entries.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            target, kind = schema[key]
            value = _coerce(section, key, raw, kind)
            if target.startswith("model."):
                model_kw[target.split(".", 1)[1]] = value
            elif target.startswith("disc."):
                disc_kw[target.split(".", 1)[1]] = value
            elif target.startswith("initial."):
                setattr(cfg.initial, target.split(".", 1)[1], value)
            else:
                setattr(cfg, target, value)

    try:
        cfg.model = ModelSpec(**model_kw)
        cfg.disc = DiscretizationSpec(**disc_kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg.initial.validate()
    check_scenario(cfg)
    return cfg


def check_scenario(cfg: ScenarioConfig):
    """The run keys, and what the config's scenario reads of it: the
    exponent pair and the bands that its grids must resolve.  `ounls all`
    calls it on each acceptance row's config too, before any row runs."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; expected one of {tuple(SCENARIOS)}"
        )
    # each test says what must hold, so that a NaN fails it
    if not 0 < cfg.horizon < math.inf:
        raise ConfigError("run.t must be positive and finite")
    if not 0 < cfg.dt < math.inf:
        raise ConfigError("run.dt must be positive and finite")
    if not math.isfinite(cfg.scattering_delta):
        raise ConfigError("run.delta must be finite")
    if cfg.n_samples < 2:
        raise ConfigError("run.samples must be >= 2")
    if cfg.ensemble < 1:
        raise ConfigError("run.ensemble must be >= 1")
    if cfg.threads < 1:
        raise ConfigError("run.threads must be >= 1")
    if cfg.scenario == "strichartz":
        check_admissible_pair(cfg.strichartz_q, cfg.strichartz_r, cfg.model.dim)
    random_data = (cfg.scenario, cfg.initial.kind) == ("simulate", "random")
    if cfg.scenario == "strichartz" or random_data:
        check_band_resolved(cfg.disc.n_x, cfg.initial.band)
    # embeddings draw the modes n < band, random drift-form data n <= band
    if cfg.scenario == "embeddings":
        check_alpha_band_resolved(cfg.disc.n_alpha, cfg.initial.band)
    if random_data and cfg.model.model == MODEL_NONDIV:
        check_alpha_band_resolved(cfg.disc.n_alpha, cfg.initial.band + 1)
