"""Scenario configuration: named presets and config-file ingestion.

ScenarioConfig holds everything one campaign or analysis needs.  Config
files are YAML with nested sections mirroring it; all quantities are SI
(m, s, rad).  `model.input` holds the jerk input's gains b1, b2 and its
frequency omega; the input is on exactly when a gain is non-zero, and
there is no separate switch.  The built-in presets encode the two
reference scenarios (target straight ahead, target front-right) used
throughout the numerical studies.
"""
from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np
import yaml

from .dynamics import (
    MotionModel,
    RadarNoise,
    StateVector,
    predict_density,
    steady_state_covariance,
)
from .errors import ConfigError
from .gaussian import GaussianDensity
from .geometry import HostRectangle


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one campaign."""

    initial_mean: StateVector
    model: MotionModel
    radar: RadarNoise = RadarNoise()
    rect: HostRectangle = HostRectangle()
    initial_cov: np.ndarray | None = None  # None -> steady-state Riccati
    horizon: float = 8.0
    sim_step: float = 0.01
    bin_width: float = 0.05
    n_traj: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError("must be > 0", "scenario.horizon")
        if self.sim_step <= 0:
            raise ConfigError("must be > 0", "scenario.sim_step")
        if self.bin_width <= 0:
            raise ConfigError("must be > 0", "scenario.bin_width")
        if self.sim_step > self.bin_width:
            raise ConfigError("must be <= bin_width", "scenario.sim_step")
        if self.n_traj < 1:
            raise ConfigError("must be >= 1", "scenario.n_traj")
        if not 0 <= self.seed < 2**64:  # the Philox key is uint64
            raise ConfigError("must be in [0, 2**64)", "scenario.seed")
        if self.initial_cov is not None:
            cov = np.asarray(self.initial_cov, dtype=float)
            if cov.shape != (6, 6) or not np.isfinite(cov).all():
                raise ConfigError("must be a finite 6x6 matrix", "scenario.initial_cov")
            object.__setattr__(self, "initial_cov", cov)
            try:  # symmetric and PSD, to GaussianDensity's tolerance
                self._initial_density
            except ValueError as exc:
                raise ConfigError(str(exc), "scenario.initial_cov") from None

    def resolve_initial_cov(self) -> np.ndarray:
        """P0, read-only: initial_cov, or the steady-state Riccati solution."""
        return self._initial_cov

    @cached_property
    def _initial_cov(self) -> np.ndarray:
        # solved once per config; dataclasses.replace builds a new config
        cov = self.initial_cov
        if cov is None:
            if not (self.model.qx > 0.0 and self.model.qy > 0.0):
                raise ConfigError(
                    "riccati needs qx > 0 and qy > 0: without process noise on an axis the "
                    "filter has no steady state; give initial_cov as a 6x6 matrix",
                    "scenario.initial_cov",
                )
            cov = steady_state_covariance(self.initial_mean, self.model, self.radar)
        cov = cov.view()
        cov.setflags(write=False)
        return cov

    def predicted_density(self, t: float) -> GaussianDensity:
        """The target state density predicted from N(initial_mean, P0) to time t."""
        return predict_density(self._initial_density, float(t), self.model)

    @cached_property
    def _initial_density(self) -> GaussianDensity:
        return GaussianDensity(self.initial_mean.as_array(), self._initial_cov)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.sim_step - 1e-9))

    @property
    def n_bins(self) -> int:
        return int(math.ceil(self.horizon / self.bin_width - 1e-9))


PRESETS: dict[str, dict] = {
    "front": {
        "scenario": {
            "initial_mean": [10.0, 0.0, -2.0, 0.4, -0.2, 0.0],
            "initial_cov": "riccati",
            "horizon": 8.0,
            "sim_step": 0.01,
            "bin_width": 0.05,
            "n_traj": 100_000,
            "seed": 20260824,
        },
        "model": {
            "qx": 0.0101,
            "qy": 0.0101,
            "input": {"b1": -0.2, "b2": -0.3, "omega": 0.5},
        },
        "radar": {},
        "rect": {},
    },
    "front-right": {
        "scenario": {
            "initial_mean": [10.0, 10.0, -2.0, -1.6, -0.001, -0.01],
            "initial_cov": "riccati",
            "horizon": 8.0,
            "sim_step": 0.01,
            "bin_width": 0.05,
            "n_traj": 100_000,
            "seed": 20260824,
        },
        "model": {
            "qx": 0.0405,
            "qy": 0.0405,
            "input": {"b1": -0.4, "b2": -0.5, "omega": 0.5},
        },
        "radar": {},
        "rect": {},
    },
}


def _number(value, path: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond float range
        pass
    raise ConfigError(f"expected a finite number, got {value!r}", path)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def _vector(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 6:
        raise ConfigError(f"expected a list of 6 numbers, got {value!r}", path)
    return [_number(v, path) for v in value]


def _matrix(value, path: str) -> np.ndarray | None:
    if isinstance(value, str) and value == "riccati":
        return None
    if not isinstance(value, (list, tuple)):  # ScenarioConfig checks the shape
        raise ConfigError(f"expected 'riccati' or a 6x6 matrix, got {value!r}", path)
    return np.array([_vector(row, path) for row in value])


def _section(value, path: str, keys) -> dict:
    """`value`, checked to be a mapping whose keys are all in `keys`."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected a mapping, got {value!r}", path or "config")
    for key in value:
        if key not in keys:
            raise ConfigError(
                f"unknown key; expected one of {sorted(keys)}", f"{path}.{key}" if path else key
            )
    return value


def _parse(value, path: str, parsers: dict, required=()) -> dict:
    """The keys a section sets, each checked by its parser."""
    section = _section(value, path, parsers)
    for key in required:
        if key not in section:
            raise ConfigError("missing required field", f"{path}.{key}")
    return {k: parsers[k](v, f"{path}.{k}") for k, v in section.items()}


# The YAML schema, stated once: build_config parses with these tables and
# config_as_dict writes the manifest from them.  Defaults live only on the
# dataclasses, so a key that a section leaves out keeps its default.
_ROOT = ("preset", "scenario", "model", "radar", "rect")
_SCENARIO = {
    "initial_mean": lambda value, path: StateVector(*_vector(value, path)),
    "initial_cov": _matrix,
    "horizon": _number,
    "sim_step": _number,
    "bin_width": _number,
    "n_traj": _integer,
    "seed": _integer,
}
_INPUT = dict.fromkeys(("b1", "b2", "omega"), _number)
_MODEL = {"qx": _number, "qy": _number, "input": lambda value, path: _parse(value, path, _INPUT)}
_RADAR = dict.fromkeys((f.name for f in fields(RadarNoise)), _number)
_RECT = dict.fromkeys((f.name for f in fields(HostRectangle)), _number)


def build_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping and materialize a ScenarioConfig.

    A 'preset' key merges the rest of the mapping over that preset.  Each
    section rejects keys outside the schema; a key it leaves out keeps the
    dataclass default.
    """
    raw = _section(raw, "", _ROOT)
    if "preset" in raw:
        overrides = {k: v for k, v in raw.items() if k != "preset"}
        raw = _deep_merge(preset_raw(str(raw["preset"])), overrides)
    scenario = _parse(raw.get("scenario", {}), "scenario", _SCENARIO, ("initial_mean",))
    model = _parse(raw.get("model", {}), "model", _MODEL, ("qx", "qy"))
    model.update(model.pop("input", {}))  # MotionModel takes the input's keys flat
    return ScenarioConfig(
        **scenario,
        model=_build("model", MotionModel, **model),
        radar=_build("radar", RadarNoise, **_parse(raw.get("radar", {}), "radar", _RADAR)),
        rect=_build("rect", HostRectangle, **_parse(raw.get("rect", {}), "rect", _RECT)),
    )


def _build(section: str, cls, **values):
    """cls(**values), a range it rejects named by its config section."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), section) from None


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def preset_raw(name: str) -> dict:
    try:
        return copy.deepcopy(PRESETS[name])
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}", "preset"
        ) from None


def preset_config(name: str, **overrides) -> ScenarioConfig:
    """Materialize a named preset; keyword overrides replace dataclass fields."""
    config = build_config({"preset": name})
    return replace(config, **overrides) if overrides else config


def load_config(path: str) -> ScenarioConfig:
    """Load a YAML config file and build it with `build_config`."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}", path) from exc
    return build_config({} if raw is None else raw)


def config_as_dict(config: ScenarioConfig) -> dict:
    """Fully materialized config (defaults resolved), for manifests."""
    scenario = {key: getattr(config, key) for key in _SCENARIO}
    scenario["initial_mean"] = list(config.initial_mean.as_array())
    cov = config.initial_cov
    scenario["initial_cov"] = "riccati" if cov is None else [list(row) for row in cov]
    model = config.model
    return {
        "scenario": scenario,
        "model": {
            "qx": model.qx,
            "qy": model.qy,
            "input": {key: getattr(model, key) for key in _INPUT},
        },
        "radar": asdict(config.radar),
        "rect": asdict(config.rect),
    }
