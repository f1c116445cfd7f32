"""Scenario configuration: named presets and config-file ingestion.

ScenarioConfig holds everything one campaign or analysis needs.  Config
files are YAML with nested sections mirroring it; all quantities are SI
(m, s, rad).  The built-in presets encode the two
reference scenarios (target straight ahead, target front-right) used
throughout the numerical studies.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
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
    terminate_on_entry: bool = False

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0", "horizon")
        if self.sim_step <= 0:
            raise ConfigError("sim_step must be > 0", "sim_step")
        if self.sim_step > self.bin_width:
            raise ConfigError("sim_step must be <= bin_width", "sim_step")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1", "n_traj")
        if self.initial_cov is not None:
            cov = np.asarray(self.initial_cov, dtype=float)
            if cov.shape != (6, 6):
                raise ConfigError("initial_cov must be 6x6", "initial_cov")
            object.__setattr__(self, "initial_cov", cov)

    def resolve_initial_cov(self) -> np.ndarray:
        """P0, read-only: initial_cov, or the steady-state Riccati solution."""
        return self._initial_cov

    @cached_property
    def _initial_cov(self) -> np.ndarray:
        # solved once per config; dataclasses.replace builds a new config
        cov = self.initial_cov
        if cov is None:
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
            "input": {"enabled": True, "b1": -0.2, "b2": -0.3, "omega": 0.5},
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
            "input": {"enabled": True, "b1": -0.4, "b2": -0.5, "omega": 0.5},
        },
        "radar": {},
        "rect": {},
    },
}


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError("missing required field", f"{path}.{key}")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def build_config(raw: dict) -> ScenarioConfig:
    """Validate a raw mapping and materialize a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping", "")
    known = {"preset", "scenario", "model", "radar", "rect"}
    for key in raw:
        if key not in known:
            raise ConfigError("unknown section", key)

    sc = raw.get("scenario", {})
    mo = raw.get("model", {})
    ra = raw.get("radar", {})
    re = raw.get("rect", {})

    mean_raw = _require(sc, "initial_mean", "scenario")
    if not isinstance(mean_raw, (list, tuple)) or len(mean_raw) != 6:
        raise ConfigError("initial_mean must be a 6-element list", "scenario.initial_mean")
    mean = StateVector(*[_number(v, "scenario.initial_mean") for v in mean_raw])

    cov_raw = sc.get("initial_cov", "riccati")
    if isinstance(cov_raw, str):
        if cov_raw != "riccati":
            raise ConfigError(
                "initial_cov must be 'riccati' or a 6x6 matrix", "scenario.initial_cov"
            )
        cov = None
    else:
        cov = np.asarray(cov_raw, dtype=float)
        if cov.shape != (6, 6):
            raise ConfigError("initial_cov matrix must be 6x6", "scenario.initial_cov")

    inp = mo.get("input", {})
    enabled = bool(inp.get("enabled", False))
    try:
        model = MotionModel(
            qx=_number(_require(mo, "qx", "model"), "model.qx"),
            qy=_number(_require(mo, "qy", "model"), "model.qy"),
            b1=_number(inp.get("b1", 0.0), "model.input.b1"),
            b2=_number(inp.get("b2", 0.0), "model.input.b2"),
            omega=_number(inp.get("omega", 0.0), "model.input.omega"),
            input_enabled=enabled,
        )
        radar = RadarNoise(
            sigma_r=_number(ra.get("sigma_r", 0.5), "radar.sigma_r"),
            sigma_phi=_number(ra.get("sigma_phi", 0.00873), "radar.sigma_phi"),
            sigma_rdot=_number(ra.get("sigma_rdot", 0.25), "radar.sigma_rdot"),
            cycle_time=_number(ra.get("cycle_time", 0.05), "radar.cycle_time"),
        )
        rect = HostRectangle(
            x_front=_number(re.get("x_front", 0.0), "rect.x_front"),
            x_rear=_number(re.get("x_rear", -5.0), "rect.x_rear"),
            y_left=_number(re.get("y_left", -1.0), "rect.y_left"),
            y_right=_number(re.get("y_right", 1.0), "rect.y_right"),
        )
        return ScenarioConfig(
            initial_mean=mean,
            model=model,
            radar=radar,
            rect=rect,
            initial_cov=cov,
            horizon=_number(sc.get("horizon", 8.0), "scenario.horizon"),
            sim_step=_number(sc.get("sim_step", 0.01), "scenario.sim_step"),
            bin_width=_number(sc.get("bin_width", 0.05), "scenario.bin_width"),
            n_traj=_integer(sc.get("n_traj", 100_000), "scenario.n_traj"),
            seed=_integer(sc.get("seed", 0), "scenario.seed"),
            terminate_on_entry=bool(sc.get("terminate_on_entry", False)),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), "config") from exc


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
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
    config = build_config(preset_raw(name))
    if overrides:
        config = replace(config, **overrides)
    return config


def load_config(path: str) -> ScenarioConfig:
    """Load a YAML config file; a 'preset' key merges overrides on a preset."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}", path) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping", path)
    if "preset" in raw:
        base = preset_raw(str(raw["preset"]))
        raw = _deep_merge(base, {k: v for k, v in raw.items() if k != "preset"})
    return build_config(raw)


def config_as_dict(config: ScenarioConfig) -> dict:
    """Fully materialized config (defaults resolved), for manifests."""
    return {
        "scenario": {
            "initial_mean": list(config.initial_mean.as_array()),
            "initial_cov": "riccati"
            if config.initial_cov is None
            else [list(row) for row in config.initial_cov],
            "horizon": config.horizon,
            "sim_step": config.sim_step,
            "bin_width": config.bin_width,
            "n_traj": config.n_traj,
            "seed": config.seed,
            "terminate_on_entry": config.terminate_on_entry,
        },
        "model": {
            "qx": config.model.qx,
            "qy": config.model.qy,
            "input": {
                "enabled": config.model.input_enabled,
                "b1": config.model.b1,
                "b2": config.model.b2,
                "omega": config.model.omega,
            },
        },
        "radar": {
            "sigma_r": config.radar.sigma_r,
            "sigma_phi": config.radar.sigma_phi,
            "sigma_rdot": config.radar.sigma_rdot,
            "cycle_time": config.radar.cycle_time,
        },
        "rect": {
            "x_front": config.rect.x_front,
            "x_rear": config.rect.x_rear,
            "y_left": config.rect.y_left,
            "y_right": config.rect.y_right,
        },
    }
