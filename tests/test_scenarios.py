"""Preset catalog, config-file ingestion and the initial covariance."""
import copy
import dataclasses
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from crossrate import build_config, load_config, preset_config, scenarios
from crossrate.errors import ConfigError
from crossrate.scenarios import PRESETS, config_as_dict, preset_raw

README = Path(__file__).resolve().parents[1] / "README.md"


class TestPresets:
    def test_front_preset_values(self):
        cfg = preset_config("front")
        np.testing.assert_allclose(
            cfg.initial_mean.as_array(), [10.0, 0.0, -2.0, 0.4, -0.2, 0.0]
        )
        assert cfg.model.qx == pytest.approx(0.0101)
        assert cfg.model.input_enabled
        assert (cfg.model.b1, cfg.model.b2, cfg.model.omega) == (-0.2, -0.3, 0.5)
        assert cfg.horizon == 8.0
        assert cfg.initial_cov is None  # resolved via Riccati on demand

    def test_front_right_preset_values(self):
        cfg = preset_config("front-right")
        np.testing.assert_allclose(
            cfg.initial_mean.as_array(), [10.0, 10.0, -2.0, -1.6, -0.001, -0.01]
        )
        assert cfg.model.qx == pytest.approx(0.0405)
        assert (cfg.model.b1, cfg.model.b2) == (-0.4, -0.5)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("side")

    def test_keyword_overrides(self):
        cfg = preset_config("front", n_traj=500, seed=42)
        assert cfg.n_traj == 500
        assert cfg.seed == 42

    def test_default_rect_and_radar(self):
        cfg = preset_config("front")
        assert (cfg.rect.x_front, cfg.rect.x_rear) == (0.0, -5.0)
        assert (cfg.rect.y_left, cfg.rect.y_right) == (-1.0, 1.0)
        assert cfg.radar.sigma_r == 0.5
        assert cfg.radar.cycle_time == 0.05


class TestBuildConfig:
    def test_missing_mean_names_field(self):
        with pytest.raises(ConfigError) as exc:
            build_config({"scenario": {}, "model": {"qx": 1.0, "qy": 1.0}})
        assert "scenario.initial_mean" in str(exc.value)

    def test_missing_noise_names_field(self):
        with pytest.raises(ConfigError) as exc:
            build_config({"scenario": {"initial_mean": [0, 0, 1, 0, 0, 0]}})
        assert "model.qx" in str(exc.value)

    def test_bad_mean_length(self):
        with pytest.raises(ConfigError):
            build_config(
                {
                    "scenario": {"initial_mean": [1, 2, 3]},
                    "model": {"qx": 1.0, "qy": 1.0},
                }
            )

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            build_config({"scenarios": {}})
        assert "scenarios" in str(exc.value)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError):
            build_config(
                {
                    "scenario": {"initial_mean": [0, 0, 1, 0, 0, "fast"]},
                    "model": {"qx": 1.0, "qy": 1.0},
                }
            )

    def test_explicit_cov_matrix(self):
        raw = {
            "scenario": {
                "initial_mean": [10, 0, -2, 0, 0, 0],
                "initial_cov": np.eye(6).tolist(),
            },
            "model": {"qx": 0.1, "qy": 0.1},
        }
        cfg = build_config(raw)
        np.testing.assert_allclose(cfg.resolve_initial_cov(), np.eye(6))

    def test_bad_cov_keyword(self):
        raw = {
            "scenario": {
                "initial_mean": [10, 0, -2, 0, 0, 0],
                "initial_cov": "identity",
            },
            "model": {"qx": 0.1, "qy": 0.1},
        }
        with pytest.raises(ConfigError):
            build_config(raw)


class TestResolveInitialCov:
    def test_riccati_solved_once_per_config(self):
        cfg = preset_config("front")
        solver = scenarios.steady_state_covariance
        with mock.patch.object(scenarios, "steady_state_covariance", wraps=solver) as solve:
            cov = cfg.resolve_initial_cov()
            assert cfg.resolve_initial_cov() is cov
            assert solve.call_count == 1
            other = dataclasses.replace(cfg, seed=cfg.seed + 1).resolve_initial_cov()
            assert solve.call_count == 2
        np.testing.assert_array_equal(other, cov)

    def test_initial_density_built_once_per_config(self):
        cfg = preset_config("front")
        with mock.patch.object(
            scenarios, "GaussianDensity", wraps=scenarios.GaussianDensity
        ) as build:
            g2 = cfg.predicted_density(2.0)
            g5 = cfg.predicted_density(5.0)
            assert build.call_count == 1
            other = dataclasses.replace(cfg, seed=cfg.seed + 1).predicted_density(2.0)
            assert build.call_count == 2
        np.testing.assert_array_equal(other.mean, g2.mean)
        np.testing.assert_array_equal(other.cov, g2.cov)
        assert not np.array_equal(g5.mean, g2.mean)
        np.testing.assert_array_equal(
            cfg.predicted_density(0.0).cov, cfg.resolve_initial_cov()
        )

    @pytest.mark.parametrize("initial_cov", [None, np.eye(6)])
    def test_read_only(self, initial_cov):
        cov = preset_config("front", initial_cov=initial_cov).resolve_initial_cov()
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0


class TestLoadConfig:
    def test_preset_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "preset: front\nscenario:\n  n_traj: 1234\nmodel:\n  qx: 0.5\n"
        )
        cfg = load_config(str(path))
        assert cfg.n_traj == 1234
        assert cfg.model.qx == 0.5
        assert cfg.model.qy == pytest.approx(0.0101)  # untouched preset value

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_mapping_root(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_round_trip_through_manifest_dict(self, tmp_path):
        """config -> materialized dict -> rebuilt config is identical."""
        cfg = preset_config("front-right", n_traj=777, seed=3)
        rebuilt = build_config(config_as_dict(cfg))
        assert rebuilt == cfg


def test_preset_raw_is_a_copy():
    raw = preset_raw("front")
    raw["scenario"]["n_traj"] = 1
    assert preset_raw("front")["scenario"]["n_traj"] == 100_000


# A raw config that sets every field of every section.
FULL = {
    "scenario": {
        "initial_mean": [12.0, 1.0, -2.5, 0.3, -0.1, 0.02],
        "initial_cov": np.diag([0.5, 0.3, 0.2, 0.1, 0.05, 0.05]).tolist(),
        "horizon": 6.0,
        "sim_step": 0.02,
        "bin_width": 0.1,
        "n_traj": 3000,
        "seed": 77,
    },
    "model": {
        "qx": 0.02,
        "qy": 0.03,
        "input": {"b1": -0.1, "b2": 0.2, "omega": 0.7},
    },
    "radar": {"sigma_r": 0.4, "sigma_phi": 0.01, "sigma_rdot": 0.3, "cycle_time": 0.1},
    "rect": {"x_front": 0.5, "x_rear": -4.5, "y_left": -0.9, "y_right": 1.1},
}
SECTIONS = ["scenario", "model", "model.input", "radar", "rect"]


def at(raw: dict, path: str):
    """The value at a dotted path."""
    for name in path.split("."):
        raw = raw[name]
    return raw


def with_value(path: str, value) -> dict:
    """FULL with the field at dotted `path` set to `value`."""
    raw = copy.deepcopy(FULL)
    section, _, key = path.rpartition(".")
    (at(raw, section) if section else raw)[key] = value
    return raw


NUMBERS = [
    f"{section}.{key}"
    for section in SECTIONS
    for key, value in at(FULL, section).items()
    if isinstance(value, (int, float)) and not isinstance(value, bool)
]


def assert_same_config(a, b):
    """ScenarioConfig equality; == alone cannot compare initial_cov arrays."""
    assert dataclasses.replace(a, initial_cov=None) == dataclasses.replace(b, initial_cov=None)
    if a.initial_cov is None or b.initial_cov is None:
        assert a.initial_cov is None and b.initial_cov is None
    else:
        np.testing.assert_array_equal(a.initial_cov, b.initial_cov)


def rejection_cases():
    yield "", 5, "config"
    for section in SECTIONS:
        yield f"{section}.bogus", 1.0, f"{section}.bogus"
        yield section, 5, section
        yield section, [1.0], section
    for value in ("false", 1):  # campaigns count every entry: the key is unknown
        yield "scenario.terminate_on_entry", value, "scenario.terminate_on_entry"
    yield "model.input.enabled", True, "model.input.enabled"  # no switch: the gains set it
    yield "model.input.omega", 0.0, "omega must be > 0"  # FULL's gains are non-zero
    for path in NUMBERS:
        for bad in (float("nan"), float("inf"), -float("inf"), True, "1.0"):
            yield path, bad, path
    yield "scenario.horizon", 10**400, "scenario.horizon"  # beyond the float range
    mean = FULL["scenario"]["initial_mean"]
    yield "scenario.initial_mean", [*mean[:5], float("nan")], "scenario.initial_mean"
    yield "scenario.initial_mean", [*mean[:5], True], "scenario.initial_mean"
    cov = copy.deepcopy(FULL["scenario"]["initial_cov"])
    cov[2][3] = float("inf")
    yield "scenario.initial_cov", cov, "scenario.initial_cov"
    yield "scenario.initial_cov", [[1.0] * 6] * 5, "initial_cov"
    yield "scenario.initial_cov", [[1.0] * 6] * 5 + [[1.0] * 5], "scenario.initial_cov"
    # a range error starts with the section.key, or with the section of a
    # model, radar or rect value, whose message names the field
    yield "scenario.horizon", 0.0, "scenario.horizon: must be > 0"
    yield "scenario.bin_width", 0.0, "scenario.bin_width: must be > 0"
    yield "model.qx", -1.0, "model: jerk PSDs must be >= 0, got qx=-1.0"
    yield "radar.sigma_r", 0.0, "radar: sigma_r must be > 0"
    yield "rect.x_rear", 1.0, "rect: x_rear (1.0) must be < x_front (0.5)"


class TestSchema:
    def test_full_config_is_valid(self):
        cfg = build_config(FULL)
        assert (cfg.radar.sigma_phi, cfg.rect.x_rear, cfg.seed) == (0.01, -4.5, 77)
        assert cfg.model.input_enabled

    @pytest.mark.parametrize("path, value, named", list(rejection_cases()))
    def test_rejected_with_path(self, path, value, named):
        raw = value if path == "" else with_value(path, value)
        with pytest.raises(ConfigError) as exc:
            build_config(raw)
        assert named in str(exc.value)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_overrides_are_checked(self, preset):
        with pytest.raises(ConfigError, match=r"radar\.sigma_rr"):
            build_config({"preset": preset, "radar": {"sigma_rr": 3.0}})

    def test_preset_key_applies_the_preset(self):
        cfg = build_config({"preset": "front-right", "scenario": {"n_traj": 50}})
        assert_same_config(cfg, preset_config("front-right", n_traj=50))
        assert cfg.seed == 20260824 and cfg.model.input_enabled


def numbers(lo, hi):
    """Ints or floats in [lo, hi]."""
    ints = st.integers(int(np.ceil(lo)), int(np.floor(hi)))
    floats = st.floats(lo, hi)
    return st.one_of(ints, floats) if np.ceil(lo) <= np.floor(hi) else floats


FIELD_VALUES = {
    "scenario.initial_mean": st.lists(numbers(-20, 20), min_size=6, max_size=6),
    "scenario.initial_cov": st.one_of(
        st.just("riccati"),
        st.lists(st.floats(1e-3, 10.0), min_size=6, max_size=6).map(
            lambda d: np.diag(d).tolist()
        ),
    ),
    "scenario.horizon": numbers(0.5, 20.0),
    "scenario.sim_step": numbers(1e-3, 0.01),
    "scenario.bin_width": numbers(0.01, 2.0),
    "scenario.n_traj": st.integers(1, 10**6),
    "scenario.seed": st.integers(0, 2**64 - 1),
    "model.qx": numbers(0.0, 2.0),
    "model.qy": numbers(0.0, 2.0),
    "model.input.b1": numbers(-1.0, 1.0),
    "model.input.b2": numbers(-1.0, 1.0),
    "model.input.omega": numbers(0.1, 2.0),
    "radar.sigma_r": numbers(0.1, 2.0),
    "radar.sigma_phi": numbers(1e-3, 0.05),
    "radar.sigma_rdot": numbers(0.1, 1.0),
    "radar.cycle_time": numbers(0.01, 0.2),
    "rect.x_front": numbers(0.0, 2.0),
    "rect.x_rear": numbers(-8.0, -1.0),
    "rect.y_left": numbers(-3.0, -0.5),
    "rect.y_right": numbers(0.5, 3.0),
}
# What a raw config without a preset must give: the fields without a default,
# and omega, which non-zero gains need to be > 0.
REQUIRED = ("scenario.initial_mean", "model.qx", "model.qy", "model.input.omega")


@st.composite
def raw_configs(draw):
    """A valid raw config: a preset or not, and a random subset of fields."""
    preset = draw(st.one_of(st.none(), st.sampled_from(sorted(PRESETS))))
    given = {}
    for path, values in FIELD_VALUES.items():
        if (preset is None and path in REQUIRED) or draw(st.booleans()):
            given[path] = draw(values)
    raw = {} if preset is None else {"preset": preset}
    for path, value in given.items():
        *sections, key = path.split(".")
        node = raw
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
    return raw


def leaves(raw: dict, prefix=""):
    """(dotted path, value) of every non-mapping value."""
    for key, value in raw.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(raw=raw_configs())
    def test_manifest_dict_round_trip(self, raw, tmp_path_factory):
        cfg = build_config(raw)
        written = config_as_dict(cfg)
        assert_same_config(build_config(written), cfg)
        # the dict holds every value given, and every preset value not overridden
        expected = dict(raw)
        if "preset" in expected:
            expected = scenarios._deep_merge(preset_raw(expected.pop("preset")), expected)
        for path, value in leaves(expected):
            assert at(written, path) == value, path
        yaml_path = tmp_path_factory.mktemp("cfg") / "cfg.yaml"
        yaml_path.write_text(yaml.safe_dump(raw))
        assert_same_config(load_config(str(yaml_path)), cfg)


class TestInitialCovAndSeed:
    @pytest.mark.parametrize(
        "cov, why",
        [
            (np.eye(6) + 0.5 * np.eye(6, k=1), "not symmetric"),
            (np.diag([1.0, 1.0, -1.0, 1.0, 1.0, 1.0]), "positive semi-definite"),
            (np.diag([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), "finite"),
            (np.eye(5), "6x6"),
        ],
    )
    def test_bad_initial_cov_rejected_at_build(self, cov, why):
        with pytest.raises(ConfigError, match=why) as exc:
            preset_config("front", initial_cov=cov)
        assert exc.value.field == "scenario.initial_cov"

    @pytest.mark.parametrize("psds", [{"qx": 0.0}, {"qy": 0.0}, {"qx": 0.0, "qy": 0.0}])
    def test_riccati_needs_noise_on_both_axes(self, psds):
        """The steady state needs process noise on each axis; the config builds,
        as a zero-noise model with an explicit P0 may, and resolving P0 refuses it."""
        cfg = preset_config("front")
        cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, **psds))
        with pytest.raises(ConfigError, match="qx > 0 and qy > 0") as exc:
            cfg.resolve_initial_cov()
        assert exc.value.field == "scenario.initial_cov"

    def test_asymmetric_cov_from_yaml(self, tmp_path):
        cov = np.eye(6)
        cov[0, 1] = 0.5
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"preset": "front", "scenario": {"initial_cov": cov.tolist()}}))
        with pytest.raises(ConfigError, match="not symmetric"):
            load_config(str(path))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            preset_config("front", seed=seed)
        with pytest.raises(ConfigError, match="seed"):
            build_config({"preset": "front", "scenario": {"seed": seed}})

    def test_seed_range_ends(self):
        assert preset_config("front", seed=0).seed == 0
        assert preset_config("front", seed=2**64 - 1).seed == 2**64 - 1


def test_readme_yaml_blocks_load(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    defaults_checked = False
    for i, block in enumerate(blocks):
        path = tmp_path / f"block{i}.yaml"
        path.write_text(block)
        cfg = load_config(str(path))
        if block.startswith("# every field at its default"):
            raw = yaml.safe_load(block)
            required = {
                "scenario": {"initial_mean": raw["scenario"]["initial_mean"]},
                "model": {"qx": raw["model"]["qx"], "qy": raw["model"]["qy"]},
            }
            assert_same_config(cfg, build_config(required))
            defaults_checked = True
    assert defaults_checked, "README.md lists no config defaults"
