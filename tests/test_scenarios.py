"""Preset catalog, config-file ingestion and the initial covariance."""
import dataclasses
from unittest import mock

import numpy as np
import pytest

from crossrate import build_config, load_config, preset_config, scenarios
from crossrate.errors import ConfigError
from crossrate.scenarios import config_as_dict, preset_raw


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
