"""Command-line surface: outputs, formats, exit codes, determinism."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossrate.montecarlo as montecarlo
import crossrate.scenarios as scenarios
from crossrate.cli import main
from crossrate.errors import NumericsError

FRONT_SMALL = ["--preset", "front", "--n-traj", "800"]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def count_predictions(monkeypatch):
    """The dt of every scenarios.predict_density call from here on, in order."""
    calls = []
    original = scenarios.predict_density

    def counting(g, dt, model, t0=0.0):
        calls.append(dt)
        return original(g, dt, model, t0)

    monkeypatch.setattr(scenarios, "predict_density", counting)
    return calls


class TestSimulate:
    def test_outputs_and_schema(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", *FRONT_SMALL, "--out-dir", str(out)]) == 0
        rows = read_csv(out / "histogram.csv")
        assert rows, "histogram must not be empty"
        expected = {
            "bin_start_s",
            "bin_mid_s",
            "first_entry_rate_total",
            "first_entry_rate_front",
            "first_entry_rate_right",
            "first_entry_rate_left",
            "first_entry_rate_rear",
            "all_entry_rate_total",
            "all_entry_rate_front",
            "all_entry_rate_right",
            "all_entry_rate_left",
            "all_entry_rate_rear",
            "integrated_probability",
        }
        assert set(rows[0]) == expected
        stats = json.loads((out / "statistics.json").read_text())
        assert stats["first_entry_boundary_totals"]["left"] == 0
        assert stats["first_entry_boundary_totals"]["rear"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["model"]["qx"] == pytest.approx(0.0101)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", *FRONT_SMALL, "--out-dir", str(a)])
        main(["simulate", *FRONT_SMALL, "--out-dir", str(b), "--threads", "4"])
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
        assert (a / "statistics.json").read_bytes() == (
            b / "statistics.json"
        ).read_bytes()

    def test_manifest_records_threads(self, tmp_path):
        argv = ["simulate", *FRONT_SMALL, "--threads", "3", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["threads"] == 3

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_manifest_records_peak_rss(self, tmp_path, monkeypatch, command):
        """The parent's peak RSS, and the workers' summed, which is 0 with no workers."""
        monkeypatch.setattr(montecarlo, "_BATCH_SIZE", 400)  # two batches of FRONT_SMALL
        peaks = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            argv = [command, *FRONT_SMALL, "--threads", str(threads), "--out-dir", str(out)]
            assert main(argv) == 0
            peaks[threads] = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
        assert peaks[1]["parent"] > 0.0 and peaks[2]["parent"] > 0.0
        assert peaks[1]["workers_sum"] == 0.0
        assert peaks[2]["workers_sum"] > 0.0

    def test_zero_trajectories_exit_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--preset", "front", "--n-traj", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "n_traj" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSRATE_SEED", "321")
        out = tmp_path / "s"
        main(["simulate", *FRONT_SMALL, "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 321

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSRATE_SEED", "321")
        out = tmp_path / "s"
        main(["simulate", *FRONT_SMALL, "--seed", "11", "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_bad_env_seed_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSRATE_SEED", "not-a-number")
        assert main(["simulate", *FRONT_SMALL, "--out-dir", str(tmp_path)]) == 2


class TestIntensity:
    def test_dense_grid_schema(self, tmp_path):
        out = tmp_path / "i"
        assert (
            main(
                [
                    "intensity",
                    "--preset",
                    "front",
                    "--dt",
                    "0.5",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        rows = read_csv(out / "intensity.csv")
        assert len(rows) == 17  # 0..8 inclusive at 0.5s
        assert set(rows[0]) == {
            "t_s",
            "mu_total",
            "mu_front",
            "mu_right",
            "mu_left",
            "mu_rear",
            "method",
        }
        assert rows[0]["method"] == "quadrature"
        total = np.array([float(r["mu_total"]) for r in rows])
        parts = np.array(
            [
                sum(float(r[f"mu_{s}"]) for s in ("front", "right", "left", "rear"))
                for r in rows
            ]
        )
        np.testing.assert_allclose(total, parts, rtol=1e-6, atol=1e-12)

    def test_adaptive_records_evaluations(self, tmp_path):
        out = tmp_path / "a"
        assert (
            main(
                ["intensity", "--preset", "front", "--adaptive", "--out-dir", str(out)]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["evaluations_used"] <= 15
        rows = read_csv(out / "intensity.csv")
        assert len(rows) == manifest["evaluations_used"]

    def test_taylor0_close_to_quadrature(self, tmp_path):
        vals = {}
        for method in ("quadrature", "taylor0"):
            out = tmp_path / method
            main(
                [
                    "intensity",
                    "--preset",
                    "front",
                    "--method",
                    method,
                    "--dt",
                    "0.25",
                    "--out-dir",
                    str(out),
                ]
            )
            rows = read_csv(out / "intensity.csv")
            vals[method] = np.array([float(r["mu_total"]) for r in rows])
        peak = vals["quadrature"].max()
        assert np.abs(vals["taylor0"] - vals["quadrature"]).max() < 0.10 * peak


class TestProbability:
    def test_front_six_seconds_exceeds_0p6(self, tmp_path):
        out = tmp_path / "p"
        assert (
            main(
                ["probability", "--preset", "front", "--t2", "6", "--out-dir", str(out)]
            )
            == 0
        )
        payload = json.loads((out / "probability.json").read_text())
        assert payload["p_upper"] > 0.6
        assert payload["p_capped"] <= 1.0

    def test_degenerate_interval_is_zero(self, tmp_path):
        out = tmp_path / "p0"
        main(
            [
                "probability",
                "--preset",
                "front",
                "--t1",
                "3",
                "--t2",
                "3",
                "--dt",
                "0.5",
                "--out-dir",
                str(out),
            ]
        )
        payload = json.loads((out / "probability.json").read_text())
        assert payload["p_upper"] == 0.0

    def test_adaptive_close_to_dense(self, tmp_path):
        results = {}
        for label, flags in {
            "dense": [],
            "adaptive": ["--adaptive"],
        }.items():
            out = tmp_path / label
            main(
                [
                    "probability",
                    "--preset",
                    "front",
                    "--t2",
                    "8",
                    *flags,
                    "--out-dir",
                    str(out),
                ]
            )
            results[label] = json.loads((out / "probability.json").read_text())[
                "p_upper"
            ]
        assert results["adaptive"] == pytest.approx(results["dense"], rel=0.05)

    def test_adaptive_window_beyond_samples_exit_3(self, tmp_path, capsys):
        """The adaptive samples of `front` end near 6.1 s; [7, 8] was never sampled."""
        out = tmp_path / "p"
        argv = ["probability", "--preset", "front", "--adaptive", "--method", "taylor0"]
        assert main([*argv, "--t1", "7", "--t2", "8", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "window [7, 8] s" in err
        assert not out.exists()


class TestTtc:
    def test_deterministic_single_bin(self, tmp_path):
        out = tmp_path / "t"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario:\n"
            "  initial_mean: [10, 0, -2, 0, 0, 0]\n"
            "  initial_cov: "
            + str([[0.0] * 6 for _ in range(6)])
            + "\n"
            "  n_traj: 50\n"
            "model:\n  qx: 0.0\n  qy: 0.0\n"
        )
        assert main(["ttc", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_csv(out / "ttc_histogram.csv")
        front = np.array([float(r["front_rate"]) for r in rows])
        assert np.count_nonzero(front) == 1
        seeds = json.loads((out / "ttc_seeds.json").read_text())
        assert seeds["seeds"][0] == {"segment": "front", "t_s": 5.0}

    def test_noisy_preset_auto_restricted(self, tmp_path):
        """Preset with input+noise is reduced to the deterministic TTC model."""
        out = tmp_path / "t2"
        assert (
            main(
                [
                    "ttc",
                    "--preset",
                    "front-right",
                    "--n-traj",
                    "2000",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["qx"] == 0.0
        assert manifest["config"]["model"]["input"]["enabled"] is False
        rows = read_csv(out / "ttc_histogram.csv")
        assert sum(float(r["front_rate"]) + float(r["right_rate"]) for r in rows) > 0


class TestSalient:
    def test_zero_offset_matches_intensity(self, tmp_path):
        sal = tmp_path / "sal"
        inten = tmp_path / "inten"
        main(
            [
                "salient",
                "--preset",
                "front",
                "--offset",
                "0,0",
                "--dt",
                "1.0",
                "--out-dir",
                str(sal),
            ]
        )
        main(
            [
                "intensity",
                "--preset",
                "front",
                "--dt",
                "1.0",
                "--out-dir",
                str(inten),
            ]
        )
        srows = read_csv(sal / "salient_0.csv")
        irows = read_csv(inten / "intensity.csv")
        assert len(srows) == len(irows)
        for s, i in zip(srows, irows):
            assert float(s["mu_total_quadrature"]) == pytest.approx(
                float(i["mu_total"]), rel=1e-6, abs=1e-12
            )

    def test_emits_all_methods_and_corners(self, tmp_path):
        out = tmp_path / "s"
        main(
            [
                "salient",
                "--preset",
                "front",
                "--offset",
                "2,1",
                "--offset=-2,1",
                "--dt",
                "2.0",
                "--out-dir",
                str(out),
            ]
        )
        for idx in (0, 1):
            rows = read_csv(out / f"salient_{idx}.csv")
            assert set(rows[0]) == {
                "t_s",
                "mu_total_quadrature",
                "mu_total_taylor0",
                "mu_total_taylor1_inv",
                "mu_total_taylor1_cov",
            }

    def test_negative_offset_in_equals_form(self, tmp_path):
        """A negative offset is passed as --offset=DX,DY, which argparse cannot read as a flag."""
        out = tmp_path / "s"
        args = ["salient", "--preset", "front", "--offset=-4,-0.9", "--dt", "2.0"]
        assert main([*args, "--out-dir", str(out)]) == 0
        assert read_csv(out / "salient_0.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["offsets"] == [[-4.0, -0.9]]

    def test_bad_offset_exit_2(self, tmp_path):
        assert (
            main(
                [
                    "salient",
                    "--preset",
                    "front",
                    "--offset",
                    "1;2",
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            == 2
        )


    def test_predicts_each_time_once(self, tmp_path, monkeypatch):
        """Every offset transforms the one density predicted at each time."""
        calls = count_predictions(monkeypatch)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("preset: front\nscenario:\n  horizon: 2.0\n")
        argv = ["salient", "--config", str(cfg), "--offset", "2,1", "--offset=-2,1"]
        assert main([*argv, "--out-dir", str(tmp_path / "s")]) == 0
        for idx in (0, 1):
            assert len(read_csv(tmp_path / "s" / f"salient_{idx}.csv")) == 41
        assert len(calls) == len(set(calls)) == 41


class TestCompare:
    def test_shared_grid_schema(self, tmp_path):
        out = tmp_path / "c"
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "preset: front\nscenario:\n  n_traj: 500\n  horizon: 2.0\n"
        )
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_csv(out / "compare.csv")
        assert len(rows) == 40  # 2s horizon / 0.05s bins
        assert set(rows[0]) == {
            "t_s",
            "mc_first_entry_rate",
            "mu_quadrature",
            "mu_taylor0",
            "mu_taylor1_inv",
            "mu_taylor1_cov",
            "spatial_overlap",
            "ttc_front_rate",
            "ttc_right_rate",
        }
        assert json.loads((out / "manifest.json").read_text())["threads"] == 1

    def test_predicts_each_bin_once(self, tmp_path, monkeypatch):
        """The four methods and the spatial overlap share one predicted
        density per bin."""
        calls = count_predictions(monkeypatch)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("preset: front\nscenario:\n  n_traj: 200\n  horizon: 2.0\n")
        assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 0
        rows = read_csv(tmp_path / "c" / "compare.csv")
        assert len(calls) == len(set(calls)) == len(rows) == 40


class TestErrorPaths:
    @pytest.mark.parametrize("method", ["quadrature", "taylor0", "taylor1_inv", "taylor1_cov"])
    def test_degenerate_density_exit_3(self, tmp_path, method, capsys):
        cfg = tmp_path / "cfg.yaml"
        cov = np.diag([1.0, 0.25, 0.0, 0.0, 0.0, 0.0]).tolist()
        cfg.write_text(
            "scenario:\n"
            "  initial_mean: [10, 0, -2, 0, 0, 0]\n"
            f"  initial_cov: {cov}\n"
            "model:\n  qx: 0.0\n  qy: 0.0\n"
        )
        argv = ["probability", "--config", str(cfg), "--t2", "8", "--method", method]
        assert main([*argv, "--out-dir", str(tmp_path / "p")]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "p" / "probability.json").exists()

    def test_worker_numerics_error_exit_3(self, tmp_path, monkeypatch, capsys):
        def failing(*args):
            raise NumericsError("raised in a worker")

        monkeypatch.setattr(montecarlo, "_BATCH_SIZE", 400)  # two batches of FRONT_SMALL
        monkeypatch.setattr(montecarlo, "_stream_crossings", failing)  # forked into the workers
        argv = ["simulate", *FRONT_SMALL, "--threads", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 3
        assert "numerical failure: raised in a worker" in capsys.readouterr().err
        assert not (tmp_path / "histogram.csv").exists()

    AT_ORIGIN = "scenario:\n  initial_mean: [0, 0, -2, 0, 0, 0]"  # zero radar range
    STATIONARY = "scenario:\n  initial_mean: [10, 0, 0, 0, 0, 0]\nmodel:\n  input: {enabled: false}"

    @pytest.mark.parametrize(
        "argv, scenario, message",
        [
            (["intensity", "--dt", "4"], AT_ORIGIN, "zero range"),
            (["simulate", "--n-traj", "10"], AT_ORIGIN, "zero range"),
            (["salient", "--dt", "4"], STATIONARY, "orientation undefined"),
        ],
        ids=["intensity-zero-range", "simulate-zero-range", "salient-stationary"],
    )
    def test_domain_error_exit_2(self, tmp_path, capsys, argv, scenario, message):
        """A scenario outside a map's domain is a configuration error, reported in one line."""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"preset: front\n{scenario}\n")
        assert main([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_invalid_yaml_exit_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: [unclosed\n")
        assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_preset_exit_2(self, tmp_path):
        assert (
            main(["intensity", "--preset", "front", "--out-dir", str(tmp_path), "--dt", "4"])
            == 0
        )
        bad = tmp_path / "cfg.yaml"
        bad.write_text("preset: sideways\n")
        assert main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_missing_config_and_preset_exit_2(self, tmp_path):
        assert main(["simulate", "--out-dir", str(tmp_path)]) == 2

    def test_unwritable_out_dir_exit_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        target = blocker / "sub"  # parent is a file -> I/O failure
        assert main(["intensity", "--preset", "front", "--dt", "4", "--out-dir", str(target)]) == 4

    def test_missing_config_file_exit_4(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        assert main(["simulate", "--config", str(missing), "--out-dir", str(tmp_path)]) == 4


class TestInvalidInputExit2:
    """Bad flags, config fields and seeds exit 2 before any output is written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["intensity", "--dt", "0"],
            ["intensity", "--dt=-0.05"],
            ["intensity", "--dt", "nan"],
            ["intensity", "--horizon=-1", "--method", "taylor0"],
            ["salient", "--dt", "0"],
            ["intensity", "--adaptive", "--rate-floor", "0"],
            ["intensity", "--adaptive", "--dt1", "0.2", "--dt2", "0.3"],
            ["intensity", "--adaptive", "--dt1", "inf"],
            ["probability", "--t1", "3", "--t2", "2", "--method", "taylor0", "--dt", "1"],
            ["probability", "--t1=-1", "--t2", "2", "--method", "taylor0", "--dt", "1"],
            ["probability", "--t1=-1", "--t2", "6", "--adaptive", "--method", "taylor0"],
            ["probability", "--t2", "inf", "--method", "taylor0"],
            ["probability", "--t2", "6", "--horizon", "2", "--method", "taylor0"],
            ["simulate", "--threads", "0"],
            ["simulate", "--threads=-3"],
            ["compare", "--threads", "0"],
            ["compare", "--threads=-3"],
        ],
    )
    def test_bad_flag(self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--preset", "front", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("t2, dt", [("8", "3"), ("6", "100")])
    def test_dense_grid_short_of_t2(self, tmp_path, capsys, t2, dt):
        """A --dt grid that ends before --t2, or has one point, cannot be integrated."""
        out = tmp_path / "out"
        argv = ["probability", "--preset", "front", "--t2", t2, "--dt", dt]
        assert main([*argv, "--method", "taylor0", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--dt" in err and "--t2" in err
        assert not out.exists()

    # the field named in the error -> the YAML that gets it wrong, over `preset: front`
    BAD_CONFIGS = {
        "radar.sigma_rr": "radar: {sigma_rr: 3.0}",
        "scenario.horizn": "scenario: {horizn: 3}",
        "model.q_x": "model: {q_x: 0.1}",
        "model.input.omga": "model: {input: {omga: 1.0}}",
        "scenario.terminate_on_entry": "scenario: {terminate_on_entry: 'false'}",
        "model.input.enabled": "model: {input: {enabled: 'false'}}",
        "radar": "radar: 5",
        "scenario.horizon": "scenario: {horizon: .inf}",
        "model.qx": "model: {qx: .nan}",
        "seed": "scenario: {seed: 18446744073709551616}",
        "initial_cov": "scenario: {initial_cov: %s}"
        % (np.eye(6) + 0.5 * np.eye(6, k=1)).tolist(),
    }

    @pytest.mark.parametrize("named", list(BAD_CONFIGS))
    def test_bad_config(self, tmp_path, capsys, named):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"preset: front\n{self.BAD_CONFIGS[named]}\n")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--n-traj", "16", "--out-dir", str(out)]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range(self, tmp_path, monkeypatch, seed):
        argv = ["simulate", "--preset", "front", "--n-traj", "16", "--out-dir", str(tmp_path)]
        assert main([*argv, "--seed", seed]) == 2
        monkeypatch.setenv("CROSSRATE_SEED", seed)
        assert main(argv) == 2

    def test_largest_seed_runs(self, tmp_path):
        argv = ["simulate", "--preset", "front", "--n-traj", "16", "--out-dir", str(tmp_path)]
        assert main([*argv, "--seed", str(2**64 - 1)]) == 0


def test_import_leaves_scipy_integrate_unloaded():
    """The library computes in closed form; scipy.integrate costs ~20 MB to import."""
    import crossrate

    src = str(Path(crossrate.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = "import sys, crossrate, crossrate.cli; sys.exit('scipy.integrate' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), timeout=60
    )
    assert result.returncode == 0


def test_csv_numbers_are_locale_independent(tmp_path):
    out = tmp_path / "i"
    main(["intensity", "--preset", "front", "--dt", "2.0", "--out-dir", str(out)])
    text = (out / "intensity.csv").read_text()
    body = text.splitlines()[1:]
    for line in body:
        for token in line.split(",")[:-1]:  # last column is the method name
            float(token)  # must parse with C locale semantics
        assert ";" not in line
