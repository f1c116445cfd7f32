"""Monte-Carlo oracle: sampling, trajectory simulation, campaigns, TTC draws."""
import dataclasses
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrate import (
    CollisionRecord,
    GaussianDensity,
    HostRectangle,
    MotionModel,
    ScenarioConfig,
    StateVector,
    detect_crossings,
    predict_density,
    preset_config,
    run_campaign,
    sample_initial,
    simulate_trajectory,
    ttc_monte_carlo,
)
from crossrate import montecarlo
from crossrate.errors import ConfigError
from crossrate.geometry import SEGMENT_ORDER, CrossingEvent
from crossrate.montecarlo import _traj_rng

CA_MODEL = MotionModel(qx=0.0, qy=0.0)


def straight_config(x0=10.0, y0=0.0, xdot=-2.0, ydot=0.0, **kw):
    defaults = dict(
        initial_mean=StateVector(x0, y0, xdot, ydot, 0.0, 0.0),
        model=CA_MODEL,
        initial_cov=np.zeros((6, 6)),
        n_traj=1,
        seed=7,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ConfigError):
            straight_config(horizon=0.0)

    def test_rejects_step_larger_than_bin(self):
        with pytest.raises(ConfigError):
            straight_config(sim_step=0.1, bin_width=0.05)

    def test_rejects_zero_trajectories(self):
        with pytest.raises(ConfigError):
            straight_config(n_traj=0)

    def test_rejects_bad_cov_shape(self):
        with pytest.raises(ConfigError):
            straight_config(initial_cov=np.zeros((3, 3)))

    def test_step_counts(self):
        cfg = straight_config(horizon=8.0, sim_step=0.01, bin_width=0.05)
        assert cfg.n_steps == 800
        assert cfg.n_bins == 160


class TestSampleInitial:
    def test_zero_cov_returns_mean(self):
        cfg = straight_config()
        s = sample_initial(cfg, _traj_rng(cfg.seed, 0))
        np.testing.assert_allclose(s.as_array(), cfg.initial_mean.as_array())

    def test_empirical_moments(self):
        cov = np.diag([0.4, 0.3, 0.2, 0.2, 0.05, 0.05])
        cfg = straight_config(initial_cov=cov)
        n = 100_000
        draws = np.array(
            [sample_initial(cfg, _traj_rng(cfg.seed, i)).as_array() for i in range(n)]
        )
        mean = cfg.initial_mean.as_array()
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * sd / math.sqrt(n))
        emp_cov = np.cov(draws.T)
        frob = np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov)
        assert frob < 0.05

    def test_deterministic_per_traj_id(self):
        cfg = straight_config(initial_cov=np.eye(6))
        a = sample_initial(cfg, _traj_rng(cfg.seed, 5)).as_array()
        b = sample_initial(cfg, _traj_rng(cfg.seed, 5)).as_array()
        c = sample_initial(cfg, _traj_rng(cfg.seed, 6)).as_array()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimulateTrajectory:
    def test_straight_inbound_single_entry(self):
        cfg = straight_config()
        rec = simulate_trajectory(cfg.initial_mean, cfg, _traj_rng(cfg.seed, 0))
        entries = [ev for ev in rec.events if ev.kind == "entry"]
        assert len(entries) == 1
        assert entries[0].segment == "front"
        assert entries[0].time == pytest.approx(5.0, abs=cfg.sim_step)

    def test_far_trajectory_no_events(self):
        cfg = straight_config(x0=100.0, y0=100.0, xdot=1.0, ydot=1.0)
        rec = simulate_trajectory(cfg.initial_mean, cfg, _traj_rng(cfg.seed, 0))
        assert rec.events == ()

    def test_two_entry_record_from_scripted_waypoints(self):
        """Enter front, exit right, re-enter right: N+ = 2, right first-entry 1."""
        rect = HostRectangle(0.0, -5.0, -1.0, 1.0)
        waypoints = [(1.0, 0.0), (-1.0, 0.0), (-1.0, 2.0), (-2.0, 0.5)]
        events = []
        for k, (p0, p1) in enumerate(zip(waypoints[:-1], waypoints[1:])):
            for cx in detect_crossings(p0, p1, rect):
                events.append(
                    CrossingEvent(k + cx.fraction, cx.segment, cx.point, cx.kind)
                )
        rec = CollisionRecord(0, tuple(events))
        assert rec.n_entries_host == 2
        assert [ev.kind for ev in rec.events] == ["entry", "exit", "entry"]
        assert rec.first_entry.segment == "front"
        assert len(rec.segment_entry_times("right")) == 1

    def test_exact_corner_hit_is_one_entry(self):
        # zero noise, 0.5 s steps: the chord (0.25, 1.25) -> (-0.75, 0.25)
        # meets the front and right sides at the front-right corner at s = 0.25
        cfg = straight_config(
            x0=1.25, y0=2.25, xdot=-2.0, ydot=-2.0, sim_step=0.5, bin_width=0.5, horizon=3.0
        )
        rec = simulate_trajectory(cfg.initial_mean, cfg, _traj_rng(cfg.seed, 0))
        assert rec.n_entries_host == 1
        assert rec.first_entry.segment == "front"
        assert rec.first_entry.time == 0.625
        assert rec.first_entry.point == (0.0, 1.0)

    def test_diagonal_corner_graze_has_no_events(self):
        # the line x + y = 1 touches the rectangle at the front-right corner only
        cfg = straight_config(
            x0=1.25, y0=-0.25, xdot=-2.0, ydot=2.0, sim_step=0.5, bin_width=0.5, horizon=3.0
        )
        rec = simulate_trajectory(cfg.initial_mean, cfg, _traj_rng(cfg.seed, 0))
        assert rec.events == ()

    def test_crossing_time_interpolated_within_step(self):
        cfg = straight_config(sim_step=0.05, bin_width=0.05)
        rec = simulate_trajectory(cfg.initial_mean, cfg, _traj_rng(cfg.seed, 0))
        t = rec.first_entry.time
        # 10 / 2 = 5.0 exactly; chord interpolation recovers it sub-step
        assert t == pytest.approx(5.0, abs=1e-9)


class TestRunCampaign:
    def test_single_trajectory_matches_direct_simulation(self):
        cfg = preset_config("front", n_traj=1, seed=123)
        cov = cfg.resolve_initial_cov()
        cfg = dataclasses.replace(cfg, initial_cov=cov)
        rng = _traj_rng(cfg.seed, 0)
        x0 = sample_initial(cfg, rng)
        rec = simulate_trajectory(x0, cfg, rng)
        res = run_campaign(cfg)
        if rec.first_entry is None:
            assert res.entry_stats["p_at_least_one"] == 0.0
        else:
            assert res.entry_stats["p_at_least_one"] == 1.0
            bi = int(rec.first_entry.time / cfg.bin_width)
            assert res.histogram.first_entry_counts["total"][bi] == 1

    def test_deterministic_across_threads(self):
        cfg = preset_config("front", n_traj=6000, seed=9)
        r1 = run_campaign(cfg, threads=1)
        r2 = run_campaign(cfg, threads=3)
        assert r1.entry_stats == r2.entry_stats
        for key in r1.histogram.first_entry_counts:
            np.testing.assert_array_equal(
                r1.histogram.first_entry_counts[key],
                r2.histogram.first_entry_counts[key],
            )
            np.testing.assert_array_equal(
                r1.histogram.all_entry_counts[key],
                r2.histogram.all_entry_counts[key],
            )

    def test_first_rates_bounded_by_all_rates(self):
        cfg = preset_config("front", n_traj=5000)
        res = run_campaign(cfg)
        for key in res.histogram.first_entry_counts:
            assert np.all(
                res.histogram.first_entry_counts[key]
                <= res.histogram.all_entry_counts[key]
            )

    def test_segment_first_entries_cover_total(self):
        cfg = preset_config("front", n_traj=5000)
        res = run_campaign(cfg)
        seg_sum = sum(
            res.histogram.first_entry_counts[k].sum()
            for k in ("front", "right", "left", "rear")
        )
        assert seg_sum >= res.histogram.first_entry_counts["total"].sum()

    def test_front_scenario_boundary_split(self):
        """Table-shape check: front ~0.50, right ~0.14, left = rear = 0."""
        cfg = preset_config("front", n_traj=20_000)
        res = run_campaign(cfg)
        frac = res.entry_stats["first_entry_boundary_fractions"]
        assert frac["front"] == pytest.approx(0.50, abs=0.05)
        assert frac["right"] == pytest.approx(0.14, abs=0.05)
        assert frac["left"] == 0.0
        assert frac["rear"] == 0.0

    def test_terminate_on_entry_cuts_events(self):
        cfg = preset_config("front", n_traj=3000, terminate_on_entry=True)
        res = run_campaign(cfg)
        # no trajectory can record more than one entry
        assert all(k == 1 for k in res.entry_stats["multiplicity_counts"])

    def test_empirical_moments_match_prediction(self):
        """Simulated ensemble at t=3 vs analytic predicted density."""
        cfg = preset_config("front", n_traj=4000, horizon=3.0)
        cov0 = cfg.resolve_initial_cov()
        cfg = dataclasses.replace(cfg, initial_cov=cov0)
        from crossrate.gaussian import psd_factor
        from crossrate.montecarlo import _step_kernel

        phi_t, chol_q_t, u = _step_kernel(cfg)
        n = cfg.n_traj
        x = np.empty((n, 6))
        z = np.empty((n, cfg.n_steps, 6))
        mean = cfg.initial_mean.as_array()
        cf = psd_factor(cov0)
        for j in range(n):
            rng = _traj_rng(cfg.seed, j)
            x[j] = mean + cf @ rng.standard_normal(6)
            z[j] = rng.standard_normal((cfg.n_steps, 6))
        w = z @ chol_q_t
        for k in range(cfg.n_steps):
            x = x @ phi_t + u[k] + w[:, k, :]
        target = predict_density(GaussianDensity(mean, cov0), 3.0, cfg.model)
        sd = np.sqrt(np.diag(target.cov))
        assert np.all(
            np.abs(x.mean(axis=0) - target.mean) < 4 * sd / math.sqrt(n) + 1e-9
        )
        emp_sd = x.std(axis=0)
        assert np.all(np.abs(emp_sd - sd) < 0.1 * sd)


def assert_same_campaign(a, b):
    assert a.entry_stats == b.entry_stats
    for counts in ("first_entry_counts", "all_entry_counts"):
        ca, cb = getattr(a.histogram, counts), getattr(b.histogram, counts)
        assert ca.keys() == cb.keys()
        for key in ca:
            np.testing.assert_array_equal(ca[key], cb[key])


def counts_from_records(cfg):
    """Campaign counts rebuilt one trajectory at a time from event records."""
    n_bins = cfg.n_bins
    keys = ["total", *SEGMENT_ORDER]
    first = {k: np.zeros(n_bins, dtype=np.int64) for k in keys}
    all_ = {k: np.zeros(n_bins, dtype=np.int64) for k in keys}
    multiplicity = Counter()
    boundary = dict.fromkeys(SEGMENT_ORDER, 0)

    def bin_of(ev):
        return min(int(ev.time / cfg.bin_width), n_bins - 1)

    for i in range(cfg.n_traj):
        rng = _traj_rng(cfg.seed, i)
        rec = simulate_trajectory(sample_initial(cfg, rng), cfg, rng)
        entries = [ev for ev in rec.events if ev.kind == "entry"]
        if not entries:
            continue
        multiplicity[len(entries)] += 1
        first["total"][bin_of(entries[0])] += 1
        boundary[entries[0].segment] += 1
        seen = set()
        for ev in entries:
            all_["total"][bin_of(ev)] += 1
            all_[ev.segment][bin_of(ev)] += 1
            if ev.segment not in seen:
                seen.add(ev.segment)
                first[ev.segment][bin_of(ev)] += 1
    return first, all_, dict(sorted(multiplicity.items())), boundary


# target weaving across the right side: a lateral jerk b2 sin(3t), with the
# initial acceleration cancelling its drift, so most trajectories re-enter
WEAVING = dict(
    initial_mean=StateVector(0.1, 1.7, -0.5, 0.0, 0.0, -20.0 / 3.0),
    model=MotionModel(qx=0.0101, qy=0.0101, b2=20.0, omega=3.0, input_enabled=True),
)


class TestCountPathMatchesEventPath:
    """run_campaign's in-place counts equal counts of simulate_trajectory records."""

    @pytest.mark.parametrize(
        "preset, overrides, threads",
        [
            ("front", {}, 1),
            ("front-right", {}, 2),
            ("front", WEAVING, 1),
            ("front", {**WEAVING, "terminate_on_entry": True}, 2),
            ("front", {**WEAVING, "horizon": 2.46, "sim_step": 0.05}, 1),
        ],
        ids=["front", "front-right", "re-entries", "terminate-on-entry", "partial-last-step"],
    )
    def test_parity(self, preset, overrides, threads):
        cfg = preset_config(preset, n_traj=48, seed=31, **overrides)
        cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
        first, all_, multiplicity, boundary = counts_from_records(cfg)
        res = run_campaign(cfg, threads=threads)
        assert sum(multiplicity.values()) > 0
        assert res.entry_stats["multiplicity_counts"] == multiplicity
        assert res.entry_stats["first_entry_boundary_totals"] == boundary
        for key in first:
            np.testing.assert_array_equal(res.histogram.first_entry_counts[key], first[key])
            np.testing.assert_array_equal(res.histogram.all_entry_counts[key], all_[key])

    def test_weaving_target_reenters(self):
        cfg = preset_config("front", n_traj=48, seed=31, **WEAVING)
        assert max(run_campaign(cfg).entry_stats["multiplicity_counts"]) >= 2


def test_campaign_memory_does_not_grow_with_horizon():
    """One full batch: noise is held a step chunk at a time, not per horizon."""

    def peak_bytes(horizon):
        cfg = preset_config("front", n_traj=4096, horizon=horizon)
        cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
        tracemalloc.start()
        try:
            run_campaign(cfg, threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(4.0), peak_bytes(8.0)
    assert long < 64 * 2**20
    assert long <= 1.1 * short


@settings(max_examples=6, deadline=None)
@given(
    batch_size=st.integers(1, 5),
    step_chunk=st.integers(1, 9),
    n_traj=st.integers(1, 12),
    threads=st.integers(1, 3),
    terminate=st.booleans(),
)
def test_results_independent_of_batching(batch_size, step_chunk, n_traj, threads, terminate):
    cfg = preset_config(
        "front",
        n_traj=n_traj,
        horizon=3.1,
        sim_step=0.02,
        seed=5,
        terminate_on_entry=terminate,
        **WEAVING,
    )
    reference = run_campaign(cfg)
    with mock.patch.object(montecarlo, "_BATCH_SIZE", batch_size), mock.patch.object(
        montecarlo, "_STEP_CHUNK", step_chunk
    ):
        assert_same_campaign(run_campaign(cfg, threads=threads), reference)


class TestTtcMonteCarlo:
    def test_deterministic_aim_single_bin(self):
        cfg = straight_config(n_traj=200)
        result = ttc_monte_carlo(cfg)
        counts = result["front_counts"]
        hit_bins = np.nonzero(counts)[0]
        assert len(hit_bins) == 1
        edges = result["bin_edges"]
        assert edges[hit_bins[0]] <= 5.0 <= edges[hit_bins[0] + 1]
        assert counts[hit_bins[0]] == 200
        assert result["right_counts"].sum() == 0

    def test_input_enabled_rejected(self):
        cfg = straight_config(
            model=MotionModel(qx=0.0, qy=0.0, b1=0.1, b2=0.1, omega=0.5, input_enabled=True)
        )
        with pytest.raises(ConfigError):
            ttc_monte_carlo(cfg)

    def test_front_root_outside_segment_rejected(self):
        """Front-line root at |y| > y_right is discarded; right side catches it."""
        cfg = straight_config(x0=10.0, y0=6.0, xdot=-2.0, ydot=-0.8, n_traj=50)
        result = ttc_monte_carlo(cfg)
        assert result["front_counts"].sum() == 0
        hit_bins = np.nonzero(result["right_counts"])[0]
        assert len(hit_bins) == 1
        t_right = (6.0 - 1.0) / 0.8
        edges = result["bin_edges"]
        assert edges[hit_bins[0]] <= t_right <= edges[hit_bins[0] + 1]
        # the full 2D simulation agrees: the trajectory enters at the right
        rec = simulate_trajectory(cfg.initial_mean, cfg, _traj_rng(cfg.seed, 0))
        assert rec.first_entry.segment == "right"
        assert rec.first_entry.time == pytest.approx(t_right, abs=1e-9)

    def test_receding_draws_empty(self):
        cfg = straight_config(xdot=2.0, n_traj=20)
        result = ttc_monte_carlo(cfg)
        assert result["front_counts"].sum() == 0
        assert result["right_counts"].sum() == 0
