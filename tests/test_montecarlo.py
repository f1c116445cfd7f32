"""Monte-Carlo oracle: sampling, trajectory simulation, campaigns, TTC draws."""
import dataclasses
import math
import multiprocessing
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrate import (
    HostRectangle,
    MotionModel,
    ScenarioConfig,
    StateVector,
    chord_crossings,
    predict_mean,
    preset_config,
    run_campaign,
    ttc_config,
    ttc_monte_carlo,
)
from crossrate import montecarlo
from crossrate.errors import ConfigError, NumericsError
from crossrate.geometry import SEGMENT_ORDER
from crossrate.montecarlo import (
    _by_row,
    _initial_states,
    _step_kernel,
    _stream_crossings,
    _traj_rng,
)

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


def trajectory_crossings(cfg, x0, rng):
    """Crossings of one trajectory from state x0 and their times, in time order.

    `rng` must be past the initial-state draw, as the campaign leaves it.
    """
    found = _stream_crossings(cfg, np.reshape(x0, (1, 6)), [rng], _step_kernel(cfg))
    c, _, t = _by_row(found, 1, cfg)
    return c, t


def first_entry(c, t):
    """(side name, time) of the first entry among time-ordered crossings, or None."""
    i = np.flatnonzero(c.entry)
    return (SEGMENT_ORDER[c.segment[i[0]]], t[i[0]]) if len(i) else None


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
    """Initial-state draws of _initial_states, one Philox stream per trajectory."""

    def test_zero_cov_returns_mean(self):
        cfg = straight_config()
        s = _initial_states(cfg, [_traj_rng(cfg.seed, 0)])[0]
        np.testing.assert_allclose(s, cfg.initial_mean.as_array())

    def test_empirical_moments(self):
        cov = np.diag([0.4, 0.3, 0.2, 0.2, 0.05, 0.05])
        cfg = straight_config(initial_cov=cov)
        n = 100_000
        draws = _initial_states(cfg, (_traj_rng(cfg.seed, i) for i in range(n)))
        mean = cfg.initial_mean.as_array()
        sd = np.sqrt(np.diag(cov))
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * sd / math.sqrt(n))
        emp_cov = np.cov(draws.T)
        frob = np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov)
        assert frob < 0.05

    def test_deterministic_per_traj_id(self):
        cfg = straight_config(initial_cov=np.eye(6))
        a, b, c = _initial_states(cfg, (_traj_rng(cfg.seed, i) for i in (5, 5, 6)))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimulateTrajectory:
    """Crossings of single trajectories, from _stream_crossings and _by_row."""

    @staticmethod
    def crossings(cfg):
        return trajectory_crossings(cfg, cfg.initial_mean.as_array(), _traj_rng(cfg.seed, 0))

    def test_straight_inbound_single_entry(self):
        cfg = straight_config()
        c, t = self.crossings(cfg)
        assert np.count_nonzero(c.entry) == 1
        side, time = first_entry(c, t)
        assert side == "front"
        assert time == pytest.approx(5.0, abs=cfg.sim_step)

    def test_far_trajectory_no_events(self):
        c, _ = self.crossings(straight_config(x0=100.0, y0=100.0, xdot=1.0, ydot=1.0))
        assert len(c.chord) == 0

    def test_two_entry_record_from_scripted_waypoints(self):
        """Enter front, exit right, re-enter right: N+ = 2, right first-entry 1."""
        rect = HostRectangle(0.0, -5.0, -1.0, 1.0)
        waypoints = np.array([(1.0, 0.0), (-1.0, 0.0), (-1.0, 2.0), (-2.0, 0.5)])
        c = chord_crossings(waypoints[:-1], waypoints[1:], rect)
        assert np.count_nonzero(c.entry) == 2
        assert c.entry.tolist() == [True, False, True]
        assert first_entry(c, c.chord + c.fraction)[0] == "front"
        right = SEGMENT_ORDER.index("right")
        assert np.count_nonzero(c.entry & (c.segment == right)) == 1

    def test_exact_corner_hit_is_one_entry(self):
        # zero noise, 0.5 s steps: the chord (0.25, 1.25) -> (-0.75, 0.25)
        # meets the front and right sides at the front-right corner at s = 0.25
        cfg = straight_config(
            x0=1.25, y0=2.25, xdot=-2.0, ydot=-2.0, sim_step=0.5, bin_width=0.5, horizon=3.0
        )
        c, t = self.crossings(cfg)
        assert np.count_nonzero(c.entry) == 1
        side, time = first_entry(c, t)
        assert side == "front"
        assert time == 0.625
        at_entry = predict_mean(cfg.initial_mean, time, cfg.model)  # the zero-noise path
        assert (at_entry.x, at_entry.y) == (0.0, 1.0)

    def test_diagonal_corner_graze_has_no_events(self):
        # the line x + y = 1 touches the rectangle at the front-right corner only
        cfg = straight_config(
            x0=1.25, y0=-0.25, xdot=-2.0, ydot=2.0, sim_step=0.5, bin_width=0.5, horizon=3.0
        )
        c, _ = self.crossings(cfg)
        assert len(c.chord) == 0

    def test_crossing_time_interpolated_within_step(self):
        cfg = straight_config(sim_step=0.05, bin_width=0.05)
        _, t = first_entry(*self.crossings(cfg))
        # 10 / 2 = 5.0 exactly; chord interpolation recovers it sub-step
        assert t == pytest.approx(5.0, abs=1e-9)


class TestRunCampaign:
    def test_single_trajectory_matches_direct_simulation(self):
        cfg = preset_config("front", n_traj=1, seed=123)
        cov = cfg.resolve_initial_cov()
        cfg = dataclasses.replace(cfg, initial_cov=cov)
        rng = _traj_rng(cfg.seed, 0)
        x0 = _initial_states(cfg, [rng])[0]
        entry = first_entry(*trajectory_crossings(cfg, x0, rng))
        res = run_campaign(cfg)
        if entry is None:
            assert res.entry_stats["p_at_least_one"] == 0.0
        else:
            assert res.entry_stats["p_at_least_one"] == 1.0
            bi = int(entry[1] / cfg.bin_width)
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
        target = cfg.predicted_density(3.0)
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
    """Campaign counts rebuilt one trajectory and one crossing at a time."""
    n_bins = cfg.n_bins
    keys = ["total", *SEGMENT_ORDER]
    first = {k: np.zeros(n_bins, dtype=np.int64) for k in keys}
    all_ = {k: np.zeros(n_bins, dtype=np.int64) for k in keys}
    multiplicity = Counter()
    boundary = dict.fromkeys(SEGMENT_ORDER, 0)

    def bin_of(time):
        return min(int(time / cfg.bin_width), n_bins - 1)

    for i in range(cfg.n_traj):
        rng = _traj_rng(cfg.seed, i)
        c, t = trajectory_crossings(cfg, _initial_states(cfg, [rng])[0], rng)
        entries = [
            (time, SEGMENT_ORDER[seg]) for time, seg, entry in zip(t, c.segment, c.entry) if entry
        ]
        if cfg.terminate_on_entry:
            entries = entries[:1]
        if not entries:
            continue
        multiplicity[len(entries)] += 1
        first["total"][bin_of(entries[0][0])] += 1
        boundary[entries[0][1]] += 1
        seen = set()
        for time, segment in entries:
            all_["total"][bin_of(time)] += 1
            all_[segment][bin_of(time)] += 1
            if segment not in seen:
                seen.add(segment)
                first[segment][bin_of(time)] += 1
    return first, all_, dict(sorted(multiplicity.items())), boundary


# target weaving across the right side: a lateral jerk b2 sin(3t), with the
# initial acceleration cancelling its drift, so most trajectories re-enter
WEAVING = dict(
    initial_mean=StateVector(0.1, 1.7, -0.5, 0.0, 0.0, -20.0 / 3.0),
    model=MotionModel(qx=0.0101, qy=0.0101, b2=20.0, omega=3.0, input_enabled=True),
)


class TestCountPathMatchesEventPath:
    """run_campaign's in-place counts equal per-crossing counts of each trajectory."""

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


class TestWorkerProcesses:
    """run_campaign runs its batches in worker processes that end with it."""

    @staticmethod
    def two_batches():
        """A campaign of two one-trajectory batches (patch _BATCH_SIZE to 1)."""
        return preset_config("front", n_traj=2, horizon=0.5, seed=3)

    @staticmethod
    def recording_executor(started):
        """A ProcessPoolExecutor that records, per pool, its max_workers and the
        most child processes alive after any submit."""

        class Recording(montecarlo.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, **kwargs)
                started.append([max_workers, 0])

            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                started[-1][1] = max(started[-1][1], len(multiprocessing.active_children()))
                return future

        return Recording

    def test_no_process_left_behind(self):
        cfg = self.two_batches()
        with mock.patch.object(montecarlo, "_BATCH_SIZE", 1):
            result = run_campaign(cfg, threads=2)
        assert multiprocessing.active_children() == []
        assert_same_campaign(result, run_campaign(cfg))
        assert 1 <= len(result.worker_peak_rss_mb) <= 2
        assert all(rss > 0.0 for rss in result.worker_peak_rss_mb)

    def test_worker_error_reaches_caller_and_no_process_is_left(self):
        def failing(*args):
            raise NumericsError("raised in a worker")

        with mock.patch.object(montecarlo, "_BATCH_SIZE", 1), mock.patch.object(
            montecarlo, "_stream_crossings", failing  # fork carries the patch into the workers
        ):
            with pytest.raises(NumericsError, match="raised in a worker") as caught:
                run_campaign(self.two_batches(), threads=2)
        assert type(caught.value) is NumericsError
        assert multiprocessing.active_children() == []

    def test_at_most_one_worker_per_batch(self):
        started = []
        with mock.patch.object(montecarlo, "_BATCH_SIZE", 1), mock.patch.object(
            montecarlo, "ProcessPoolExecutor", self.recording_executor(started)
        ):
            run_campaign(self.two_batches(), threads=8)
        assert len(started) == 1
        max_workers, alive = started[0]
        assert max_workers == 2
        assert 1 <= alive <= 2

    def test_one_worker_runs_in_the_calling_process(self):
        started = []
        with mock.patch.object(
            montecarlo, "ProcessPoolExecutor", self.recording_executor(started)
        ):
            one_batch = run_campaign(self.two_batches(), threads=8)
            with mock.patch.object(montecarlo, "_BATCH_SIZE", 1):
                one_thread = run_campaign(self.two_batches(), threads=1)
        assert started == []
        assert one_batch.worker_peak_rss_mb == one_thread.worker_peak_rss_mb == ()


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced by tracemalloc during fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_campaign_memory_does_not_grow_with_horizon():
    """One full batch: noise is held a step chunk at a time, not per horizon."""

    def peak_bytes(horizon):
        cfg = preset_config("front", n_traj=4096, horizon=horizon)
        cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
        return traced_peak(run_campaign, cfg, threads=1)

    short, long = peak_bytes(4.0), peak_bytes(8.0)
    assert long < 64 * 2**20
    assert long <= 1.1 * short


def test_campaign_memory_does_not_grow_with_batch_count():
    """Only a few batches are in flight, not one future per batch of the campaign."""

    def peak_bytes(n_batches):
        cfg = preset_config("front", n_traj=n_batches, horizon=0.1)
        cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
        with mock.patch.object(montecarlo, "_BATCH_SIZE", 1):
            return traced_peak(run_campaign, cfg, threads=2)

    peak_bytes(200)  # the first campaign in a process allocates one-time caches
    short, long = peak_bytes(200), peak_bytes(600)
    assert long <= 1.5 * short


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
    ttc_reference = ttc_monte_carlo(ttc_config(cfg))
    with mock.patch.object(montecarlo, "_BATCH_SIZE", batch_size), mock.patch.object(
        montecarlo, "_STEP_CHUNK", step_chunk
    ):
        assert_same_campaign(run_campaign(cfg, threads=threads), reference)
        ttc = ttc_monte_carlo(ttc_config(cfg))
    assert ttc.keys() == ttc_reference.keys()
    for key in ttc:
        np.testing.assert_array_equal(ttc[key], ttc_reference[key])


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
        x0 = cfg.initial_mean.as_array()
        side, time = first_entry(*trajectory_crossings(cfg, x0, _traj_rng(cfg.seed, 0)))
        assert side == "right"
        assert time == pytest.approx(t_right, abs=1e-9)

    def test_receding_draws_empty(self):
        cfg = straight_config(xdot=2.0, n_traj=20)
        result = ttc_monte_carlo(cfg)
        assert result["front_counts"].sum() == 0
        assert result["right_counts"].sum() == 0

    def test_tangent_touch_is_not_an_entry(self):
        """x = 4 - 2t + t^2/4 touches the front line at t = 4 with zero normal velocity."""
        cfg = straight_config(initial_mean=StateVector(4.0, 0.0, -2.0, 0.0, 0.5, 0.0))
        result = ttc_monte_carlo(cfg)
        assert result["front_counts"].sum() == 0
        assert result["right_counts"].sum() == 0

    @pytest.mark.parametrize("x0, y0, xdot, ydot", [(-1.0, 0.0, 2.0, 0.0), (-1.0, 0.0, 0.0, 2.0)])
    def test_exit_from_inside_is_not_an_entry(self, x0, y0, xdot, ydot):
        result = ttc_monte_carlo(straight_config(x0=x0, y0=y0, xdot=xdot, ydot=ydot))
        assert result["front_counts"].sum() == 0
        assert result["right_counts"].sum() == 0

    def test_bins_by_the_campaign_rule(self):
        """The root 1.7 / 2 = 0.85 s goes to bin floor(0.85 / 0.05) = 17, though
        the computed edge 17 * 0.05 = 0.8500000000000001 lies above it."""
        result = ttc_monte_carlo(straight_config(x0=1.7))
        assert np.nonzero(result["front_counts"])[0].tolist() == [17]

    def test_memory_does_not_grow_with_draws(self):
        """Draws are made and counted a batch at a time, never all at once."""

        def peak_bytes(n_traj):
            return traced_peak(ttc_monte_carlo, ttc_config(preset_config("front", n_traj=n_traj)))

        assert peak_bytes(3 * 4096) <= 1.1 * peak_bytes(4096)

    def test_hit_at_span_end_counts(self):
        """A front hit at y = y_right lies in the closed span and counts once."""
        cfg = straight_config(y0=1.0)
        result = ttc_monte_carlo(cfg)
        counts = result["front_counts"]
        assert counts.sum() == 1
        edges = result["bin_edges"]
        hit = np.nonzero(counts)[0][0]
        assert edges[hit] <= 5.0 <= edges[hit + 1]
        assert result["right_counts"].sum() == 0

    @pytest.mark.parametrize("preset", ["front", "front-right"])
    def test_matches_campaign_first_entries(self, preset):
        """Without noise, the root rule and the chord detector bin the same entries."""
        cfg = ttc_config(preset_config(preset, n_traj=4096))
        ttc = ttc_monte_carlo(cfg)
        first = run_campaign(cfg).histogram.first_entry_counts
        for side in ("front", "right"):
            np.testing.assert_array_equal(ttc[f"{side}_counts"], first[side])
