"""Monte-Carlo oracle: sampling, trajectory simulation, campaigns, TTC draws."""
import ast
import dataclasses
import math
import multiprocessing
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrate import (
    GaussianDensity,
    HostRectangle,
    MotionModel,
    ScenarioConfig,
    StateVector,
    chord_crossings,
    predict_density,
    preset_config,
    process_noise_cov,
    run_campaign,
    transition_matrix,
    ttc_config,
    ttc_monte_carlo,
)
from crossrate import montecarlo
from crossrate.errors import ConfigError, NumericsError
from crossrate.geometry import SEGMENT_ORDER
from crossrate.gaussian import psd_factor
from crossrate.montecarlo import (
    _bridge_normals,
    _by_row,
    _coarse_states,
    _initial_states,
    _inner_positions,
    _pieces,
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


def trajectory_crossings(cfg, x0, rng, traj_id=0):
    """Crossings of trajectory traj_id from state x0 and their times, in time order.

    `rng` must be past the initial-state draw, as the campaign leaves it.
    """
    found = _stream_crossings(cfg, np.reshape(x0, (1, 6)), [rng], [traj_id], _pieces(cfg))
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


def test_streams_are_keyed_philox():
    """Trajectory j's stream is Philox keyed (seed, j); the bridge stream of
    its coarse step k is keyed (seed, 2**63 + j) from counter (0, k, 0, 0)."""

    def philox(key, counter=0):
        bits = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=counter)
        return np.random.Generator(bits)

    seed = 2**64 - 1
    np.testing.assert_array_equal(
        _traj_rng(seed, 3).standard_normal(50), philox([seed, 3]).standard_normal(50)
    )
    streams = [(3, 7), (3, 8), (4, 7), (3, 7)]
    out = np.empty((len(streams), 60))
    _bridge_normals(seed, *zip(*streams), out)
    for row, (traj_id, step) in zip(out, streams):
        expected = philox([seed, 2**63 + traj_id], counter=step << 64).standard_normal(60)
        np.testing.assert_array_equal(row, expected)


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
        point = GaussianDensity(cfg.initial_mean.as_array(), np.zeros((6, 6)))
        at_entry = predict_density(point, time, cfg.model).mean  # the zero-noise path
        assert (at_entry[0], at_entry[1]) == (0.0, 1.0)

    def test_diagonal_corner_graze_has_no_events(self):
        # the line x + y = 1 touches the rectangle at the front-right corner only
        cfg = straight_config(
            x0=1.25, y0=-0.25, xdot=-2.0, ydot=2.0, sim_step=0.5, bin_width=0.5, horizon=3.0
        )
        c, _ = self.crossings(cfg)
        assert len(c.chord) == 0

    def test_crossing_between_coarse_nodes_found(self):
        # x = 0.002 - 0.1 t + t^2 dips below the front line between the
        # coarse nodes t = 0 and 0.1 s, where x = 0.002: the chord between
        # them misses the side, and only its bridge mean's deviation flags it
        cfg = straight_config(
            initial_mean=StateVector(0.002, 0.0, -0.1, 0.0, 2.0, 0.0), horizon=0.1
        )
        c, t = self.crossings(cfg)
        assert c.entry.tolist() == [True, False]
        np.testing.assert_allclose(t, 0.05 + np.array([-1.0, 1.0]) * math.sqrt(5e-4), atol=1e-3)

    @pytest.mark.parametrize("horizon, n_steps, entries", [(4.93, 493, 0), (4.97, 497, 1)])
    def test_entry_past_the_horizon_in_the_last_coarse_step(self, horizon, n_steps, entries):
        # the path from 9.9 m at -2 m/s enters at 4.95 s, inside the coarse step
        # from 4.9 s to 5.0 s, which is simulated whole whichever horizon ends in it
        cfg = straight_config(x0=9.9, horizon=horizon)
        assert cfg.n_steps == n_steps
        c, t = self.crossings(cfg)
        assert np.count_nonzero(c.entry) == entries
        if entries:
            assert first_entry(c, t) == ("front", pytest.approx(4.95, abs=1e-9))

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

    def test_empirical_moments_match_prediction(self):
        """The module's own coarse states at t = 3 s, and its bridge-filled
        positions at t = 3.05 s, against the analytic predicted density."""
        cfg = preset_config("front", n_traj=4000, horizon=3.1)
        cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
        run = _pieces(cfg)  # 31 coarse steps of 0.1 s
        n = cfg.n_traj
        rngs = [_traj_rng(cfg.seed, j) for j in range(n)]
        nodes = [_initial_states(cfg, rngs)]
        for _, xs in _coarse_states(run, nodes[0], rngs):
            nodes.extend(xs[1:].copy())
        assert len(nodes) == 32
        inner = _inner_positions(cfg, run, nodes[30], nodes[31], np.full(n, 30), range(n))
        for t, sample, keep in ((3.0, nodes[30], slice(None)), (3.05, inner[:, 4], slice(2))):
            target = cfg.predicted_density(t)
            sd = np.sqrt(np.diag(target.cov))[keep]
            assert np.all(
                np.abs(sample.mean(axis=0) - target.mean[keep]) < 4 * sd / math.sqrt(n) + 1e-9
            )
            assert np.all(np.abs(sample.std(axis=0) - sd) < 0.1 * sd)


def point_density(x):
    return GaussianDensity(np.asarray(x, dtype=float), np.zeros((6, 6)))


def bridge_moments(model, start, end, t0, dt, m):
    """Analytic mean (2 (m - 1),) and covariance of the positions at t0 + i dt,
    i = 1 .. m - 1, of the path from `start` at t0 given `end` at t0 + m dt."""
    times = range(1, m + 1)
    mean = np.concatenate([predict_density(point_density(start), i * dt, model, t0).mean for i in times])
    cov = np.zeros((6 * m, 6 * m))
    for i in times:  # Cov(x_i, x_j) = Q(i dt) Phi((j - i) dt)^T for i <= j
        for j in range(i, m + 1):
            block = process_noise_cov(i * dt, model) @ transition_matrix((j - i) * dt).T
            cov[6 * (i - 1) : 6 * i, 6 * (j - 1) : 6 * j] = block
            cov[6 * (j - 1) : 6 * j, 6 * (i - 1) : 6 * i] = block.T
    pos = [6 * i + a for i in range(m - 1) for a in (0, 1)]
    last = slice(6 * (m - 1), 6 * m)
    gain = cov[pos, last] @ np.linalg.pinv(cov[last, last])
    return mean[pos] + gain @ (end - mean[last]), cov[np.ix_(pos, pos)] - gain @ cov[last, pos]


@pytest.mark.parametrize(
    "qx, qy", [(0.0101, 0.0405), (0.0101, 0.0), (0.0, 0.0)], ids=["both-psds", "qy-zero", "zero-noise"]
)
def test_bridge_law(qx, qy):
    """With a chord's ends fixed, the filled positions have the analytic bridge
    mean and covariance, on the last coarse step, the 10 fine steps from
    t = 3 s.  Every model draws its bridge normals; with qy = 0 the y block
    of Q is singular and the y positions are the deterministic path."""
    model = MotionModel(qx=qx, qy=qy, b1=-0.2, b2=-0.3, omega=0.5)
    cfg = preset_config("front", model=model, n_traj=1, horizon=3.1)
    run = _pieces(cfg)
    step, m, dt = 30, montecarlo._COARSE, cfg.sim_step
    assert run.n == step + 1
    start = np.array([4.0, 0.5, -2.0, 0.3, -0.2, 0.1])
    # an end drawn from the free path's law, so that every model can reach it
    free = predict_density(point_density(start), m * dt, model, step * 10 * dt)
    end = free.mean + psd_factor(free.cov) @ np.random.default_rng(1).standard_normal(6)
    mean, cov = bridge_moments(model, start, end, step * 10 * dt, dt, m)

    n = 20_000 if qx > 0.0 else 4
    ends = (np.tile(start, (n, 1)), np.tile(end, (n, 1)))
    steps = np.full(n, step)
    with mock.patch.object(montecarlo, "_bridge_normals", wraps=montecarlo._bridge_normals) as draws:
        filled = _inner_positions(cfg, run, *ends, steps, range(n)).reshape(n, -1)
    assert draws.called
    sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    assert np.all(np.abs(filled.mean(axis=0) - mean) <= 4 * sd / math.sqrt(n) + 1e-9)
    if qx > 0.0:
        frob = np.linalg.norm(np.cov(filled.T) - cov) / np.linalg.norm(cov)
        assert frob < 0.05
    for axis, q in ((0, qx), (1, qy)):
        if q == 0.0:
            np.testing.assert_allclose(filled[:, axis::2], np.broadcast_to(mean[axis::2], (n, m - 1)), atol=1e-9)


@pytest.mark.parametrize("preset", ["front", "front-right"])
def test_flagged_chords_hold_every_crossing(preset):
    """Refining every coarse chord finds the crossings that refining the
    flagged ones finds, and no more: a chord's bridge draws depend only on
    its trajectory and step, not on which other chords are refined."""
    cfg = preset_config(preset, n_traj=256, seed=17)
    cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
    ids = range(cfg.n_traj)

    def crossings():
        rngs = [_traj_rng(cfg.seed, j) for j in ids]
        return _stream_crossings(cfg, _initial_states(cfg, rngs), rngs, ids, _pieces(cfg))

    def every_chord(config, p, xs, k0):
        return np.ones((len(xs) - 1, xs.shape[1]), dtype=bool)

    flagged = crossings()
    with mock.patch.object(montecarlo, "_near", every_chord):
        every = crossings()
    assert len(flagged.chord) > 0
    for name in ("chord", "segment", "entry", "fraction"):
        np.testing.assert_array_equal(getattr(flagged, name), getattr(every, name))


@pytest.mark.parametrize("preset", ["front", "front-right"])
def test_rows_do_not_depend_on_the_call(preset):
    """A chord's inner positions, and a trajectory's initial state, are the
    same bits whatever other rows share the call: filled one at a time, in
    two uneven parts or all at once."""
    cfg = preset_config(preset, n_traj=1000, seed=23)
    cfg = dataclasses.replace(cfg, initial_cov=cfg.resolve_initial_cov())
    run = _pieces(cfg)
    rngs = [_traj_rng(cfg.seed, j) for j in range(cfg.n_traj)]
    k0, xs = next(_coarse_states(run, _initial_states(cfg, rngs), rngs))
    pick = np.random.default_rng(5)
    n = 3001
    cols, rows = pick.integers(0, len(xs) - 1, n), pick.integers(0, cfg.n_traj, n)
    chords = xs[cols, rows], xs[cols + 1, rows], k0 + cols, rows.tolist()

    def fill(part):
        return _inner_positions(cfg, run, *(c[part] for c in chords))

    whole = fill(slice(None))
    np.testing.assert_array_equal(np.concatenate([fill(slice(f, f + 1)) for f in range(n)]), whole)
    np.testing.assert_array_equal(np.concatenate([fill(slice(0, 1234)), fill(slice(1234, n))]), whole)

    def initial(ids):
        return _initial_states(cfg, (_traj_rng(cfg.seed, j) for j in ids))

    many = initial(range(4096))
    for a, b in ((1000, 1001), (1000, 1007), (40, 3041)):
        np.testing.assert_array_equal(initial(range(a, b)), many[a:b])


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
        c, t = trajectory_crossings(cfg, _initial_states(cfg, [rng])[0], rng, i)
        entries = [
            (time, SEGMENT_ORDER[seg]) for time, seg, entry in zip(t, c.segment, c.entry) if entry
        ]
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
    model=MotionModel(qx=0.0101, qy=0.0101, b2=20.0, omega=3.0),
)


# the front preset's mean with neither process noise nor input, from a fixed P0
NO_NOISE = dict(model=CA_MODEL, initial_cov=np.diag([0.5, 0.3, 0.2, 0.1, 0.05, 0.05]))


class TestCountPathMatchesEventPath:
    """run_campaign's in-place counts equal per-crossing counts of each trajectory."""

    @pytest.mark.parametrize(
        "preset, overrides, threads",
        [
            ("front", {}, 1),
            ("front-right", {}, 2),
            ("front", WEAVING, 1),
            ("front", {"model": MotionModel(qx=0.0101, qy=0.0101)}, 2),
            ("front", NO_NOISE, 1),
            ("front", {**WEAVING, "horizon": 2.46, "sim_step": 0.05}, 1),
        ],
        ids=["front", "front-right", "re-entries", "input-off", "no-noise", "partial-last-step"],
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
)
def test_results_independent_of_batching(batch_size, step_chunk, n_traj, threads):
    cfg = preset_config(
        "front",
        n_traj=n_traj,
        horizon=3.1,
        sim_step=0.02,
        seed=5,
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


def test_last_bin_cut_by_the_horizon_divides_by_its_span():
    """A path entering at 5.02 s under a 5.03 s horizon: the last bin covers
    [5, 5.03] s, so its one entry is a rate of 1 / 0.03 per second in both
    studies, not 1 / 0.05."""
    cfg = straight_config(x0=10.04, horizon=5.03)
    result = ttc_monte_carlo(cfg)
    hist = run_campaign(cfg).histogram
    for edges in (result["bin_edges"], hist.bin_edges):
        assert len(edges) == 102 and edges[-1] == 5.03
        np.testing.assert_array_equal(edges[:-1], np.arange(101) * 0.05)
    for rate in (result["front_rate"], hist.first_entry_rate(), hist.all_entry_rate("front")):
        assert np.count_nonzero(rate) == 1
        assert rate[-1] == pytest.approx(1.0 / 0.03)
    assert hist.bin_width == 0.05


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
            model=MotionModel(qx=0.0, qy=0.0, b1=0.1, b2=0.1, omega=0.5)
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

    @pytest.mark.parametrize(
        "preset, horizon",
        [("front", 8.0), ("front-right", 8.0), ("front", 3.65), ("front-right", 3.65)],
        ids=["front", "front-right", "front-3.65", "front-right-3.65"],
    )
    def test_matches_campaign_first_entries(self, preset, horizon):
        """Without noise, the root rule and the chord detector bin the same
        entries, also where the horizon ends inside a coarse step (3.65 s)."""
        cfg = ttc_config(preset_config(preset, n_traj=4096, horizon=horizon))
        ttc = ttc_monte_carlo(cfg)
        first = run_campaign(cfg).histogram.first_entry_counts
        for side in ("front", "right"):
            np.testing.assert_array_equal(ttc[f"{side}_counts"], first[side])


def package_imports(module: str) -> set[str]:
    """The crossrate modules that `module` imports, directly or through others.

    Read from the source with ast, so nothing is imported; an import under
    `if TYPE_CHECKING:` counts too, and `from . import name` of a name that
    is not a module imports the package's `__init__`.
    """
    src = Path(montecarlo.__file__).parent
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                todo += [n if (src / f"{n}.py").exists() else "__init__" for n in names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("crossrate."):
                todo.append(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                todo += [a.name.split(".")[1] for a in node.names if a.name.startswith("crossrate.")]
    return seen - {module}


def test_oracle_does_not_import_the_analytic_layers():
    """The Monte-Carlo oracle checks the intensity layers and must not load them."""
    reached = package_imports("montecarlo")
    assert {"geometry", "scenarios", "dynamics", "gaussian"} <= reached
    assert not reached & {"probability", "intensity"}
    assert "intensity" in package_imports("probability")  # the walk sees such imports
