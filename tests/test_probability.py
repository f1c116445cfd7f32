"""Temporal integration, TTC seeds, adaptive sampling, spatial overlap."""
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from crossrate import (
    GaussianDensity,
    HostRectangle,
    NumericsError,
    StateVector,
    adaptive_sample,
    deterministic_ttc_seeds,
    integrate_intensity,
    intensity_curve,
    intensity_evaluator,
    normal_cdf,
    predict_density,
    preset_config,
    spatial_overlap_probability,
    total_intensity,
)
from crossrate.intensity import METHODS, RateSample
from crossrate.probability import RateCurve, quadratic_roots

RECT = HostRectangle(0.0, -5.0, -1.0, 1.0)


def sample(t, value):
    return RateSample(t, value, {"front": value}, "quadrature")


def curve_from(times, values, t_start=None, t_end=None):
    t_start = times[0] if t_start is None else t_start
    t_end = times[-1] if t_end is None else t_end
    return RateCurve(
        tuple(sample(t, v) for t, v in zip(times, values)), t_start, t_end
    )


def gaussian_bump_evaluator(center=4.0, width=0.6, height=0.5):
    def ev(t):
        v = height * math.exp(-0.5 * ((t - center) / width) ** 2)
        return sample(t, v)

    return ev


class TestRateCurve:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            curve_from([0.0, 1.0, 1.0], [0.1, 0.2, 0.3])

    def test_samples_within_range(self):
        with pytest.raises(ValueError):
            RateCurve((sample(5.0, 0.1),), 0.0, 4.0)

    def test_accessors(self):
        c = curve_from([0.0, 1.0], [0.1, 0.2])
        np.testing.assert_allclose(c.times(), [0.0, 1.0])
        np.testing.assert_allclose(c.values(), [0.1, 0.2])
        np.testing.assert_allclose(c.segment_values("front"), [0.1, 0.2])
        np.testing.assert_allclose(c.segment_values("rear"), [0.0, 0.0])

    def test_evaluations_is_the_read_only_sample_count(self):
        c = curve_from([0.0, 1.0, 2.5], [0.1, 0.2, 0.0])
        assert c.evaluations == 3
        with pytest.raises(AttributeError):
            c.evaluations = 5
        with pytest.raises(TypeError):
            RateCurve(c.samples, 0.0, 2.5, evaluations=3)


class TestIntegrateIntensity:
    def test_constant_rate(self):
        c = curve_from([0.0, 0.5, 1.0, 2.0], [0.1] * 4)
        assert integrate_intensity(c, 0.0, 2.0).p_upper == pytest.approx(0.2)

    def test_degenerate_interval_is_zero(self):
        c = curve_from([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        assert integrate_intensity(c, 1.3, 1.3).p_upper == 0.0

    def test_reversed_interval_rejected(self):
        c = curve_from([0.0, 1.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            integrate_intensity(c, 1.0, 0.5)

    def test_out_of_range_rejected(self):
        c = curve_from([1.0, 2.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            integrate_intensity(c, 0.5, 2.0)

    def test_too_few_samples_rejected(self):
        c = curve_from([1.0], [0.1])
        with pytest.raises(ValueError):
            integrate_intensity(c, 1.0, 1.0)

    def test_additivity_with_interior_endpoints(self):
        rng = np.random.default_rng(17)
        times = np.sort(rng.uniform(0.0, 8.0, 15))
        times[0], times[-1] = 0.0, 8.0
        values = rng.uniform(0.0, 0.5, 15)
        c = curve_from(list(times), list(values))
        whole = integrate_intensity(c, 0.3, 7.2).p_upper
        split = (
            integrate_intensity(c, 0.3, 3.33).p_upper
            + integrate_intensity(c, 3.33, 7.2).p_upper
        )
        assert split == pytest.approx(whole, abs=1e-12)

    def test_monotone_in_t2(self):
        c = curve_from([0.0, 1.0, 2.0, 3.0], [0.1, 0.3, 0.2, 0.0])
        vals = [integrate_intensity(c, 0.0, t2).p_upper for t2 in (1.0, 2.0, 3.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_linear_curve_exact(self):
        # trapezoid is exact for piecewise-linear integrands
        c = curve_from([0.0, 2.0], [0.0, 0.4])
        assert integrate_intensity(c, 0.0, 2.0).p_upper == pytest.approx(0.4)
        assert integrate_intensity(c, 0.5, 1.5).p_upper == pytest.approx(
            0.5 * (0.1 + 0.3)
        )

    def test_bound_can_exceed_one_uncapped(self):
        c = curve_from([0.0, 10.0], [0.3, 0.3])
        b = integrate_intensity(c, 0.0, 10.0)
        assert b.p_upper == pytest.approx(3.0)
        assert b.p_capped == 1.0


class TestDeterministicTtcSeeds:
    def test_constant_velocity_front(self):
        seeds = deterministic_ttc_seeds(StateVector(10, 0, -2, 0, 0, 0), RECT)
        front = [t for name, t in seeds if name == "front"]
        assert front == [pytest.approx(5.0)]

    def test_accelerating_front_root(self):
        seeds = deterministic_ttc_seeds(StateVector(10, 0, -2, 0, -0.2, 0), RECT)
        front = [t for name, t in seeds if name == "front"]
        assert front[0] == pytest.approx(10.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)
        # residual of the quadratic at the root
        t = front[0]
        assert abs(10.0 - 2.0 * t - 0.1 * t * t) < 1e-9

    def test_receding_no_front_seed(self):
        seeds = deterministic_ttc_seeds(StateVector(10, 0, 2, 0, 0, 0), RECT)
        assert all(name != "front" for name, _ in seeds)

    def test_lateral_roots_no_rear(self):
        seeds = deterministic_ttc_seeds(StateVector(10, 10, -2, -1.6, 0, 0), RECT)
        names = {name for name, _ in seeds}
        assert "rear" not in names
        right = [t for name, t in seeds if name == "right"]
        assert right[0] == pytest.approx(9.0 / 1.6)

    def test_sorted_by_time(self):
        seeds = deterministic_ttc_seeds(StateVector(10, 10, -2, -1.6, 0, 0), RECT)
        times = [t for _, t in seeds]
        assert times == sorted(times)


class TestQuadraticRoots:
    def test_branches(self):
        # two roots, complex pair, linear (|a| < 1e-15), constant
        roots = quadratic_roots(
            [1.0, 1.0, 1e-16, 0.0], [-3.0, 0.0, 2.0, 0.0], [2.0, 1.0, -4.0, 1.0]
        )
        np.testing.assert_array_equal(
            roots, [[1.0, 2.0], [np.nan, np.nan], [2.0, np.nan], [np.nan, np.nan]]
        )

    def test_broadcasts_scalars(self):
        assert quadratic_roots(-1.0, 0.0, 4.0).tolist() == [2.0, -2.0]


class TestAdaptiveSample:
    def test_parameter_validation(self):
        ev = gaussian_bump_evaluator()
        with pytest.raises(ValueError):
            adaptive_sample(ev, [("front", 4.0)], 0.2, 0.5, 0.01, (0.0, 8.0))
        with pytest.raises(ValueError):
            adaptive_sample(ev, [("front", 4.0)], 0.5, 0.2, 0.0, (0.0, 8.0))
        with pytest.raises(ValueError):
            adaptive_sample(ev, [("front", 4.0)], 0.5, 0.2, 0.01, (8.0, 0.0))

    @pytest.mark.parametrize("dt1, dt2", [(0.0, -0.1), (0.5, 0.0), (0.5, -0.2)])
    def test_non_positive_step_rejected(self, dt1, dt2):
        # a zero step never leaves its start; the alarm turns a hang into a failure
        def hang(signum, frame):
            raise TimeoutError("adaptive_sample did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with pytest.raises(ValueError, match="0 < dt2 < dt1"):
                adaptive_sample(gaussian_bump_evaluator(), [("front", 4.0)], dt1, dt2, 0.01, (0.0, 8.0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_unimodal_bump_integral_matches_dense(self):
        ev = gaussian_bump_evaluator()
        curve = adaptive_sample(ev, [("front", 4.0)], 0.5, 0.2, 0.01, (0.0, 8.0))
        lo, hi = curve.samples[0].t, curve.samples[-1].t
        adaptive = integrate_intensity(curve, lo, hi).p_upper
        ts = np.arange(0.0, 8.0 + 1e-9, 0.05)
        dense_curve = curve_from(
            list(ts), [ev(t).mu_plus for t in ts], 0.0, 8.0
        )
        dense = integrate_intensity(dense_curve, 0.0, 8.0).p_upper
        assert adaptive == pytest.approx(dense, rel=0.05)

    def test_no_duplicate_or_out_of_range_times(self):
        ev = gaussian_bump_evaluator()
        curve = adaptive_sample(ev, [("front", 4.0)], 0.5, 0.2, 0.01, (0.0, 8.0))
        times = curve.times()
        assert len(np.unique(times)) == len(times)
        assert times[0] >= 0.0 and times[-1] <= 8.0

    def test_evaluation_count_matches_cache(self):
        calls = []
        base = gaussian_bump_evaluator()

        def counting_ev(t):
            calls.append(t)
            return base(t)

        curve = adaptive_sample(
            counting_ev, [("front", 4.0)], 0.5, 0.2, 0.01, (0.0, 8.0)
        )
        assert curve.evaluations == len(calls)
        assert len(set(calls)) == len(calls)

    def test_seedless_zero_intensity_returns_warning(self):
        def flat_zero(t):
            return sample(t, 0.0)

        curve = adaptive_sample(flat_zero, [], 0.5, 0.2, 0.01, (0.0, 8.0))
        assert curve.warning is not None
        assert integrate_intensity(curve, 0.0, 8.0).p_upper == 0.0

    def test_seedless_nonzero_uses_fallback_grid(self):
        ev = gaussian_bump_evaluator(center=4.0, width=1.5)
        curve = adaptive_sample(ev, [], 0.5, 0.2, 0.01, (0.0, 8.0))
        assert curve.warning is None
        assert curve.evaluations > 8
        peak_t = curve.times()[np.argmax(curve.values())]
        assert abs(peak_t - 4.0) < 0.6

    def test_bimodal_refinement_covers_dip(self):
        def two_bumps(t):
            v = 0.5 * math.exp(-0.5 * ((t - 3.0) / 0.4) ** 2)
            v += 0.4 * math.exp(-0.5 * ((t - 5.0) / 0.4) ** 2)
            return sample(t, v)

        curve = adaptive_sample(
            two_bumps, [("front", 3.0), ("right", 5.0)], 0.5, 0.2, 0.01, (0.0, 8.0)
        )
        times = curve.times()
        # refinement placed dt2-spaced points inside the inter-peak dip
        dip = times[(times > 3.2) & (times < 4.8)]
        assert len(dip) >= 3

    def test_front_preset_evaluation_budget(self):
        cfg = preset_config("front")
        seeds = deterministic_ttc_seeds(cfg.initial_mean, cfg.rect)
        curve = adaptive_sample(
            intensity_evaluator(cfg), seeds, 0.5, 0.2, 0.01, (0.0, cfg.horizon)
        )
        assert curve.evaluations <= 15


class TestIntensityCurve:
    @pytest.mark.parametrize("preset", ["front", "front-right"])
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_direct_prediction_loop(self, preset, method):
        """Reference: predict N(initial_mean, P0) to t, then sum the four sides."""
        cfg = preset_config(preset)
        g0 = GaussianDensity(cfg.initial_mean.as_array(), cfg.resolve_initial_cov())
        ts = np.array([0.0, 1.25, 3.5, 5.05])
        expected = tuple(
            total_intensity(predict_density(g0, float(t), cfg.model), cfg.rect, float(t), method)
            for t in ts
        )
        curve = intensity_curve(cfg, ts, method)
        assert curve.samples == expected
        assert (curve.t_start, curve.t_end) == (0.0, 5.05)
        assert intensity_evaluator(cfg, method)(ts[2]) == expected[2]
        assert intensity_curve(cfg, (), method).samples == ()


def overlap_oracle(g, rect):
    """Positional mass in the rectangle by 2D quadrature of the density.

    The algorithm `spatial_overlap_probability` ran before its closed
    form, kept as its reference with tighter tolerances.
    """
    mx, my = g.mean[:2]
    inv = np.linalg.inv(g.cov[:2, :2])
    norm = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(g.cov[:2, :2])))

    def integrand(y, x):
        dx = x - mx
        dy = y - my
        quad = inv[0, 0] * dx * dx + 2.0 * inv[0, 1] * dx * dy + inv[1, 1] * dy * dy
        return norm * math.exp(-0.5 * quad)

    val, _ = integrate.dblquad(
        integrand,
        rect.x_rear,
        rect.x_front,
        rect.y_left,
        rect.y_right,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


class TestSpatialOverlap:
    @settings(max_examples=40, deadline=None)
    @given(
        mean=st.tuples(st.floats(-8.0, 3.0), st.floats(-3.0, 3.0)),
        sd=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
        rho=st.floats(-0.95, 0.95),
    )
    def test_matches_quadrature_of_density(self, mean, sd, rho):
        c = rho * sd[0] * sd[1]
        cov = np.eye(6)
        cov[:2, :2] = [[sd[0] ** 2, c], [c, sd[1] ** 2]]
        g = GaussianDensity([*mean, 0, 0, 0, 0], cov)
        got = spatial_overlap_probability(g, RECT)
        assert got == pytest.approx(overlap_oracle(g, RECT), abs=1e-12)

    def test_singular_positional_covariance_raises(self):
        g = GaussianDensity([-2.0, 0.0, 0, 0, 0, 0], np.diag([1.0, 0.0, 1, 1, 1, 1]))
        with pytest.raises(NumericsError):
            spatial_overlap_probability(g, RECT)

    def test_tight_density_inside(self):
        g = GaussianDensity(
            [-2.0, 0.0, 0, 0, 0, 0], np.diag([1e-4, 1e-4, 1, 1, 1, 1])
        )
        assert spatial_overlap_probability(g, RECT) == pytest.approx(1.0, abs=1e-9)

    def test_far_density_zero(self):
        g = GaussianDensity(
            [100.0, 100.0, 0, 0, 0, 0], np.diag([1.0, 1.0, 1, 1, 1, 1])
        )
        assert spatial_overlap_probability(g, RECT) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_cov_product_oracle(self):
        g = GaussianDensity(
            [-1.0, 0.3, 0, 0, 0, 0], np.diag([4.0, 1.5, 1, 1, 1, 1])
        )
        px = normal_cdf((0.0 + 1.0) / 2.0) - normal_cdf((-5.0 + 1.0) / 2.0)
        sy = math.sqrt(1.5)
        py = normal_cdf((1.0 - 0.3) / sy) - normal_cdf((-1.0 - 0.3) / sy)
        assert spatial_overlap_probability(g, RECT) == pytest.approx(
            px * py, rel=1e-6
        )

    def test_front_scenario_peak_after_deterministic_ttc(self):
        """Instantaneous-overlap peak lags the deterministic front TTC."""
        cfg = preset_config("front")
        seeds = deterministic_ttc_seeds(cfg.initial_mean, cfg.rect)
        ttc_front = next(t for name, t in seeds if name == "front")
        ts = np.arange(2.0, 8.0, 0.1)
        overlap = [
            spatial_overlap_probability(cfg.predicted_density(t), cfg.rect) for t in ts
        ]
        peak_t = float(ts[int(np.argmax(overlap))])
        assert peak_t > ttc_front
