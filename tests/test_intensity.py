"""Entry intensity: quadrature path, Taylor closed forms, total over segments."""
import dataclasses
import math

import numpy as np
import pytest

import crossrate as cr
from crossrate import (
    GaussianDensity,
    HostRectangle,
    MotionModel,
    NumericsError,
    SalientOffset,
    StateVector,
    normal_cdf,
    intensity_curve,
    normal_pdf,
    preset_config,
    salient_transform_density,
    segment_intensity,
    total_intensity,
)
from crossrate.geometry import BoundarySegment, segments
from crossrate.intensity import (
    METHODS,
    RateSample,
    clamp_count,
    reset_clamp_count,
)

RECT = HostRectangle(0.0, -5.0, -1.0, 1.0)
FRONT = segments(RECT)[0]


def density_4d(mean, cov):
    return GaussianDensity(np.asarray(mean, float), np.asarray(cov, float))


def factorized_density(mean_x, sd_x, mean_v, sd_v, mean_y=0.0, sd_y=1.0):
    """(x, y, xdot, ydot) with x independent of the (y, xdot) block."""
    return density_4d(
        [mean_x, mean_y, mean_v, 0.0],
        np.diag([sd_x**2, sd_y**2, sd_v**2, 1.0]),
    )


class TestRateSample:
    def test_sum_consistency_enforced(self):
        with pytest.raises(ValueError):
            RateSample(0.0, 1.0, {"front": 0.3, "right": 0.3}, "quadrature")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            RateSample(0.0, 0.0, {}, "simpson")

    def test_valid_sample(self):
        s = RateSample(1.0, 0.6, {"front": 0.5, "right": 0.1}, "taylor0")
        assert s.mu_plus == pytest.approx(0.6)


class TestQuadrature:
    def test_receding_motion_is_zero(self):
        g = factorized_density(0.5, 1.0, +5.0, 0.1)
        assert segment_intensity(g, FRONT, method="quadrature") < 1e-12

    def test_factorized_hand_value(self):
        """Independent conditional: closed-form product 0.3521*2.0085*0.6827."""
        g = factorized_density(0.5, 1.0, -2.0, 1.0)
        expected = (
            normal_pdf(0.0, 0.5, 1.0)
            * (2.0 * normal_cdf(2.0) + normal_pdf(0.0, -2.0, 1.0))
            * (normal_cdf(1.0) - normal_cdf(-1.0))
        )
        # the velocity factor evaluates E[-xdot ; xdot<=0] = 2.0085
        assert expected == pytest.approx(0.3521 * 2.0085 * 0.6827, abs=2e-3)
        val = segment_intensity(g, FRONT, method="quadrature")
        assert val == pytest.approx(expected, abs=1e-3)

    def test_factorized_matches_mc_expectation(self):
        """Quadrature vs direct MC estimate of -E[xdot 1(xdot<0, y in I)] p(x0)."""
        rng = np.random.default_rng(31)
        g = factorized_density(0.5, 1.0, -2.0, 1.0)
        n = 2_000_000
        v = rng.normal(-2.0, 1.0, n)
        y = rng.normal(0.0, 1.0, n)
        flux = -np.mean(v * ((v <= 0.0) & (np.abs(y) <= 1.0)))
        mc = normal_pdf(0.0, 0.5, 1.0) * flux
        val = segment_intensity(g, FRONT, method="quadrature")
        assert val == pytest.approx(mc, abs=1e-3)

    def test_wide_interval_reduces_to_half_normal_flux(self):
        """I_y -> R recovers p(x0) * E[(-xdot)+], the half-normal mean."""
        wide = BoundarySegment("front", "x", 0.0, -60.0, 60.0, (-1.0, 0.0))
        mu_v, sd_v = -2.0, 1.0
        g = factorized_density(0.5, 1.0, mu_v, sd_v)
        expected = normal_pdf(0.0, 0.5, 1.0) * (
            -mu_v * normal_cdf(-mu_v / sd_v) + sd_v**2 * normal_pdf(0.0, mu_v, sd_v)
        )
        val = segment_intensity(g, wide, method="quadrature")
        assert val == pytest.approx(expected, rel=1e-6)


class TestTaylorForms:
    def test_diagonal_conditional_all_methods_agree(self):
        """Zero expansion parameter: closed forms equal quadrature exactly."""
        rng = np.random.default_rng(55)
        for _ in range(25):
            g = factorized_density(
                rng.uniform(-1, 1),
                rng.uniform(0.5, 2.0),
                rng.uniform(-4, -0.5),
                rng.uniform(0.3, 1.5),
                rng.uniform(-0.5, 0.5),
                rng.uniform(0.3, 2.0),
            )
            ref = segment_intensity(g, FRONT, method="quadrature")
            for method in ("taylor0", "taylor1_inv", "taylor1_cov"):
                val = segment_intensity(g, FRONT, method=method)
                assert val == pytest.approx(ref, rel=1e-6, abs=1e-14)

    def test_first_order_reduces_to_zeroth_when_diagonal(self):
        g = factorized_density(0.5, 1.0, -2.0, 1.0)
        t0 = segment_intensity(g, FRONT, method="taylor0")
        ti = segment_intensity(g, FRONT, method="taylor1_inv")
        tc = segment_intensity(g, FRONT, method="taylor1_cov")
        assert ti == pytest.approx(t0, rel=1e-12)
        assert tc == pytest.approx(t0, rel=1e-12)

    @staticmethod
    def correlated_density(c):
        cov = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, c, 0.0],
                [0.0, c, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        return density_4d([0.3, 0.2, -1.5, 0.0], cov)

    def test_correction_sign_flips_with_cross_covariance(self):
        t0 = segment_intensity(self.correlated_density(0.0), FRONT, method="taylor0")
        plus = segment_intensity(
            self.correlated_density(0.4), FRONT, method="taylor1_cov"
        )
        minus = segment_intensity(
            self.correlated_density(-0.4), FRONT, method="taylor1_cov"
        )
        assert (plus - t0) * (minus - t0) < 0.0

    def test_strong_inbound_asymptotic_flux(self):
        """mu_xdot -> -inf: intensity approaches the deterministic flux."""
        g = factorized_density(0.5, 1.0, -20.0, 0.5)
        expected = (
            normal_pdf(0.0, 0.5, 1.0)
            * 20.0
            * (normal_cdf(1.0) - normal_cdf(-1.0))
        )
        for method in METHODS:
            val = segment_intensity(g, FRONT, method=method)
            assert val == pytest.approx(expected, rel=1e-4)

    def test_small_determinant_favors_cov_expansion(self):
        """Tight conditional covariance: Sigma12 expansion beats the inverse one."""
        for scale in (0.5, 0.25, 0.1):
            s2, c = scale, 0.3 * scale
            cov = np.array(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, s2, c, 0.0],
                    [0.0, c, s2, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
            g = density_4d([0.3, 0.0, -1.0, 0.0], cov)
            q = segment_intensity(g, FRONT, method="quadrature")
            err_inv = abs(segment_intensity(g, FRONT, method="taylor1_inv") - q)
            err_cov = abs(segment_intensity(g, FRONT, method="taylor1_cov") - q)
            assert err_cov < err_inv

    def test_clamp_counter_tracks_negative_truncation(self):
        reset_clamp_count()
        base = clamp_count()
        # extreme correlation far in a tail can push the first-order form
        # negative; a clean case must not increment the counter
        g = factorized_density(0.5, 1.0, -2.0, 1.0)
        segment_intensity(g, FRONT, method="taylor1_inv")
        assert clamp_count() == base


@pytest.fixture(scope="module")
def front_curve():
    cfg = preset_config("front")
    ts = np.arange(2.0, 6.0 + 1e-9, 0.1)
    return ts, {method: intensity_curve(cfg, ts, method).values() for method in METHODS}


class TestScenarioCurves:
    def test_taylor0_error_within_fig8_scale(self, front_curve):
        _, curves = front_curve
        peak = curves["quadrature"].max()
        assert np.abs(curves["taylor0"] - curves["quadrature"]).max() < 0.10 * peak

    def test_first_order_beats_zeroth(self, front_curve):
        _, curves = front_curve
        err0 = np.abs(curves["taylor0"] - curves["quadrature"]).max()
        err1 = np.abs(curves["taylor1_inv"] - curves["quadrature"]).max()
        assert err1 <= err0

    def test_rear_and_left_inactive(self):
        """Front scenario never produces rear/left intensity (Table shape)."""
        cfg = preset_config("front")
        for sample in intensity_curve(cfg, (2.0, 3.5, 5.0), "quadrature").samples:
            assert sample.per_segment["rear"] < 1e-9
            assert sample.per_segment["left"] < 1e-6 * max(sample.mu_plus, 1e-9)


class TestTotalIntensity:
    @pytest.mark.parametrize("method", METHODS)
    def test_degenerate_velocity_spread_raises(self, method):
        """Zero velocity variance: no method may report a zero intensity."""
        cfg = preset_config(
            "front",
            initial_mean=StateVector(10.0, 0.0, -2.0, 0.0, 0.0, 0.0),
            initial_cov=np.diag([1.0, 0.25, 0.0, 0.0, 0.0, 0.0]),
            model=MotionModel(qx=0.0, qy=0.0),
        )
        for t in (0.0, 4.0):
            with pytest.raises(NumericsError):
                total_intensity(cfg.predicted_density(t), cfg.rect, t, method)

    def test_free_space_receding_is_zero(self):
        g = GaussianDensity(
            [50.0, 50.0, 3.0, 3.0, 0.0, 0.0], np.diag([1, 1, 0.1, 0.1, 0.01, 0.01])
        )
        assert total_intensity(g, RECT, 0.0, "quadrature").mu_plus < 1e-12

    def test_total_equals_segment_sum(self):
        g6 = GaussianDensity(
            [3.0, 0.5, -2.0, -0.3, 0.0, 0.0],
            np.diag([1.0, 1.0, 0.5, 0.5, 0.1, 0.1]),
        )
        sample = total_intensity(g6, RECT, 0.0, "quadrature")
        g4 = cr.marginalize(g6, (0, 1, 2, 3))
        direct = sum(
            segment_intensity(g4, seg, method="quadrature") for seg in segments(RECT)
        )
        assert sample.mu_plus == pytest.approx(direct, rel=1e-9)

    def test_rotation_invariance(self):
        """Rotating density and rectangle together by 90 deg preserves mu+."""
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        t6 = np.zeros((6, 6))
        for b in range(3):
            t6[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = rot
        mean = np.array([3.0, 0.5, -2.0, -0.3, -0.1, 0.05])
        rng = np.random.default_rng(61)
        a = rng.standard_normal((6, 6)) * 0.4
        cov = a @ a.T + 0.2 * np.eye(6)
        g = GaussianDensity(mean, cov)
        g_rot = GaussianDensity(t6 @ mean, t6 @ cov @ t6.T)
        # rect rotated 90 deg CCW: x' = -y, y' = x
        rect_rot = HostRectangle(
            x_front=-RECT.y_left, x_rear=-RECT.y_right,
            y_left=RECT.x_rear, y_right=RECT.x_front,
        )
        a_val = total_intensity(g, RECT, 0.0, "quadrature").mu_plus
        b_val = total_intensity(g_rot, rect_rot, 0.0, "quadrature").mu_plus
        assert b_val == pytest.approx(a_val, rel=1e-9, abs=1e-12)

    def test_rejects_non_6dim(self):
        with pytest.raises(ValueError):
            total_intensity(GaussianDensity([0.0], [[1.0]]), RECT, 0.0)

    def test_unknown_method(self):
        g = GaussianDensity(np.zeros(6), np.eye(6))
        with pytest.raises(ValueError):
            total_intensity(g, RECT, 0.0, "simpson")


class TestSalientComparison:
    def test_rear_corner_favors_cov_expansion(self):
        """Salient rear-corner curve: Sigma12 expansion error is smaller."""
        cfg = preset_config("front")
        cfg = dataclasses.replace(
            cfg, model=dataclasses.replace(cfg.model, input_enabled=False)
        )
        off = SalientOffset(-4.0, -0.9)
        ts = np.arange(2.0, 6.5, 0.25)
        errs = {"taylor1_inv": 0.0, "taylor1_cov": 0.0}
        peak = 0.0
        for t in ts:
            g_s = salient_transform_density(
                cfg.predicted_density(t), off, cfg.model, float(t)
            )
            ref = total_intensity(g_s, cfg.rect, float(t), "quadrature").mu_plus
            peak = max(peak, ref)
            for method in errs:
                val = total_intensity(g_s, cfg.rect, float(t), method).mu_plus
                errs[method] = max(errs[method], abs(val - ref))
        assert errs["taylor1_cov"] <= errs["taylor1_inv"]
        assert errs["taylor1_cov"] < 0.02 * peak
