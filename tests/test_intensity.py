"""Entry intensity: exact closed form, Taylor closed forms, total over segments."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

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
    _boundary_conditional,
    clamp_count,
    reset_clamp_count,
    segment_intensity_quadrature,
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


def entry_intensity_oracle(g4, seg):
    """mu+ of one side by 2D quadrature of the exact integrand.

    The reference for the closed form of `segment_intensity_quadrature`.
    It is the 2D quadrature that method ran before, with changes that
    keep it accurate as |rho| -> 1: the density is factorized as
    p(y) p(xdot | y), and the inner velocity integral spans +-40
    conditional sigma around the ridge xdot = E[xdot | y] instead of
    +-8 marginal sigma around the mean, which missed a narrow ridge; the
    outer integral is cut to +-40 sigma of y.
    """
    bc = _boundary_conditional(g4, seg)
    slope = bc.s12 / bc.s22
    sd_v = math.sqrt((bc.s11 * bc.s22 - bc.s12 * bc.s12) / bc.s22)
    sd_y = math.sqrt(bc.s22)
    norm = 1.0 / (2.0 * math.pi * sd_v * sd_y)

    def velocity_integral(y):
        ridge = bc.mu1 + slope * (y - bc.mu2)
        lo, hi = ridge - 40.0 * sd_v, min(0.0, ridge + 40.0 * sd_v)
        if hi <= lo:
            return 0.0
        zy = (y - bc.mu2) / sd_y

        def integrand(v):
            zv = (v - ridge) / sd_v
            return v * norm * math.exp(-0.5 * (zv * zv + zy * zy))

        points = [p for p in (ridge - sd_v, ridge, ridge + sd_v) if lo < p < hi]
        return integrate.quad(
            integrand, lo, hi, points=points or None, epsabs=1e-300, epsrel=1e-12, limit=200
        )[0]

    # the lateral band cut to +-40 sigma of y, and breakpoints where the
    # ridge crosses xdot = 0, in units of its own width; for a tiny slope
    # the crossing lies beyond the float range, and only finite ones count
    y_lo, y_hi = max(bc.y_lo, bc.mu2 - 40.0 * sd_y), min(bc.y_hi, bc.mu2 + 40.0 * sd_y)
    if y_hi <= y_lo:
        return 0.0
    points = []
    if slope != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            y0, width = bc.mu2 - bc.mu1 / slope, sd_v / abs(slope)
            points = [y0 + d * width for d in (-40, -5, -1, 0, 1, 5, 40)]
    points = [y for y in points if math.isfinite(y) and y_lo < y < y_hi]
    val = integrate.quad(
        velocity_integral,
        y_lo,
        y_hi,
        points=points or None,
        epsabs=1e-300,
        epsrel=1e-12,
        limit=200,
    )[0]
    return max(0.0, -bc.pdf_x0 * val)


@st.composite
def boundary_densities(draw):
    """(x, y, xdot, ydot) densities about the host rectangle.

    Random PSD covariances: a rank-2 factor plus a 1e-6 nugget drives the
    conditional |rho| of every side to 1.  Means on a side's end, a zero
    normal velocity and receding targets are all drawn.
    """
    rank = draw(st.sampled_from([2, 4]))
    factor = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * rank, max_size=4 * rank))
    factor = np.reshape(factor, (4, rank))
    nugget = draw(st.sampled_from([1e-6, 1e-3, 0.1, 1.0]))
    cov = factor @ factor.T + nugget * np.eye(4)
    sd = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=4, max_size=4)))
    scale = sd / np.sqrt(np.diag(cov))
    cov = cov * np.outer(scale, scale)
    x = draw(st.sampled_from([RECT.x_front, RECT.x_rear]) | st.floats(-7.0, 2.0))
    y = draw(st.sampled_from([RECT.y_left, RECT.y_right]) | st.floats(-3.0, 3.0))
    xdot = draw(st.just(0.0) | st.floats(-5.0, 5.0))
    ydot = draw(st.floats(-5.0, 5.0))
    return density_4d([x, y, xdot, ydot], cov)


def subnormal_cross_covariance_density():
    """Unit covariance but for a subnormal cov(x, ydot): the ridge slope of
    the right and left sides is subnormal, and their ridge crossing of
    ydot = 0 lies beyond the float range."""
    cov = np.eye(4)
    cov[0, 3] = cov[3, 0] = 2.22507275e-310
    return density_4d([0.0, -1.0, 0.0, 0.0], cov)


class TestClosedFormAgainstIntegrand:
    @settings(max_examples=60, deadline=None)
    @given(g=boundary_densities())
    @example(g=subnormal_cross_covariance_density())
    def test_matches_quadrature_of_integrand(self, g):
        """Relative 1e-10 where mu+ > 1e-6 of the peak side, else absolute 1e-14.

        Near |rho| = 1 the value itself is ill-conditioned: rounding s12
        moves mu+ by up to eps / (1 - |rho|) relative, so the relative
        bound widens to 1e-15 / (1 - |rho|) where that is larger.  Values
        below 1e-10 are held to the absolute bound: there the Stein terms
        cancel to more digits than the relative bound leaves.
        """
        sides = segments(RECT)
        got = [segment_intensity_quadrature(g, seg) for seg in sides]
        want = [entry_intensity_oracle(g, seg) for seg in sides]
        floor = max(1e-6 * max(want), 1e-10)
        for seg, value, ref in zip(sides, got, want):
            if ref > floor:
                bc = _boundary_conditional(g, seg)
                rho = abs(bc.s12) / math.sqrt(bc.s11 * bc.s22)
                rel = max(1e-10, 1e-15 / (1.0 - rho))
                assert value == pytest.approx(ref, rel=rel), seg.name
            else:
                assert abs(value - ref) <= 1e-14, seg.name

    def test_ridge_near_unit_correlation(self):
        """|rho| -> 1 with the mean inbound: mu+ tends to p(x0) E[(-xdot)+ ; y in I]."""
        c = 1.0 - 1e-9
        cov = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, c, 0.0],
                [0.0, c, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        g = density_4d([0.3, 0.0, -5.0, 0.0], cov)
        # xdot = -5 + y exactly in the limit, which is < 0 on all of I = [-1, 1]
        expected = normal_pdf(0.0, 0.3, 1.0) * (
            5.0 * (normal_cdf(1.0) - normal_cdf(-1.0))
        )
        val = segment_intensity(g, FRONT, method="quadrature")
        assert val == pytest.approx(expected, rel=1e-4)
        assert val == pytest.approx(entry_intensity_oracle(g, FRONT), rel=1e-10)


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
