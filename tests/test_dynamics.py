"""Dynamics: propagation, process noise, radar model, Riccati, salient points."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from crossrate import (
    GaussianDensity,
    MotionModel,
    RadarNoise,
    SalientOffset,
    StateVector,
    measurement_function,
    measurement_jacobian,
    predict_density,
    process_noise_cov,
    salient_transform_density,
    salient_transform_state,
    steady_state_covariance,
    transition_matrix,
)
from crossrate import dynamics
from crossrate.dynamics import EPS_SPEED, salient_jacobian
from crossrate.errors import DomainError, NumericsError

CA_MODEL = MotionModel(qx=1.0, qy=1.0)
INPUT_MODEL = MotionModel(qx=0.0101, qy=0.0101, b1=-0.2, b2=-0.3, omega=0.5)


def random_state(rng, min_speed=0.5):
    while True:
        s = StateVector(*rng.uniform(-10, 10, 6))
        if math.hypot(s.xdot, s.ydot) > min_speed:
            return s


class TestTransitionMatrix:
    def test_zero_dt_identity(self):
        np.testing.assert_allclose(transition_matrix(0.0), np.eye(6))

    def test_unit_dt_x_row(self):
        phi = transition_matrix(1.0)
        np.testing.assert_allclose(phi[0], [1, 0, 1, 0, 0.5, 0])

    def test_semigroup(self):
        np.testing.assert_allclose(
            transition_matrix(0.3) @ transition_matrix(0.7),
            transition_matrix(1.0),
            atol=1e-14,
        )


class TestProcessNoiseCov:
    def test_unit_dt_entries(self):
        q = process_noise_cov(1.0, CA_MODEL)
        assert q[0, 0] == pytest.approx(0.05)
        assert q[0, 2] == pytest.approx(0.125)
        assert q[0, 4] == pytest.approx(1.0 / 6.0)
        assert q[2, 2] == pytest.approx(1.0 / 3.0)
        assert q[4, 4] == pytest.approx(1.0)

    def test_zero_dt(self):
        np.testing.assert_allclose(process_noise_cov(0.0, CA_MODEL), np.zeros((6, 6)))

    def test_anisotropic_scaling(self):
        q = process_noise_cov(1.0, MotionModel(qx=2.0, qy=3.0))
        assert q[0, 0] == pytest.approx(0.10)
        assert q[1, 1] == pytest.approx(0.15)

    def test_matches_transition_kernel_quadrature(self):
        """Q(dt) vs numeric integral of Phi(dt-tau) L Qtilde L^T Phi^T."""
        model = MotionModel(qx=2.0, qy=2.0)
        dt = 0.5
        l_mat = np.zeros((6, 2))
        l_mat[4, 0] = 1.0
        l_mat[5, 1] = 1.0
        q_tilde = np.diag([model.qx, model.qy])

        def element(tau, i, j):
            phi = transition_matrix(dt - tau)
            m = phi @ l_mat @ q_tilde @ l_mat.T @ phi.T
            return m[i, j]

        expected = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                expected[i, j], _ = scipy_integrate.quad(element, 0.0, dt, args=(i, j))
        np.testing.assert_allclose(
            process_noise_cov(dt, model), expected, atol=1e-10
        )

    @pytest.mark.parametrize("dt", [0.01, 0.05, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_psd_sweep(self, dt):
        q = process_noise_cov(dt, MotionModel(qx=1.0125, qy=0.0101))
        assert np.linalg.eigvalsh(q).min() >= -1e-12 * np.trace(q)


def predicted_mean(s: StateVector, dt: float, model: MotionModel, t0: float = 0.0):
    """The predicted mean of a point mass at s: the deterministic propagation."""
    point = GaussianDensity(s.as_array(), np.zeros((6, 6)))
    return predict_density(point, dt, model, t0).mean


class TestPredictMean:
    def test_constant_acceleration_hand_value(self):
        s = StateVector(10.0, 0.0, -2.0, 0.4, -0.2, 0.0)
        out = predicted_mean(s, 1.0, CA_MODEL)
        np.testing.assert_allclose(
            out, [7.9, 0.4, -2.2, 0.4, -0.2, 0.0], atol=1e-12
        )

    def test_zero_dt_identity(self):
        s = StateVector(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        np.testing.assert_allclose(
            predicted_mean(s, 0.0, INPUT_MODEL), s.as_array()
        )

    def test_input_on_matches_ode_integration(self):
        """Closed-form sinusoidal input propagation vs adaptive Runge-Kutta."""
        s = StateVector(10.0, 0.0, -2.0, 0.4, -0.2, 0.0)
        model = INPUT_MODEL

        def rhs(t, xi):
            dxi = np.empty(6)
            dxi[0], dxi[1] = xi[2], xi[3]
            dxi[2], dxi[3] = xi[4], xi[5]
            dxi[4] = model.b1 * math.sin(model.omega * t)
            dxi[5] = model.b2 * math.sin(model.omega * t)
            return dxi

        for dt in [0.5, 1.0, 3.7]:
            sol = scipy_integrate.solve_ivp(
                rhs, (0.0, dt), s.as_array(), rtol=1e-12, atol=1e-12
            )
            out = predicted_mean(s, dt, model)
            np.testing.assert_allclose(out, sol.y[:, -1], atol=1e-8)

    def test_nonzero_start_time(self):
        """Propagation from t0 > 0 uses the input phase at t0."""
        s = StateVector(5.0, 1.0, -1.0, 0.2, 0.0, 0.1)
        model = INPUT_MODEL
        direct = predicted_mean(s, 3.0, model)
        midway = StateVector.from_array(predicted_mean(s, 1.2, model))
        chained = predicted_mean(midway, 1.8, model, t0=1.2)
        np.testing.assert_allclose(chained, direct, atol=1e-10)


def increment_scale(h: float) -> np.ndarray:
    """|b| h^(k+1) / (k+1)! per state component, b = 1: a bound on |increment|."""
    return np.array([h**3 / 6, h**3 / 6, h**2 / 2, h**2 / 2, h, h])


class TestInputIncrement:
    """The jerk input's increment stays accurate as omega -> 0, where the
    closed forms of its weights cancel (and divided by zero at omega 1e-120)."""

    @staticmethod
    def reference(h: float, model: MotionModel, t0: float) -> np.ndarray:
        """b int_t0^t1 (t1 - s)^k / k! sin(omega s) ds by adaptive quadrature."""
        t1 = t0 + h
        out = np.empty(6)
        for k, row in ((2, 0), (1, 2), (0, 4)):
            scale = h ** (k + 1) / math.factorial(k + 1)
            value, _ = scipy_integrate.quad(
                lambda u: u**k / math.factorial(k) * math.sin(model.omega * (t1 - u)),
                0.0,
                h,
                epsabs=1e-14 * scale,
                epsrel=1e-13,
                limit=1000,
            )
            out[row], out[row + 1] = model.b1 * value, model.b2 * value
        return out

    @pytest.mark.parametrize("omega", [1e-120, *(10.0**e for e in range(-12, 2))])
    def test_matches_quadrature(self, omega):
        model = MotionModel(qx=0.0, qy=0.0, b1=1.0, b2=-0.5, omega=omega)
        for h in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 10.0):
            for t0 in (0.0, 3.7):
                err = np.abs(dynamics.input_increment(h, model, t0) - self.reference(h, model, t0))
                assert np.all(err <= 1e-12 * increment_scale(h)), (h, t0, err)

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_series_and_closed_forms_meet(self, side):
        """Steps just below, at and above the |omega h| = 1 switch of the weights."""
        model = MotionModel(qx=0.0, qy=0.0, b1=1.0, b2=-0.5, omega=0.5)
        h = 2.0 + side * 1e-12
        err = np.abs(dynamics.input_increment(h, model, 1.3) - self.reference(h, model, 1.3))
        assert np.all(err <= 1e-14 * increment_scale(h))

    @settings(max_examples=200, deadline=None)
    @given(
        log_omega=st.floats(-12.0, 1.0),
        a=st.floats(1e-3, 5.0),
        b=st.floats(1e-3, 5.0),
        t0=st.floats(0.0, 5.0),
    )
    def test_chaining(self, log_omega, a, b, t0):
        """The increment over [t0, t0 + a], propagated through [t0 + a, t0 + a + b],
        plus the increment over that step, is the increment over both."""
        model = MotionModel(qx=0.0, qy=0.0, b1=1.0, b2=-0.5, omega=10.0**log_omega)
        chained = transition_matrix(b) @ dynamics.input_increment(
            a, model, t0
        ) + dynamics.input_increment(b, model, t0 + a)
        direct = dynamics.input_increment(a + b, model, t0)
        assert np.all(np.abs(chained - direct) <= 1e-12 * increment_scale(a + b))


class TestMotionModel:
    def test_input_is_on_exactly_when_a_gain_is_non_zero(self):
        """With both gains zero the input's terms are zero on the one code path
        every model runs, whatever the step, start or frequency; so is the
        increment of a zero step with the input on."""
        assert not MotionModel(qx=1.0, qy=1.0, omega=0.5).input_enabled
        assert MotionModel(qx=1.0, qy=1.0, b2=-0.3, omega=0.5).input_enabled
        for omega in (0.0, 0.5):
            off = MotionModel(qx=1.0, qy=1.0, omega=omega)
            for dt in (0.0, 0.01, 1.0, 8.0):
                for t0 in (0.0, 2.5):
                    np.testing.assert_array_equal(dynamics.input_increment(dt, off, t0), 0.0)
            for t in (0.0, 1.3, 7.0):
                np.testing.assert_array_equal(off.jerk_input(t), 0.0)
        for t0 in (0.0, 2.5):
            np.testing.assert_array_equal(dynamics.input_increment(0.0, INPUT_MODEL, t0), 0.0)

    @pytest.mark.parametrize("omega", [0.0, -0.5, math.nan])
    def test_gain_needs_positive_omega(self, omega):
        with pytest.raises(ValueError, match="omega must be > 0"):
            MotionModel(qx=1.0, qy=1.0, b1=0.1, omega=omega)
        if math.isfinite(omega):
            MotionModel(qx=1.0, qy=1.0, omega=omega)  # no input, no frequency needed

    @pytest.mark.parametrize("field", ["qx", "qy", "b1", "b2", "omega"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_parameters_must_be_finite(self, field, bad):
        """No parameter may be NaN or infinite: every model runs the input's
        code, so even with both gains zero a non-finite frequency reaches it."""
        with pytest.raises(ValueError, match="must be finite"):
            MotionModel(**{"qx": 1.0, "qy": 1.0, "omega": 0.5, field: bad})


class TestPredictDensity:
    def test_zero_dt_identity(self):
        g = GaussianDensity(np.arange(6.0), np.eye(6))
        out = predict_density(g, 0.0, CA_MODEL)
        np.testing.assert_allclose(out.mean, g.mean)
        np.testing.assert_allclose(out.cov, g.cov)

    def test_delta_propagation_stays_delta(self):
        g = GaussianDensity(np.arange(6.0), np.zeros((6, 6)))
        out = predict_density(g, 2.0, MotionModel(qx=0.0, qy=0.0))
        np.testing.assert_allclose(out.cov, np.zeros((6, 6)), atol=1e-15)

    def test_semigroup_chaining(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        g = GaussianDensity(rng.standard_normal(6), a @ a.T)
        model = MotionModel(qx=0.7, qy=0.3)
        direct = predict_density(g, 1.5, model)
        chained = predict_density(predict_density(g, 0.6, model), 0.9, model)
        np.testing.assert_allclose(chained.mean, direct.mean, atol=1e-9)
        np.testing.assert_allclose(chained.cov, direct.cov, atol=1e-9)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            predict_density(GaussianDensity([0.0], [[1.0]]), 1.0, CA_MODEL)

    def test_lost_psd_is_a_numerics_error(self, monkeypatch):
        """A propagated covariance below the PSD tolerance is a numerical
        failure (exit 3), not a bad-input ValueError."""
        monkeypatch.setattr(dynamics, "process_noise_cov", lambda dt, model: -2.0 * np.eye(6))
        g = GaussianDensity(np.zeros(6), np.eye(6))
        message = r"predicted density is invalid: covariance is not positive semi-definite"
        with pytest.raises(NumericsError, match=message + r" \(min eig -1\)"):
            predict_density(g, 0.0, CA_MODEL)


class TestMeasurementFunction:
    def test_345_triangle(self):
        r, phi, rdot = measurement_function(StateVector(3, 4, 0, 0, 0, 0))
        assert r == pytest.approx(5.0)
        assert phi == pytest.approx(0.9273, abs=1e-4)
        assert rdot == pytest.approx(0.0)

    def test_pure_radial(self):
        r, phi, rdot = measurement_function(StateVector(10, 0, -2, 0, 0, 0))
        assert (r, phi, rdot) == pytest.approx((10.0, 0.0, -2.0))

    def test_diagonal_approach(self):
        _, _, rdot = measurement_function(StateVector(10, 10, -2, -1.6, 0, 0))
        assert rdot == pytest.approx(-36.0 / math.sqrt(200.0), abs=1e-4)

    def test_zero_range_rejected(self):
        with pytest.raises(DomainError):
            measurement_function(StateVector(0, 0, 1, 1, 0, 0))


class TestMeasurementJacobian:
    def test_axis_aligned_entries(self):
        h = measurement_jacobian(StateVector(10, 0, -2, 0.4, 0, 0))
        assert h[0, 0] == pytest.approx(1.0)
        assert h[1, 1] == pytest.approx(0.1)

    def test_acceleration_columns_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = measurement_jacobian(random_state(rng))
            np.testing.assert_allclose(h[:, 4:], np.zeros((3, 2)))

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(9)
        step = 1e-6
        for _ in range(50):
            s = random_state(rng)
            if math.hypot(s.x, s.y) < 1.0:
                continue
            h = measurement_jacobian(s)
            base = s.as_array()
            fd = np.empty((3, 6))
            for j in range(6):
                hi = base.copy()
                lo = base.copy()
                hi[j] += step
                lo[j] -= step
                fd[:, j] = (
                    np.array(measurement_function(StateVector(*hi)))
                    - np.array(measurement_function(StateVector(*lo)))
                ) / (2 * step)
            scale = np.maximum(np.abs(h), 1.0)
            assert np.max(np.abs(h - fd) / scale) < 1e-5


class TestSteadyStateCovariance:
    MEAN = StateVector(10.0, 0.0, -2.0, 0.4, -0.2, 0.0)
    NOISE = RadarNoise(0.5, 0.00873, 0.25, 0.05)

    def test_symmetric_psd(self):
        p = steady_state_covariance(self.MEAN, INPUT_MODEL, self.NOISE)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        assert np.linalg.eigvalsh(p).min() >= -1e-10 * np.trace(p)

    def test_fixed_point_residual(self):
        model = INPUT_MODEL
        p = steady_state_covariance(self.MEAN, model, self.NOISE)
        phi = transition_matrix(self.NOISE.cycle_time)
        q = process_noise_cov(self.NOISE.cycle_time, model)
        h = measurement_jacobian(self.MEAN)
        r = np.diag(
            [
                self.NOISE.sigma_r**2,
                self.NOISE.sigma_phi**2,
                self.NOISE.sigma_rdot**2,
            ]
        )
        p_pred = phi @ p @ phi.T + q
        s = h @ p_pred @ h.T + r
        k = p_pred @ h.T @ np.linalg.inv(s)
        ikh = np.eye(6) - k @ h
        p_next = ikh @ p_pred @ ikh.T + k @ r @ k.T
        assert np.max(np.abs(p_next - p)) < 1e-8

    def test_sharper_radar_shrinks_covariance(self):
        sharp = RadarNoise(0.05, 0.000873, 0.025, 0.05)
        p = steady_state_covariance(self.MEAN, INPUT_MODEL, self.NOISE)
        p_sharp = steady_state_covariance(self.MEAN, INPUT_MODEL, sharp)
        assert np.trace(p_sharp) < np.trace(p)

    def test_non_convergence_raises_numerics_error(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_RICCATI_MAX_ITER", 1)
        with pytest.raises(NumericsError, match="did not converge within 1 iterations"):
            steady_state_covariance(self.MEAN, INPUT_MODEL, self.NOISE)


class TestSalientTransform:
    def test_zero_offset_identity(self):
        s = StateVector(1, 2, 3, 4, 5, 6)
        out = salient_transform_state(s, SalientOffset(0.0, 0.0), CA_MODEL, 0.0)
        np.testing.assert_allclose(out.as_array(), s.as_array())

    def test_straight_motion_translates_position_only(self):
        out = salient_transform_state(
            StateVector(0, 0, 1, 0, 0, 0), SalientOffset(2.0, 1.0), CA_MODEL, 0.0
        )
        np.testing.assert_allclose(out.as_array(), [2, 1, 1, 0, 0, 0], atol=1e-12)

    def test_rotating_motion_velocity_term(self):
        """alpha_dot=1 turn: velocity gains omega x r."""
        out = salient_transform_state(
            StateVector(0, 0, 1, 0, 0, 1), SalientOffset(1.0, 0.0), CA_MODEL, 0.0
        )
        np.testing.assert_allclose(out.xdot, 1.0, atol=1e-12)
        np.testing.assert_allclose(out.ydot, 1.0, atol=1e-12)

    def test_near_zero_speed_rejected(self):
        with pytest.raises(DomainError):
            salient_transform_state(
                StateVector(0, 0, 1e-6, 0, 0, 0), SalientOffset(1.0, 0.0), CA_MODEL, 0.0
            )

    def test_jacobian_and_density_reject_near_zero_speed(self):
        s = StateVector(0, 0, 0.6 * EPS_SPEED, -0.6 * EPS_SPEED, 1, 0)
        off = SalientOffset(1.0, 0.0)
        with pytest.raises(DomainError):
            salient_jacobian(s, off, CA_MODEL, 0.0)
        with pytest.raises(DomainError):
            salient_transform_density(
                GaussianDensity(s.as_array(), np.eye(6)), off, CA_MODEL, 0.0
            )

    def test_zero_offset_jacobian_is_exact_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            jac = salient_jacobian(random_state(rng), SalientOffset(0.0, 0.0), INPUT_MODEL, t=1.3)
            np.testing.assert_array_equal(jac, np.eye(6))

    def test_jacobian_finite_difference(self):
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(50):
            s = random_state(rng)
            off = SalientOffset(*rng.uniform(-3, 3, 2))
            jac = salient_jacobian(s, off, INPUT_MODEL, t=1.3)
            base = s.as_array()
            fd = np.empty((6, 6))
            for j in range(6):
                hi = base.copy()
                lo = base.copy()
                hi[j] += step
                lo[j] -= step
                fd[:, j] = (
                    salient_transform_state(
                        StateVector(*hi), off, INPUT_MODEL, t=1.3
                    ).as_array()
                    - salient_transform_state(
                        StateVector(*lo), off, INPUT_MODEL, t=1.3
                    ).as_array()
                ) / (2 * step)
            scale = np.maximum(np.abs(jac), 1.0)
            assert np.max(np.abs(jac - fd) / scale) < 1e-5

    def test_density_zero_offset_identity(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6)) * 0.2
        g = GaussianDensity([0, 0, 5, 1, 0.2, -0.1], a @ a.T + 0.1 * np.eye(6))
        out = salient_transform_density(g, SalientOffset(0.0, 0.0), CA_MODEL, 0.0)
        np.testing.assert_allclose(out.mean, g.mean, atol=1e-12)
        np.testing.assert_allclose(out.cov, g.cov, atol=1e-10)

    def test_density_matches_sampled_transform(self):
        """Linearized covariance vs MC transform of 1e5 samples."""
        rng = np.random.default_rng(14)
        mean = np.array([0.0, 0.0, 8.0, 0.5, 0.1, -0.2])
        cov = np.diag([0.3, 0.3, 0.05, 0.05, 0.02, 0.02])
        g = GaussianDensity(mean, cov)
        off = SalientOffset(1.5, -0.8)
        out = salient_transform_density(g, off, CA_MODEL, 0.0)
        n = 100_000
        samples = mean + rng.standard_normal((n, 6)) @ np.sqrt(cov)
        transformed = np.array(
            [
                salient_transform_state(StateVector(*row), off, CA_MODEL, 0.0).as_array()
                for row in samples[:n]
            ]
        )
        emp_mean = transformed.mean(axis=0)
        se = transformed.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(emp_mean - out.mean) < 3 * se + 1e-3)
        emp_cov = np.cov(transformed.T)
        assert np.max(np.abs(emp_cov - out.cov)) < 0.05 * np.trace(cov)
