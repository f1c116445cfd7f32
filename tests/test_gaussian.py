"""Gaussian algebra: construction invariants, marginalize, condition, cdf."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.linalg import cho_factor, cho_solve

from crossrate import (
    GaussianDensity,
    bivariate_normal_cdf,
    condition,
    marginalize,
    normal_cdf,
    normal_pdf,
)
from crossrate.errors import DomainError, NumericsError


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T + 0.5 * np.eye(dim)
    return GaussianDensity(rng.standard_normal(dim), cov)


class TestConstruction:
    def test_dim_and_fields(self):
        g = GaussianDensity([1.0, 2.0], [[4.0, 1.0], [1.0, 9.0]])
        assert g.dim == 2
        np.testing.assert_allclose(g.mean, [1.0, 2.0])

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError):
            GaussianDensity([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            GaussianDensity([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianDensity([0.0, 0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])

    def test_arrays_read_only(self):
        g = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(ValueError):
            g.mean[0] = 5.0

    def test_semidefinite_accepted(self):
        GaussianDensity([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["mean", "variance", "covariance"])
    def test_rejects_non_finite(self, where, bad):
        mean = np.zeros(2)
        cov = np.eye(2)
        if where == "mean":
            mean[1] = bad
        elif where == "variance":
            cov[0, 0] = bad
        else:
            cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianDensity(mean, cov)


class TestMarginalize:
    def test_two_dim_keep_first(self):
        g = GaussianDensity([1.0, 2.0], [[4.0, 1.0], [1.0, 9.0]])
        m = marginalize(g, (0,))
        np.testing.assert_allclose(m.mean, [1.0])
        np.testing.assert_allclose(m.cov, [[4.0]])

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        g = random_density(rng, 4)
        m = marginalize(g, (0, 1, 2, 3))
        np.testing.assert_allclose(m.mean, g.mean)
        np.testing.assert_allclose(m.cov, g.cov)

    def test_index_out_of_range(self):
        g = GaussianDensity([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            marginalize(g, (0, 2))

    def test_nested_composition(self):
        rng = np.random.default_rng(11)
        g = random_density(rng, 5)
        one_step = marginalize(g, (1, 3))
        two_step = marginalize(marginalize(g, (0, 1, 3)), (1, 2))
        np.testing.assert_allclose(one_step.mean, two_step.mean)
        np.testing.assert_allclose(one_step.cov, two_step.cov)

    def test_projection_matches_sampled_marginal(self):
        """Marginal of a 6-dim density vs coordinate-projected samples (KS)."""
        rng = np.random.default_rng(7)
        g = random_density(rng, 6)
        m = marginalize(g, (0, 1, 2, 3))
        chol = np.linalg.cholesky(g.cov)
        samples = g.mean + rng.standard_normal((4000, 6)) @ chol.T
        direct = m.mean + rng.standard_normal((4000, 4)) @ np.linalg.cholesky(m.cov).T
        for j in range(4):
            res = stats.ks_2samp(samples[:, j], direct[:, j])
            assert res.pvalue > 0.01


class TestCondition:
    def test_diagonal_cov_unchanged(self):
        g = GaussianDensity([1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
        c = condition(g, (2,), (9.0,))
        np.testing.assert_allclose(c.mean, [1.0, 2.0])
        np.testing.assert_allclose(c.cov, np.diag([1.0, 2.0]))

    def test_two_dim_hand_values(self):
        g = GaussianDensity([1.0, 2.0], [[4.0, 1.0], [1.0, 9.0]])
        c = condition(g, (1,), (5.0,))
        np.testing.assert_allclose(c.mean, [1.0 + 3.0 / 9.0])
        np.testing.assert_allclose(c.cov, [[4.0 - 1.0 / 9.0]])

    def test_conditioning_on_mean_keeps_mean(self):
        rng = np.random.default_rng(5)
        g = random_density(rng, 3)
        c = condition(g, (1,), (g.mean[1],))
        np.testing.assert_allclose(c.mean, g.mean[[0, 2]], atol=1e-12)

    def test_cov_independent_of_values(self):
        rng = np.random.default_rng(6)
        g = random_density(rng, 4)
        c1 = condition(g, (0, 3), (0.0, 0.0))
        c2 = condition(g, (0, 3), (7.0, -2.0))
        np.testing.assert_allclose(c1.cov, c2.cov)

    def test_singular_given_block_rejected(self):
        cov = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        g = GaussianDensity([0.0, 0.0, 0.0], cov)
        with pytest.raises(NumericsError):
            condition(g, (1, 2), (1.0, 1.0))

    def test_conditional_trace_shrinks(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_density(rng, 4)
            c = condition(g, (3,), (0.5,))
            eig = np.linalg.eigvalsh(c.cov)
            assert eig.min() > -1e-12
            assert np.trace(c.cov) <= np.trace(g.cov[:3, :3]) + 1e-12

    @pytest.mark.parametrize("case", range(6))
    def test_against_numeric_slice_integration(self, case):
        """Condition on all-but-one coordinate vs numeric slice integration.

        With a single remaining coordinate, the normalized 1D slice of the
        joint pdf at the given values IS the conditional density, so its
        numeric moments are an exact oracle.
        """
        rng = np.random.default_rng(100 + case)
        dim = int(rng.integers(2, 5))
        g = random_density(rng, dim)
        keep = int(rng.integers(dim))
        given = tuple(i for i in range(dim) if i != keep)
        values = g.mean[list(given)] + rng.standard_normal(dim - 1)
        c = condition(g, given, values)
        inv = np.linalg.inv(g.cov)

        def slice_pdf(x_r):
            x = np.empty(dim)
            x[list(given)] = values
            x[keep] = x_r
            d = x - g.mean
            return math.exp(-0.5 * d @ inv @ d)

        sd = math.sqrt(c.cov[0, 0])
        lo, hi = c.mean[0] - 10 * sd, c.mean[0] + 10 * sd
        norm, _ = integrate.quad(slice_pdf, lo, hi)
        m1, _ = integrate.quad(lambda x: x * slice_pdf(x), lo, hi)
        mu = m1 / norm
        m2, _ = integrate.quad(lambda x: (x - mu) ** 2 * slice_pdf(x), lo, hi)
        assert mu == pytest.approx(c.mean[0], abs=1e-8)
        assert m2 / norm == pytest.approx(c.cov[0, 0], rel=1e-6)


def reference_condition(g, given, values):
    """Conditional moments by the textbook block formulas, one cho_solve per
    right-hand side: the reference for `condition`."""
    rest = [i for i in range(g.dim) if i not in given]
    sig_rm = g.cov[np.ix_(rest, given)]
    factor = cho_factor(g.cov[np.ix_(given, given)], lower=True)
    mean = g.mean[rest] + sig_rm @ cho_solve(factor, values - g.mean[given])
    cov = g.cov[np.ix_(rest, rest)] - sig_rm @ cho_solve(factor, sig_rm.T)
    return mean, 0.5 * (cov + cov.T)


@st.composite
def conditioning_cases(draw):
    """(density, given, values): a PSD covariance F F^T + nugget I with F of
    any rank, coordinates rescaled, and 1-3 given coordinates with at least
    one left.  Low ranks and zero or tiny nuggets make singular and
    ill-conditioned given blocks."""
    dim = draw(st.integers(2, 6))
    rank = draw(st.integers(1, dim))
    entries = st.lists(st.floats(-1.0, 1.0), min_size=dim * rank, max_size=dim * rank)
    factor = np.reshape(draw(entries), (dim, rank))
    nugget = draw(st.sampled_from([0.0, 1e-14, 1e-9, 1e-4, 1.0]))
    scale = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim)))
    cov = (factor @ factor.T + nugget * np.eye(dim)) * np.outer(scale, scale)
    mean = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)))
    n_given = draw(st.integers(1, min(3, dim - 1)))
    given = draw(st.permutations(range(dim)))[:n_given]
    values = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n_given, max_size=n_given)))
    return GaussianDensity(mean, 0.5 * (cov + cov.T)), list(given), values


# (covariance, given) at a zero mean and zero values.  The first eight were
# found by hypothesis (seeds 122, 127, 155, 174): the rounding of the Schur
# complement made it asymmetric beyond 1e-12, or gave it an eigenvalue
# down to -2.5e-6, below a PSD tolerance relative to its own trace.  The
# last conditions on a subnormal variance, which is treated as singular.
_Z = 0.0
CONDITIONING_EXAMPLES = [
    (
        [[2.25, 1.5, _Z, _Z, _Z, 13.5], [1.5, 1.0000152587890625, _Z, 3.90625e-03, _Z, 9.0],
         [_Z, _Z, 1.0, 0.5, _Z, _Z], [_Z, 3.90625e-03, 0.5, 1.25, _Z, _Z], [_Z] * 6,
         [13.5, 9.0, _Z, _Z, _Z, 81.0]],
        [1, 3, 0],
    ),
    (
        [[2.25, 1.5, _Z, _Z, _Z, _Z], [1.5, 1.000244140625, _Z, 1.5625e-02, _Z, _Z],
         [_Z, _Z, 36.0, 3.0, _Z, _Z], [_Z, 1.5625e-02, 3.0, 1.25, _Z, _Z], [_Z] * 6, [_Z] * 6],
        [1, 0, 3],
    ),
    (
        [[_Z] * 5, [_Z, 9.765625e-02, _Z, 3.125e-01, 3.125e-01], [_Z, _Z, 1.0, 1e-05, _Z],
         [_Z, 3.125e-01, 1e-05, 1.0000000001, 1.0], [_Z, 3.125e-01, _Z, 1.0, 1.0]],
        [1, 3],
    ),
    (
        [[_Z] * 5, [_Z, 1.0000000000000002e-02, _Z, 1.0937500000000001e-02, _Z], [_Z] * 5,
         [_Z, 1.0937500000000001e-02, _Z, 1.1962890626196290e-02, 1.0937500000000001e-06],
         [_Z, _Z, _Z, 1.0937500000000001e-06, 1.0]],
        [1, 3],
    ),
    (
        [[1.0, 6.103515625e-05, 1.0, _Z, _Z],
         [6.103515625e-05, 1.0000000037252903, 1.00006103515625, 1.0, _Z],
         [1.0, 1.00006103515625, 3.0, 1.0, 1.0], [_Z, 1.0, 1.0, 1.0, _Z], [_Z, _Z, 1.0, _Z, 1.0]],
        [2, 1, 3],
    ),
    (
        [[_Z] * 4, [_Z, 1.0000000037252904e-02, 6.1035156250000003e-06, 1.0937500000000001e-02],
         [_Z, 6.1035156250000003e-06, 1.0, _Z], [_Z, 1.0937500000000001e-02, _Z, 1.19628906250e-02]],
        [1, 3],
    ),
    (
        [[1.0, 1.25, 1.0, _Z], [1.25, 1.5625000001562501, 1.25, 1.2500000000000001e-05],
         [1.0, 1.25, 1.0, _Z], [_Z, 1.2500000000000001e-05, _Z, 1.0]],
        [0, 1],
    ),
    (
        [[_Z] * 4, [_Z, 6.25000001e-02, 0.25, 1e-05], [_Z, 0.25, 1.0, _Z], [_Z, 1e-05, _Z, 1.0]],
        [1, 2],
    ),
    ([[1.0, _Z], [_Z, 1.9e-313]], [1]),
]


def conditioning_examples(test):
    """Run `test` on every case of CONDITIONING_EXAMPLES, besides its draws."""
    for cov, given in CONDITIONING_EXAMPLES:
        g = GaussianDensity(np.zeros(len(cov)), cov)
        test = example(case=(g, given, np.zeros(len(given))))(test)
    return test


class TestConditionProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=conditioning_cases())
    @conditioning_examples
    @example(  # a tiny but normal given variance: the solve overflows to inf
        case=(GaussianDensity([0.0, 0.0], [[1.0, 1e-160], [1e-160, 3e-308]]), [1], np.array([10.0]))
    )
    def test_matches_block_formulas_or_fails_loudly(self, case):
        """Moments within 1e-12 relative of the reference where the given
        block's 2-norm condition number is below 1e11; NumericsError where
        it is above 1e13, the block is singular, its smallest eigenvalue
        modulus is subnormal, or the reference moments are not finite
        (the reference overflows in the last two)."""
        g, given, values = case
        block = g.cov[np.ix_(given, given)]
        cond = np.linalg.cond(block)
        subnormal = np.abs(np.linalg.eigvalsh(block)).min() < np.finfo(float).tiny
        if cond > 1e13 or np.linalg.matrix_rank(block) < len(given) or subnormal:
            with pytest.raises(NumericsError):
                condition(g, given, values)
            return
        try:
            c = condition(g, given, values)
        except NumericsError:
            assert cond >= 1e11 or not all(
                np.isfinite(m).all() for m in reference_condition(g, given, values)
            )
            return
        mean, cov = reference_condition(g, given, values)
        cov_scale = np.abs(g.cov).max()
        mean_scale = np.abs(mean).max() + np.abs(g.mean).max() + np.abs(values).max()
        np.testing.assert_allclose(c.mean, mean, rtol=1e-12, atol=1e-12 * mean_scale)
        np.testing.assert_allclose(c.cov, cov, rtol=1e-12, atol=1e-12 * cov_scale)


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5])
    def test_symmetry(self, z):
        assert normal_cdf(z) == pytest.approx(1.0 - normal_cdf(-z), abs=1e-15)

    def test_quantile_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750, abs=1e-4)

    def test_saturation(self):
        assert normal_cdf(9.0) == pytest.approx(1.0)
        assert normal_cdf(-9.0) == pytest.approx(0.0, abs=1e-15)

    def test_monotone(self):
        zs = np.linspace(-6, 6, 200)
        vals = [normal_cdf(z) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def scipy_bivariate_cdf(h, k, rho):
    cov = [[1.0, rho], [rho, 1.0]]
    return stats.multivariate_normal(cov=cov, allow_singular=True).cdf([h, k])


def lower_quadrant_reference(h, k, rho) -> float:
    """Phi2(h, k; rho) for h, rho < 0 and k <= rho h at 30 digits.

    int_{-inf}^h phi(x) Phi((k - rho x) / rho_bar) dx by mpmath Gauss-Legendre
    on panels of half the integrand's decay scale 1 / c, c = max(its log-slope
    at x = h, 1 / rho_bar), from h - 40 / c, where the integrand has fallen
    below e^-40 of its value at h.
    """
    with mpmath.workdps(30):
        h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        rho_bar = mpmath.sqrt((1 - rho) * (1 + rho))
        u = (k - rho * h) / rho_bar
        c = max(-h - rho / rho_bar * mpmath.npdf(u) / mpmath.ncdf(u), 1 / rho_bar)
        cuts = [h - mpmath.mpf(j) / (2 * c) for j in range(80, -1, -1)]
        integrand = lambda x: mpmath.npdf(x) * mpmath.ncdf((k - rho * x) / rho_bar)  # noqa: E731
        return float(mpmath.quad(integrand, cuts, method="gauss-legendre"))


# The front-right corner (x_front, y_right) of the spatial overlap at t = 1.625 s
LOWER_TAIL_CORNER = (-14.714934308524453, -13.926549768731524, -0.24332139145101825)


class TestBivariateNormalCdf:
    def test_lower_tail_corner(self):
        """The Owen form gave 3.1e-89 here, and -5.6e-87 after a last-bit change of h.

        The reference is the 40-digit value of the same integral on panels of a
        quarter of its decay scale; the integral over y instead of x agrees with it
        to 28 digits.
        """
        got = bivariate_normal_cdf(*LOWER_TAIL_CORNER)
        assert got == pytest.approx(7.8795809273505378e-122, rel=1e-10, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.floats(-35.0, 0.0, exclude_max=True),
        k=st.floats(-35.0, 0.0, exclude_max=True),
        rho=st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
    )
    @example(*LOWER_TAIL_CORNER)
    @example(-0.01, -8.0, -0.5)
    @example(-30.0, -1.0, -0.1)
    @example(-0.001, -0.001, -0.999999)
    def test_lower_quadrant_matches_mpmath(self, h, k, rho):
        """In the joint lower tail with rho < 0 the value is never negative and
        keeps its relative accuracy down to the bottom of the normal range."""
        got = bivariate_normal_cdf(h, k, rho)
        want = lower_quadrant_reference(h, k, rho)
        assert got >= 0.0
        assert abs(got - want) <= 1e-11 * want + 1e-300

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-35.0, 0.0, exclude_max=True),
        b=st.floats(-35.0, 35.0),
        rho=st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
    )
    @example(-12.101465320804557, 0.7781814472341074, -0.9048328099366332)
    @example(-6.343, 0.1956, -0.824)
    @example(-14.08, 0.00101, -0.316)
    def test_lower_tail_beyond_the_quadrant_matches_mpmath(self, a, b, rho):
        """With rho < 0, a < 0 and b <= rho a the integral holds too, though b
        may be positive; the Owen form gave -5.5e-140 at the first example,
        and 9e-5 and 6e-9 relative errors at the others."""
        assume(b <= rho * a)
        want = lower_quadrant_reference(a, b, rho)
        for got in (bivariate_normal_cdf(a, b, rho), bivariate_normal_cdf(b, a, rho)):
            assert got >= 0.0
            assert abs(got - want) <= 1e-11 * want + 1e-300

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.999])
    def test_both_zero(self, rho):
        expected = 0.25 + math.asin(rho) / (2 * math.pi)
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-16)

    @pytest.mark.parametrize("k", [-3.0, -0.4, 0.7, 2.5])
    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.6])
    def test_one_zero(self, k, rho):
        want = scipy_bivariate_cdf(0.0, k, rho)
        assert bivariate_normal_cdf(0.0, k, rho) == pytest.approx(want, abs=1e-14)
        assert bivariate_normal_cdf(k, 0.0, rho) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize(
        "h, k", [(0.3, -1.2), (2.0, 1.5), (-10.0, -1.0), (-6.0, 6.0), (3.0, -6.0)]
    )
    def test_independent_is_product(self, h, k):
        """rho = 0 gives Phi(h) Phi(k), to relative accuracy even in a far tail."""
        expected = normal_cdf(h) * normal_cdf(k)
        assert bivariate_normal_cdf(h, k, 0.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("rho", [-0.999999, 0.999999])
    @pytest.mark.parametrize("h, k", [(0.0, 0.0), (0.5, 0.5), (-1.0, 1.3), (2.0, -0.3)])
    def test_near_unit_correlation(self, rho, h, k):
        want = scipy_bivariate_cdf(h, k, rho)
        assert bivariate_normal_cdf(h, k, rho) == pytest.approx(want, abs=1e-14)

    def test_random_points_match_scipy(self):
        rng = np.random.default_rng(702)
        for i in range(300):
            h, k = rng.normal(0.0, 2.0, 2)
            h, k = (0.0 if i % 10 == 0 else h), (0.0 if i % 15 == 0 else k)
            rho = rng.uniform(-1.0, 1.0)
            want = scipy_bivariate_cdf(h, k, rho)
            assert bivariate_normal_cdf(h, k, rho) == pytest.approx(want, abs=1e-14)

    def test_precise_complement_accepted(self):
        """rho rounded to 1 is usable when sqrt(1 - rho^2) is passed exactly."""
        rho_bar = 1e-9
        got = bivariate_normal_cdf(0.0, 0.0, 1.0, rho_bar)
        assert got == pytest.approx(0.5 - rho_bar / (2 * math.pi), abs=1e-16)

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_unit_correlation_rejected(self, rho):
        with pytest.raises(DomainError):
            bivariate_normal_cdf(0.3, 0.2, rho)


class TestNormalPdf:
    def test_peak_value(self):
        assert normal_pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_scaling(self):
        assert normal_pdf(1.0, 1.0, 0.5) == pytest.approx(
            2.0 / math.sqrt(2 * math.pi)
        )


def test_2d_pdf_normalization():
    """Numeric integral of a correlated 2D pdf over +-8 sigma equals 1."""
    g = GaussianDensity([0.3, -0.2], [[2.0, 0.9], [0.9, 1.5]])
    inv = np.linalg.inv(g.cov)
    det = np.linalg.det(g.cov)
    norm = 1.0 / (2 * math.pi * math.sqrt(det))

    def pdf(y, x):
        d = np.array([x, y]) - g.mean
        return norm * math.exp(-0.5 * d @ inv @ d)

    s0 = math.sqrt(g.cov[0, 0])
    s1 = math.sqrt(g.cov[1, 1])
    val, _ = integrate.dblquad(
        pdf,
        g.mean[0] - 8 * s0,
        g.mean[0] + 8 * s0,
        g.mean[1] - 8 * s1,
        g.mean[1] + 8 * s1,
    )
    assert val == pytest.approx(1.0, abs=1e-6)
