"""Dense small-dimension Gaussian algebra.

Marginalization, conditioning, scalar 1D normal pdf/cdf and the
bivariate normal CDF shared by the analytic intensity and prediction
code.  All operations are pure and value-semantic.  A density is
validated once, when built: a finite mean, a finite, symmetric and PSD
covariance, one symmetrize and one eigenvalue-only LAPACK call; it is
immutable after.  Conditioning takes the given block's condition number
from its eigenvalues and solves with one Cholesky factorization.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import erfc, erfcx, owens_t

from .errors import DomainError, NumericsError

_SYM_RTOL = 1e-12
_PSD_RTOL = 1e-10
_COND_LIMIT = 1e12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_MAX_ENTRY = 0.5 * float(np.finfo(float).max)  # so that symmetrize cannot overflow

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose.

    Repeated Phi P Phi^T + Q propagation drifts off symmetry; every
    covariance that leaves this package passes through here.
    """
    return 0.5 * (m + m.T)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (LAPACK dsyevd, no vectors)."""
    w, _, info = lapack.dsyevd(m, compute_v=0)
    if info != 0:
        raise NumericsError(f"eigenvalue solver failed (dsyevd info {info})")
    return w


@dataclass(frozen=True)
class GaussianDensity:
    """Mean vector and covariance matrix of an N-dimensional Gaussian.

    `_psd_slack` (not stored), a known rounding bound on each entry, widens
    the PSD check by that much and the symmetry check, of C_ij - C_ji, by twice it.
    """

    mean: np.ndarray
    cov: np.ndarray
    _psd_slack: InitVar[float] = 0.0

    def __post_init__(self, _psd_slack):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if mean.size != cov.shape[0]:
            raise ValueError(f"mean length {mean.size} != covariance size {cov.shape[0]}")
        scale = np.abs(cov).max()  # NaN or inf when an entry is
        if not (scale <= _MAX_ENTRY and all(map(math.isfinite, mean.tolist()))):
            raise ValueError(
                f"mean must be finite and covariance entries at most {_MAX_ENTRY:.3g} in size"
            )
        # antisymmetric: max = max |.|
        if (cov - cov.T).max() > _SYM_RTOL * max(scale, 1.0) + 2.0 * _psd_slack:
            raise ValueError("covariance is not symmetric")
        cov = symmetrize(cov)
        min_eig = _eigvalsh(cov)[0]
        if min_eig < -_PSD_RTOL * max(sum(cov.diagonal().tolist()), 1.0) - _psd_slack:
            raise ValueError(f"covariance is not positive semi-definite (min eig {min_eig:g})")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def marginalize(g: GaussianDensity, keep) -> GaussianDensity:
    """Marginal density over the given (ordered) index set."""
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate indices in keep set: {keep}")
    for i in keep:
        if not 0 <= i < g.dim:
            raise ValueError(f"index {i} out of range for dim {g.dim}")
    return GaussianDensity(g.mean.take(keep), g.cov.take(keep, 0).take(keep, 1))


def condition(g: GaussianDensity, given, values) -> GaussianDensity:
    """Density of the remaining coordinates given exact values for `given`.

    Remaining coordinates keep their original relative order.  The
    conditional covariance does not depend on `values`.  One Cholesky
    solve S_mm X = [values - mean_m, S_mr] gives both moments.
    """
    given = list(given)
    values = np.asarray(values, dtype=float).reshape(-1)
    if len(set(given)) != len(given):
        raise ValueError(f"duplicate indices in given set: {given}")
    for i in given:
        if not 0 <= i < g.dim:
            raise ValueError(f"index {i} out of range for dim {g.dim}")
    if values.size != len(given):
        raise ValueError("values length does not match given index set")
    rest = [i for i in range(g.dim) if i not in given]
    if not rest:
        raise ValueError("cannot condition on every coordinate")
    k = len(rest)
    idx = rest + given
    blocks = g.cov.take(idx, 0).take(idx, 1)
    sig_mm = blocks[k:, k:]
    moduli = [abs(w) for w in _eigvalsh(sig_mm).tolist()]  # its singular values
    # a subnormal singular value has lost its relative precision: singular
    cond = max(moduli) / min(moduli) if min(moduli) >= _TINY else math.inf
    if cond > _COND_LIMIT:
        raise NumericsError(
            f"conditioning block is ill-conditioned (cond {cond:.3e} > {_COND_LIMIT:.0e})"
        )
    factor, info = lapack.dpotrf(sig_mm, lower=1, clean=0)
    if info != 0:
        raise NumericsError(f"conditioning block not factorizable (dpotrf info {info})")
    rhs = np.concatenate(((values - g.mean.take(given))[:, np.newaxis], blocks[k:, :k]), axis=1)
    x, _ = lapack.dpotrs(factor, rhs, lower=1)
    sig_rm = blocks[:k, k:]
    mean = g.mean.take(rest) + sig_rm @ x[:, 0]
    # Rounding bound of S = A - B M^-1 B^T (A = blocks[:k, :k], B = sig_rm,
    # M = sig_mm, n = g.dim).  The Cholesky solve is exact for some M + dM,
    # |dM| = O(n^2 eps |M|) (Higham, Accuracy and Stability, Thm 10.4), which
    # moves S by B M^-1 dM M^-1 B^T; B M^-1 B^T <= A gives |B M^-1|^2 <=
    # |A| / lambda_min(M), so |dS| <~ n^2 eps cond(M) tr A, on S_ij and S_ji
    # alike.  The density allows that much, and symmetrizes S once.
    slack = g.dim**2 * _EPS * cond * sum(blocks[:k, :k].diagonal().tolist())
    try:
        return GaussianDensity(mean, blocks[:k, :k] - sig_rm @ x[:, 1:], slack)
    except ValueError as exc:  # e.g. the solve overflowed on a tiny but normal block
        raise NumericsError(f"conditional density is invalid: {exc}") from None


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function.

    The ufuncs erfc and np.exp stay in the normal helpers: math.erfc and
    math.exp differ from them in the last bit for many inputs.
    """
    return 0.5 * float(erfc(-z / _SQRT2))


def _owen_term(x: float, y: float, rho: float, rho_bar: float) -> float:
    """The x half of bivariate_normal_cdf: +-Phi(-|x|) / 2 - T(x, a_x).

    The sign is that of -x.  Computed at the scale of its own result, so
    that a small bivariate CDF keeps its relative accuracy: for |a| > 1
    the reciprocal identity

        T(x, a) = sgn(a) [(p + q) / 2 - p q - T(|a| x, 1 / |a|)],
        p = Phi(-|x|),  q = Phi(-|a x|),

    is folded into the Phi term by hand.
    """
    if x == 0.0:  # the limit of T(x, a_x) plus its half of beta is 1/4 = Phi(0) / 2
        return 0.0
    p = normal_cdf(-abs(x))
    ax = (y - rho * x) / rho_bar  # a x stays finite where a = ax / x overflows
    if abs(ax) <= abs(x):
        return (0.5 * p if x < 0.0 else -0.5 * p) - float(owens_t(x, ax / x))
    q = normal_cdf(-abs(ax))
    r = float(owens_t(math.copysign(ax, x), abs(x / ax))) - q * (0.5 - p)
    if (ax > 0.0) == (x > 0.0):  # a > 0
        return r if x < 0.0 else r - p
    return p - r if x < 0.0 else -r


def _gauss_legendre_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, n per panel, on the given panel edges."""
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = np.array(edges[:-1], dtype=float)[:, None], np.array(edges[1:], dtype=float)[:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


# Nodes t and weights of _lower_quadrant's integral, in units of its decay scale
_LQ_T, _LQ_W = _gauss_legendre_panels([0, 1, 2, 4, 8, 16, 40], 16)
_LQ_T2 = _LQ_T * _LQ_T


def _lower_quadrant(h: float, k: float, rho: float, rho_bar: float) -> float:
    """bivariate_normal_cdf for h < 0, rho < 0 and k <= rho h, as a sum of positive terms.

    There each half of the Owen form is a difference of terms far larger
    than the result, so it is evaluated as

        Phi2(h, k) = int_{-inf}^h phi(x) Phi(u(x)) dx,  u = (k - rho x) / rho_bar <= 0.

    The integrand is log-concave: its log-slope at x = h is s > 0, and its
    curvature lies between 0.63 / rho_bar^2 and 1 / rho_bar^2 (u <= 0).  In
    t = (h - x) c, c = max(s, 1 / rho_bar), it therefore varies on a scale
    of at least 1 and falls at least like e^-t or e^(-t^2 / 3): below e^-40
    of its value at h by t = 40.  With Phi(u) = erfcx(z) e^(-z^2) / 2,
    z = -u / sqrt(2) = z0 + z1 t, its exponent is a quadratic in t whose
    constant part is factored out.
    """
    z0 = (rho * h - k) / (rho_bar * _SQRT2)
    slope = -h - rho / rho_bar * math.sqrt(2.0 / math.pi) / float(erfcx(z0))
    c = max(slope, 1.0 / rho_bar)
    z1 = -rho / (rho_bar * _SQRT2 * c)
    exponent = (h / c - 2.0 * z0 * z1) * _LQ_T - (0.5 / (c * c) + z1 * z1) * _LQ_T2
    f = erfcx(z0 + z1 * _LQ_T) * np.exp(exponent)
    return math.exp(-0.5 * h * h - z0 * z0) * float(_LQ_W @ f) / (2.0 * _SQRT2PI * c)


def bivariate_normal_cdf(
    h: float, k: float, rho: float, rho_bar: float | None = None
) -> float:
    """P(X <= h, Y <= k) for standard normals X, Y with correlation rho.

    Owen's T form (Owen 1956, Ann. Math. Stat. 27):

        Phi2(h, k) = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
        a_h = (k - rho h) / (h rho_bar),  rho_bar = sqrt(1 - rho^2),

    where beta = 1/2 if h k < 0 and 0 otherwise; Phi2(0, 0) = 1/4 +
    asin(rho) / (2 pi).  The constant parts of Phi(h) / 2, Phi(k) / 2 and
    beta are summed exactly first, so that no tail is the difference of
    numbers near 1/4.  With rho < 0, one argument a < 0 and the other
    b <= rho a (h, k < 0 among them) each half still cancels, and
    _lower_quadrant integrates instead.
    Pass `rho_bar` when it is known more precisely than from a rounded rho,
    as sqrt(det) / (sigma_1 sigma_2) of a covariance; it must be > 0.
    """
    h, k, rho = float(h), float(k), float(rho)
    if rho_bar is None:
        rho_bar = math.sqrt(max((1.0 - rho) * (1.0 + rho), 0.0))
    if not rho_bar > 0.0:
        raise DomainError(f"bivariate normal CDF needs |rho| < 1, got rho={rho}")
    a, b = (h, k) if h < 0.0 else (k, h)
    if rho < 0.0 and a < 0.0 and b - rho * a <= 0.0:
        return _lower_quadrant(a, b, rho, rho_bar)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.atan2(rho, rho_bar) / (2.0 * math.pi)
    opposite = h < 0.0 < k or k < 0.0 < h
    const = 0.5 * ((h > 0.0) + (k > 0.0)) - 0.5 * opposite
    return const + _owen_term(h, k, rho, rho_bar) + _owen_term(k, h, rho, rho_bar)


def normal_pdf(x: float, mean: float = 0.0, sigma: float = 1.0) -> float:
    """1D normal pdf N(x; mean, sigma)."""
    u = (x - mean) / sigma
    return float(np.exp(-0.5 * u * u)) / (sigma * _SQRT2PI)


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular-ish factor F with F F^T = cov.

    Cholesky when positive definite, eigendecomposition fallback for
    semi-definite matrices (zero blocks are common: zero process noise,
    delta initial conditions).
    """
    cov = symmetrize(np.asarray(cov, dtype=float))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(cov)
        if w[0] < -_PSD_RTOL * max(np.trace(cov), 1.0):
            raise NumericsError(
                f"matrix is not PSD within tolerance (min eig {w[0]:g})"
            ) from None
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
