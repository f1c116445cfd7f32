"""Boundary entry intensity of a Gaussian-predicted state.

The core quantity: expected rate of outside-to-inside crossings per
boundary segment,

    mu+ = -p(x0) * int_{xdot <= 0} int_{y in I} xdot p(xdot, y | x0) dxdot dy

evaluated in the segment frame, either by adaptive 2D quadrature of the
exact conditional-Gaussian integrand or by closed-form Taylor
approximations in the off-diagonal element of the conditional covariance
(or of its inverse), which factorize into 1D normal cdf/pdf terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import NumericsError
from .gaussian import GaussianDensity, condition, marginalize, normal_cdf, normal_pdf
from .geometry import BoundarySegment, HostRectangle, segments, to_segment_frame

METHODS = ("quadrature", "taylor0", "taylor1_inv", "taylor1_cov")

_VEL_SIGMA_SPAN = 8.0  # normal tail beyond 8 sigma is < 1e-15
_QUAD_RTOL = 1e-8

# Diagnostic counter for Taylor results clamped up to zero; truncation
# artifacts must not poison temporal integrals but should stay visible.
_clamp_count = 0


def clamp_count() -> int:
    return _clamp_count


def reset_clamp_count() -> None:
    global _clamp_count
    _clamp_count = 0


def _clamp(value: float) -> float:
    global _clamp_count
    if value < 0.0:
        _clamp_count += 1
        return 0.0
    return value


@dataclass(frozen=True)
class RateSample:
    """Total and per-segment entry intensity at one time."""

    t: float
    mu_plus: float
    per_segment: dict[str, float]
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        total = sum(self.per_segment.values())
        if not math.isclose(self.mu_plus, total, rel_tol=1e-9, abs_tol=1e-15):
            raise ValueError("mu_plus does not equal the per-segment sum")


@dataclass(frozen=True)
class _BoundaryConditional:
    """Pieces of the front-frame factorization at one segment."""

    pdf_x0: float  # p_t(x0), marginal density of the normal coordinate
    mu1: float  # conditional mean of xdot given x = x0
    mu2: float  # conditional mean of y given x = x0
    s11: float  # conditional variance of xdot
    s22: float  # conditional variance of y
    s12: float  # conditional cross covariance
    y_lo: float
    y_hi: float


def _boundary_conditional(
    g4: GaussianDensity, seg: BoundarySegment
) -> _BoundaryConditional:
    """Rotate to the segment frame and condition on the boundary line.

    ydot is marginalized first; the conditional is over (y, xdot) given
    x = x0, from which the (xdot, y) ordering below is read off.
    """
    gf = to_segment_frame(g4, seg)
    x0 = seg.frame_boundary_offset()
    y_lo, y_hi = seg.frame_interval()
    # drop ydot, keep (x, y, xdot)
    g3 = marginalize(gf, (0, 1, 2))
    var_x = g3.cov[0, 0]
    if var_x <= 0.0:
        raise NumericsError("marginal variance of the boundary coordinate is not > 0")
    pdf_x0 = normal_pdf(x0, g3.mean[0], math.sqrt(var_x))
    cond = condition(g3, (0,), (x0,))  # remaining order (y, xdot)
    return _BoundaryConditional(
        pdf_x0=pdf_x0,
        mu1=cond.mean[1],
        mu2=cond.mean[0],
        s11=cond.cov[1, 1],
        s22=cond.cov[0, 0],
        s12=cond.cov[0, 1],
        y_lo=y_lo,
        y_hi=y_hi,
    )


def segment_intensity_quadrature(g4: GaussianDensity, seg: BoundarySegment) -> float:
    """Entry intensity by adaptive 2D quadrature of the exact expression."""
    bc = _boundary_conditional(g4, seg)
    sig1 = math.sqrt(bc.s11)
    v_lo = bc.mu1 - _VEL_SIGMA_SPAN * sig1
    v_hi = min(0.0, bc.mu1 + _VEL_SIGMA_SPAN * sig1)
    if v_hi <= v_lo:
        return 0.0
    cov = np.array([[bc.s11, bc.s12], [bc.s12, bc.s22]])
    det = bc.s11 * bc.s22 - bc.s12 * bc.s12
    if det <= 0.0:
        raise NumericsError("conditional covariance is singular")
    inv = np.array([[bc.s22, -bc.s12], [-bc.s12, bc.s11]]) / det
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def integrand(v, y):
        dv = v - bc.mu1
        dy = y - bc.mu2
        quad = inv[0, 0] * dv * dv + 2.0 * inv[0, 1] * dv * dy + inv[1, 1] * dy * dy
        return v * norm * math.exp(-0.5 * quad)

    val, err = integrate.dblquad(
        integrand,
        bc.y_lo,
        bc.y_hi,
        v_lo,
        v_hi,
        epsabs=1e-14,
        epsrel=_QUAD_RTOL,
    )
    if err > max(1e-6 * abs(val), 1e-10):
        raise NumericsError(
            f"2D quadrature did not converge (estimate {val:g}, error {err:g})"
        )
    return max(0.0, -bc.pdf_x0 * val)


def _zeroth_order(mu1, sig1, mu2, sig2, y_lo, y_hi) -> float:
    """Factorized integral of xdot over xdot <= 0, y in [y_lo, y_hi]."""
    vel_part = mu1 * normal_cdf(-mu1 / sig1) - sig1 * sig1 * normal_pdf(
        0.0, mu1, sig1
    )
    lat_part = normal_cdf((y_hi - mu2) / sig2) - normal_cdf((y_lo - mu2) / sig2)
    return vel_part * lat_part


def segment_intensity_taylor0(g4: GaussianDensity, seg: BoundarySegment) -> float:
    """Zeroth-order closed form (inverse-covariance expansion)."""
    bc = _boundary_conditional(g4, seg)
    det = bc.s11 * bc.s22 - bc.s12 * bc.s12
    if det <= 0.0:
        raise NumericsError("conditional covariance determinant is not > 0")
    sig1 = math.sqrt(det / bc.s22)
    sig2 = math.sqrt(det / bc.s11)
    integral = _zeroth_order(bc.mu1, sig1, bc.mu2, sig2, bc.y_lo, bc.y_hi)
    return _clamp(-bc.pdf_x0 * integral)


def segment_intensity_taylor1_inv(g4: GaussianDensity, seg: BoundarySegment) -> float:
    """First-order expansion in the off-diagonal of the inverse covariance."""
    bc = _boundary_conditional(g4, seg)
    det = bc.s11 * bc.s22 - bc.s12 * bc.s12
    if det <= 0.0:
        raise NumericsError("conditional covariance determinant is not > 0")
    st11 = det / bc.s22
    st22 = det / bc.s11
    sig1 = math.sqrt(st11)
    sig2 = math.sqrt(st22)
    integral = _zeroth_order(bc.mu1, sig1, bc.mu2, sig2, bc.y_lo, bc.y_hi)
    inv12 = -bc.s12 / det
    # bracket of x1 (xdot) over (-inf, 0]: -sigma_tilde_11 * Phi(-mu1/sig1)
    bracket1 = -st11 * normal_cdf(-bc.mu1 / sig1)
    bracket2 = st22 * (
        normal_pdf(bc.y_hi, bc.mu2, sig2) - normal_pdf(bc.y_lo, bc.mu2, sig2)
    )
    integral += -inv12 * bracket1 * bracket2
    return _clamp(-bc.pdf_x0 * integral)


def segment_intensity_taylor1_cov(g4: GaussianDensity, seg: BoundarySegment) -> float:
    """First-order expansion in the off-diagonal covariance element."""
    bc = _boundary_conditional(g4, seg)
    if bc.s11 <= 0.0 or bc.s22 <= 0.0:
        raise NumericsError("conditional variances must be > 0")
    det = bc.s11 * bc.s22 - bc.s12 * bc.s12
    if det <= 0.0:
        raise NumericsError("conditional covariance determinant is not > 0")
    sig1 = math.sqrt(bc.s11)
    sig2 = math.sqrt(bc.s22)
    integral = _zeroth_order(bc.mu1, sig1, bc.mu2, sig2, bc.y_lo, bc.y_hi)
    bracket1 = normal_cdf(-bc.mu1 / sig1)
    bracket2 = -(
        normal_pdf(bc.y_hi, bc.mu2, sig2) - normal_pdf(bc.y_lo, bc.mu2, sig2)
    )
    integral += bc.s12 * bracket1 * bracket2
    return _clamp(-bc.pdf_x0 * integral)


_SEGMENT_METHODS = {
    "quadrature": segment_intensity_quadrature,
    "taylor0": segment_intensity_taylor0,
    "taylor1_inv": segment_intensity_taylor1_inv,
    "taylor1_cov": segment_intensity_taylor1_cov,
}


def segment_intensity(
    g4: GaussianDensity, seg: BoundarySegment, method: str = "quadrature"
) -> float:
    try:
        fn = _SEGMENT_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None
    return fn(g4, seg)


def total_intensity(
    g6: GaussianDensity,
    rect: HostRectangle,
    t: float = 0.0,
    method: str = "quadrature",
) -> RateSample:
    """Total entry intensity: marginalize to (x, y, xdot, ydot) and sum sides."""
    if g6.dim != 6:
        raise ValueError(f"expected a 6-dim predicted density, got {g6.dim}")
    g4 = marginalize(g6, (0, 1, 2, 3))
    per = {seg.name: segment_intensity(g4, seg, method) for seg in segments(rect)}
    return RateSample(t=t, mu_plus=sum(per.values()), per_segment=per, method=method)
