"""Boundary entry intensity of a Gaussian-predicted state.

The core quantity: expected rate of outside-to-inside crossings per
boundary segment,

    mu+ = -p(x0) * int_{xdot <= 0} int_{y in I} xdot p(xdot, y | x0) dxdot dy

evaluated in the segment frame, either exactly or by Taylor
approximations in the off-diagonal element of the conditional covariance
(or of its inverse), which factorize into 1D normal cdf/pdf terms.  The
exact method evaluates the conditional-Gaussian integrand in closed form
(Stein's lemma and a bivariate normal CDF); it keeps the name
`quadrature`, which the CLI and the CSV columns use, from the 2D
quadrature it replaced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericsError
from .gaussian import (
    GaussianDensity,
    bivariate_normal_cdf,
    condition,
    normal_cdf,
    normal_pdf,
)
from .geometry import BoundarySegment, HostRectangle, segments, to_segment_frame

METHODS = ("quadrature", "taylor0", "taylor1_inv", "taylor1_cov")

# Diagnostic counter for Taylor results clamped up to zero; truncation
# artifacts must not poison temporal integrals but should stay visible.
_clamp_count = 0


def clamp_count() -> int:
    """Clamps so far in this process; read it before and after a run."""
    return _clamp_count


def _clamp(value: float) -> float:
    global _clamp_count
    if value < 0.0:
        _clamp_count += 1
        return 0.0
    return value


@dataclass(frozen=True)
class RateSample:
    """Per-segment entry intensity at one time; the total is their sum."""

    t: float
    per_segment: dict[str, float]

    @property
    def mu_plus(self) -> float:
        return sum(self.per_segment.values())


@dataclass(frozen=True)
class _BoundaryConditional:
    """Pieces of the front-frame factorization at one segment."""

    pdf_x0: float  # p_t(x0), marginal density of the normal coordinate
    mu1: float  # conditional mean of xdot given x = x0
    mu2: float  # conditional mean of y given x = x0
    s11: float  # conditional variance of xdot
    s22: float  # conditional variance of y
    s12: float  # conditional cross covariance
    det: float  # s11 * s22 - s12 * s12, > 0
    y_lo: float
    y_hi: float


def _boundary_conditional(
    g: GaussianDensity, seg: BoundarySegment
) -> _BoundaryConditional:
    """Rotate g's (x, y, xdot, ydot) block to the segment frame and condition
    on the boundary line.

    The conditional is over (y, xdot, ydot) given x = x0; its (y, xdot)
    block is read off in the (xdot, y) ordering below.
    """
    gf = to_segment_frame(g, seg)
    x0 = seg.frame_boundary_offset()
    y_lo, y_hi = seg.frame_interval()
    var_x = float(gf.cov[0, 0])
    if var_x <= 0.0:
        raise NumericsError("marginal variance of the boundary coordinate is not > 0")
    pdf_x0 = normal_pdf(x0, float(gf.mean[0]), math.sqrt(var_x))
    cond = condition(gf, (0,), (x0,))  # remaining order (y, xdot, ydot)
    # Python floats from here: the closed forms are scalar arithmetic
    (s22, s12, _), (_, s11, _) = cond.cov[:2].tolist()
    mu2, mu1 = cond.mean[:2].tolist()
    det = s11 * s22 - s12 * s12
    # every method divides by these; a degenerate density must fail loudly
    # rather than read as a zero intensity, and so must one whose det
    # overflows (inf - inf is nan in Python floats, without a warning)
    if not (s11 > 0.0 and s22 > 0.0 and 0.0 < det < math.inf):
        raise NumericsError("conditional covariance of (xdot, y) is singular or overflows")
    return _BoundaryConditional(
        pdf_x0=pdf_x0, mu1=mu1, mu2=mu2, s11=s11, s22=s22, s12=s12, det=det, y_lo=y_lo, y_hi=y_hi
    )


def segment_intensity_quadrature(g: GaussianDensity, seg: BoundarySegment) -> float:
    """Entry intensity from the exact integrand, evaluated in closed form.

    With V = xdot and Y = y given x = x0, Stein's lemma gives

        E[V 1{V <= 0, a <= Y <= b}] = mu1 P(V <= 0, a <= Y <= b)
            - s11 p_V(0) P(a <= Y <= b | V = 0)
            + s12 [p_Y(a) P(V <= 0 | Y = a) - p_Y(b) P(V <= 0 | Y = b)]

    with the joint probability a difference of bivariate normal CDFs.
    This is the exact integrand, not an approximation; the method keeps
    the name of the 2D quadrature it replaced for the CLI and the CSV
    columns.
    """
    bc = _boundary_conditional(g, seg)
    sig1 = math.sqrt(bc.s11)
    sig2 = math.sqrt(bc.s22)
    rho = bc.s12 / (sig1 * sig2)
    rho_bar = math.sqrt(bc.det) / (sig1 * sig2)  # not from rho: |rho| may round to 1
    h = -bc.mu1 / sig1
    k_lo = (bc.y_lo - bc.mu2) / sig2
    k_hi = (bc.y_hi - bc.mu2) / sig2
    # Y given V = 0, and V given Y = y
    y_at_v0 = bc.mu2 - bc.s12 / bc.s11 * bc.mu1
    sd_y_at_v = math.sqrt(bc.det / bc.s11)
    z_lo = (bc.y_lo - y_at_v0) / sd_y_at_v
    z_hi = (bc.y_hi - y_at_v0) / sd_y_at_v
    # a band in the upper tail of Y is mirrored into the lower tail, where
    # the two CDFs are small and their difference keeps its relative accuracy
    if k_lo > 0.0:
        k_lo, k_hi, rho = -k_hi, -k_lo, -rho
    if z_lo > 0.0:
        z_lo, z_hi = -z_hi, -z_lo
    p_joint = bivariate_normal_cdf(h, k_hi, rho, rho_bar) - bivariate_normal_cdf(
        h, k_lo, rho, rho_bar
    )
    p_lat = normal_cdf(z_hi) - normal_cdf(z_lo)
    sd_v_at_y = math.sqrt(bc.det / bc.s22)

    def edge_flux(y: float) -> float:
        v_at_y = bc.mu1 + bc.s12 / bc.s22 * (y - bc.mu2)
        return normal_pdf(y, bc.mu2, sig2) * normal_cdf(-v_at_y / sd_v_at_y)

    integral = (
        bc.mu1 * p_joint
        - bc.s11 * normal_pdf(0.0, bc.mu1, sig1) * p_lat
        + bc.s12 * (edge_flux(bc.y_lo) - edge_flux(bc.y_hi))
    )
    return max(0.0, -bc.pdf_x0 * integral)


def _zeroth_order(mu1, sig1, mu2, sig2, y_lo, y_hi) -> float:
    """Factorized integral of xdot over xdot <= 0, y in [y_lo, y_hi]."""
    vel_part = mu1 * normal_cdf(-mu1 / sig1) - sig1 * sig1 * normal_pdf(
        0.0, mu1, sig1
    )
    lat_part = normal_cdf((y_hi - mu2) / sig2) - normal_cdf((y_lo - mu2) / sig2)
    return vel_part * lat_part


def segment_intensity_taylor0(g: GaussianDensity, seg: BoundarySegment) -> float:
    """Zeroth-order closed form (inverse-covariance expansion)."""
    bc = _boundary_conditional(g, seg)
    sig1 = math.sqrt(bc.det / bc.s22)
    sig2 = math.sqrt(bc.det / bc.s11)
    integral = _zeroth_order(bc.mu1, sig1, bc.mu2, sig2, bc.y_lo, bc.y_hi)
    return _clamp(-bc.pdf_x0 * integral)


def segment_intensity_taylor1_inv(g: GaussianDensity, seg: BoundarySegment) -> float:
    """First-order expansion in the off-diagonal of the inverse covariance."""
    bc = _boundary_conditional(g, seg)
    st11 = bc.det / bc.s22
    st22 = bc.det / bc.s11
    sig1 = math.sqrt(st11)
    sig2 = math.sqrt(st22)
    integral = _zeroth_order(bc.mu1, sig1, bc.mu2, sig2, bc.y_lo, bc.y_hi)
    inv12 = -bc.s12 / bc.det
    # bracket of x1 (xdot) over (-inf, 0]: -sigma_tilde_11 * Phi(-mu1/sig1)
    bracket1 = -st11 * normal_cdf(-bc.mu1 / sig1)
    bracket2 = st22 * (
        normal_pdf(bc.y_hi, bc.mu2, sig2) - normal_pdf(bc.y_lo, bc.mu2, sig2)
    )
    integral += -inv12 * bracket1 * bracket2
    return _clamp(-bc.pdf_x0 * integral)


def segment_intensity_taylor1_cov(g: GaussianDensity, seg: BoundarySegment) -> float:
    """First-order expansion in the off-diagonal covariance element."""
    bc = _boundary_conditional(g, seg)
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
    g: GaussianDensity, seg: BoundarySegment, method: str = "quadrature"
) -> float:
    try:
        fn = _SEGMENT_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None
    return fn(g, seg)


def total_intensity(
    g6: GaussianDensity,
    rect: HostRectangle,
    t: float = 0.0,
    method: str = "quadrature",
) -> RateSample:
    """Total entry intensity: the sum over the sides, each of which rotates
    the (x, y, xdot, ydot) block of the predicted density into its frame."""
    if g6.dim != 6:
        raise ValueError(f"expected a 6-dim predicted density, got {g6.dim}")
    per = {seg.name: segment_intensity(g6, seg, method) for seg in segments(rect)}
    return RateSample(t, per)
