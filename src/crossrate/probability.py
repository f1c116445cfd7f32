"""From intensity curves to collision-probability bounds.

The intensity curve of a scenario is built here and only here:
`intensity_evaluator` maps a time to the total entry intensity of the
scenario's predicted density, `intensity_curve` samples it on a given
time grid, and `compare_curves` samples every method and the spatial
overlap on one predicted density per time.  Also temporal integration of
the entry intensity (expected number of entries, an upper bound on the
collision probability), deterministic TTC seeds (the mean's roots from
`geometry.line_roots`), the adaptive curve sampler with the paper's
steps (COARSE_STEP, FINE_STEP, RATE_FLOOR, stated here only), and the
spatial-overlap comparator, a rectangle probability of the positional
marginal in closed form (four bivariate normal CDFs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .dynamics import StateVector
from .errors import NumericsError
from .gaussian import GaussianDensity, bivariate_normal_cdf
from .geometry import HostRectangle, line_roots, segments
from .intensity import METHODS, RateSample, total_intensity

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig

# The paper's adaptive sampler: coarse march step (s), refinement step (s)
# and the intensity (1/s) below which a march stops.
COARSE_STEP = 0.5
FINE_STEP = 0.2
RATE_FLOOR = 0.01


@dataclass(frozen=True)
class RateCurve:
    """Ordered (time, intensity) samples over [t_start, t_end]."""

    samples: tuple[RateSample, ...]
    t_start: float
    t_end: float
    warning: str | None = None

    def __post_init__(self):
        samples = tuple(self.samples)
        times = [s.t for s in samples]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if samples and (times[0] < self.t_start or times[-1] > self.t_end):
            raise ValueError("sample times must lie within [t_start, t_end]")
        object.__setattr__(self, "samples", samples)

    @property
    def evaluations(self) -> int:
        """Intensity evaluations behind the curve: one per sample."""
        return len(self.samples)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def values(self) -> np.ndarray:
        return np.array([s.mu_plus for s in self.samples])

    def segment_values(self, name: str) -> np.ndarray:
        return np.array([s.per_segment.get(name, 0.0) for s in self.samples])


@dataclass(frozen=True)
class ProbabilityBound:
    """Upper bound on the collision probability over a time window.

    p_upper is the expected number of boundary entries; it may exceed 1
    and is reported raw (use min(p_upper, 1) for a probability).
    """

    p_upper: float

    def __post_init__(self):
        if self.p_upper < 0.0:
            raise ValueError("p_upper must be >= 0")

    @property
    def p_capped(self) -> float:
        return min(self.p_upper, 1.0)


def intensity_evaluator(
    config: ScenarioConfig, method: str = "quadrature"
) -> Callable[[float], RateSample]:
    """t -> total entry intensity of the config's predicted density at t."""

    def ev(t: float) -> RateSample:
        t = float(t)
        return total_intensity(config.predicted_density(t), config.rect, t, method)

    return ev


def intensity_curve(
    config: ScenarioConfig, times: Iterable[float], method: str = "quadrature"
) -> RateCurve:
    """The config's intensity curve sampled at the given increasing times."""
    ev = intensity_evaluator(config, method)
    samples = tuple(ev(t) for t in times)
    span = (samples[0].t, samples[-1].t) if samples else (0.0, 0.0)
    return RateCurve(samples, *span)


def compare_curves(
    config: ScenarioConfig, times: Iterable[float]
) -> tuple[dict[str, RateCurve], list[float]]:
    """Every method's intensity curve and the spatial overlap at the given
    increasing times, on one predicted density per time: the analytic
    columns of `crossrate compare`."""
    densities = [(float(t), config.predicted_density(t)) for t in times]
    span = (densities[0][0], densities[-1][0]) if densities else (0.0, 0.0)
    curves = {
        m: RateCurve(tuple(total_intensity(g, config.rect, t, m) for t, g in densities), *span)
        for m in METHODS
    }
    return curves, [spatial_overlap_probability(g, config.rect) for _, g in densities]


def integrate_intensity(curve: RateCurve, t1: float, t2: float) -> ProbabilityBound:
    """Trapezoidal integral of the intensity curve over [t1, t2].

    Handles non-uniform adaptive grids; endpoints inside a grid interval
    are linearly interpolated, which keeps adjacent intervals exactly
    additive.
    """
    if len(curve.samples) < 2:
        raise ValueError("need at least 2 samples to integrate")
    if t1 > t2:
        raise ValueError(f"degenerate interval [{t1}, {t2}]")
    times = curve.times()
    if t1 < times[0] or t2 > times[-1]:
        raise ValueError(
            f"[{t1}, {t2}] not contained in sampled range [{times[0]}, {times[-1]}]"
        )
    if t1 == t2:
        return ProbabilityBound(0.0)
    values = curve.values()
    inner = (times > t1) & (times < t2)
    grid = np.concatenate(([t1], times[inner], [t2]))
    vals = np.concatenate(
        ([np.interp(t1, times, values)], values[inner], [np.interp(t2, times, values)])
    )
    p = float(np.trapezoid(vals, grid))
    return ProbabilityBound(max(p, 0.0))


def deterministic_ttc_seeds(
    mean: StateVector, rect: HostRectangle
) -> list[tuple[str, float]]:
    """Constant-acceleration times at which the mean reaches the side lines.

    All real positive roots on the front, right and left lines (not the
    rear), sorted by time.  They are line roots, not entries: neither the
    span nor the entry rule of geometry.first_path_entry applies, so an
    exit or a tangent touch seeds too.  These seed the adaptive sampler
    only.
    """
    state = mean.as_array()[np.newaxis]
    sides = [seg for seg in segments(rect) if seg.name != "rear"]
    seeds = [(seg.name, float(t)) for seg in sides for t in line_roots(state, seg)[0] if t > 0]
    return sorted(seeds, key=lambda st: st[1])


def adaptive_sample(evaluator, seeds, horizon: tuple[float, float]) -> RateCurve:
    """Sample an intensity curve adaptively around its characteristic shape.

    Evaluates at the seed times that lie in the horizon, starts from the
    strongest seed, marches outward in COARSE_STEP steps until the
    intensity drops below RATE_FLOOR (or the horizon edge), and refines
    with FINE_STEP around every slope-sign change detected while marching.

    `evaluator` maps a time to a RateSample.  Every time is rounded to
    1e-12 s and taken only where it lies in the horizon; results are
    cached so no time is evaluated twice and the evaluation count is exact.
    """
    t1, t2 = horizon
    if not t1 < t2:
        raise ValueError(f"horizon must be a nondegenerate interval, got {horizon}")

    cache: dict[float, RateSample] = {}

    def ev(t: float) -> RateSample:
        if t not in cache:
            cache[t] = evaluator(t)
        return cache[t]

    seed_times = sorted({r for _, t in seeds if t1 <= (r := round(t, 12)) <= t2})
    if not seed_times:
        # fallback coarse grid for curved approach paths without a
        # deterministic crossing time
        seed_times = list(np.linspace(t1, t2, 8).round(12).clip(t1, t2))
        if all(ev(t).mu_plus <= 0.0 for t in seed_times):
            ordered = sorted(cache)
            return RateCurve(
                tuple(cache[t] for t in ordered),
                t1,
                t2,
                warning="no seeds and zero intensity on fallback grid",
            )

    for t in seed_times:
        ev(t)
    # earliest time wins an intensity tie: earlier warning is conservative
    start = max(seed_times, key=lambda t: (ev(t).mu_plus, -t))

    sign_changes: list[float] = []

    def march(direction: int) -> None:
        prev_t, prev_v = start, ev(start).mu_plus
        prev_slope = 0.0
        k = 1
        while True:
            t = round(start + direction * k * COARSE_STEP, 12)
            if not t1 <= t <= t2:
                break
            v = ev(t).mu_plus
            slope = (v - prev_v) * direction
            if prev_slope != 0.0 and slope != 0.0 and (slope > 0) != (prev_slope > 0):
                sign_changes.append(prev_t)
            prev_slope = slope
            prev_t, prev_v = t, v
            if v < RATE_FLOOR:
                break
            k += 1

    march(+1)
    march(-1)

    for c in sign_changes:
        n = int(round(2.0 * COARSE_STEP / FINE_STEP))
        for t in (round(c - COARSE_STEP + i * FINE_STEP, 12) for i in range(n + 1)):
            if t1 <= t <= t2:
                ev(t)

    ordered = sorted(cache)
    return RateCurve(tuple(cache[t] for t in ordered), t1, t2)


def spatial_overlap_probability(g6: GaussianDensity, rect: HostRectangle) -> float:
    """Probability mass of the positional marginal inside the rectangle.

    The instantaneous spatial-overlap criterion; kept as a comparator
    for the rate-based bound, not as a collision probability over time.
    Evaluated in closed form as the four-corner sum of bivariate normal
    CDFs over the rectangle.
    """
    mx, my = g6.mean[:2]
    (vx, cxy), (_, vy) = g6.cov[:2, :2]
    det = vx * vy - cxy * cxy
    if vx <= 0.0 or det <= 0.0:
        raise NumericsError("positional covariance is singular")
    sx, sy = math.sqrt(vx), math.sqrt(vy)
    rho = cxy / (sx * sy)
    rho_bar = math.sqrt(det) / (sx * sy)

    def corner(x: float, y: float) -> float:
        return bivariate_normal_cdf((x - mx) / sx, (y - my) / sy, rho, rho_bar)

    val = (
        corner(rect.x_front, rect.y_right)
        - corner(rect.x_rear, rect.y_right)
        - corner(rect.x_front, rect.y_left)
        + corner(rect.x_rear, rect.y_left)
    )
    return min(max(val, 0.0), 1.0)
