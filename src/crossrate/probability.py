"""From intensity curves to collision-probability bounds.

The intensity curve of a scenario is built here and only here:
`intensity_evaluator` maps a time to the total entry intensity of the
scenario's predicted density, and `intensity_curve` samples it on a given
time grid.  Also temporal integration of the entry intensity (expected
number of entries, an upper bound on the collision probability),
deterministic TTC seeds, the adaptive curve sampler, and the
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
from .geometry import HostRectangle
from .intensity import RateSample, total_intensity

if TYPE_CHECKING:
    from .scenarios import ScenarioConfig


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
    """Upper bound on the collision probability over [t1, t2].

    p_upper is the expected number of boundary entries; it may exceed 1
    and is reported raw (use min(p_upper, 1) for a probability).
    """

    t1: float
    t2: float
    p_upper: float
    evaluations_used: int = 0

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
        return ProbabilityBound(t1, t2, 0.0, curve.evaluations)
    values = curve.values()
    inner = (times > t1) & (times < t2)
    grid = np.concatenate(([t1], times[inner], [t2]))
    vals = np.concatenate(
        ([np.interp(t1, times, values)], values[inner], [np.interp(t2, times, values)])
    )
    p = float(np.trapezoid(vals, grid))
    return ProbabilityBound(t1, t2, max(p, 0.0), curve.evaluations)


def quadratic_roots(a, b, c) -> np.ndarray:
    """Real roots of a t^2 + b t + c = 0, elementwise, as (..., 2), NaN if none.

    |a| < 1e-15 is solved as linear, with its one root in the first column.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    out = np.full(a.shape + (2,), np.nan)
    lin = np.abs(a) < 1e-15
    solvable = lin & (b != 0.0)
    out[solvable, 0] = -c[solvable] / b[solvable]
    disc = b * b - 4.0 * a * c
    quad = ~lin & (disc >= 0.0)
    sq = np.sqrt(disc[quad])
    out[quad, 0] = (-b[quad] - sq) / (2.0 * a[quad])
    out[quad, 1] = (-b[quad] + sq) / (2.0 * a[quad])
    return out


def deterministic_ttc_seeds(
    mean: StateVector, rect: HostRectangle
) -> list[tuple[str, float]]:
    """Constant-acceleration crossing times of the front/right/left lines.

    All real positive roots, no segment-membership filtering; the rear
    line is excluded.  These seed the adaptive sampler only.
    """
    names = ("front", "right", "left")
    roots = quadratic_roots(
        [0.5 * mean.xddot, 0.5 * mean.yddot, 0.5 * mean.yddot],
        [mean.xdot, mean.ydot, mean.ydot],
        [mean.x - rect.x_front, mean.y - rect.y_right, mean.y - rect.y_left],
    )
    seeds = [(name, float(t)) for name, row in zip(names, roots) for t in row if t > 0.0]
    seeds.sort(key=lambda st: st[1])
    return seeds


def adaptive_sample(
    evaluator,
    seeds,
    dt1: float,
    dt2: float,
    rate_floor: float,
    horizon: tuple[float, float],
) -> RateCurve:
    """Sample an intensity curve adaptively around its characteristic shape.

    Evaluates at the seed times, starts from the strongest seed, marches
    outward in dt1 steps until the intensity drops below rate_floor (or
    the horizon edge), and refines with dt2 around every slope-sign
    change detected while marching.

    `evaluator` maps a time to a RateSample; results are cached so no
    time is evaluated twice and the evaluation count is exact.
    """
    if not 0.0 < dt2 < dt1:
        raise ValueError(f"need 0 < dt2 < dt1, got dt2={dt2}, dt1={dt1}")
    if rate_floor <= 0.0:
        raise ValueError(f"rate_floor must be > 0, got {rate_floor}")
    t1, t2 = horizon
    if not t1 < t2:
        raise ValueError(f"horizon must be a nondegenerate interval, got {horizon}")

    cache: dict[float, RateSample] = {}

    def ev(t: float) -> RateSample:
        t = round(t, 12)
        t = min(max(t, t1), t2)
        if t not in cache:
            cache[t] = evaluator(t)
        return cache[t]

    seed_times = sorted({round(t, 12) for _, t in seeds if t1 <= t <= t2})
    if not seed_times:
        # fallback coarse grid for curved approach paths without a
        # deterministic crossing time
        seed_times = list(np.linspace(t1, t2, 8).round(12))
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
            t = start + direction * k * dt1
            if t < t1 or t > t2:
                break
            v = ev(t).mu_plus
            slope = (v - prev_v) * direction
            if prev_slope != 0.0 and slope != 0.0 and (slope > 0) != (prev_slope > 0):
                sign_changes.append(prev_t)
            prev_slope = slope
            prev_t, prev_v = t, v
            if v < rate_floor:
                break
            k += 1

    march(+1)
    march(-1)

    for c in sign_changes:
        n = int(round(2.0 * dt1 / dt2))
        for t in (c - dt1 + i * dt2 for i in range(n + 1)):
            if t1 <= round(t, 12) <= t2:
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
