"""Seeded Monte-Carlo ground truth.

Trajectories are sampled from the initial-state Gaussian and propagated
with the exact discrete-time dynamics plus exact process-noise
increments.  Campaigns stream each batch through the horizon a chunk of
steps at a time: noise for the chunk is drawn into reused buffers, the
chunk's position chords are checked against the four sides at once, and
the batch's entries are reduced to integer counts (first-entry and
all-entry histograms, entry multiplicities) before the next batch runs.
Memory is therefore bounded per worker thread, whatever the trajectory
count or horizon.  simulate_trajectory runs the same kernel for one
trajectory and keeps its crossings as events.

Per-trajectory noise comes from counter-based Philox streams keyed by
(campaign seed, trajectory id), so results are bit-identical regardless
of batching, step chunking or thread count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    MotionModel,
    RadarNoise,
    StateVector,
    input_increment,
    process_noise_cov,
    steady_state_covariance,
    transition_matrix,
)
from .errors import ConfigError
from .gaussian import psd_factor
from .geometry import SEGMENT_ORDER, CrossingEvent, HostRectangle, segments

_BATCH_SIZE = 4096  # fixed by the algorithm, not by the thread count
_STEP_CHUNK = 64  # steps of noise held per batch at once; bounds memory only


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one campaign."""

    initial_mean: StateVector
    model: MotionModel
    radar: RadarNoise = RadarNoise()
    rect: HostRectangle = HostRectangle()
    initial_cov: np.ndarray | None = None  # None -> steady-state Riccati
    horizon: float = 8.0
    sim_step: float = 0.01
    bin_width: float = 0.05
    n_traj: int = 100_000
    seed: int = 0
    terminate_on_entry: bool = False

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError("horizon must be > 0", "horizon")
        if self.sim_step <= 0:
            raise ConfigError("sim_step must be > 0", "sim_step")
        if self.sim_step > self.bin_width:
            raise ConfigError("sim_step must be <= bin_width", "sim_step")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1", "n_traj")
        if self.initial_cov is not None:
            cov = np.asarray(self.initial_cov, dtype=float)
            if cov.shape != (6, 6):
                raise ConfigError("initial_cov must be 6x6", "initial_cov")
            object.__setattr__(self, "initial_cov", cov)

    def resolve_initial_cov(self) -> np.ndarray:
        if self.initial_cov is not None:
            return self.initial_cov
        return steady_state_covariance(self.initial_mean, self.model, self.radar)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.sim_step - 1e-9))

    @property
    def n_bins(self) -> int:
        return int(math.ceil(self.horizon / self.bin_width - 1e-9))


@dataclass(frozen=True)
class CollisionRecord:
    """All boundary crossings of one simulated trajectory."""

    traj_id: int
    events: tuple[CrossingEvent, ...]

    @property
    def n_entries_host(self) -> int:
        return sum(1 for ev in self.events if ev.kind == "entry")

    @property
    def first_entry(self) -> CrossingEvent | None:
        for ev in self.events:
            if ev.kind == "entry":
                return ev
        return None

    def segment_entry_times(self, name: str) -> list[float]:
        return [ev.time for ev in self.events if ev.kind == "entry" and ev.segment == name]


@dataclass(frozen=True)
class RateHistogram:
    """Binned crossing counts normalized to rates."""

    bin_edges: np.ndarray
    n_traj: int
    first_entry_counts: dict[str, np.ndarray]  # per segment + 'total'
    all_entry_counts: dict[str, np.ndarray]

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_mid(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def rate(self, counts: np.ndarray) -> np.ndarray:
        return counts / (self.n_traj * self.bin_width)

    def first_entry_rate(self, key: str = "total") -> np.ndarray:
        return self.rate(self.first_entry_counts[key])

    def all_entry_rate(self, key: str = "total") -> np.ndarray:
        return self.rate(self.all_entry_counts[key])

    def integrated_probability(self) -> np.ndarray:
        """Cumulative first-entry probability at the right bin edges."""
        return np.cumsum(self.first_entry_counts["total"]) / self.n_traj


@dataclass(frozen=True)
class CampaignResult:
    histogram: RateHistogram
    entry_stats: dict
    n_traj: int


def _traj_rng(seed: int, traj_id: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, traj_id], dtype=np.uint64))
    )


def sample_initial(
    config: ScenarioConfig, rng: np.random.Generator, cov_factor: np.ndarray | None = None
) -> StateVector:
    """Draw one initial state from N(mean, P0) on the given stream."""
    if cov_factor is None:
        cov_factor = psd_factor(config.resolve_initial_cov())
    draw = config.initial_mean.as_array() + cov_factor @ rng.standard_normal(6)
    return StateVector.from_array(draw)


def _step_kernel(config: ScenarioConfig):
    """Precomputed per-step propagation pieces (shared by all trajectories)."""
    dt = config.sim_step
    n = config.n_steps
    phi_t = transition_matrix(dt).T
    chol_q_t = psd_factor(process_noise_cov(dt, config.model)).T
    u = np.zeros((n, 6))
    if config.model.input_enabled:
        for k in range(n):
            u[k] = input_increment(dt, config.model, t0=k * dt)
    return phi_t, chol_q_t, u


class _Crossings(NamedTuple):
    """Boundary crossings of a batch, one array element per crossing."""

    row: np.ndarray  # trajectory row within the batch
    time: np.ndarray  # step * dt + fraction * dt
    fraction: np.ndarray  # position of the crossing along the chord, in [0, 1)
    segment: np.ndarray  # index into SEGMENT_ORDER
    entry: np.ndarray  # True for an inward crossing, False for an outward one
    tangent: np.ndarray  # crossing coordinate along the segment

    def select(self, index) -> _Crossings:
        return _Crossings(*(a[index] for a in self))

    def ordered(self, keep: np.ndarray) -> _Crossings:
        """The kept crossings sorted by (row, time, fraction, segment).

        Equal time and fraction means the same chord, so a corner hit is
        ordered by segment, as the sides are checked in that order.
        """
        kept = self.select(keep)
        return kept.select(np.lexsort((kept.segment, kept.fraction, kept.time, kept.row)))


def _detect_chunk_crossings(pos: np.ndarray, rect: HostRectangle, k0: int, dt: float):
    """Vectorized crossing detection over a chunk of steps.

    `pos` is (m + 1, b, 2): the positions before the chunk's first step
    followed by the position after each step.  A chord crosses a side when
    the pinned coordinate reaches the side's line at a fraction s in
    [0, 1) of the chord, the tangent coordinate lies in the side's span,
    and the chord is not parallel to the side.
    """
    p0, p1 = pos[:-1], pos[1:]
    found = []
    for si, seg in enumerate(segments(rect)):
        a = 0 if seg.axis == "x" else 1
        a0, a1 = p0[..., a], p1[..., a]
        b0, b1 = p0[..., 1 - a], p1[..., 1 - a]
        da = a1 - a0
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (seg.coord - a0) / da
        step, row = np.nonzero((da != 0.0) & (s >= 0.0) & (s < 1.0))
        sv = s[step, row]
        tangent = b0[step, row] + sv * (b1[step, row] - b0[step, row])
        d_vec = p1[step, row] - p0[step, row]
        inward = d_vec[:, 0] * seg.normal[0] + d_vec[:, 1] * seg.normal[1]
        keep = (tangent >= seg.t_lo) & (tangent <= seg.t_hi) & (inward != 0.0)
        sv = sv[keep]
        found.append(
            (
                row[keep],
                (step[keep] + k0) * dt + sv * dt,
                sv,
                np.full(len(sv), si),
                inward[keep] > 0.0,
                tangent[keep],
            )
        )
    return found


def _stream_crossings(
    config: ScenarioConfig, x: np.ndarray, rngs: list[np.random.Generator], kernel
) -> _Crossings:
    """Propagate a batch to the horizon and return all its crossings.

    `x` (b, 6) holds the initial states and `rngs` one generator per row,
    already past its initial-state draw.  Noise is drawn and transformed
    _STEP_CHUNK steps at a time into reused buffers, so memory does not
    grow with the horizon; each generator yields the same stream it would
    in one draw of the whole horizon.
    """
    phi_t, chol_q_t, u = kernel
    n_steps = config.n_steps
    dt = config.sim_step
    chunk = min(_STEP_CHUNK, n_steps)
    b = len(x)
    z = np.empty((b, chunk, 6))
    w = np.empty((b, chunk, 6))
    pos = np.empty((chunk + 1, b, 2))
    pos[0] = x[:, :2]
    found = []
    for k0 in range(0, n_steps, chunk):
        m = min(chunk, n_steps - k0)
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=z[j, :m])
        np.matmul(z[:, :m], chol_q_t, out=w[:, :m])
        for i in range(m):
            x = x @ phi_t
            x += u[k0 + i]
            x += w[:, i]
            pos[i + 1] = x[:, :2]
        found.extend(_detect_chunk_crossings(pos[: m + 1], config.rect, k0, dt))
        pos[0] = pos[m]
    return _Crossings(*(np.concatenate(parts) for parts in zip(*found)))


def _simulate_batch(
    config: ScenarioConfig, traj_ids: np.ndarray, cov_factor: np.ndarray, kernel
):
    """Simulate a batch of trajectories and reduce its entries to counts.

    Returns (first, all, boundary, multiplicity): first- and all-entry
    counts per bin as (5, n_bins) arrays with rows total then
    SEGMENT_ORDER, first-entry totals per segment, and the number of
    trajectories with each entry count (index 0 = no entry).
    """
    n_bins = config.n_bins
    n_seg = len(SEGMENT_ORDER)
    b = len(traj_ids)
    rngs = [_traj_rng(config.seed, int(tid)) for tid in traj_ids]
    mean = config.initial_mean.as_array()
    x = np.empty((b, 6))
    for j, rng in enumerate(rngs):
        x[j] = mean + cov_factor @ rng.standard_normal(6)
    crossings = _stream_crossings(config, x, rngs, kernel)
    ev = crossings.ordered(crossings.entry & (crossings.time <= config.horizon))

    first = np.ones(len(ev.row), dtype=bool)
    first[1:] = ev.row[1:] != ev.row[:-1]
    if config.terminate_on_entry:
        ev = ev.select(first)
        first = first[first]
    bins = np.minimum((ev.time / config.bin_width).astype(np.int64), n_bins - 1)
    # first entry of each trajectory through each segment
    _, seg_first = np.unique(ev.row * n_seg + ev.segment, return_index=True)

    def per_segment(idx):
        flat = ev.segment[idx] * n_bins + bins[idx]
        return np.bincount(flat, minlength=n_seg * n_bins).reshape(n_seg, n_bins)

    first_counts = np.vstack(
        [np.bincount(bins[first], minlength=n_bins), per_segment(seg_first)]
    )
    all_counts = np.vstack(
        [np.bincount(bins, minlength=n_bins), per_segment(slice(None))]
    )
    boundary = np.bincount(ev.segment[first], minlength=n_seg)
    multiplicity = np.bincount(np.bincount(ev.row, minlength=b))
    return first_counts, all_counts, boundary, multiplicity


def simulate_trajectory(
    x0: StateVector, config: ScenarioConfig, rng: np.random.Generator
) -> CollisionRecord:
    """Simulate one trajectory from a given initial state.

    Noise increments are drawn from `rng` in the same order the campaign
    uses, so run_campaign with n_traj=1 reproduces this exactly.
    """
    crossings = _stream_crossings(
        config, x0.as_array()[np.newaxis, :], [rng], _step_kernel(config)
    )
    ev = crossings.ordered(crossings.time <= config.horizon)
    sides = segments(config.rect)
    events = []
    for t, si, is_entry, tangent in zip(ev.time, ev.segment, ev.entry, ev.tangent):
        seg = sides[si]
        kind = "entry" if is_entry else "exit"
        events.append(CrossingEvent(float(t), seg.name, seg.point_at(float(tangent)), kind))
        if is_entry and config.terminate_on_entry:
            break
    return CollisionRecord(0, tuple(events))


def run_campaign(config: ScenarioConfig, threads: int = 1) -> CampaignResult:
    """Full Monte-Carlo campaign: histograms plus entry statistics.

    Trajectories continue past their first entry so higher-order entries
    are observable; first-entry statistics are extracted afterwards.
    With terminate_on_entry only each trajectory's first entry counts.
    """
    cov_factor = psd_factor(config.resolve_initial_cov())
    kernel = _step_kernel(config)
    n_bins = config.n_bins
    n_seg = len(SEGMENT_ORDER)
    edges = np.arange(n_bins + 1) * config.bin_width

    first_counts = np.zeros((n_seg + 1, n_bins), dtype=np.int64)
    all_counts = np.zeros((n_seg + 1, n_bins), dtype=np.int64)
    boundary = np.zeros(n_seg, dtype=np.int64)
    multiplicity: dict[int, int] = {}

    def process(counts):
        first, all_, bnd, mult = counts
        first_counts[:] += first
        all_counts[:] += all_
        boundary[:] += bnd
        for k in np.nonzero(mult[1:])[0] + 1:
            multiplicity[int(k)] = multiplicity.get(int(k), 0) + int(mult[k])

    batches = [
        np.arange(lo, min(lo + _BATCH_SIZE, config.n_traj))
        for lo in range(0, config.n_traj, _BATCH_SIZE)
    ]

    def run_batch(ids):
        return _simulate_batch(config, ids, cov_factor, kernel)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # merge strictly in batch order: results independent of schedule
            for counts in pool.map(run_batch, batches):
                process(counts)
    else:
        for ids in batches:
            process(run_batch(ids))

    first_boundary_totals = {k: int(v) for k, v in zip(SEGMENT_ORDER, boundary)}
    n_collided = sum(multiplicity.values())
    entry_stats = {
        "n_traj": config.n_traj,
        "multiplicity_counts": {k: multiplicity[k] for k in sorted(multiplicity)},
        "multiplicity_probability": {
            k: multiplicity[k] / config.n_traj for k in sorted(multiplicity)
        },
        "p_at_least_one": n_collided / config.n_traj,
        "first_entry_boundary_totals": first_boundary_totals,
        "first_entry_boundary_fractions": {
            k: v / config.n_traj for k, v in first_boundary_totals.items()
        },
    }
    keys = ["total", *SEGMENT_ORDER]
    histogram = RateHistogram(
        bin_edges=edges,
        n_traj=config.n_traj,
        first_entry_counts=dict(zip(keys, first_counts)),
        all_entry_counts=dict(zip(keys, all_counts)),
    )
    return CampaignResult(histogram=histogram, entry_stats=entry_stats, n_traj=config.n_traj)


def ttc_monte_carlo(config: ScenarioConfig) -> dict:
    """Initial-condition TTC histograms for the front and right lines.

    Only the initial state is random; each draw is propagated with the
    deterministic constant-acceleration model (no process noise, no
    input).  Per draw, all real positive roots of the crossing quadratics
    are screened by segment membership and the outside-entry condition,
    and the earliest valid root per boundary is binned.
    """
    if config.model.input_enabled:
        raise ConfigError(
            "TTC Monte-Carlo requires the deterministic input disabled", "model.input_enabled"
        )
    cov_factor = psd_factor(config.resolve_initial_cov())
    mean = config.initial_mean.as_array()
    n = config.n_traj
    states = np.empty((n, 6))
    for i in range(n):
        rng = _traj_rng(config.seed, i)
        states[i] = mean + cov_factor @ rng.standard_normal(6)

    n_bins = config.n_bins
    edges = np.arange(n_bins + 1) * config.bin_width
    rect = config.rect
    eps = 1e-6

    def ca_pos(states, t):
        x = states[:, 0] + states[:, 2] * t + 0.5 * states[:, 4] * t * t
        y = states[:, 1] + states[:, 3] * t + 0.5 * states[:, 5] * t * t
        return x, y

    def roots_along(axis: int, level: float) -> np.ndarray:
        """Both quadratic roots per draw (nan where invalid/complex)."""
        a = 0.5 * states[:, 4 + axis]
        b = states[:, 2 + axis]
        c = states[:, axis] - level
        out = np.full((n, 2), np.nan)
        lin = np.abs(a) < 1e-15
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = -c / b
        out[lin & (b != 0.0), 0] = tl[lin & (b != 0.0)]
        quad = ~lin
        disc = b * b - 4.0 * a * c
        ok = quad & (disc >= 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = (-b - sq) / (2.0 * a)
            r2 = (-b + sq) / (2.0 * a)
        out[ok, 0] = r1[ok]
        out[ok, 1] = r2[ok]
        return out

    def boundary_hist(axis: int, level: float, t_lo: float, t_hi: float, outside_sign: float):
        roots = roots_along(axis, level)
        best = np.full(n, np.inf)
        for col in range(2):
            t = roots[:, col]
            valid = np.isfinite(t) & (t > 0.0) & (t <= config.horizon)
            if not np.any(valid):
                continue
            tv = np.where(valid, t, 0.0)
            x_t, y_t = ca_pos(states, tv)
            tangent = y_t if axis == 0 else x_t
            member = (tangent >= t_lo) & (tangent <= t_hi)
            x_e, y_e = ca_pos(states, tv - eps)
            coord_e = x_e if axis == 0 else y_e
            outside = outside_sign * (coord_e - level) > 0.0
            ok = valid & member & outside
            best = np.where(ok & (t < best), t, best)
        hit = np.isfinite(best)
        counts, _ = np.histogram(best[hit], bins=edges)
        return counts.astype(np.int64)

    front_counts = boundary_hist(
        0, rect.x_front, rect.y_left, rect.y_right, outside_sign=+1.0
    )
    right_counts = boundary_hist(
        1, rect.y_right, rect.x_rear, rect.x_front, outside_sign=+1.0
    )
    return {
        "bin_edges": edges,
        "n_traj": n,
        "front_counts": front_counts,
        "right_counts": right_counts,
        "front_rate": front_counts / (n * config.bin_width),
        "right_rate": right_counts / (n * config.bin_width),
    }
