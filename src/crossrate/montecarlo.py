"""Seeded Monte-Carlo ground truth.

Trajectories are sampled from the initial-state Gaussian and propagated
with the exact discrete-time dynamics plus exact process-noise
increments.  Both studies, run_campaign and ttc_monte_carlo, stream the
same id batches, reduce each to integer counts and bin a time t at
floor(t / bin_width).  Their crossing rules are geometry's; this module
imports nothing of the analytic layers (intensity, probability) that it
checks.  run_campaign runs its batches in forked worker processes, at
most one per batch, and merges their counts strictly in batch order; one
worker runs them in the calling process.  Linux is the supported
platform: fork is safe there and ru_maxrss is in KiB.  At most two
batches per worker are in flight, so memory is bounded whatever the
trajectory count.

A campaign samples the fine path, the states at multiples of sim_step,
but propagates each batch on coarse steps of _COARSE fine steps, with the
exact transition, noise and input increment of the coarse step (a zero
increment with the input off: every model runs the same code); it runs
to the end of the coarse step that holds the horizon and drops the
crossings past it.  A coarse chord is refined only where its bounding
box, grown on each axis by the largest deviation of its bridge mean (the
mean of the fine path given the chord's two end states) from the chord,
plus _SIGMAS standard deviations of the bridge position, meets the
rectangle's boundary.  Elsewhere the fine path can cross a side only by
straying that far from its bridge mean, which a chord's 2 x 9 inner
coordinates do with probability below 3e-14.  A refined chord's inner
positions are the chord, plus its bridge mean's deviation from the
chord, plus bridge noise, all by maps precomputed per campaign from
Matheron's rule x(t_i) = x~(t_i) + C_i (x_end - x~_end), with x~ a free
fine path from the chord's start and C_i = Cov(x_i, x_end | start)
Cov(x_end | start)^-1.  geometry.chord_crossings then runs on the fine
chords, so the crossings have the law of a simulation on every fine
step.  A batch goes through the horizon _STEP_CHUNK coarse steps at a
time, in reused buffers, so memory does not grow with the horizon either.

Noise comes from counter-based Philox streams, so a trajectory's draws,
and the counts, do not depend on batching, step chunking or worker
count.  Trajectory j draws its initial state and its coarse-step noise
from the stream keyed (seed, j); the inner states of its coarse step k
come from the stream keyed (seed, 2**63 + j) from counter (0, k, 0, 0),
drawn only for the chords that are refined.  Every model draws the same
normals: a zero gain or a zero PSD gives a zero term, not a separate path.

The initial-state map and the bridge fill's three products are np.einsum,
not `@`, for two reasons.  A row's bits must not depend on how many rows
share a product: einsum sums every row in one order, where BLAS chooses
its blocking by the row count, which in the fill is the number of chords
that a step chunk refines.  And no hot product in a worker may run on
OpenBLAS helper threads, which would contend with the other workers for
the cores.  Propagation and the coarse noise transform stay on `@`, about
ten times faster there: they multiply by (6, 6) matrices, products small
enough that OpenBLAS runs them on the calling thread.
"""
from __future__ import annotations

import dataclasses
import multiprocessing
import os
import resource
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .dynamics import input_increment, process_noise_cov, transition_matrix
from .errors import ConfigError
from .gaussian import psd_factor
from .geometry import (
    SEGMENT_ORDER,
    ChordCrossings,
    box_meets_boundary,
    chord_crossings,
    first_path_entry,
    segments,
)
from .scenarios import ScenarioConfig

_BATCH_SIZE = 4096  # fixed by the algorithm, not by the worker count
_COARSE = 10  # fine steps (sim_step) per coarse step
_STEP_CHUNK = 40  # coarse steps of noise held per batch at once; bounds memory only
_SIGMAS = 8.0  # the margin's allowance for bridge noise, in sd of the bridge position
_SLACK = 1e-9  # m added to every margin, so that rounding cannot drop a chord that touches
_INNER = 2 * (_COARSE - 1)  # inner position coordinates of a coarse step
_FRAC = np.repeat(np.arange(1, _COARSE) / _COARSE, 2)  # each one's fraction of the step
# fork starts workers fast and carries the parent's state, module patches included;
# OpenBLAS stops its threads before a fork, so the parent forks single-threaded;
# the bridge fill is einsum, so that a worker's products start no BLAS threads
_MP_CONTEXT = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class RateHistogram:
    """Binned crossing counts normalized to rates."""

    bin_edges: np.ndarray
    n_traj: int
    first_entry_counts: dict[str, np.ndarray]  # per segment + 'total'
    all_entry_counts: dict[str, np.ndarray]

    @property
    def bin_width(self) -> float:
        """The first bin's width: bin_width, or the horizon where that is shorter."""
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_mid(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def rate(self, counts: np.ndarray) -> np.ndarray:
        return _rate(counts, self.bin_edges, self.n_traj)

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
    # peak RSS (MB) of each worker process, in the order of their first batch;
    # empty when the batches ran in the calling process
    worker_peak_rss_mb: tuple[float, ...] = ()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands np.random.Philox its key as is.

    Philox(key=...) first draws OS entropy for a seed sequence that it then
    throws away; seeding Philox with this gives the same stream in half the
    time.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _traj_rng(seed: int, traj_id: int) -> np.random.Generator:
    """The stream of trajectory traj_id: initial state, then coarse-step noise."""
    key = np.array([seed, traj_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _bridge_normals(seed: int, traj_ids, steps, out: np.ndarray) -> None:
    """Fill out[f] with normals of the bridge stream of coarse step steps[f]
    of trajectory traj_ids[f].

    That stream is Philox keyed (seed, 2**63 + traj_id) from counter
    (0, step, 0, 0): each coarse step's bridge draws are a stream of their
    own, 2**64 blocks long.  One Philox is re-keyed per stream, at a third
    of the cost of building one.
    """
    bits = np.random.Philox(_PhiloxKey(np.array([seed, 0], dtype=np.uint64)))
    normals = np.random.Generator(bits)
    state = bits.state  # a fresh stream's: empty buffer, counter 0
    key, counter = state["state"]["key"], state["state"]["counter"]
    for f, (traj_id, step) in enumerate(zip(traj_ids, steps)):
        key[1] = 2**63 + traj_id
        counter[1] = step
        bits.state = state
        normals.standard_normal(out=out[f])


def _batches(n_traj: int):
    """The trajectory ids 0 .. n_traj - 1 as ranges of _BATCH_SIZE, made lazily."""
    return (range(lo, min(lo + _BATCH_SIZE, n_traj)) for lo in range(0, n_traj, _BATCH_SIZE))


def _bins(times: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Bin index floor(t / bin_width) of each time, capped at the last bin."""
    return np.minimum((times / config.bin_width).astype(np.int64), config.n_bins - 1)


def _bin_edges(config: ScenarioConfig) -> np.ndarray:
    """The edges k * bin_width, k = 0 .. n_bins, of the bins _bins counts into;
    the last is the horizon when that ends the last bin early."""
    edges = np.arange(config.n_bins + 1) * config.bin_width
    if config.horizon / config.bin_width < config.n_bins - 1e-9:  # n_bins' tolerance
        edges[-1] = config.horizon
    return edges


def _rate(counts: np.ndarray, edges: np.ndarray, n: int) -> np.ndarray:
    """Counts per trajectory and second: a full bin divides by bin_width =
    edges[1] exactly, a last bin that the horizon cuts short by its span."""
    width = np.full(len(counts), edges[1])
    if edges[-1] < len(counts) * edges[1]:
        width[-1] = edges[-1] - edges[-2]
    return counts / (n * width)


def _initial_states(config: ScenarioConfig, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Initial states (n, 6): row j is mean + F z, F F^T = P0, z drawn from rngs[j].

    Each row's 6 normals come from its trajectory's own stream; one einsum
    then maps all n rows, and row j's bits do not depend on n.
    """
    mean = config.initial_mean.as_array()
    factor = psd_factor(config.resolve_initial_cov())
    z = np.fromiter((rng.standard_normal(6) for rng in rngs), dtype=(float, 6))
    x = np.einsum("nk,jk->nj", z, factor)
    x += mean  # in place: one (n, 6) array fewer at the peak of a TTC batch
    return x


class _Pieces(NamedTuple):
    """The exact pieces of a campaign's n coarse steps of _COARSE fine steps each.

    States are rows, so `x @ phi_t` is Φ(_COARSE dt) x.  The inner times of
    a coarse step lie i dt, i = 1 .. _COARSE - 1, after its start, and
    column 2 (i - 1) + axis of every (…, _INNER) piece is inner time i's
    position on that axis.  Given a chord's two end states, its inner
    positions are the chord, plus the bridge mean's deviation from the
    chord (dev, dev_u), plus the bridge noise z @ noise_t.
    """

    n: int  # coarse steps, ⌈n_steps / _COARSE⌉: the last may end past the horizon
    phi_t: np.ndarray  # (6, 6) Φ(_COARSE dt)ᵀ, C-contiguous: x @ phi_t is then 3x faster
    chol_q_t: np.ndarray  # (6, 6) Lᵀ with L Lᵀ = Q(_COARSE dt)
    u: np.ndarray  # (n, 6) input increment of each coarse step; zero with the input off
    # (6 _COARSE, _INNER) bridge noise at the inner positions, from the chord's
    # _COARSE x 6 fine-step normals; zero on an axis without process noise
    noise_t: np.ndarray
    dev: np.ndarray  # (2, _INNER, 6) bridge mean less the chord, from the start and the end
    dev_u: np.ndarray  # (n, _INNER) its input part
    reach: np.ndarray  # (2,) _SIGMAS sd of the bridge noise per axis, plus _SLACK


def _pieces(config: ScenarioConfig) -> _Pieces:
    """_Pieces of the coarse steps that cover the horizon.

    dev, dev_u and noise_t split Matheron's rule, whose gains C_i = Q(i dt)
    Φ((_COARSE - i) dt)ᵀ Q(_COARSE dt)⁻¹ do not depend on the jerk PSDs; an
    axis without noise has none.
    """
    dt, m = config.sim_step, _COARSE
    n = -(-config.n_steps // m)
    model = config.model
    phi = [transition_matrix(i * dt) for i in range(m + 1)]
    unit_model = dataclasses.replace(model, qx=1.0, qy=1.0)
    unit = [process_noise_cov(i * dt, unit_model) for i in range(m + 1)]
    psd = np.tile([model.qx, model.qy], 3)
    s = 1.0 / np.sqrt(np.diag(unit[m]))  # Jacobi scaling: Q(m dt) spans dt^5 .. dt
    q_inv = s[:, np.newaxis] * np.linalg.inv(s[:, np.newaxis] * unit[m] * s) * s
    gains = [unit[i] @ phi[m - i].T @ q_inv * (psd > 0.0)[:, np.newaxis] for i in range(1, m)]
    gain_t = np.hstack([c[:2].T for c in gains])  # (6, _INNER) position rows of the C_i
    inner_t = np.hstack([phi[i][:2].T for i in range(1, m)])  # positions of Φ(i dt) x
    on_axis = np.zeros((6, _INNER))
    on_axis[0, 0::2] = on_axis[1, 1::2] = 1.0
    dev = np.stack(
        (inner_t - phi[m].T @ gain_t - on_axis * (1.0 - _FRAC), gain_t - on_axis * _FRAC)
    ).transpose(0, 2, 1).copy()

    chol_t = psd_factor(process_noise_cov(dt, model)).T
    free = np.zeros((6 * m, 6 * m))  # row block j: step j + 1's normals; column block i: time i + 1
    for j in range(m):
        for i in range(j, m):
            free[6 * j : 6 * j + 6, 6 * i : 6 * i + 6] = chol_t @ phi[i - j].T
    inner = [6 * i + a for i in range(m - 1) for a in (0, 1)]
    noise_t = free[:, inner] - free[:, 6 * m - 6 :] @ gain_t
    sd = np.linalg.norm(noise_t, axis=0).reshape(m - 1, 2).max(axis=0)

    starts = np.arange(n) * m * dt
    u = np.array([input_increment(m * dt, model, t0) for t0 in starts])
    u_inner = np.array(
        [np.ravel([input_increment(i * dt, model, t0)[:2] for i in range(1, m)]) for t0 in starts]
    )
    return _Pieces(
        n=n,
        phi_t=np.ascontiguousarray(phi[m].T),
        chol_q_t=psd_factor(process_noise_cov(m * dt, model)).T,
        u=u,
        noise_t=noise_t,
        dev=dev,
        dev_u=u_inner - u @ gain_t,
        reach=_SIGMAS * sd + _SLACK,
    )


def _near(config: ScenarioConfig, p: _Pieces, xs: np.ndarray, k0: int) -> np.ndarray:
    """Which coarse chords xs[k] -> xs[k + 1] may have a fine path that crosses a side.

    `xs` (k + 1, b, 6) holds the states at coarse steps k0 .. k0 + k.  A
    chord is flagged where its bounding box, grown on each axis by its
    bridge mean's largest deviation from the chord plus p.reach, meets the
    rectangle's boundary: a fine path through its ends that stays in that
    box can cross no side.  Returns a (k, b) bool array.
    """
    k, b = len(xs) - 1, xs.shape[1]
    d = np.empty((2, _INNER, b))  # (start part, end part) x inner column x row
    near = np.empty((k, b), dtype=bool)
    for i in range(k):  # a step at a time: the buffers stay in cache
        np.matmul(p.dev[0], xs[i].T, out=d[0])
        np.matmul(p.dev[1], xs[i + 1].T, out=d[1])
        dev = d[0]
        dev += d[1]
        dev += p.dev_u[k0 + i, :, np.newaxis]
        np.abs(dev, out=dev)
        grow = dev.reshape(_COARSE - 1, 2, b).max(axis=0).T + p.reach
        p0, p1 = xs[i, :, :2], xs[i + 1, :, :2]
        lo, hi = np.minimum(p0, p1), np.maximum(p0, p1)
        near[i] = box_meets_boundary(lo - grow, hi + grow, config.rect)
    return near


def _inner_positions(config, p: _Pieces, start, end, steps, traj_ids) -> np.ndarray:
    """Positions (n, _COARSE - 1, 2) at the inner times of n coarse chords, given their ends.

    Chord f runs from state start[f] to end[f] over coarse step steps[f]
    of trajectory traj_ids[f].  Its inner positions are the chord, plus
    the bridge mean's deviation from the chord, plus bridge noise drawn
    from the chord's bridge stream.
    """
    reps = _COARSE - 1
    inner = np.tile(start[:, :2], reps) * (1.0 - _FRAC) + np.tile(end[:, :2], reps) * _FRAC
    inner += np.einsum("nk,ik->ni", start, p.dev[0]) + np.einsum("nk,ik->ni", end, p.dev[1])
    inner += p.dev_u[steps]
    z = np.empty((len(start), 6 * _COARSE))
    _bridge_normals(config.seed, traj_ids, steps.tolist(), z)
    inner += np.einsum("nk,kj->nj", z, p.noise_t)
    return inner.reshape(len(start), reps, 2)


def _fill(config, p: _Pieces, xs: np.ndarray, k0: int, near: np.ndarray, traj_ids):
    """Crossings of the fine paths of the coarse chords that `near` (k, b) flags.

    `xs` and `k0` are as for _near.  Fine chord i of coarse step s of
    row j gets index (s * _COARSE + i) * b + j, the index of the fine step
    it covers.
    """
    b = xs.shape[1]
    cols, rows = np.nonzero(near)
    start, end = xs[cols, rows], xs[cols + 1, rows]
    steps = k0 + cols
    ids = [traj_ids[j] for j in rows.tolist()]
    path = np.concatenate(
        (
            start[:, np.newaxis, :2],
            _inner_positions(config, p, start, end, steps, ids),
            end[:, np.newaxis, :2],
        ),
        axis=1,
    )
    c = chord_crossings(path[:, :-1].reshape(-1, 2), path[:, 1:].reshape(-1, 2), config.rect)
    f, i = np.divmod(c.chord, _COARSE)
    return c._replace(chord=(steps[f] * _COARSE + i) * b + rows[f])


def _coarse_states(p: _Pieces, x: np.ndarray, rngs: list[np.random.Generator]):
    """Propagate the rows of x (b, 6) over the p.n coarse steps.

    Yields (k0, xs) per chunk of at most _STEP_CHUNK steps, with xs
    (k + 1, b, 6) the states at coarse steps k0 .. k0 + k, the first the
    last of the chunk before: a view of a buffer that the next chunk
    reuses.  Row j's noise comes from rngs[j], which yields the same
    stream it would in one draw of all the steps.
    """
    b = len(x)
    chunk = min(_STEP_CHUNK, p.n)
    z = np.empty((b, chunk, 6))
    w = np.empty((b, chunk, 6))
    xs = np.empty((chunk + 1, b, 6))
    xs[0] = x
    for k0 in range(0, p.n, chunk):
        k = min(chunk, p.n - k0)
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=z[j, :k])
        np.matmul(z[:, :k], p.chol_q_t, out=w[:, :k])
        for i in range(k):
            x = x @ p.phi_t
            x += p.u[k0 + i]
            x += w[:, i]
            xs[i + 1] = x
        yield k0, xs[: k + 1]
        xs[0] = x


def _stream_crossings(
    config: ScenarioConfig, x: np.ndarray, rngs: list[np.random.Generator], traj_ids, p: _Pieces
) -> ChordCrossings:
    """Propagate a batch through its last coarse step and return all its crossings.

    `x` (b, 6) holds the initial states, `rngs` one generator per row,
    already past its initial-state draw, and `traj_ids` the rows'
    trajectory ids, which key their bridge streams.  The batch moves on
    the coarse steps of `p`, and _fill fills in the fine path of each
    coarse chord that _near flags.  The chord from fine step k to k + 1
    of row j has index k * b + j; the crossings come in the order _fill
    finds them.  Memory does not grow with the horizon: the batch goes
    through it _STEP_CHUNK coarse steps at a time, in reused buffers.
    """
    found = [
        _fill(config, p, xs, k0, _near(config, p, xs, k0), traj_ids)
        for k0, xs in _coarse_states(p, x, rngs)
    ]
    return ChordCrossings(*(np.concatenate(arrays) for arrays in zip(*found)))


def _by_row(c: ChordCrossings, b: int, config: ScenarioConfig):
    """A batch's crossings up to the horizon, ordered by row, with rows and times.

    `b` is the batch's row count.  A crossing at `fraction` of the chord
    from step k happens at k * dt + fraction * dt.  Chord order is time
    order, and chord_crossings orders a chord's crossings in time, so a
    stable sort by row, then chord, puts each row's crossings in time order.
    """
    step, row = np.divmod(c.chord, b)
    t = step * config.sim_step + c.fraction * config.sim_step
    keep = np.lexsort((c.chord, row))
    keep = keep[t[keep] <= config.horizon]
    return c.select(keep), row[keep], t[keep]


def _simulate_batch(config: ScenarioConfig, traj_ids: range, p: _Pieces):
    """Simulate a batch of trajectories and reduce its entries to counts.

    Returns (first, all, boundary, multiplicity, (pid, rss)): first- and
    all-entry counts per bin as (5, n_bins) arrays with rows total then
    SEGMENT_ORDER, first-entry totals per segment, the number of
    trajectories with each entry count (index 0 = no entry), and the id
    and peak RSS (MB) of the process that ran the batch.
    """
    n_bins = config.n_bins
    n_seg = len(SEGMENT_ORDER)
    b = len(traj_ids)
    rngs = [_traj_rng(config.seed, tid) for tid in traj_ids]
    x = _initial_states(config, rngs)
    c, row, t = _by_row(_stream_crossings(config, x, rngs, traj_ids, p), b, config)
    row, seg, t = row[c.entry], c.segment[c.entry], t[c.entry]

    first = np.ones(len(row), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    bins = _bins(t, config)
    # first entry of each trajectory through each segment
    _, seg_first = np.unique(row * n_seg + seg, return_index=True)

    def per_segment(idx):
        flat = seg[idx] * n_bins + bins[idx]
        return np.bincount(flat, minlength=n_seg * n_bins).reshape(n_seg, n_bins)

    first_counts = np.vstack(
        [np.bincount(bins[first], minlength=n_bins), per_segment(seg_first)]
    )
    all_counts = np.vstack(
        [np.bincount(bins, minlength=n_bins), per_segment(slice(None))]
    )
    boundary = np.bincount(seg[first], minlength=n_seg)
    multiplicity = np.bincount(np.bincount(row, minlength=b))
    return first_counts, all_counts, boundary, multiplicity, (os.getpid(), peak_rss_mb())


def _batch_counts(config: ScenarioConfig, p: _Pieces, workers: int):
    """_simulate_batch of each batch, in batch order.

    One worker runs the batches in the calling process.  More run them in
    that many processes, two batches per worker in flight: Executor.map
    would submit every batch at once and hold a future per batch.  A
    worker's exception is raised here with its own type, after the
    batches not yet started are cancelled and the workers have exited.
    """
    batches = _batches(config.n_traj)
    if workers == 1:
        yield from (_simulate_batch(config, ids, p) for ids in batches)
        return
    with ProcessPoolExecutor(workers, mp_context=_MP_CONTEXT) as pool:
        pending = deque()
        try:
            for ids in batches:
                pending.append(pool.submit(_simulate_batch, config, ids, p))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_campaign(config: ScenarioConfig, threads: int = 1) -> CampaignResult:
    """Full Monte-Carlo campaign: histograms plus entry statistics.

    Trajectories continue past their first entry so higher-order entries
    are observable; first-entry statistics are extracted afterwards.
    The batches run in min(threads, number of batches) worker processes;
    the result does not depend on that number.
    """
    pieces = _pieces(config)
    config.resolve_initial_cov()  # solved once: each batch's pickled config carries it
    workers = min(threads, -(-config.n_traj // _BATCH_SIZE))
    n_bins = config.n_bins
    n_seg = len(SEGMENT_ORDER)

    first_counts = np.zeros((n_seg + 1, n_bins), dtype=np.int64)
    all_counts = np.zeros((n_seg + 1, n_bins), dtype=np.int64)
    boundary = np.zeros(n_seg, dtype=np.int64)
    multiplicity: dict[int, int] = {}
    peaks: dict[int, float] = {}

    # merge strictly in batch order: results independent of schedule
    for first, all_, bnd, mult, (pid, rss) in _batch_counts(config, pieces, workers):
        first_counts += first
        all_counts += all_
        boundary += bnd
        for k in np.nonzero(mult[1:])[0] + 1:
            multiplicity[int(k)] = multiplicity.get(int(k), 0) + int(mult[k])
        peaks[pid] = max(rss, peaks.get(pid, 0.0))
    peaks.pop(os.getpid(), None)

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
        bin_edges=_bin_edges(config),
        n_traj=config.n_traj,
        first_entry_counts=dict(zip(keys, first_counts)),
        all_entry_counts=dict(zip(keys, all_counts)),
    )
    return CampaignResult(
        histogram=histogram,
        entry_stats=entry_stats,
        worker_peak_rss_mb=tuple(peaks.values()),
    )


def ttc_config(config: ScenarioConfig) -> ScenarioConfig:
    """The config of the TTC study, which propagates each draw deterministically.

    Resolves P0 first, so the filter-derived initial spread is kept, then
    zeroes the trajectory noise and the input's gains.
    """
    return dataclasses.replace(
        config,
        initial_cov=config.resolve_initial_cov(),
        model=dataclasses.replace(config.model, qx=0.0, qy=0.0, b1=0.0, b2=0.0),
    )


def ttc_monte_carlo(config: ScenarioConfig) -> dict:
    """Initial-condition TTC histograms for the front and right sides.

    Only the initial state is random: each draw follows its
    constant-acceleration path, and geometry.first_path_entry gives its
    earliest entry through each side in (0, horizon].  Each side bins
    those times on its own, with no corner rule.  Draws are made and
    reduced to counts in the campaign's batches.
    """
    if config.model.input_enabled:
        raise ConfigError(
            "TTC Monte-Carlo requires the deterministic input off (b1 = b2 = 0)", "model.input"
        )
    n = config.n_traj
    sides = segments(config.rect)[:2]  # front, right
    counts = np.zeros((len(sides), config.n_bins), dtype=np.int64)
    for ids in _batches(n):
        states = _initial_states(config, (_traj_rng(config.seed, i) for i in ids))
        for seg, seg_counts in zip(sides, counts):
            first = first_path_entry(states, seg, config.horizon)
            seg_counts += np.bincount(
                _bins(first[np.isfinite(first)], config), minlength=config.n_bins
            )
    result = {"bin_edges": _bin_edges(config)}
    for seg, seg_counts in zip(sides, counts):
        result[f"{seg.name}_counts"] = seg_counts
        result[f"{seg.name}_rate"] = _rate(seg_counts, result["bin_edges"], n)
    return result
