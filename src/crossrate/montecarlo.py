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
trajectory count.  A campaign batch goes through the horizon a chunk of
steps at a time, noise drawn into reused buffers and the chunk's chords
sent through geometry.chord_crossings in one call, so memory does not
grow with the horizon either.

Per-trajectory noise comes from counter-based Philox streams keyed by
(campaign seed, trajectory id), so results are bit-identical regardless
of batching, step chunking or worker count.
"""
from __future__ import annotations

import dataclasses
import multiprocessing
import os
import resource
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import input_increment, process_noise_cov, transition_matrix
from .errors import ConfigError
from .gaussian import psd_factor
from .geometry import SEGMENT_ORDER, ChordCrossings, chord_crossings, first_path_entry, segments
from .scenarios import ScenarioConfig

_BATCH_SIZE = 4096  # fixed by the algorithm, not by the worker count
_STEP_CHUNK = 64  # steps of noise held per batch at once; bounds memory only
# fork starts workers fast and carries the parent's state, module patches included;
# OpenBLAS stops its threads before a fork, so the parent forks single-threaded
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
    # peak RSS (MB) of each worker process, in the order of their first batch;
    # empty when the batches ran in the calling process
    worker_peak_rss_mb: tuple[float, ...] = ()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10


def _traj_rng(seed: int, traj_id: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, traj_id], dtype=np.uint64))
    )


def _batches(n_traj: int):
    """The trajectory ids 0 .. n_traj - 1 as ranges of _BATCH_SIZE, made lazily."""
    return (range(lo, min(lo + _BATCH_SIZE, n_traj)) for lo in range(0, n_traj, _BATCH_SIZE))


def _bins(times: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Bin index floor(t / bin_width) of each time, capped at the last bin."""
    return np.minimum((times / config.bin_width).astype(np.int64), config.n_bins - 1)


def _bin_edges(config: ScenarioConfig) -> np.ndarray:
    """The edges k * bin_width, k = 0 .. n_bins, of the bins _bins counts into."""
    return np.arange(config.n_bins + 1) * config.bin_width


def _initial_states(config: ScenarioConfig, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Initial states (n, 6): row j is mean + F @ z, F F^T = P0, z drawn from rngs[j]."""
    mean = config.initial_mean.as_array()
    factor = psd_factor(config.resolve_initial_cov())
    rows = (mean + factor @ rng.standard_normal(6) for rng in rngs)
    return np.fromiter(rows, dtype=(float, 6))


def _step_kernel(config: ScenarioConfig):
    """Precomputed per-step propagation pieces (shared by all trajectories).

    Φᵀ is stored C-contiguous, which makes `x @ phi_t` about 3x faster with
    the same bits; row k of `u` is the input increment of step k, zero when
    the input is off.
    """
    dt = config.sim_step
    n = config.n_steps
    phi_t = np.ascontiguousarray(transition_matrix(dt).T)
    chol_q_t = psd_factor(process_noise_cov(dt, config.model)).T
    u = np.zeros((n, 6))
    if config.model.input_enabled:
        for k in range(n):
            u[k] = input_increment(dt, config.model, t0=k * dt)
    return phi_t, chol_q_t, u


def _stream_crossings(
    config: ScenarioConfig, x: np.ndarray, rngs: list[np.random.Generator], kernel
) -> ChordCrossings:
    """Propagate a batch to the horizon and return all its crossings.

    `x` (b, 6) holds the initial states and `rngs` one generator per row,
    already past its initial-state draw.  The chord from step k to k + 1
    of row j has index k * b + j.  Noise is drawn and transformed
    _STEP_CHUNK steps at a time into reused buffers, so memory does not
    grow with the horizon; each generator yields the same stream it would
    in one draw of the whole horizon.
    """
    phi_t, chol_q_t, u = kernel
    n_steps = config.n_steps
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
        # the (m, b, 2) chunk flattened row-major: chord (k - k0) * b + j
        c = chord_crossings(pos[:m].reshape(-1, 2), pos[1 : m + 1].reshape(-1, 2), config.rect)
        found.append(c._replace(chord=c.chord + k0 * b))
        pos[0] = pos[m]
    return ChordCrossings(*(np.concatenate(arrays) for arrays in zip(*found)))


def _by_row(c: ChordCrossings, b: int, config: ScenarioConfig):
    """A batch's crossings up to the horizon, ordered by row, with rows and times.

    `b` is the batch's row count.  A crossing at `fraction` of the chord
    from step k happens at k * dt + fraction * dt.  Chord order is time
    order, so a stable sort by row keeps each row's crossings in time order.
    """
    step, row = np.divmod(c.chord, b)
    t = step * config.sim_step + c.fraction * config.sim_step
    keep = np.argsort(row, kind="stable")
    keep = keep[t[keep] <= config.horizon]
    return c.select(keep), row[keep], t[keep]


def _simulate_batch(config: ScenarioConfig, traj_ids: range, kernel):
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
    c, row, t = _by_row(_stream_crossings(config, x, rngs, kernel), b, config)
    row, seg, t = row[c.entry], c.segment[c.entry], t[c.entry]

    first = np.ones(len(row), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    if config.terminate_on_entry:
        row, seg, t = row[first], seg[first], t[first]
        first = first[first]
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


def _batch_counts(config: ScenarioConfig, kernel, workers: int):
    """_simulate_batch of each batch, in batch order.

    One worker runs the batches in the calling process.  More run them in
    that many processes, two batches per worker in flight: Executor.map
    would submit every batch at once and hold a future per batch.  A
    worker's exception is raised here with its own type, after the
    batches not yet started are cancelled and the workers have exited.
    """
    batches = _batches(config.n_traj)
    if workers == 1:
        yield from (_simulate_batch(config, ids, kernel) for ids in batches)
        return
    with ProcessPoolExecutor(workers, mp_context=_MP_CONTEXT) as pool:
        pending = deque()
        try:
            for ids in batches:
                pending.append(pool.submit(_simulate_batch, config, ids, kernel))
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
    With terminate_on_entry only each trajectory's first entry counts.
    The batches run in min(threads, number of batches) worker processes;
    the result does not depend on that number.
    """
    kernel = _step_kernel(config)
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
    for first, all_, bnd, mult, (pid, rss) in _batch_counts(config, kernel, workers):
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
    zeroes the trajectory noise and the input's gains; a config that has
    neither is returned as is.
    """
    model = config.model
    if not (model.input_enabled or model.qx > 0.0 or model.qy > 0.0):
        return config
    return dataclasses.replace(
        config,
        initial_cov=config.resolve_initial_cov(),
        model=dataclasses.replace(model, qx=0.0, qy=0.0, b1=0.0, b2=0.0),
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
        result[f"{seg.name}_rate"] = seg_counts / (n * config.bin_width)
    return result
