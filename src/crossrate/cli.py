"""Command-line surface: run campaigns and analyses, emit CSV/JSON tables.

Each `cmd_*` computes and writes nothing: it returns the config it ran,
its data files as tables, and any extra manifest fields.  A `.csv` name
maps to its columns, in order; a `.json` name maps to its payload.  `main`
alone creates `--out-dir`, so a run that fails leaves no directory, and
writes each table and then `manifest.json` through one writer.  The
manifest records the fully resolved configuration, seed, tool version,
each output's path keyed by its file's stem, and the wall-clock duration,
data files included (campaigns add their worker count and peak memory,
intensity curves their warning or null), so any output can be reproduced
from its manifest alone.  Intensity curves come from
`probability.intensity_curve`, `intensity_evaluator` and `compare_curves`;
`--adaptive` runs `adaptive_sample` at the paper's steps, which are
`probability`'s constants and no flags.  Only the campaigns (`simulate`,
`ttc`, `compare`) draw random numbers, so only they take `--seed` and
`--n-traj`.  Each option has one parser, its argparse type (`--offset`
builds a `SalientOffset`), so a bad value exits 2 before any work.  All
CSV numbers use locale-independent formatting with 9 significant digits.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure, 4 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SalientOffset, salient_transform_density
from .errors import ConfigError, DomainError, NumericsError
from .geometry import SEGMENT_ORDER
from .intensity import METHODS, total_intensity
from .montecarlo import CampaignResult, peak_rss_mb, run_campaign, ttc_config, ttc_monte_carlo
from .probability import (
    COARSE_STEP,
    FINE_STEP,
    RATE_FLOOR,
    adaptive_sample,
    compare_curves,
    deterministic_ttc_seeds,
    integrate_intensity,
    intensity_curve,
    intensity_evaluator,
    RateCurve,
)
from .scenarios import PRESETS, ScenarioConfig, config_as_dict, load_config, preset_config


def _fmt(x) -> str:
    """Locale-independent 9-significant-digit number formatting."""
    return format(float(x), ".9g")


def _write(path: Path, table) -> None:
    """Write one table: a `.csv` name's columns, in order, or a `.json` name's payload."""
    with open(path, "w", newline="\n") as fh:
        if path.suffix == ".json":
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
            return
        fh.write(",".join(table) + "\n")
        for row in zip(*table.values(), strict=True):
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def _resolve_config(args) -> ScenarioConfig:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("exactly one of --config and --preset is required", "config")
    config = load_config(args.config) if args.config is not None else preset_config(args.preset)
    overrides = {k: v for k in ("n_traj", "seed") if (v := getattr(args, k, None)) is not None}
    return dataclasses.replace(config, **overrides) if overrides else config


def _grid(horizon: float, dt: float) -> list[float]:
    """The dense time grid 0, dt, 2 dt, ... <= horizon, rounded to 1e-12 s."""
    return [round(float(t), 12) for t in np.arange(0.0, horizon + 1e-12, dt)]


def _curve(config: ScenarioConfig, args, horizon: float) -> RateCurve:
    if args.adaptive:
        seeds = deterministic_ttc_seeds(config.initial_mean, config.rect)
        return adaptive_sample(intensity_evaluator(config, args.method), seeds, (0.0, horizon))
    return intensity_curve(config, _grid(horizon, args.dt), args.method)


def _campaign_fields(args, result: CampaignResult) -> dict:
    """Manifest fields of a campaign: its workers and the peak RSS, MB, of the
    calling process and summed over the worker processes (0 with one worker)."""
    return {
        "threads": args.threads,
        "peak_rss_mb": {
            "parent": round(peak_rss_mb(), 1),
            "workers_sum": round(sum(result.worker_peak_rss_mb), 1),
        },
    }


def cmd_simulate(args, config):
    result = run_campaign(config, threads=args.threads)
    hist = result.histogram
    keys = ["total", *SEGMENT_ORDER]
    columns = {"bin_start_s": hist.bin_edges[:-1], "bin_mid_s": hist.bin_mid}
    columns.update((f"first_entry_rate_{k}", hist.first_entry_rate(k)) for k in keys)
    columns.update((f"all_entry_rate_{k}", hist.all_entry_rate(k)) for k in keys)
    columns["integrated_probability"] = hist.integrated_probability()
    tables = {"histogram.csv": columns, "statistics.json": result.entry_stats}
    return config, tables, _campaign_fields(args, result)


def cmd_intensity(args, config):
    curve = _curve(config, args, config.horizon)
    columns = {"t_s": curve.times(), "mu_total": curve.values()}
    columns.update((f"mu_{n}", curve.segment_values(n)) for n in SEGMENT_ORDER)
    columns["method"] = [args.method] * curve.evaluations
    extra = {"evaluations_used": curve.evaluations} if args.adaptive else {}
    return config, {"intensity.csv": columns}, {**extra, "warning": curve.warning}


def cmd_probability(args, config):
    horizon = max(args.t2, config.horizon)
    if not args.adaptive:
        grid = _grid(horizon, args.dt)
        if len(grid) < 2 or grid[-1] < args.t2:
            raise ConfigError(
                f"the grid of step --dt {args.dt:g} s ends at {grid[-1]:g} s; it needs "
                f"at least 2 points and must reach --t2 {args.t2:g} s",
                "--dt",
            )
    curve = _curve(config, args, horizon)
    # a dense grid covers [t1, t2]; adaptive samples may cover only part of it
    first, last = curve.samples[0].t, curve.samples[-1].t
    if len(curve.samples) < 2:
        raise NumericsError(
            f"the curve has {len(curve.samples)} sample, at {first:g} s; the window "
            f"[{args.t1:g}, {args.t2:g}] s needs at least 2 to integrate"
        )
    lo, hi = max(args.t1, first), min(args.t2, last)
    if lo > hi:
        raise NumericsError(
            f"the curve samples span [{first:g}, {last:g}] s and do not reach "
            f"the window [{args.t1:g}, {args.t2:g}] s"
        )
    bound = integrate_intensity(curve, lo, hi)
    payload = {
        "t1": args.t1,
        "t2": args.t2,
        "p_upper": bound.p_upper,
        "p_capped": bound.p_capped,
        "method": args.method,
        "evaluations_used": curve.evaluations,
    }
    return config, {"probability.json": payload}, {"warning": curve.warning}


def cmd_ttc(args, config):
    config = ttc_config(config)
    result = ttc_monte_carlo(config)
    edges = result["bin_edges"]
    columns = {
        "bin_start_s": edges[:-1],
        "bin_mid_s": 0.5 * (edges[:-1] + edges[1:]),
        "front_rate": result["front_rate"],
        "right_rate": result["right_rate"],
    }
    seeds = deterministic_ttc_seeds(config.initial_mean, config.rect)
    payload = {"seeds": [{"segment": name, "t_s": t} for name, t in seeds]}
    return config, {"ttc_histogram.csv": columns, "ttc_seeds.json": payload}, {}


def cmd_salient(args, config):
    offsets = args.offset or [SalientOffset(0.0, 0.0)]  # not a default: append would add to it
    ts = _grid(config.horizon, args.dt)
    per_offset = [{"t_s": ts, **{f"mu_total_{m}": [] for m in METHODS}} for _ in offsets]
    for t in ts:
        g = config.predicted_density(t)  # predicted once, transformed per offset
        for off, columns in zip(offsets, per_offset):
            g_s = salient_transform_density(g, off, config.model, t)
            for m in METHODS:
                columns[f"mu_total_{m}"].append(total_intensity(g_s, config.rect, t, m).mu_plus)
    tables = {f"salient_{i}.csv": columns for i, columns in enumerate(per_offset)}
    return config, tables, {"offsets": [[o.dx_body, o.dy_body] for o in offsets]}


def cmd_compare(args, config):
    result = run_campaign(config, threads=args.threads)
    hist = result.histogram
    ts = [round(float(t), 12) for t in hist.bin_mid]
    curves, overlap = compare_curves(config, ts)
    ttc = ttc_monte_carlo(ttc_config(config))
    columns = {"t_s": hist.bin_mid, "mc_first_entry_rate": hist.first_entry_rate("total")}
    columns.update((f"mu_{m}", curves[m].values()) for m in METHODS)
    columns["spatial_overlap"] = overlap
    columns["ttc_front_rate"] = ttc["front_rate"]
    columns["ttc_right_rate"] = ttc["right_rate"]
    return config, {"compare.csv": columns}, _campaign_fields(args, result)


def _add_common(p: argparse.ArgumentParser, campaign=False, threads=False):
    """The config source and output flags; a campaign, which draws random
    numbers, adds its seed and trajectory count, and optionally its workers."""
    p.add_argument("--config", help="YAML scenario configuration file")
    p.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in named scenario"
    )
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    if campaign:
        p.add_argument("--seed", type=int, help="campaign seed (default: the scenario's)")
        p.add_argument("--n-traj", type=int, dest="n_traj", help="trajectory count")
    if threads:
        p.add_argument("--threads", type=_positive_int, default=1, help="worker processes")


def _positive(text: str) -> float:
    """argparse type of a step: a positive finite number."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _offset(text: str) -> SalientOffset:
    """argparse type of a salient offset: 'dx,dy', two finite numbers."""
    try:
        return SalientOffset(*map(float, text.split(",")))
    except (TypeError, ValueError):
        message = f"must be two finite numbers 'dx,dy', got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_curve_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default="quadrature")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--dt", type=_positive, default=0.05, help="dense grid step, s")
    grid.add_argument(
        "--adaptive",
        action="store_true",
        help=f"adaptive sampling: {COARSE_STEP:g} s march, {FINE_STEP:g} s refinement, "
        f"stop below {RATE_FLOOR:g} 1/s",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrate",
        description="Collision-probability rates and bounds at a host-vehicle boundary.",
    )
    parser.add_argument("--version", action="version", version=f"crossrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte-Carlo campaign: histogram + statistics")
    _add_common(p, campaign=True, threads=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("intensity", help="entry-intensity curve")
    _add_common(p)
    _add_curve_flags(p)
    p.set_defaults(fn=cmd_intensity)

    p = sub.add_parser("probability", help="integrated collision-probability bound")
    _add_common(p)
    _add_curve_flags(p)
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--t2", type=float, required=True)
    p.set_defaults(fn=cmd_probability)

    p = sub.add_parser("ttc", help="initial-condition TTC histogram + seed times")
    _add_common(p, campaign=True)
    p.set_defaults(fn=cmd_ttc)

    p = sub.add_parser("salient", help="per-salient-point intensity curves")
    _add_common(p)
    p.add_argument(
        "--offset",
        action="append",
        type=_offset,
        help="body-frame offset 'dx,dy' (repeatable; default 0,0); write one that "
        "starts with '-' as --offset=DX,DY, e.g. --offset=-4,-0.9",
    )
    p.add_argument("--dt", type=_positive, default=0.05, help="grid step, s")
    p.set_defaults(fn=cmd_salient)

    p = sub.add_parser("compare", help="MC, intensity methods, overlap, TTC on one grid")
    _add_common(p, campaign=True, threads=True)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "t1") and not 0.0 <= args.t1 <= args.t2 < math.inf:
        parser.error(f"need 0 <= --t1 <= --t2 < inf, got {args.t1} and {args.t2}")
    try:
        started = time.monotonic()
        config, tables, extra = args.fn(args, _resolve_config(args))
        args.out_dir.mkdir(parents=True, exist_ok=True)
        outputs = {}
        for name, table in tables.items():
            path = args.out_dir / name
            _write(path, table)
            outputs[path.stem] = str(path)
        manifest = {
            "command": args.command,
            "config": config_as_dict(config),
            "seed": config.seed,
            "tool_version": __version__,
            "outputs": outputs,
            "duration_s": round(time.monotonic() - started, 6),
            **extra,
        }
        manifest_path = args.out_dir / "manifest.json"
        _write(manifest_path, manifest)
        print(f"wrote {', '.join(outputs.values())}, {manifest_path}")
        return 0
    except (ConfigError, DomainError) as exc:  # a DomainError comes from the scenario itself
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
