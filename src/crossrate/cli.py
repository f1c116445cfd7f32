"""Command-line surface: run campaigns and analyses, emit CSV/JSON tables.

Each `cmd_*` writes its data files and returns the config it ran, its
output paths and any extra manifest fields; `main` alone then writes
`manifest.json` next to the data files, recording the fully resolved
configuration, seed, tool version, output paths, and wall-clock duration
(campaigns add their worker count and peak memory), so any output can be
reproduced from its manifest alone.  Intensity
curves come from `probability.intensity_curve`, `intensity_evaluator` and
`compare_curves`.
All CSV numbers use locale-independent formatting with 9 significant
digits.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure, 4 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"
            )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_config(args) -> ScenarioConfig:
    if args.config is not None:
        config = load_config(args.config)
    elif args.preset is not None:
        config = preset_config(args.preset)
    else:
        raise ConfigError("either --config or --preset is required", "config")
    overrides = {}
    if getattr(args, "n_traj", None) is not None:
        overrides["n_traj"] = args.n_traj
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("CROSSRATE_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(
                    f"CROSSRATE_SEED must be an integer, got {env!r}", "CROSSRATE_SEED"
                ) from None
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _output(args, name: str) -> Path:
    """Path of one output file; creates the output directory on first use."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return args.out_dir / name


def _grid(horizon: float, dt: float) -> list[float]:
    """The dense time grid 0, dt, 2 dt, ... <= horizon, rounded to 1e-12 s."""
    return [round(float(t), 12) for t in np.arange(0.0, horizon + 1e-12, dt)]


def _curve(config: ScenarioConfig, args, horizon: float) -> RateCurve:
    if args.adaptive:
        seeds = deterministic_ttc_seeds(config.initial_mean, config.rect)
        return adaptive_sample(
            intensity_evaluator(config, args.method),
            seeds,
            args.dt1,
            args.dt2,
            args.rate_floor,
            (0.0, horizon),
        )
    return intensity_curve(config, _grid(horizon, args.dt), args.method)


def _curve_rows(curve: RateCurve):
    for s in curve.samples:
        yield [s.t, s.mu_plus] + [s.per_segment.get(n, 0.0) for n in SEGMENT_ORDER]


_CURVE_HEADER = ["t_s", "mu_total", "mu_front", "mu_right", "mu_left", "mu_rear"]


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
    hist_path = _output(args, "histogram.csv")
    _write_csv(hist_path, list(columns), zip(*columns.values()))
    stats_path = _output(args, "statistics.json")
    _write_json(stats_path, result.entry_stats)
    return (
        config,
        {"histogram": str(hist_path), "statistics": str(stats_path)},
        _campaign_fields(args, result),
    )


def cmd_intensity(args, config):
    horizon = args.horizon if args.horizon is not None else config.horizon
    curve = _curve(config, args, horizon)
    curve_path = _output(args, "intensity.csv")
    _write_csv(
        curve_path,
        _CURVE_HEADER + ["method"],
        ([*row, args.method] for row in _curve_rows(curve)),
    )
    extra = {"evaluations_used": curve.evaluations} if args.adaptive else {}
    return config, {"intensity": str(curve_path)}, extra


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
    lo, hi = max(args.t1, first), min(args.t2, last)
    if lo > hi:
        raise NumericsError(
            f"the curve samples span [{first:g}, {last:g}] s and do not reach "
            f"the window [{args.t1:g}, {args.t2:g}] s"
        )
    bound = integrate_intensity(curve, lo, hi)
    bound_path = _output(args, "probability.json")
    _write_json(
        bound_path,
        {
            "t1": args.t1,
            "t2": args.t2,
            "p_upper": bound.p_upper,
            "p_capped": bound.p_capped,
            "method": args.method,
            "evaluations_used": bound.evaluations_used,
        },
    )
    return config, {"probability": str(bound_path)}, {}


def cmd_ttc(args, config):
    config = ttc_config(config)
    result = ttc_monte_carlo(config)
    edges = result["bin_edges"]
    rows = zip(
        edges[:-1], 0.5 * (edges[:-1] + edges[1:]), result["front_rate"], result["right_rate"]
    )
    hist_path = _output(args, "ttc_histogram.csv")
    _write_csv(hist_path, ["bin_start_s", "bin_mid_s", "front_rate", "right_rate"], rows)

    seeds = deterministic_ttc_seeds(config.initial_mean, config.rect)
    seeds_path = _output(args, "ttc_seeds.json")
    _write_json(
        seeds_path,
        {"seeds": [{"segment": name, "t_s": t} for name, t in seeds]},
    )
    return config, {"ttc_histogram": str(hist_path), "ttc_seeds": str(seeds_path)}, {}


def _parse_offsets(specs: list[str]) -> list[SalientOffset]:
    offsets = []
    for spec in specs:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ConfigError(f"offset must be 'dx,dy', got {spec!r}", "offset")
        try:
            offsets.append(SalientOffset(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"offset components must be numbers: {spec!r}", "offset") from None
    return offsets


def cmd_salient(args, config):
    offsets = _parse_offsets(args.offset or ["0,0"])
    ts = _grid(config.horizon, args.dt)
    per_offset = [[] for _ in offsets]
    for t in ts:
        g = config.predicted_density(t)  # predicted once, transformed per offset
        for off, rows in zip(offsets, per_offset):
            g_s = salient_transform_density(g, off, config.model, t)
            rows.append([t] + [total_intensity(g_s, config.rect, t, m).mu_plus for m in METHODS])
    outputs = {}
    for idx, rows in enumerate(per_offset):
        path = _output(args, f"salient_{idx}.csv")
        _write_csv(path, ["t_s"] + [f"mu_total_{m}" for m in METHODS], rows)
        outputs[f"salient_{idx}"] = str(path)
    return config, outputs, {"offsets": [[o.dx_body, o.dy_body] for o in offsets]}


def cmd_compare(args, config):
    result = run_campaign(config, threads=args.threads)
    hist = result.histogram
    ts = [round(float(t), 12) for t in hist.bin_mid]
    curves, overlap = compare_curves(config, ts)
    ttc = ttc_monte_carlo(ttc_config(config))

    rows = zip(
        hist.bin_mid,
        hist.first_entry_rate("total"),
        *(curves[m].values() for m in METHODS),
        overlap,
        ttc["front_rate"],
        ttc["right_rate"],
    )
    path = _output(args, "compare.csv")
    _write_csv(
        path,
        ["t_s", "mc_first_entry_rate"]
        + [f"mu_{m}" for m in METHODS]
        + ["spatial_overlap", "ttc_front_rate", "ttc_right_rate"],
        rows,
    )
    return config, {"compare": str(path)}, _campaign_fields(args, result)


def _add_common(p: argparse.ArgumentParser, threads=False, n_traj=False):
    p.add_argument("--config", help="YAML scenario configuration file")
    p.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in named scenario"
    )
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    p.add_argument(
        "--seed", type=int, help="campaign seed (falls back to CROSSRATE_SEED)"
    )
    if threads:
        p.add_argument("--threads", type=_positive_int, default=1, help="worker processes")
    if n_traj:
        p.add_argument("--n-traj", type=int, dest="n_traj", help="trajectory count")


def _positive(text: str) -> float:
    """argparse type of a step, rate or horizon: a positive finite number."""
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_curve_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default="quadrature")
    p.add_argument("--dt", type=_positive, default=0.05, help="dense grid step, s")
    p.add_argument("--adaptive", action="store_true", help="adaptive sampling")
    p.add_argument("--dt1", type=_positive, default=0.5, help="adaptive coarse step, s")
    p.add_argument("--dt2", type=_positive, default=0.2, help="adaptive refine step, s")
    p.add_argument(
        "--rate-floor", type=_positive, default=0.01, help="adaptive stop intensity, 1/s"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossrate",
        description="Collision-probability rates and bounds at a host-vehicle boundary.",
    )
    parser.add_argument("--version", action="version", version=f"crossrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte-Carlo campaign: histogram + statistics")
    _add_common(p, threads=True, n_traj=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("intensity", help="entry-intensity curve")
    _add_common(p)
    _add_curve_flags(p)
    p.add_argument("--horizon", type=_positive, help="override curve horizon, s")
    p.set_defaults(fn=cmd_intensity)

    p = sub.add_parser("probability", help="integrated collision-probability bound")
    _add_common(p)
    _add_curve_flags(p)
    p.add_argument("--t1", type=float, default=0.0)
    p.add_argument("--t2", type=float, required=True)
    p.set_defaults(fn=cmd_probability)

    p = sub.add_parser("ttc", help="initial-condition TTC histogram + seed times")
    _add_common(p, n_traj=True)
    p.set_defaults(fn=cmd_ttc)

    p = sub.add_parser("salient", help="per-salient-point intensity curves")
    _add_common(p)
    p.add_argument(
        "--offset",
        action="append",
        help="body-frame offset 'dx,dy' (repeatable; default 0,0); write one that "
        "starts with '-' as --offset=DX,DY, e.g. --offset=-4,-0.9",
    )
    p.add_argument("--dt", type=_positive, default=0.05, help="grid step, s")
    p.set_defaults(fn=cmd_salient)

    p = sub.add_parser("compare", help="MC, intensity methods, overlap, TTC on one grid")
    _add_common(p, threads=True, n_traj=True)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "dt1") and not args.dt2 < args.dt1:
        parser.error(f"--dt2 ({args.dt2}) must be < --dt1 ({args.dt1})")
    if hasattr(args, "t1") and not 0.0 <= args.t1 <= args.t2 < math.inf:
        parser.error(f"need 0 <= --t1 <= --t2 < inf, got {args.t1} and {args.t2}")
    try:
        started = time.monotonic()
        config, outputs, extra = args.fn(args, _resolve_config(args))
        manifest = {
            "command": args.command,
            "config": config_as_dict(config),
            "seed": config.seed,
            "tool_version": __version__,
            "outputs": outputs,
            "duration_s": round(time.monotonic() - started, 6),
            **extra,
        }
        manifest_path = _output(args, "manifest.json")
        _write_json(manifest_path, manifest)
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
