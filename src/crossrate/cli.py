"""Command-line surface: run campaigns and analyses, emit CSV/JSON tables.

Every run writes a manifest JSON next to its data files recording the
fully resolved configuration, seed, tool version, output paths, and
wall-clock duration, so any output can be reproduced from its manifest
alone.  All CSV numbers use locale-independent formatting with 9
significant digits.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure, 4 I/O.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import SalientOffset, predict_density, salient_transform_density
from .errors import ConfigError, NumericsError
from .gaussian import GaussianDensity
from .geometry import SEGMENT_ORDER
from .intensity import METHODS, total_intensity
from .montecarlo import run_campaign, ttc_monte_carlo
from .probability import (
    adaptive_sample,
    deterministic_ttc_seeds,
    integrate_intensity,
    spatial_overlap_probability,
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


def _predicted_density_evaluator(config: ScenarioConfig, method: str):
    g0 = GaussianDensity(config.initial_mean.as_array(), config.resolve_initial_cov())

    def ev(t: float):
        return total_intensity(
            predict_density(g0, float(t), config.model), config.rect, float(t), method
        )

    return ev


def _manifest(args, config, outputs: dict[str, str], started: float, extra=None) -> dict:
    payload = {
        "command": args.command,
        "config": config_as_dict(config),
        "seed": config.seed,
        "tool_version": __version__,
        "outputs": outputs,
        "duration_s": round(time.monotonic() - started, 6),
    }
    if extra:
        payload.update(extra)
    return payload


def _curve_rows(curve: RateCurve):
    for s in curve.samples:
        yield [s.t, s.mu_plus] + [s.per_segment.get(n, 0.0) for n in SEGMENT_ORDER]


_CURVE_HEADER = ["t_s", "mu_total", "mu_front", "mu_right", "mu_left", "mu_rear"]


def _dense_curve(config: ScenarioConfig, method: str, dt: float, horizon: float):
    ev = _predicted_density_evaluator(config, method)
    ts = np.arange(0.0, horizon + 1e-12, dt)
    return RateCurve(tuple(ev(round(float(t), 12)) for t in ts), 0.0, horizon)


def _adaptive_curve(config: ScenarioConfig, method: str, args, horizon: float):
    ev = _predicted_density_evaluator(config, method)
    seeds = deterministic_ttc_seeds(config.initial_mean, config.rect)
    return adaptive_sample(
        ev, seeds, args.dt1, args.dt2, args.rate_floor, (0.0, horizon)
    )


def cmd_simulate(args) -> int:
    started = time.monotonic()
    config = _resolve_config(args)
    result = run_campaign(config, threads=args.threads)
    hist = result.histogram
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cumulative = hist.integrated_probability()
    rows = []
    for i in range(len(hist.bin_edges) - 1):
        row = [hist.bin_edges[i], hist.bin_mid[i]]
        row.append(hist.first_entry_rate("total")[i])
        row.extend(hist.first_entry_rate(n)[i] for n in SEGMENT_ORDER)
        row.append(hist.all_entry_rate("total")[i])
        row.extend(hist.all_entry_rate(n)[i] for n in SEGMENT_ORDER)
        row.append(cumulative[i])
        rows.append(row)
    header = (
        ["bin_start_s", "bin_mid_s", "first_entry_rate_total"]
        + [f"first_entry_rate_{n}" for n in SEGMENT_ORDER]
        + ["all_entry_rate_total"]
        + [f"all_entry_rate_{n}" for n in SEGMENT_ORDER]
        + ["integrated_probability"]
    )
    hist_path = out / "histogram.csv"
    _write_csv(hist_path, header, rows)

    stats_path = out / "statistics.json"
    _write_json(stats_path, result.entry_stats)

    manifest_path = out / "manifest.json"
    _write_json(
        manifest_path,
        _manifest(
            args,
            config,
            {"histogram": str(hist_path), "statistics": str(stats_path)},
            started,
        ),
    )
    print(f"wrote {hist_path}, {stats_path}, {manifest_path}")
    return 0


def cmd_intensity(args) -> int:
    started = time.monotonic()
    config = _resolve_config(args)
    horizon = args.horizon if args.horizon is not None else config.horizon
    if args.adaptive:
        curve = _adaptive_curve(config, args.method, args, horizon)
    else:
        curve = _dense_curve(config, args.method, args.dt, horizon)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "intensity.csv"
    _write_csv(
        curve_path,
        _CURVE_HEADER + ["method"],
        ([*row, args.method] for row in _curve_rows(curve)),
    )
    extra = {"evaluations_used": curve.evaluations} if args.adaptive else None
    manifest_path = out / "manifest.json"
    _write_json(
        manifest_path,
        _manifest(args, config, {"intensity": str(curve_path)}, started, extra),
    )
    print(f"wrote {curve_path}, {manifest_path}")
    return 0


def cmd_probability(args) -> int:
    started = time.monotonic()
    config = _resolve_config(args)
    horizon = max(args.t2, config.horizon)
    if args.adaptive:
        curve = _adaptive_curve(config, args.method, args, horizon)
        lo = max(args.t1, curve.samples[0].t)
        hi = min(args.t2, curve.samples[-1].t)
        if lo > hi:
            lo = hi = curve.samples[0].t
        bound = integrate_intensity(curve, lo, hi)
    else:
        curve = _dense_curve(config, args.method, args.dt, horizon)
        bound = integrate_intensity(curve, args.t1, args.t2)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bound_path = out / "probability.json"
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
    manifest_path = out / "manifest.json"
    _write_json(
        manifest_path,
        _manifest(args, config, {"probability": str(bound_path)}, started),
    )
    print(f"wrote {bound_path}, {manifest_path}")
    return 0


def cmd_ttc(args) -> int:
    started = time.monotonic()
    config = _resolve_config(args)
    if config.model.input_enabled or config.model.qx > 0.0 or config.model.qy > 0.0:
        # the TTC study propagates each draw deterministically; keep the
        # filter-derived initial spread but zero the trajectory noise
        cov = config.resolve_initial_cov()
        config = dataclasses.replace(
            config,
            initial_cov=cov,
            model=dataclasses.replace(
                config.model, qx=0.0, qy=0.0, input_enabled=False
            ),
        )
    result = ttc_monte_carlo(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges = result["bin_edges"]
    rows = (
        [edges[i], 0.5 * (edges[i] + edges[i + 1]), result["front_rate"][i], result["right_rate"][i]]
        for i in range(len(edges) - 1)
    )
    hist_path = out / "ttc_histogram.csv"
    _write_csv(hist_path, ["bin_start_s", "bin_mid_s", "front_rate", "right_rate"], rows)

    seeds = deterministic_ttc_seeds(config.initial_mean, config.rect)
    seeds_path = out / "ttc_seeds.json"
    _write_json(
        seeds_path,
        {"seeds": [{"segment": name, "t_s": t} for name, t in seeds]},
    )
    manifest_path = out / "manifest.json"
    _write_json(
        manifest_path,
        _manifest(
            args,
            config,
            {"ttc_histogram": str(hist_path), "ttc_seeds": str(seeds_path)},
            started,
        ),
    )
    print(f"wrote {hist_path}, {seeds_path}, {manifest_path}")
    return 0


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


def cmd_salient(args) -> int:
    started = time.monotonic()
    config = _resolve_config(args)
    offsets = _parse_offsets(args.offset or ["0,0"])
    g0 = GaussianDensity(config.initial_mean.as_array(), config.resolve_initial_cov())
    ts = np.arange(0.0, config.horizon + 1e-12, args.dt)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for idx, off in enumerate(offsets):
        rows = []
        for t in ts:
            t = round(float(t), 12)
            g_t = predict_density(g0, t, config.model)
            g_s = salient_transform_density(g_t, off, config.model, t)
            row = [t]
            for method in METHODS:
                row.append(total_intensity(g_s, config.rect, t, method).mu_plus)
            rows.append(row)
        path = out / f"salient_{idx}.csv"
        _write_csv(path, ["t_s"] + [f"mu_total_{m}" for m in METHODS], rows)
        outputs[f"salient_{idx}"] = str(path)
    manifest_path = out / "manifest.json"
    _write_json(
        manifest_path,
        _manifest(
            args,
            config,
            outputs,
            started,
            {"offsets": [[o.dx_body, o.dy_body] for o in offsets]},
        ),
    )
    print(f"wrote {', '.join(outputs.values())}, {manifest_path}")
    return 0


def cmd_compare(args) -> int:
    started = time.monotonic()
    config = _resolve_config(args)
    result = run_campaign(config, threads=args.threads)
    hist = result.histogram
    mids = hist.bin_mid
    g0 = GaussianDensity(config.initial_mean.as_array(), config.resolve_initial_cov())

    curves = {m: [] for m in METHODS}
    overlap = []
    for t in mids:
        t = round(float(t), 12)
        g_t = predict_density(g0, t, config.model)
        for m in METHODS:
            curves[m].append(total_intensity(g_t, config.rect, t, m).mu_plus)
        overlap.append(spatial_overlap_probability(g_t, config.rect))

    ttc_config = dataclasses.replace(
        config,
        initial_cov=config.resolve_initial_cov(),
        model=dataclasses.replace(config.model, qx=0.0, qy=0.0, input_enabled=False),
    )
    ttc = ttc_monte_carlo(ttc_config)

    rows = []
    for i, t in enumerate(mids):
        rows.append(
            [
                t,
                hist.first_entry_rate("total")[i],
                *(curves[m][i] for m in METHODS),
                overlap[i],
                ttc["front_rate"][i],
                ttc["right_rate"][i],
            ]
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "compare.csv"
    _write_csv(
        path,
        ["t_s", "mc_first_entry_rate"]
        + [f"mu_{m}" for m in METHODS]
        + ["spatial_overlap", "ttc_front_rate", "ttc_right_rate"],
        rows,
    )
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, _manifest(args, config, {"compare": str(path)}, started))
    print(f"wrote {path}, {manifest_path}")
    return 0


def _add_common(p: argparse.ArgumentParser, threads=False, n_traj=False):
    p.add_argument("--config", help="YAML scenario configuration file")
    p.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in named scenario"
    )
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument(
        "--seed", type=int, help="campaign seed (falls back to CROSSRATE_SEED)"
    )
    if threads:
        p.add_argument("--threads", type=int, default=1, help="worker threads")
    if n_traj:
        p.add_argument("--n-traj", type=int, dest="n_traj", help="trajectory count")


def _add_curve_flags(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=METHODS, default="quadrature")
    p.add_argument("--dt", type=float, default=0.05, help="dense grid step, s")
    p.add_argument("--adaptive", action="store_true", help="adaptive sampling")
    p.add_argument("--dt1", type=float, default=0.5, help="adaptive coarse step, s")
    p.add_argument("--dt2", type=float, default=0.2, help="adaptive refine step, s")
    p.add_argument(
        "--rate-floor", type=float, default=0.01, help="adaptive stop intensity, 1/s"
    )
    p.add_argument("--horizon", type=float, help="override curve horizon, s")


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
        help="body-frame offset 'dx,dy' (repeatable; default 0,0)",
    )
    p.add_argument("--dt", type=float, default=0.05, help="grid step, s")
    p.set_defaults(fn=cmd_salient)

    p = sub.add_parser("compare", help="MC, intensity methods, overlap, TTC on one grid")
    _add_common(p, threads=True, n_traj=True)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
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
