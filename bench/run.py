"""Benchmark of crossrate: the bound pipeline and the Monte-Carlo oracle.

Run from the root of a crossrate checkout:

    python3 bench/run.py --workload {oracle,bounds,dense} --seed N --seconds S --trace {0,1}

It imports crossrate from the checkout's `src/` (and refuses to run
without it), sets the workload up five times (`setup_s` is the median),
and then:

- with `--trace 0`, runs passes of the workload for about S seconds and
  reports the end-to-end metrics listed in BENCHMARK.json;
- with `--trace 1`, runs a fixed number of passes untraced, then the same
  passes again with timing wrappers on crossrate's public functions
  (see `tracing.py`), checks that both give the same outputs, and reports
  per-layer calls and self time, counters, and the tracing overhead.

Outputs are checked outside the timed region (see `checks.py`).  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give the same
metrics with units, the workload-specific metrics and the environment.
Every result, with its environment, is also written to `.bench_out/`.
Scratch files go to `.bench_work/` and are removed at exit.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3  # so that a median pass time is never a mean of two


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_run(wl, seconds: float, out: Path):
    """Run at least MIN_PASSES passes, then stop when the next one would end
    more than half a pass after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(len(passes), out))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 0.5) / len(passes) > seconds:
            return passes


def layer_targets(counters: dict):
    """Public functions to trace, with the span name of each."""

    def campaign_span(args, kwargs):
        threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
        return "montecarlo.run_campaign." + ("parallel" if threads > 1 else "serial")

    def observe_campaign(result, args, kwargs, seconds):
        config = args[0]
        kind = campaign_span(args, kwargs).rsplit(".", 1)[1]
        counters[f"traj_steps.{kind}"] += config.n_traj * config.n_steps
        counters[f"campaign_s.{kind}"] += seconds
        counters["entries"] += int(result.histogram.all_entry_counts["total"].sum())

    def observe_adaptive(result, args, kwargs, seconds):
        counters["curves"] += 1
        counters["curve_evals"] += result.evaluations

    targets = [
        Target("crossrate.intensity", f"segment_intensity_{m}", f"intensity.segment_intensity.{m}")
        for m in ("quadrature", "taylor0", "taylor1_inv", "taylor1_cov")
    ]
    for module, name in (
        ("intensity", "total_intensity"),
        ("gaussian", "marginalize"),
        ("gaussian", "condition"),
        ("geometry", "to_segment_frame"),
        ("dynamics", "steady_state_covariance"),
        ("dynamics", "predict_density"),
        ("probability", "spatial_overlap_probability"),
        ("probability", "integrate_intensity"),
        ("montecarlo", "ttc_monte_carlo"),
        ("scenarios", "load_config"),
        ("cli", "main"),
    ):
        targets.append(Target(f"crossrate.{module}", name, f"{module}.{name}"))
    targets.append(
        Target("crossrate.probability", "adaptive_sample", "probability.adaptive_sample", observe_adaptive)
    )
    targets.append(Target("crossrate.montecarlo", "run_campaign", campaign_span, observe_campaign))
    return targets


def traced_run(wl, out: Path, trace_path: Path):
    """Fixed passes untraced, then traced; per-layer metrics and problems."""
    import crossrate.intensity

    n = wl.trace_passes
    untraced = [wl.run_pass(i, out / "untraced") for i in range(n)]
    counters = Counter()
    targets = layer_targets(counters)
    tracer = Tracer()
    clamps_before = crossrate.intensity.clamp_count()
    with tracer.installed(targets):
        traced = [wl.run_pass(i, out / "traced") for i in range(n)]
    clamps = crossrate.intensity.clamp_count() - clamps_before
    tracer.write(trace_path)

    problems = [p for ps in untraced + traced for p in ps.problems]
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if a.outputs != b.outputs:
            problems.append(f"pass {i}: traced output differs from untraced output")

    totals = tracer.layer_totals()
    metrics = {}
    for target in targets:
        names = (
            [target.span]
            if isinstance(target.span, str)
            else [f"montecarlo.run_campaign.{k}" for k in ("serial", "parallel")]
        )
        for name in names:
            calls, self_s = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
    taylor = sum(
        totals.get(f"intensity.segment_intensity.{m}", (0, 0.0))[0]
        for m in ("taylor0", "taylor1_inv", "taylor1_cov")
    )
    metrics["intensity.clamp_count"] = (clamps, "count")
    metrics["intensity.clamp_ratio"] = (clamps / taylor if taylor else 0.0, "ratio")
    metrics["probability.adaptive_sample.evals_per_curve"] = (
        counters["curve_evals"] / counters["curves"] if counters["curves"] else 0.0, "count"
    )
    for kind in ("serial", "parallel"):
        secs = counters[f"campaign_s.{kind}"]
        metrics[f"montecarlo.traj_steps_per_s.{kind}"] = (
            counters[f"traj_steps.{kind}"] / secs if secs else 0.0, "1/s"
        )
    metrics["montecarlo.entries"] = (counters["entries"], "count")
    metrics["trace.overhead_s"] = (
        sum(p.seconds for p in traced) - sum(p.seconds for p in untraced), "s"
    )
    notes = []
    if not taylor:
        notes.append("intensity.clamp_ratio: no Taylor evaluations in this workload")
    if not counters["curves"]:
        notes.append("probability.adaptive_sample.evals_per_curve: no adaptive curves in this workload")
    for kind in ("serial", "parallel"):
        if not counters[f"campaign_s.{kind}"]:
            notes.append(f"montecarlo.traj_steps_per_s.{kind}: no {kind} campaigns in this workload")
    return untraced + traced, metrics, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "bounds", "dense"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "crossrate" / "__init__.py").is_file():
        print(f"error: no crossrate sources at {SRC}; run inside a crossrate checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crossrate

    if Path(crossrate.__file__).resolve().parent != (SRC / "crossrate").resolve():
        print(f"error: imported crossrate from {crossrate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import RATE_WINDOW_S, WORKLOADS, windowed_rate

    env = environment()
    threads_par = min(2, os.cpu_count() or 1)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[args.workload](args.seed, threads_par)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        wl.warm_up(work / "out")
        if args.trace:
            passes, metrics, problems, notes = traced_run(wl, work / "out", results / f"{tag}-spans.json")
            extra = {}
        else:
            passes = measured_run(wl, args.seconds, work / "out")
            problems = [p for ps in passes for p in ps.problems]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.median(p.seconds for p in passes), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "work_per_s": (windowed_rate((p.work, p.work_seconds) for p in passes), "1/s"),
            }
            extra = {
                wl.work_metric: (*metrics["work_per_s"], f"{sum(p.work for p in passes):g} {wl.work_unit}"),
                **wl.report(passes),
            }
            notes = [
                f"wall_s: median timed seconds of {len(passes)} passes",
                f"work_per_s: {wl.work_unit} per timed second, median of "
                f"{RATE_WINDOW_S:g} s windows",
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results.mkdir(exist_ok=True)
    with open(results / f"{tag}.json", "w") as fh:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "threads_par": threads_par, "environment": env,
                "setup_runs_s": setups, "passes": len(passes), "problems": problems,
                "notes": notes,
                "workload_metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in extra.items()},
                "failed_ratio": failed / attempted,
                **summary,
            },
            fh, indent=1,
        )

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit, note) in extra.items():
        print(f"  {name} = {value:.6g} {unit} ({note})")
    for note in notes:
        print(f"  note: {note}")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
