"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in `setup()` and
then runs numbered passes.  A pass times its calls into crossrate, then
checks their outputs outside the timed region; an operation that exits
non-zero, raises, or fails a check counts as failed.  Pass `i` always
runs the same inputs, so a traced pass can be compared with an untraced
one.

- `oracle`: CLI `simulate` on both presets at one thread and at
  `threads_par` threads, then CLI `ttc`.  Monte-Carlo does nearly all
  the work; the analytic layers are idle.
- `bounds`: a closed loop with one client.  Each pass is one CLI
  `probability --adaptive --method taylor0` request on its own seeded
  YAML scenario.  Fixed cost per request (Riccati, YAML, Gaussian
  conditioning, ~13 adaptive evaluations) dominates; quadrature and MC
  are idle.
- `dense`: the analytic half of `crossrate compare` through library
  calls, on one scenario per pass: first the two presets, checked against
  a recorded reference, then seeded perturbed copies.  Quadrature
  dominates; MC, YAML and Riccati (done in set-up) are negligible.

Crossrate functions are always looked up through their module at call
time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import crossrate as cr
import crossrate.cli
import crossrate.intensity
import crossrate.scenarios
from crossrate.probability import RateCurve

import checks

PRESET_NAMES = ("front", "front-right")
HORIZON = 8.0
DENSE_DT = 0.05
REFERENCE_PATH = Path(__file__).resolve().parent / "dense_reference.json"

# Half-widths of the uniform perturbation of the target state around a
# preset mean (m, m, m/s, m/s, m/s^2, m/s^2): small enough that every
# perturbed scenario still crosses the host rectangle within the horizon.
_MEAN_SPREAD = (1.0, 0.5, 0.2, 0.2, 0.05, 0.05)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclasses.dataclass
class Pass:
    """Timings, counts and outputs of one pass."""

    seconds: float  # timed wall time of the pass's calls
    attempted: int
    failed: int
    work: float  # work units done in work_seconds
    work_seconds: float
    outputs: object  # compared between untraced and traced passes
    problems: list[str]
    extra: dict = dataclasses.field(default_factory=dict)


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run `crossrate.cli.main(argv)`; return exit code, seconds, captured text."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = crossrate.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            code = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, seconds, sink.getvalue()


def draw_scenario(rng: np.random.Generator, index: int) -> dict:
    """Config overrides for one perturbed scenario (alternating presets).

    The jerk PSD is drawn between the two presets' values.
    """
    preset = PRESET_NAMES[index % len(PRESET_NAMES)]
    raw = crossrate.scenarios.PRESETS
    base = raw[preset]["scenario"]["initial_mean"]
    qs = [raw[p]["model"]["qx"] for p in PRESET_NAMES]
    mean = [float(m + rng.uniform(-h, h)) for m, h in zip(base, _MEAN_SPREAD)]
    q = float(rng.uniform(min(qs), max(qs)))
    return {"preset": preset, "scenario": {"initial_mean": mean}, "model": {"qx": q, "qy": q}}


def scenario_config(raw: dict):
    """The ScenarioConfig that `load_config` builds from `raw` written as YAML."""
    config = cr.preset_config(raw["preset"])
    if "scenario" not in raw:
        return config
    model = dataclasses.replace(config.model, qx=raw["model"]["qx"], qy=raw["model"]["qy"])
    mean = cr.StateVector(*raw["scenario"]["initial_mean"])
    return dataclasses.replace(config, initial_mean=mean, model=model)


RATE_WINDOW_S = 3.0


def windowed_rate(samples) -> float:
    """Median over consecutive windows of >= RATE_WINDOW_S timed seconds of
    work per second; `samples` are (work, seconds) pairs in run order.

    A median of windows, unlike one overall ratio, is not pulled by a few
    seconds in which the shared host ran unusually fast or slow.
    """
    windows: list[list[float]] = []
    for work, seconds in samples:
        if not windows or windows[-1][1] >= RATE_WINDOW_S:
            windows.append([0.0, 0.0])
        windows[-1][0] += work
        windows[-1][1] += seconds
    if len(windows) > 1 and windows[-1][1] < RATE_WINDOW_S:
        work, seconds = windows.pop()
        windows[-1][0] += work
        windows[-1][1] += seconds
    return statistics.median(work / seconds for work, seconds in windows)


class Workload:
    name = ""
    work_unit = ""  # what work_per_s counts
    work_metric = ""  # the workload-specific name work_per_s is also printed under
    trace_passes = 1  # passes in the fixed traced workload

    def __init__(self, seed: int, threads_par: int):
        self.seed = seed
        self.threads_par = threads_par

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self, out: Path) -> None:
        """Run each code path once on throw-away inputs, untimed."""
        raise NotImplementedError

    def run_pass(self, index: int, out: Path) -> Pass:
        raise NotImplementedError

    def report(self, passes: list[Pass]) -> dict[str, tuple[float, str, str]]:
        """Workload-specific metrics besides work_per_s: name -> (value, unit, note)."""
        return {}


class Oracle(Workload):
    name = "oracle"
    work_unit = "trajectories simulated at one thread"
    work_metric = "mc_traj_per_s"
    N_TRAJ = 8192  # two 4096-trajectory batches, so the parallel path has work to share
    OUTPUT_FILES = ("histogram.csv", "statistics.json")
    TTC_FILES = ("ttc_histogram.csv", "ttc_seeds.json")

    def setup(self) -> None:
        # The campaigns run the presets by name; set-up validates them and
        # solves their Riccati covariances once.
        for preset in PRESET_NAMES:
            cr.preset_config(preset).resolve_initial_cov()

    def warm_up(self, out: Path) -> None:
        for argv in (
            ["simulate", "--preset", "front", "--n-traj", "64", "--threads", str(self.threads_par)],
            ["ttc", "--preset", "front-right", "--n-traj", "64"],
        ):
            call_cli(argv + ["--seed", "0", "--out-dir", str(out / "warm-up")])

    def mc_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, 3, index]).generate_state(1)[0] >> 1)

    def run_pass(self, index: int, out: Path) -> Pass:
        out = out / f"pass{index}"
        shutil.rmtree(out, ignore_errors=True)
        seed = str(self.mc_seed(index))
        n = str(self.N_TRAJ)
        times: dict[tuple[str, int], float] = {}
        codes: dict[tuple[str, int], int] = {}
        problems = []
        for threads in (1, self.threads_par):
            for preset in PRESET_NAMES:
                code, sec, text = call_cli(
                    ["simulate", "--preset", preset, "--n-traj", n, "--threads", str(threads),
                     "--seed", seed, "--out-dir", str(out / f"{preset}-t{threads}")]
                )
                times[preset, threads], codes[preset, threads] = sec, code
                if code != 0:
                    problems.append(f"simulate {preset} --threads {threads}: exit {code}: {text[-300:]}")
        code, ttc_sec, text = call_cli(
            ["ttc", "--preset", "front-right", "--n-traj", n, "--seed", seed, "--out-dir", str(out / "ttc")]
        )
        failed = sum(c != 0 for c in codes.values())
        if code != 0:
            problems.append(f"ttc: exit {code}: {text[-300:]}")
            failed += 1
        else:
            ttc_problems = checks.ttc_histogram(out / "ttc" / "ttc_histogram.csv")
            problems += ttc_problems
            failed += bool(ttc_problems)
        for preset in PRESET_NAMES:
            if codes[preset, 1] == 0 and codes[preset, self.threads_par] == 0:
                diff = checks.identical_files(
                    out / f"{preset}-t1", out / f"{preset}-t{self.threads_par}", self.OUTPUT_FILES
                )
                problems += diff
                failed += bool(diff)
        outputs = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.name in self.OUTPUT_FILES + self.TTC_FILES
        }
        serial = sum(times[p, 1] for p in PRESET_NAMES)
        par = sum(times[p, self.threads_par] for p in PRESET_NAMES)
        return Pass(
            seconds=serial + par + ttc_sec,
            attempted=2 * len(PRESET_NAMES) + 1,
            failed=failed,
            work=len(PRESET_NAMES) * self.N_TRAJ,
            work_seconds=serial,
            outputs=outputs,
            problems=problems,
            extra={"par_seconds": par},
        )

    def report(self, passes):
        traj = sum(p.work for p in passes)
        return {
            "mc_traj_per_s_par": (
                windowed_rate((p.work, p.extra["par_seconds"]) for p in passes), "1/s",
                f"{int(traj)} trajectories at --threads {self.threads_par}",
            ),
        }


class Bounds(Workload):
    name = "bounds"
    work_unit = "probability requests"
    work_metric = "bounds_per_s"
    N_SCENARIOS = 1024  # requests beyond this many reuse the scenarios in order
    trace_passes = 64

    def setup(self) -> None:
        # Config files are rendered here and written to disk just before
        # their request, outside the timed region: file-system latency on a
        # shared disk is not part of the program.
        rng = np.random.default_rng([self.seed, 1])
        self.texts = [
            yaml.dump(draw_scenario(rng, i), Dumper=_DUMPER) for i in range(self.N_SCENARIOS)
        ]

    def warm_up(self, out: Path) -> None:
        self.run_pass(self.N_SCENARIOS - 1, out / "warm-up")

    def run_pass(self, index: int, out: Path) -> Pass:
        out = out / "bounds"
        out.mkdir(parents=True, exist_ok=True)
        result = out / "probability.json"
        result.unlink(missing_ok=True)
        config = out / "scenario.yaml"
        config.write_text(self.texts[index % self.N_SCENARIOS])
        code, sec, text = call_cli(
            ["probability", "--config", str(config), "--adaptive",
             "--method", "taylor0", "--t2", str(HORIZON), "--out-dir", str(out)]
        )
        payload = checks.read_json(result) if code == 0 else None
        problems = checks.bound_output(code, payload)
        if problems:
            problems = [f"request {index}: {'; '.join(problems)} {text[-300:]}"]
        return Pass(
            seconds=sec, attempted=1, failed=bool(problems), work=1, work_seconds=sec,
            outputs=payload, problems=problems,
        )

    def report(self, passes):
        ms = [1e3 * p.seconds for p in passes]
        n = len(ms)
        out = {
            "bound_p50_ms": (statistics.median(ms), "ms", f"n={n}"),
        }
        if n >= 200:  # at least ten samples beyond the 95th percentile
            out["bound_p95_ms"] = (statistics.quantiles(ms, n=100)[94], "ms", f"n={n}")
        return out


def dense_curves(config, g0) -> dict:
    """Analytic half of `crossrate compare` on the dense grid over the horizon."""
    ts = [round(float(t), 12) for t in np.arange(0.0, config.horizon + 1e-12, DENSE_DT)]
    densities = [cr.predict_density(g0, t, config.model) for t in ts]
    curves = {
        m: RateCurve(
            tuple(cr.total_intensity(g, config.rect, t, m) for g, t in zip(densities, ts)),
            0.0, config.horizon,
        )
        for m in crossrate.intensity.METHODS
    }
    overlap = [cr.spatial_overlap_probability(g, config.rect) for g in densities]
    p_upper = {m: cr.integrate_intensity(c, 0.0, config.horizon).p_upper for m, c in curves.items()}
    return {
        "t": ts,
        "mu": {m: [s.mu_plus for s in c.samples] for m, c in curves.items()},
        "overlap": overlap,
        "p_upper": p_upper,
    }


class Dense(Workload):
    """Each pass is one pair of scenarios, a `front` and a `front-right` one,
    so that every pass costs about the same: pass 0 is the unperturbed
    presets, later passes are seeded perturbed copies."""

    name = "dense"
    work_unit = "grid points (4 methods + overlap each)"
    work_metric = "dense_points_per_s"
    N_PAIRS = 6  # pairs of scenarios, presets included; passes cycle through them
    trace_passes = 2

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        raws = [{"preset": p} for p in PRESET_NAMES]
        raws += [draw_scenario(rng, i) for i in range(2 * self.N_PAIRS - 2)]
        self.scenarios = []
        for raw in raws:
            config = scenario_config(raw)
            g0 = cr.GaussianDensity(config.initial_mean.as_array(), config.resolve_initial_cov())
            self.scenarios.append((raw, config, g0))
        with open(REFERENCE_PATH) as fh:
            self.reference = json.load(fh)["presets"]

    def warm_up(self, out: Path) -> None:
        _raw, config, g0 = self.scenarios[-1]
        dense_curves(dataclasses.replace(config, horizon=0.1), g0)

    def run_pass(self, index: int, out: Path) -> Pass:
        first = 2 * (index % self.N_PAIRS)
        seconds, points, failed, problems, outputs = 0.0, 0, 0, [], []
        for k in (first, first + 1):
            raw, config, g0 = self.scenarios[k]
            start = time.perf_counter()
            try:
                result = dense_curves(config, g0)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                seconds += time.perf_counter() - start
                result, found = None, [repr(exc)]
            else:
                seconds += time.perf_counter() - start
                found = checks.dense_sane(result)
                if "scenario" not in raw:
                    found += checks.dense_reference(result, self.reference[raw["preset"]])
                points += len(result["t"])
            failed += bool(found)
            problems += [f"scenario {k} ({raw['preset']}): {p}" for p in found]
            outputs.append(result)
        return Pass(
            seconds=seconds, attempted=2, failed=failed, work=points,
            work_seconds=seconds, outputs=outputs, problems=problems,
        )

WORKLOADS = {cls.name: cls for cls in (Oracle, Bounds, Dense)}
