"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload oracle --seeds 1 2 3 4 5

Runs `bench/run.py` once per seed, one run at a time, with the settings
in BENCHMARK.json.  For each end-to-end metric it prints the median, the
quartiles as `statistics.quantiles(values, n=4)` gives them, and the
spread (q3 - q1) / median next to the metric's bound.  A metric is steady
when its spread stays below a third of its bound.  The values of every
run are written to `.bench_out/spread-<workload>.json`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    out = ROOT / ".bench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:>14}: median {med:.6g} {metric['unit']}, q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.4f} (bound {metric['bound']}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
