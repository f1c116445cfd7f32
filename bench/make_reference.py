"""Record the dense workload's reference curves for the two presets.

    python3 bench/make_reference.py

Evaluates `workloads.dense_curves` on the unperturbed presets with the
crossrate sources in `src/` and writes `bench/dense_reference.json`, which
the dense workload checks its preset passes against.  Re-record only when
a change is meant to alter these numbers, and say why in that change.
"""
from __future__ import annotations

import json
import sys

from run import SRC, git_commit, ROOT

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> None:
    presets = {}
    for name in workloads.PRESET_NAMES:
        config = workloads.scenario_config({"preset": name})
        g0 = workloads.cr.GaussianDensity(config.initial_mean.as_array(), config.resolve_initial_cov())
        presets[name] = workloads.dense_curves(config, g0)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"commit": git_commit(ROOT), "presets": presets}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
