"""Output checks of the benchmark.

Each check returns a list of problems; an empty list means the output is
correct.  The checks run outside the timed region, and an operation whose
output fails a check counts as failed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Closed forms reproduce the reference to rounding; 2D quadrature (and any
# exact replacement of it) is held to the accuracy the quadrature promises.
CLOSED_FORM_RTOL = 1e-9
QUADRATURE_RTOL = 1e-6
METHOD_RTOL = {
    "quadrature": QUADRATURE_RTOL,
    "taylor0": CLOSED_FORM_RTOL,
    "taylor1_inv": CLOSED_FORM_RTOL,
    "taylor1_cov": CLOSED_FORM_RTOL,
}


def identical_files(dir_a: Path, dir_b: Path, names) -> list[str]:
    """Files of the same name must be byte-identical in both directories."""
    problems = []
    for name in names:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        if not a.is_file() or not b.is_file():
            problems.append(f"{name}: missing in {a.parent if not a.is_file() else b.parent}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: {a} and {b} differ")
    return problems


def ttc_histogram(path: Path) -> list[str]:
    """The TTC histogram must hold finite, non-negative rates."""
    if not Path(path).is_file():
        return [f"{path}: missing"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path}: no rows"]
    for row in rows:
        for key in ("front_rate", "right_rate"):
            value = float(row[key])
            if not (math.isfinite(value) and value >= 0.0):
                return [f"{path}: {key}={row[key]} at t={row['bin_start_s']}"]
    return []


def bound_output(exit_code: int, payload: dict | None) -> list[str]:
    """A probability request exits 0 with a finite p_upper >= 0 from >= 2 evaluations."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if payload is None:
        return ["probability.json missing"]
    p = payload.get("p_upper")
    problems = []
    if not isinstance(p, (int, float)) or not math.isfinite(p) or p < 0.0:
        problems.append(f"p_upper={p!r}")
    n = payload.get("evaluations_used")
    if not isinstance(n, int) or n < 2:
        problems.append(f"evaluations_used={n!r}")
    return problems


def read_json(path: Path) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def dense_sane(result: dict) -> list[str]:
    """Every intensity, overlap and bound value is finite and >= 0."""
    series = {f"mu.{m}": v for m, v in result["mu"].items()}
    series["overlap"] = result["overlap"]
    series["p_upper"] = list(result["p_upper"].values())
    problems = []
    for name, values in series.items():
        arr = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            problems.append(f"{name}: non-finite or negative value")
    return problems


def _close(name: str, got, want, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    atol = rtol * float(np.max(np.abs(want), initial=0.0))
    err = np.abs(got - want)
    bad = err > rtol * np.abs(want) + atol
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{name}[{i}]: {float(got.flat[i])!r} != reference {float(want.flat[i])!r} (rtol {rtol:g})"]
    return []


def dense_reference(result: dict, reference: dict) -> list[str]:
    """Curves of an unperturbed preset must match the recorded reference."""
    problems = _close("t", result["t"], reference["t"], CLOSED_FORM_RTOL)
    for method, rtol in METHOD_RTOL.items():
        problems += _close(f"mu.{method}", result["mu"][method], reference["mu"][method], rtol)
        problems += _close(
            f"p_upper.{method}", result["p_upper"][method], reference["p_upper"][method], rtol
        )
    problems += _close("overlap", result["overlap"], reference["overlap"], QUADRATURE_RTOL)
    return problems
