from collections import Counter

import numpy as np
import pytest

import crossrate
import crossrate.cli
import crossrate.gaussian
import crossrate.intensity
import crossrate.montecarlo
import run
from tracing import Target, Tracer


def bindings():
    """Every binding the traced run must replace, with the original object."""
    intensity = crossrate.intensity
    return {
        "gaussian.condition": (crossrate.gaussian, "condition"),
        "intensity.condition": (intensity, "condition"),
        "crossrate.condition": (crossrate, "condition"),
        "montecarlo.run_campaign": (crossrate.montecarlo, "run_campaign"),
        "cli.run_campaign": (crossrate.cli, "run_campaign"),
        "crossrate.run_campaign": (crossrate, "run_campaign"),
        "intensity.segment_intensity_taylor0": (intensity, "segment_intensity_taylor0"),
        "crossrate.segment_intensity_taylor0": (crossrate, "segment_intensity_taylor0"),
        "intensity._SEGMENT_METHODS[taylor0]": (intensity._SEGMENT_METHODS, "taylor0"),
    }


def lookup(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def test_wrappers_cover_every_binding_and_are_restored():
    originals = {name: lookup(*where) for name, where in bindings().items()}
    targets = run.layer_targets(Counter())
    with Tracer().installed(targets):
        for name, where in bindings().items():
            wrapped = lookup(*where)
            assert wrapped is not originals[name], name
            assert wrapped.__wrapped__ is originals[name], name
    for name, where in bindings().items():
        assert lookup(*where) is originals[name], name


def test_wrappers_are_restored_after_an_exception():
    original = crossrate.gaussian.condition
    with pytest.raises(RuntimeError):
        with Tracer().installed([Target("crossrate.gaussian", "condition", "gaussian.condition")]):
            assert crossrate.intensity.condition is not original
            raise RuntimeError("boom")
    assert crossrate.gaussian.condition is original
    assert crossrate.intensity.condition is original


def _density():
    config = crossrate.preset_config("front", initial_cov=np.diag([0.5, 0.3, 0.2, 0.1, 0.05, 0.05]))
    g0 = crossrate.GaussianDensity(config.initial_mean.as_array(), config.initial_cov)
    return crossrate.predict_density(g0, 2.0, config.model), config.rect


def test_self_time_is_duration_minus_children_and_outputs_match():
    g, rect = _density()
    untraced = crossrate.total_intensity(g, rect, 2.0, "taylor0")
    tracer = Tracer()
    with tracer.installed(run.layer_targets(Counter())):
        traced = crossrate.total_intensity(g, rect, 2.0, "taylor0")
    assert traced == untraced

    by_id = {sid: (name, start, end, parent) for sid, name, start, end, parent in tracer.spans}
    [(top_id, top)] = [(sid, s) for sid, s in by_id.items() if s[0] == "intensity.total_intensity"]
    assert top[3] is None
    segment_spans = [s for s in by_id.values() if s[0] == "intensity.segment_intensity.taylor0"]
    assert len(segment_spans) == 4 and all(s[3] == top_id for s in segment_spans)
    children = sum(s[2] - s[1] for s in by_id.values() if s[3] == top_id)

    totals = tracer.layer_totals()
    calls, self_s = totals["intensity.total_intensity"]
    assert calls == 1
    assert self_s == pytest.approx((top[2] - top[1]) - children, abs=1e-12)
    assert totals["gaussian.condition"][0] == 4
    assert totals["geometry.to_segment_frame"][0] == 4
    assert all(v[1] >= 0.0 for v in totals.values())
