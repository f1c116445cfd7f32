import copy
import io
import contextlib
import json

import pytest

import checks
import crossrate.cli
import workloads


def test_identical_files_catches_a_changed_byte(tmp_path):
    for threads in (1, 2):
        with contextlib.redirect_stdout(io.StringIO()):
            code = crossrate.cli.main(
                ["simulate", "--preset", "front", "--n-traj", "64", "--seed", "7",
                 "--threads", str(threads), "--out-dir", str(tmp_path / f"t{threads}")]
            )
        assert code == 0
    names = workloads.Oracle.OUTPUT_FILES
    assert checks.identical_files(tmp_path / "t1", tmp_path / "t2", names) == []

    path = tmp_path / "t2" / "statistics.json"
    data = bytearray(path.read_bytes())
    data[data.index(b"n_traj") + 9] ^= 1
    path.write_bytes(bytes(data))
    assert checks.identical_files(tmp_path / "t1", tmp_path / "t2", names)
    path.unlink()
    assert checks.identical_files(tmp_path / "t1", tmp_path / "t2", names)


@pytest.mark.parametrize("bad", ["-0.5", "nan", "inf"])
def test_ttc_histogram_rejects_bad_rates(tmp_path, bad):
    path = tmp_path / "ttc_histogram.csv"
    good = "bin_start_s,bin_mid_s,front_rate,right_rate\n0,0.025,0,0.1\n0.05,0.075,0.2,0\n"
    path.write_text(good)
    assert checks.ttc_histogram(path) == []
    path.write_text(good.replace("0.2", bad))
    assert checks.ttc_histogram(path)
    assert checks.ttc_histogram(tmp_path / "missing.csv")


GOOD_BOUND = {"p_upper": 0.71, "p_capped": 0.71, "evaluations_used": 13, "t1": 0.0, "t2": 8.0}


@pytest.mark.parametrize(
    "code, change",
    [
        (3, {}),
        (0, {"p_upper": float("nan")}),
        (0, {"p_upper": -1e-3}),
        (0, {"p_upper": None}),
        (0, {"evaluations_used": 1}),
    ],
)
def test_bound_output_rejects_corrupted_requests(code, change):
    assert checks.bound_output(0, GOOD_BOUND) == []
    assert checks.bound_output(code, {**GOOD_BOUND, **change})
    assert checks.bound_output(0, None)


@pytest.fixture(scope="module")
def reference():
    with open(workloads.REFERENCE_PATH) as fh:
        return json.load(fh)["presets"]["front"]


def test_dense_checks_accept_the_reference(reference):
    assert checks.dense_sane(reference) == []
    assert checks.dense_reference(copy.deepcopy(reference), reference) == []


@pytest.mark.parametrize(
    "path, rel, fails",
    [
        (("mu", "taylor0"), 1e-7, True),
        (("mu", "taylor1_cov"), 1e-7, True),
        (("mu", "quadrature"), 1e-8, False),
        (("mu", "quadrature"), 1e-4, True),
        (("overlap",), 1e-4, True),
        (("p_upper", "taylor1_inv"), 1e-7, True),
    ],
)
def test_dense_reference_rejects_a_shifted_value(reference, path, rel, fails):
    result = copy.deepcopy(reference)
    holder = result
    for key in path[:-1]:
        holder = holder[key]
    values = holder[path[-1]]
    if isinstance(values, list):
        i = max(range(len(values)), key=lambda j: values[j])
        values[i] *= 1.0 + rel
    else:
        holder[path[-1]] = values * (1.0 + rel)
    assert bool(checks.dense_reference(result, reference)) is fails


@pytest.mark.parametrize("bad", [float("nan"), -1e-6])
def test_dense_sane_rejects_bad_values(reference, bad):
    result = copy.deepcopy(reference)
    result["mu"]["taylor1_inv"][40] = bad
    assert checks.dense_sane(result)
    result = copy.deepcopy(reference)
    result["overlap"][3] = bad
    assert checks.dense_sane(result)
