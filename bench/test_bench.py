"""Self-tests of the benchmark. Run with:

    python3 -m pytest -q bench/test_bench.py

They check the benchmark, not covspec: that its correctness checks reject a
wrong output and admit solver-level differences, that inputs follow the
seed, that every metric in BENCHMARK.json is printed with its unit, and that
the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _write_predict(out_dir, pred):
    """A predict output directory in covspec's format, from stored arrays."""
    os.makedirs(out_dir, exist_ok=True)
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    with open(os.path.join(out_dir, "delta.csv"), "w") as handle:
        handle.write("z,class_index,delta_prime,residual,iterations\n")
        for z, deltas in zip(pred["z"], pred["delta_prime"]):
            for l, d in enumerate(deltas):
                handle.write(f"{fmt(z)},{l},{fmt(d)},0,1\n")
    with open(os.path.join(out_dir, "stieltjes.csv"), "w") as handle:
        handle.write("z,m_pred\n")
        for z, m in zip(pred["z"], pred["m_pred"]):
            handle.write(f"{fmt(z)},{fmt(m)}\n")
    with open(os.path.join(out_dir, "density.csv"), "w") as handle:
        handle.write(f"# atom_at_zero = {fmt(pred['atom_at_zero'])}\n")
        handle.write("lambda,density,converged\n")
        for lam, den in zip(pred["lambda"], pred["density"]):
            handle.write(f"{fmt(lam)},{fmt(den)},1\n")


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def test_reference_output_passes(tmp_path, reference):
    for label, pred in reference.items():
        _write_predict(tmp_path / label, pred)
        assert checks.check_predict(str(tmp_path / label), 0, pred) == []


@pytest.mark.parametrize("label", ["readme", "three"])
def test_check_rejects_density_perturbed_by_1e_3(tmp_path, reference, label):
    pred = reference[label]
    relative = dict(pred, density=[d * (1.0 + 1e-3) for d in pred["density"]])
    _write_predict(tmp_path / "rel", relative)
    assert checks.check_predict(str(tmp_path / "rel"), 0, pred)
    peak = int(np.argmax(pred["density"]))
    absolute = dict(pred, density=list(pred["density"]))
    absolute["density"][peak] += 1e-3
    _write_predict(tmp_path / "abs", absolute)
    assert checks.check_predict(str(tmp_path / "abs"), 0, pred)


@pytest.mark.parametrize("label", ["readme", "three"])
def test_check_rejects_one_small_entry_perturbed_by_1e_3(tmp_path, reference,
                                                         label):
    """Entries far below the array's peak are checked to their own size: the
    density's high-lambda tail and m_pred at the largest z."""
    pred = reference[label]
    tail = dict(pred, density=list(pred["density"]))
    tail["density"][-1] *= 1.0 + 1e-3
    assert tail["density"][-1] < 1e-3 * max(pred["density"])
    _write_predict(tmp_path / "tail", tail)
    assert checks.check_predict(str(tmp_path / "tail"), 0, pred)
    far = dict(pred, m_pred=list(pred["m_pred"]))
    far["m_pred"][-1] *= 1.0 + 1e-3
    _write_predict(tmp_path / "far", far)
    assert checks.check_predict(str(tmp_path / "far"), 0, pred)


def test_check_admits_solver_level_differences(tmp_path, reference):
    pred = reference["readme"]
    moved = dict(pred, density=[d * (1.0 + 1e-9) for d in pred["density"]],
                 m_pred=[m * (1.0 - 1e-9) for m in pred["m_pred"]])
    _write_predict(tmp_path, moved)
    assert checks.check_predict(str(tmp_path), 0, pred) == []


def test_check_rejects_unconverged_and_negative(tmp_path, reference):
    pred = reference["readme"]
    _write_predict(tmp_path, dict(pred, density=[-1.0] + pred["density"][1:]))
    assert checks.check_predict(str(tmp_path), 0, pred)
    assert checks.check_predict(str(tmp_path), 1, pred) == ["exit code 1"]


def _toeplitz_moments(p):
    """T(0.1), 10 T(0.1) and 10 T(0.1)^2, as covspec builds them."""
    idx = np.arange(p)
    base = 0.1 ** (np.abs(idx[:, None] - idx[None, :]) + 1.0)
    square = 10.0 * np.linalg.matrix_power(base, 2)
    return base, 10.0 * base, (square + square.T) / 2.0


def _oracle_inputs(label, ref):
    """(moments, n_l per class, epsilon) of a predict-spectral config."""
    if label == "readme":
        base, scaled, square = _toeplitz_moments(500)
        return base, [square, scaled], [450, 50], 3e-4
    base, scaled, square = _toeplitz_moments(600)
    epsilon = 1e-3 * (ref["lambda"][-1] - ref["lambda"][0])
    return base, [np.eye(600), scaled, square], [100, 100, 100], epsilon


@pytest.mark.parametrize("label", ["readme", "three"])
def test_stored_reference_is_the_exact_solution(reference, label):
    """Every stored entry agrees with a Newton solve in the joint eigenbasis
    to a tenth of the check's tolerance: the program's Picard stopping error
    is far inside it, so a solver that converges tighter still passes."""
    ref = reference[label]
    base, moments, counts, epsilon = _oracle_inputs(label, ref)
    _, basis = np.linalg.eigh(base)
    eigs = [np.einsum("ij,ij->j", basis, m @ basis) for m in moments]
    got = checks.newton_oracle(eigs, counts, ref["z"], ref["lambda"], epsilon)
    for key in ("delta_prime", "m_pred", "density"):
        want = np.asarray(ref[key])
        err = np.abs(np.asarray(got[key]) - want)
        limit = (checks.RTOL * np.abs(want)
                 + checks.ATOL_SHARE * np.abs(want).max())
        assert (err <= 0.1 * limit).all(), key


def test_dense_oracle_matches_stored_reference(reference):
    """The dense Newton solve, which checks predict-dense, reproduces the
    program's README numbers."""
    ref = reference["readme"]
    _, moments, counts, epsilon = _oracle_inputs("readme", ref)
    picks = [0, 150, 300, 399]
    got = checks.newton_oracle(moments, counts, ref["z"],
                               [ref["lambda"][i] for i in picks], epsilon)
    assert checks.compare_arrays("delta", got["delta_prime"],
                                 ref["delta_prime"]) == []
    assert checks.compare_arrays("m", got["m_pred"], ref["m_pred"]) == []
    assert checks.compare_arrays("density", got["density"],
                                 [ref["density"][i] for i in picks]) == []


def _snapshot(directory, desc):
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
    argv = [[a.replace(str(directory), "<in>") for a in cmd]
            for _, cmd in desc["commands"]]
    return files, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(tmp_path, workload):
    first = _snapshot(tmp_path / "a", workloads.write_inputs(
        workload, 7, str(tmp_path / "a")))
    again = _snapshot(tmp_path / "b", workloads.write_inputs(
        workload, 7, str(tmp_path / "b")))
    other = _snapshot(tmp_path / "c", workloads.write_inputs(
        workload, 8, str(tmp_path / "c")))
    assert first == again
    assert first != other


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_with_its_unit(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "predict-dense", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        for key in run.COMMAND_METRICS:
            assert f"  {key} " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "montecarlo", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [tracer.Span(1, None, "cli.predict", 0.0, 10.0, 1, {}, None),
             tracer.Span(2, 1, "equivalent.density", 1.0, 9.0, 1,
                         {"points": 2, "unconverged": 0}, None),
             tracer.Span(3, 2, "fixed_point.complex", 1.0, 6.0, 2,
                         {"iters": 5, "unconverged": 0}, None),
             tracer.Span(4, 2, "fixed_point.complex", 2.0, 8.0, 3,
                         {"iters": 7, "unconverged": 0}, None)]
    m = tracer.layer_metrics(spans, {1: "predict"})
    assert m["equivalent.density_self_s"] == pytest.approx(1.0)
    assert m["fixed_point.complex_s"] == pytest.approx(11.0)
    assert m["fixed_point.complex_iters_max"] == 7
    assert m["cli.self_s"] == pytest.approx(2.0)


def test_span_cost_is_a_few_microseconds():
    assert 0.0 < tracer.span_cost(2000) < 1e-3
