"""covspec benchmark: the CLI end to end on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--record PATH]

NAME is predict-spectral, predict-dense or montecarlo (see workloads.py for
what each stresses and why). Run from anywhere; the program is imported
from ``src/`` next to this directory, and every file the run writes goes
under ``.bench_work/`` there.

One run writes the workload's inputs from the seed, then starts a fresh
interpreter (worker.py) that runs the workload's command sequence through
``covspec.cli.main`` pass after pass, closed loop with one client, until
``--seconds`` is spent. Every command's outputs are then checked (checks.py).

--trace 0 reports the end-to-end metrics, medians over the run: setup_s
(median of fresh-interpreter set-ups), wall_s (one pass), peak_rss_mb (the
worker's peak resident memory). Lines before the last also give predict_s,
compare_s, conclab_s and failed_frac.

--trace 1 runs passes untraced, traced, traced, untraced, ... and reports
the per-layer metrics of the traced ones (tracer.py), with the wall of both
kinds, their difference, and spans per pass times the cost of one span.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run whose outputs fail a check prints it
with correct false and exits 1; a run that cannot run prints no result and
exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# The benchmark and its workers run with one BLAS thread, set before numpy
# is first imported. The host gives the benchmark two cores shared with
# other machines; OpenBLAS threads spin while they wait for each other, so
# with two of them a dense solve slows several-fold whenever anything else
# runs on the second core. One thread leaves that core free and makes the
# only multi-threaded step the density pool of --threads 2.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_ENV, "1"))

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed at least SETUP_MIN times, and more, up to SETUP_MAX, while
# the set-ups so far took less than SETUP_BUDGET_S.
SETUP_MIN = 5
SETUP_MAX = 15
SETUP_BUDGET_S = 8.0
SETUP_TIMEOUT_S = 30
# A run measures for --seconds, then may finish one more pass (or, traced,
# a second one), sets up and checks the outputs.
PASS_MARGIN_S = 100
RUN_MARGIN_S = 140

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed by name with --trace 0, but not gated: each applies to only some
# workloads, and failures are reported as attempted and failed.
COMMAND_METRICS = {"predict_s": "s", "compare_s": "s", "conclab_s": "s",
                   "failed_frac": "1"}

PER_LAYER = {
    "fixed_point.complex_s": "s",
    "fixed_point.complex_iters": "count",
    "fixed_point.complex_iters_max": "count",
    "fixed_point.complex_unconverged": "count",
    "fixed_point.complex_us_per_iter": "us",
    "fixed_point.real_s": "s",
    "fixed_point.real_iters": "count",
    "fixed_point.real_unconverged": "count",
    "fixed_point.real_us_per_iter": "us",
    "equivalent.density_s": "s",
    "equivalent.density_self_s": "s",
    "equivalent.density_points": "count",
    "equivalent.density_unconverged": "count",
    "equivalent.stieltjes_s": "s",
    "sampler.sample_s": "s",
    "sampler.columns": "count",
    "sampler.us_per_column": "us",
    "sampler.spectrum_s": "s",
    "sampler.spectra": "count",
    "conc_lab.delta_empirical_s": "s",
    "conc_lab.resolvent_mean_s": "s",
    "conc_lab.kernel_self_s": "s",
    "conc_lab.diameter_s": "s",
    "conc_lab.quadform_s": "s",
    "conc_lab.tail_s": "s",
    "conc_lab.trials": "count",
    "conc_lab.gates_failed": "count",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "config.load_s": "s",
    "model.build_s": "s",
    "model.spectral_s": "s",
    "model.spectral_backend": "frac",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine_block(seed: int, commands) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {key: os.environ.get(key) for key in BLAS_ENV}
    cores = len(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cores_available": cores,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": env,
        "cli_threads": {label: int(argv[argv.index("--threads") + 1])
                        for label, argv in commands},
        "workload_seed": seed,
    }


def _worker(args, timeout):
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")]
                              + args, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")
    return proc.stdout


def _check_workload(name, inputs, result):
    """(per-command problem lists per pass, gates failed per pass)."""
    reference = checks.load_reference()
    moments = expected = None
    if name == "predict-dense":
        import numpy as np

        moments = checks.sample_moments(
            {label: os.path.join(inputs, f"raw_{label}.csv")
             for label, _ in workloads.DENSE_CLASSES})
        expected = checks.newton_oracle(
            [moments[label] for label, _ in workloads.DENSE_CLASSES],
            [count for _, count in workloads.DENSE_CLASSES],
            np.geomspace(*workloads.DENSE_Z_GRID),
            workloads.DENSE_LAMBDAS, workloads.DENSE_EPSILON)
    problems, gates = [], []
    for entry in result["passes"]:
        out = entry["out"]
        per_pass = {}
        for cmd in entry["commands"]:
            label, rc = cmd["label"], cmd["rc"]
            where = os.path.join(out, label)
            if cmd["error"]:
                found = [cmd["error"].strip().splitlines()[-1]]
            elif name == "predict-spectral":
                found = checks.check_predict(where, rc, reference[label])
            elif label == "ingest":
                found = checks.check_ingest(where, rc, moments)
            elif label == "predict":
                found = checks.check_predict(where, rc, expected)
            elif label == "simulate":
                found = checks.check_simulate(where, rc, workloads.README_P)
            elif label == "compare":
                found = checks.check_compare(where, rc,
                                             reference["readme"]["m_pred"])
            else:
                found, failed_gates = checks.check_conclab(where, rc)
                gates.append(failed_gates)
            per_pass[label] = found
        problems.append(per_pass)
    return problems, gates


def run_workload(name, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "covspec", "__init__.py")):
        raise BenchError(f"no covspec sources under {SRC}")
    tag = f"{name}-s{seed}-t{int(trace)}"
    run_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _run(name, seed, seconds, trace, tag, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, tag, run_dir):
    deadline = time.monotonic() + seconds + RUN_MARGIN_S
    inputs = os.path.join(run_dir, "inputs")
    desc = workloads.write_inputs(name, seed, inputs)
    spec = {
        "src": SRC,
        "workload": name,
        "commands": desc["commands"],
        "out_root": os.path.join(run_dir, "out"),
        "seconds": seconds,
        "trace": bool(trace),
        "min_passes": 2 if trace else 1,
        "result_path": os.path.join(run_dir, "result.json"),
        "spans_path": os.path.join(WORK, f"spans-{tag}.jsonl"),
    }
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    _worker(["passes", spec_path], seconds + PASS_MARGIN_S)
    with open(spec["result_path"]) as handle:
        result = json.load(handle)
    passes = result["passes"]

    setups = []
    if not trace:
        configs = [c.replace("{out}", passes[0]["out"])
                   for c in desc["setup_configs"]]
        while len(setups) < SETUP_MIN or (
                len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("no time left to time the set-up")
            out = _worker(["setup", SRC] + configs, min(SETUP_TIMEOUT_S, left))
            setups.append(json.loads(out)["setup_s"])

    problems, gates = _check_workload(name, inputs, result)
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(1 for per_pass in problems for found in per_pass.values()
                 if found)

    def command_median(cmd, group):
        per_pass = [[c["seconds"] for c in p["commands"] if c["argv"][0] == cmd]
                    for p in group]
        per_pass = [statistics.median(t) for t in per_pass if t]
        return statistics.median(per_pass) if per_pass else None

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_block(seed, desc["commands"]),
        "passes": [{"wall_s": p["wall"], "traced": p["traced"],
                    "commands": {c["label"]: {"seconds": c["seconds"],
                                              "rc": c["rc"]}
                                 for c in p["commands"]}} for p in passes],
        "problems": problems,
        "gates_failed": gates,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        layers = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        layers["conc_lab.gates_failed"] = (
            statistics.median(len(g) for p, g in zip(passes, gates)
                              if p["traced"])
            if gates else 0)
        layers["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
        layers["trace.untraced_wall_s"] = statistics.median(
            p["wall"] for p in untraced)
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - layers["trace.untraced_wall_s"])
        # A span costs microseconds, so the difference above is mostly
        # pass-to-pass noise; spans times the cost of one is the direct figure.
        layers["trace.span_overhead_s"] = (
            result["span_cost_s"] * statistics.median(p["spans"] for p in traced))
        report["metrics"] = {key: layers[key] for key in PER_LAYER}
        report["spans_path"] = os.path.relpath(spec["spans_path"], ROOT)
    else:
        report["metrics"] = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall"] for p in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        report["setup_samples_s"] = setups
        report["commands"] = {
            "predict_s": command_median("predict", untraced),
            "compare_s": command_median("compare", untraced),
            "conclab_s": command_median("conclab", untraced),
            "failed_frac": failed / attempted,
        }
    return report


def _line(metrics: dict, units: dict) -> dict:
    return {key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()}


def _print_report(report):
    name = report["workload"]
    print(f"machine: {json.dumps(report['machine'])}")
    for index, per_pass in enumerate(report["problems"]):
        for label, problems in per_pass.items():
            for problem in problems:
                print(f"FAILED {name} pass {index} {label}: {problem}")
    for index, gates in enumerate(report["gates_failed"]):
        if gates:
            print(f"conclab gates missed in pass {index}: {' '.join(gates)}")
    units = PER_LAYER if report["trace"] else END_TO_END
    print(f"{name}: {len(report['passes'])} passes, "
          f"{report['attempted']} commands, {report['failed']} failed")
    print("  pass walls (s): " + " ".join(
        f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}"
        for p in report["passes"]))
    for key, value in report["metrics"].items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    for key, value in report.get("commands", {}).items():
        shown = "n/a" if value is None else f"{value:14.6g}"
        print(f"  {key:34s} {shown:>14s} {COMMAND_METRICS[key]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write every "
                        "report as JSON to this path")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Turn SIGTERM into an exception, so subprocess.run kills and waits for
    # the running worker and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)

    try:
        if args.workload != "all":
            report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            _print_report(report)
            units = PER_LAYER if args.trace else END_TO_END
            summary = {"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"],
                       "metrics": _line(report["metrics"], units)}
        else:
            reports = []
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    reports.append(run_workload(name, args.seed, args.seconds,
                                                trace))
                    _print_report(reports[-1])
            if args.record:
                with open(args.record, "w") as handle:
                    json.dump(reports, handle, indent=1)
                    handle.write("\n")
            metrics = {}
            for report in reports:
                units = PER_LAYER if report["trace"] else END_TO_END
                metrics.update(
                    (f"{report['workload']}.{key}", value)
                    for key, value in _line(report["metrics"], units).items())
            attempted = sum(r["attempted"] for r in reports)
            failed = sum(r["failed"] for r in reports)
            summary = {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
