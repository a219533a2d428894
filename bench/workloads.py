"""Workload definitions: the inputs each workload generates from its seed and
the covspec command sequence one pass runs.

Every file a workload hands to covspec is written here, from the workload
seed alone, so the same seed gives byte-identical inputs. The program sees
only those files and the command lines, never the seed itself.

Why each workload exists (which layer does most of the work):

- ``predict-spectral``: commuting classes, so every fixed-point iteration
  runs on the joint-eigenbasis backend. About 90% of the time is complex
  Picard iteration for the density. The sampler, io and dense linear algebra
  are idle.
- ``predict-dense``: class moments estimated from raw data never commute, so
  every iteration is a dense factorization with an explicit inverse. Ingest
  writes and re-reads a few MB of CSV.
- ``montecarlo``: the sampler, the empirical kernel (Gram, Cholesky,
  inverse, eigvalsh) and the Python loops of the concentration lab. The only
  workload that runs with ``--threads`` above 1.
"""

from __future__ import annotations

import hashlib
import os

WORKLOADS = ("predict-spectral", "predict-dense", "montecarlo")

# The README worked example: two commuting Toeplitz classes, p = n = 500.
README_P = 500
_README_CLASSES = f"""\
[mixture]
p = {README_P}
n = {README_P}
classes = bulk spike

[class.bulk]
n_l = 450
sigma = toeplitz a=0.1 scale=10 power=2
{{bulk_extra}}
[class.spike]
n_l = 50
sigma = toeplitz a=0.1 scale=10
{{spike_extra}}"""

# At epsilon = 1e-4 some density points stop unconverged, because [predict]
# tol and max_iter never reach the density solve; 3e-4 converges everywhere.
README_PREDICT = _README_CLASSES.format(bulk_extra="", spike_extra="") + """
[predict]
lambda_grid = log:1e-3:5:400
epsilon = 3e-4
"""

# p = 2n: an atom of mass 1/2 at zero. The lambda grid is chosen by the CLI.
THREE_CLASS_PREDICT = """\
[mixture]
p = 600
n = 300
classes = iso near far

[class.iso]
n_l = 100
sigma = identity

[class.near]
n_l = 100
sigma = toeplitz a=0.1 scale=10

[class.far]
n_l = 100
sigma = toeplitz a=0.1 scale=10 power=2
"""

DENSE_P = 300
DENSE_CLASSES = (("near", 200), ("far", 100))  # n_l per class, so gamma = 1

DENSE_INGEST = """\
[ingest]
classes = near far

[ingest.class.near]
file = raw_near.csv
n_l = 200

[ingest.class.far]
file = raw_far.csv
n_l = 100
"""

# Appended by the benchmark to the mixture.ini that ingest writes.
DENSE_Z_GRID = (1e-3, 10.0, 10)  # geometric: start, stop, count
DENSE_LAMBDAS = (0.05, 0.3, 1.0, 3.0)
DENSE_EPSILON = 1e-2
DENSE_PREDICT_SECTION = f"""
[predict]
z_grid = log:{DENSE_Z_GRID[0]!r}:{DENSE_Z_GRID[1]!r}:{DENSE_Z_GRID[2]}
lambda_grid = {" ".join(map(repr, DENSE_LAMBDAS))}
epsilon = {DENSE_EPSILON!r}
"""

# Lipschitz-of-Gaussian runs only in simulate: compare checks such a class
# against its config sigma, not the second moment of the pushforward.
MC_SIMULATE = _README_CLASSES.format(
    bulk_extra="generator = lipschitz-of-gaussian\nnonlinearity = tanh\n",
    spike_extra="generator = bounded-affine\n",
) + """
[simulate]
bins = 20
"""

MC_COMPARE_CONCLAB = _README_CLASSES.format(
    bulk_extra="", spike_extra="generator = bounded-affine\n"
) + """
[compare]
z_grid = 0.5:5:10
trials = 10
bins = 20

[conclab]
checks = tail_fit diameter quad_form delta_gap resolvent_error

[conclab.tail_fit]
samples = 20000

[conclab.delta_gap]
sizes = 100 200 400
trials = 30

[conclab.resolvent_error]
sizes = 100 200 400
trials = 10
"""


def subseed(seed: int, tag: str) -> int:
    """Stable 63-bit seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def dense_sigmas():
    """Population second moments the predict-dense raw data is drawn from."""
    import numpy as np

    idx = np.arange(DENSE_P)
    lag = np.abs(idx[:, None] - idx[None, :]) + 1.0
    near = 10.0 * np.linalg.matrix_power(0.1**lag, 2)
    return {"near": (near + near.T) / 2.0, "far": 0.6**lag}


def _write(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files into ``directory``.

    Returns a description of the workload: the config files that setup
    loads and the covspec argument lists of one pass, with ``{out}`` standing
    for the pass's output directory.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    seed_arg = lambda tag: ["--seed", str(subseed(seed, tag))]  # noqa: E731

    if workload == "predict-spectral":
        _write(path("readme.ini"), README_PREDICT)
        _write(path("three.ini"), THREE_CLASS_PREDICT)
        commands = [
            ("readme", ["predict", "--config", path("readme.ini"), "--out",
                        "{out}/readme", "--threads", "1"] + seed_arg("readme")),
            ("three", ["predict", "--config", path("three.ini"), "--out",
                       "{out}/three", "--threads", "1"] + seed_arg("three")),
        ]
        return {"setup_configs": [path("readme.ini"), path("three.ini")],
                "commands": commands}

    if workload == "predict-dense":
        import numpy as np

        rng = np.random.default_rng(subseed(seed, "raw"))
        sigmas = dense_sigmas()
        for label, count in DENSE_CLASSES:
            factor = np.linalg.cholesky(sigmas[label])
            raw = factor @ rng.standard_normal((DENSE_P, count))
            np.savetxt(path(f"raw_{label}.csv"), raw, delimiter=",", fmt="%.17g")
        _write(path("ingest.ini"), DENSE_INGEST)
        commands = [
            ("ingest", ["ingest", "--config", path("ingest.ini"), "--out",
                        "{out}/ingest", "--threads", "1"] + seed_arg("ingest")),
            ("predict", ["predict", "--config", "{out}/ingest/mixture.ini",
                         "--out", "{out}/predict", "--threads", "1"]
             + seed_arg("predict")),
        ]
        # Set-up loads the config that the first pass ingested.
        return {"setup_configs": [path("ingest.ini"),
                                  "{out}/ingest/mixture.ini"],
                "commands": commands}

    _write(path("simulate.ini"), MC_SIMULATE)
    _write(path("montecarlo.ini"), MC_COMPARE_CONCLAB)
    commands = [
        ("simulate", ["simulate", "--config", path("simulate.ini"), "--out",
                      "{out}/simulate", "--threads", "1"] + seed_arg("simulate")),
        ("compare", ["compare", "--config", path("montecarlo.ini"), "--out",
                     "{out}/compare", "--threads", "2"] + seed_arg("compare")),
        ("conclab", ["conclab", "--config", path("montecarlo.ini"), "--out",
                     "{out}/conclab", "--threads", "1"] + seed_arg("conclab")),
    ]
    return {"setup_configs": [path("simulate.ini"), path("montecarlo.ini")],
            "commands": commands}


def after_command(label: str, out: str) -> None:
    """Glue between commands of a pass: predict-dense adds its [predict]
    section to the config that ingest wrote."""
    if label == "ingest":
        with open(os.path.join(out, "ingest", "mixture.ini"), "a") as handle:
            handle.write(DENSE_PREDICT_SECTION)
