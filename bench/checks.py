"""Correctness checks on covspec's output files, independent of covspec.

Each check returns a list of problems; an empty list means the command's
outputs are correct. Nothing here imports covspec: outputs are parsed from
the files the CLI wrote and compared with

- reference values stored with the benchmark (``reference.json``, written by
  ``make_reference.py`` when the benchmark was added) for the seed-independent
  predict-spectral configs and the compare prediction column, and
- an independent Newton solve of the fixed-point system (:func:`newton_oracle`)
  for predict-dense, whose moments are estimated from seeded raw data.

Tolerance: every element of a predicted array must agree with the
reference to ``RTOL`` of its own magnitude, plus ``ATOL_SHARE`` of the
array's largest magnitude so that entries at zero are not held to an
exact match. The solvers stop on a step of 1e-12 (real) and 1e-10
(complex), so converged values agree far below that, and a rewrite of the
solver that moves values by ~1e-9 still passes; a density perturbed by 1e-3,
even at one point of its tail, does not.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RTOL = 1e-6
ATOL_SHARE = 1e-12

# Criterion-03 limits for prediction against Monte Carlo.
HIST_L1_MAX = 0.1
SUP_ERR_MAX = 0.05

CONCLAB_RECORDS = (
    "tail_q", "tail_sigma", "tail_r2",
    "diameter_p64", "diameter_p256", "diameter_p1024", "diameter_ratio",
    "quadform_mean", "quadform_std",
    "delta_gap_n100", "delta_gap_n200", "delta_gap_n400", "delta_gap_slope",
    "resolvent_err_n100", "resolvent_err_n200", "resolvent_err_n400",
    "resolvent_slope", "resolvent_monotone",
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def read_csv(path: str):
    """(comments, header, rows) of a covspec CSV; rows as a float array."""
    comments = {}
    header = None
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                comments[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(cell) for cell in line.split(",")])
    return comments, header, np.array(rows, dtype=float).reshape(-1, len(header))


def read_predict(out_dir: str) -> dict:
    """The arrays of one ``covspec predict`` output directory."""
    _, _, delta = read_csv(os.path.join(out_dir, "delta.csv"))
    _, _, stieltjes = read_csv(os.path.join(out_dir, "stieltjes.csv"))
    comments, _, density = read_csv(os.path.join(out_dir, "density.csv"))
    k = int(delta[:, 1].max()) + 1
    return {
        "z": stieltjes[:, 0].tolist(),
        "delta_prime": delta[:, 2].reshape(-1, k).tolist(),
        "m_pred": stieltjes[:, 1].tolist(),
        "lambda": density[:, 0].tolist(),
        "density": density[:, 1].tolist(),
        "converged": density[:, 2].tolist(),
        "atom_at_zero": float(comments["atom_at_zero"]),
    }


def compare_arrays(name, got, want, rtol=RTOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    if not np.isfinite(got).all():
        return [f"{name}: non-finite values"]
    if not want.size:
        return []
    err = np.abs(got - want)
    limit = rtol * np.abs(want) + ATOL_SHARE * float(np.abs(want).max())
    if (err > limit).any():
        worst = np.unravel_index(int(np.argmax(err - limit)), err.shape)
        return [f"{name}: {int((err > limit).sum())} entries off; at "
                f"{list(map(int, worst))} got {got[worst]!r}, "
                f"expected {want[worst]!r}"]
    return []


def _predict_sanity(pred: dict) -> list:
    problems = []
    density = np.asarray(pred["density"])
    if not np.isfinite(density).all() or density.min() < 0.0:
        problems.append("density not finite and nonnegative")
    if not all(flag == 1.0 for flag in pred["converged"]):
        problems.append("a density point did not converge")
    if not np.isfinite(np.asarray(pred["delta_prime"])).all():
        problems.append("non-finite delta_prime")
    return problems


def check_predict(out_dir: str, rc, expected: dict) -> list:
    """Exit code, converged flags and every array against ``expected``."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        pred = read_predict(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable predict output: {exc!r}"]
    problems = _predict_sanity(pred)
    for key in ("z", "delta_prime", "m_pred", "lambda", "density"):
        if key in expected:
            problems += compare_arrays(key, pred[key], expected[key])
    if "atom_at_zero" in expected and pred["atom_at_zero"] != expected["atom_at_zero"]:
        problems.append(f"atom_at_zero {pred['atom_at_zero']} != "
                        f"{expected['atom_at_zero']}")
    return problems


def check_simulate(out_dir: str, rc, p: int) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    _, _, hist = read_csv(os.path.join(out_dir, "histogram.csv"))
    _, _, spectrum = read_csv(os.path.join(out_dir, "spectrum.csv"))
    problems = []
    masses = hist[:, 2]
    if not np.isfinite(masses).all() or masses.min() < 0.0:
        problems.append("histogram masses not finite and nonnegative")
    if abs(float(masses.sum()) - 1.0) > 1e-12:
        problems.append(f"histogram masses sum to {masses.sum()!r}")
    values = spectrum[:, 1]
    if values.size != p or not np.isfinite(values).all() or values.min() < 0.0:
        problems.append("spectrum is not p finite nonnegative eigenvalues")
    elif np.any(np.diff(values) < 0.0):
        problems.append("spectrum not ascending")
    return problems


def check_compare(out_dir: str, rc, m_pred_reference) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    comments, _, table = read_csv(os.path.join(out_dir, "compare.csv"))
    problems = []
    if not np.isfinite(table).all():
        problems.append("non-finite entries in compare.csv")
    sup_err = float(comments["sup_err"])
    hist_l1 = float(comments["hist_l1"])
    if not sup_err <= SUP_ERR_MAX:
        problems.append(f"sup_err {sup_err:g} > {SUP_ERR_MAX}")
    if not hist_l1 <= HIST_L1_MAX:
        problems.append(f"hist_l1 {hist_l1:g} > {HIST_L1_MAX}")
    problems += compare_arrays("compare m_pred", table[:, 3], m_pred_reference)
    return problems


def parse_conclab(path: str):
    """Records of conclab.txt as dicts; raises ValueError on a malformed line."""
    records = []
    with open(path) as handle:
        for line in handle:
            fields = dict(item.split("=", 1) for item in line.split())
            if list(fields) != ["name", "value", "stderr", "n", "seed", "status"]:
                raise ValueError(f"malformed record {line.strip()!r}")
            value = float(fields["value"])
            stderr = None if fields["stderr"] == "na" else float(fields["stderr"])
            if not math.isfinite(value) or (stderr is not None
                                            and not math.isfinite(stderr)):
                raise ValueError(f"non-finite record {line.strip()!r}")
            if int(fields["n"]) < 1 or int(fields["seed"]) < 0:
                raise ValueError(f"bad n or seed in {line.strip()!r}")
            if fields["status"] not in ("pass", "fail"):
                raise ValueError(f"bad status in {line.strip()!r}")
            records.append(fields)
    return records


def check_conclab(out_dir: str, rc):
    """(problems, names of failed gates). A missed gate exits 1 but is not a
    failed command: tail_q misses its limit on some seeds."""
    try:
        records = parse_conclab(os.path.join(out_dir, "conclab.txt"))
    except (OSError, ValueError) as exc:
        return [f"conclab.txt: {exc}"], []
    problems = []
    names = tuple(r["name"] for r in records)
    if names != CONCLAB_RECORDS:
        problems.append(f"conclab records {names}")
    gates_failed = [r["name"] for r in records if r["status"] == "fail"]
    if rc != (1 if gates_failed else 0):
        problems.append(f"exit code {rc} with {len(gates_failed)} failed gates")
    return problems, gates_failed


def check_ingest(out_dir: str, rc, sigmas: dict) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    for label, sigma in sigmas.items():
        path = os.path.join(out_dir, f"class_{label}_sigma.csv")
        got = np.loadtxt(path, delimiter=",", ndmin=2)
        problems += compare_arrays(f"{label} sigma", got, sigma, rtol=1e-12)
    return problems


def sample_moments(raw_paths: dict) -> dict:
    """Uncentered second moment of each class's raw columns."""
    out = {}
    for label, path in raw_paths.items():
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
        second = raw @ raw.T / raw.shape[1]
        out[label] = (second + second.T) / 2.0
    return out


def _trace(a):
    """Trace of a matrix, or of the diagonal matrix a 1-d array holds."""
    return np.sum(a) if a.ndim == 1 else np.trace(a)


def _newton(sigmas, weights, n, shift, x, tol=1e-13, max_steps=100):
    """Root of I(x) = x, I(x)_l = tr(S_l (sum_h c_h S_h + shift I)^-1) / n,
    c_h = w_h / (1 + x_h), by Newton steps with a Picard fallback.

    dI_l/dx_h = (w_h / (1 + x_h)^2) tr(S_l Q S_h Q) / n. A Newton step that
    leaves the admissible set (x >= 0 for real shifts, Im x >= 0 for complex
    ones) is replaced by a Picard step. 1-d ``sigmas`` are the eigenvalues of
    commuting moments in their joint eigenbasis.
    """
    p = sigmas[0].shape[0]
    k = len(sigmas)
    complex_shift = isinstance(shift, complex)
    diagonal = sigmas[0].ndim == 1
    for _ in range(max_steps):
        coeff = weights / (1.0 + x)
        core = sum(c * s for c, s in zip(coeff, sigmas))
        if diagonal:
            q = 1.0 / (core + shift)
            sq = [s * q for s in sigmas]
        else:
            q = np.linalg.inv(core + shift * np.eye(p))
            sq = [s @ q for s in sigmas]
        mapped = np.array([_trace(m) for m in sq]) / n
        if np.abs(mapped - x).max() <= tol * max(1.0, np.abs(x).max()):
            return mapped, q
        cross = np.array([[np.sum(sq[l] * sq[h].T) for h in range(k)]
                          for l in range(k)])
        jac = cross * (weights / (1.0 + x) ** 2)[None, :] / n - np.eye(k)
        step = np.linalg.solve(jac, x - mapped)
        trial = x + step
        ok = np.isfinite(trial).all() and (
            trial.imag.min() >= 0.0 if complex_shift else trial.min() >= 0.0)
        x = trial if ok else mapped
    raise ArithmeticError(f"oracle did not converge at shift {shift!r}")


def newton_oracle(sigmas, counts, z_grid, lambdas, epsilon) -> dict:
    """delta', m_pred and density for the given class moments: p x p
    matrices, or the 1-d eigenvalues of commuting ones in a joint basis."""
    sigmas = [np.asarray(s, dtype=float) for s in sigmas]
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    weights = counts / n
    p = sigmas[0].shape[0]
    traces = np.array([_trace(s) for s in sigmas])
    deltas, m_pred, density = [], [], []
    for z in z_grid:
        x, q = _newton(sigmas, weights, n, float(z), traces / (n * z))
        deltas.append(x.tolist())
        m_pred.append(float(_trace(q)) / p)
    for lam in lambdas:
        w = complex(lam, epsilon)
        x, q = _newton(sigmas, weights, n, -w, (traces / (n * abs(w))).astype(complex))
        density.append(max(float(_trace(q).imag) / p / np.pi, 0.0))
    return {"z": list(map(float, z_grid)), "delta_prime": deltas,
            "m_pred": m_pred, "lambda": list(map(float, lambdas)),
            "density": density}
