"""Command line front end.

Five batch subcommands, all driven by one INI config plus a handful of
flags:

- predict: fixed points, Stieltjes values and a density profile -> CSV
- simulate: one sampled spectrum and its histogram -> CSV
- compare: Monte Carlo spectra against predictions -> CSV with summary
- conclab: concentration checks -> line-oriented report, gated exit status
- ingest: raw per-class sample files -> mixture descriptor

Commands exit 0 on success, 1 when a gated check fails or a solve does not
converge (diagnostics are still written), and 2 on configuration or data
errors (nothing is written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import conc_lab
from .config import ExperimentConfig, load_config
from .equivalent import density_prediction
from .errors import ConvergenceError, DataError, ParameterError, ShapeError
from .fixed_point import _continuation, solve_delta
from .io import atomic_write_text, fmt_float, write_csv, write_matrix, read_matrix
from .model import estimate_class_model
from .sampler import _trial_samples, derive_seed, empirical_spectrum, histogram, sample_mixture

__all__ = ["main", "cmd_predict", "cmd_simulate", "cmd_compare", "cmd_conclab", "cmd_ingest"]


def _log(verbose: bool, message: str) -> None:
    if verbose:
        print(message, file=sys.stderr)


def _predictions(config: ExperimentConfig, name: str, mixture, default_lambdas):
    """Fixed points on the z grid of section [name] and the density profile
    on its lambda grid, or on ``default_lambdas()`` when it sets none.

    The section's ``tol`` and ``max_iter`` apply to both solves; a key it
    leaves out keeps each solve's own default. ``epsilon = auto`` (the
    default) is 1e-3 of the lambda span. Both grids are walked from their
    largest point by the continuation rule of :mod:`covspec.fixed_point`.
    Returns the z grid, one solution per z in the grid's order, the density
    prediction and whether every solve converged.
    """
    section = getattr(config, name)
    params = {key: section[key] for key in ("tol", "max_iter") if key in section}
    z_grid = section.get("z_grid", np.linspace(0.5, 5.0, 10))
    sols = _continuation(lambda z, start: solve_delta(mixture, z, start=start, **params), z_grid)
    lambdas = section["lambda_grid"] if "lambda_grid" in section else default_lambdas()
    epsilon = section.get("epsilon")
    if epsilon is None:
        epsilon = 1e-3 * (float(lambdas[-1] - lambdas[0]) or float(lambdas[-1]) or 1.0)
    pred = density_prediction(mixture, lambdas, epsilon, **params)
    return z_grid, sols, pred, all(sol.converged for sol in sols) and pred.converged.all()


def _auto_lambda_grid(mixture, count: int) -> np.ndarray:
    """Locate the support by a coarse scan, then lay a linear grid over it."""
    top = max(float(w.max()) for w in mixture.class_spectra())
    if top <= 0.0:
        return np.linspace(1e-6, 1.0, count)
    bound = 4.0 * (1.0 + np.sqrt(mixture.gamma)) ** 2 * top
    coarse = np.geomspace(bound * 1e-4, bound, 120)
    scan = density_prediction(
        mixture, coarse, epsilon=1e-3 * bound, tol=1e-6, max_iter=500
    )
    peak = scan.density.max()
    if not peak > 0.0:  # no mass, or a scan point that broke down (NaN)
        return np.linspace(bound * 1e-4, bound, count)
    live = coarse[scan.density > 1e-4 * peak]
    lo = max(float(live.min()) * 0.5, bound * 1e-6)
    hi = float(live.max()) * 1.15
    return np.linspace(lo, hi, count)


def cmd_predict(
    config: ExperimentConfig,
    out_dir: str,
    seed: int | None = None,
    verbose: bool = False,
) -> int:
    mixture = config.mixture()
    z_grid, sols, pred, all_converged = _predictions(
        config, "predict", mixture, lambda: _auto_lambda_grid(mixture, 200)
    )
    delta_rows = [
        (z, l, d, sol.residual, sol.iterations)
        for z, sol in zip(z_grid, sols)
        for l, d in enumerate(sol.delta)
    ]
    stieltjes_rows = [(z, sol.stieltjes) for z, sol in zip(z_grid, sols)]
    _log(verbose, f"predict: solved {z_grid.size} z points")
    _log(verbose, f"predict: density on {pred.lambdas.size} points, epsilon={pred.epsilon:g}")

    write_csv(os.path.join(out_dir, "delta.csv"),
              ("z", "class_index", "delta_prime", "residual", "iterations"), delta_rows)
    write_csv(os.path.join(out_dir, "stieltjes.csv"), ("z", "m_pred"), stieltjes_rows)
    write_csv(
        os.path.join(out_dir, "density.csv"),
        ("lambda", "density", "converged"),
        list(zip(pred.lambdas, pred.density, pred.converged)),
        comments=(
            f"atom_at_zero = {fmt_float(pred.atom_at_zero)}",
            f"epsilon = {fmt_float(pred.epsilon)}",
        ),
    )
    if not all_converged:
        print("predict: one or more solves did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(
    config: ExperimentConfig,
    out_dir: str,
    seed: int | None = None,
    verbose: bool = False,
) -> int:
    section = config.simulate
    if seed is None:
        seed = section.get("seed", 0)
    sample = sample_mixture(config.generator_pairs(), seed)
    spectrum = empirical_spectrum(sample)
    hist = histogram(spectrum, section.get("bins", 20), section.get("transform"))
    _log(verbose, f"simulate: seed={seed}, p={spectrum.p}, n={spectrum.n}")

    write_csv(
        os.path.join(out_dir, "spectrum.csv"),
        ("index", "eigenvalue"),
        list(enumerate(spectrum.values)),
        comments=(f"seed = {seed}",),
    )
    write_csv(
        os.path.join(out_dir, "histogram.csv"),
        ("bin_left", "bin_right", "mass"),
        list(zip(hist.edges[:-1], hist.edges[1:], hist.masses)),
        comments=(f"seed = {seed}",),
    )
    return 0


def _binned_prediction(pred, edges: np.ndarray) -> np.ndarray:
    """Integrate a density profile over bins, adding the zero atom to its bin.

    Works from the cumulative trapezoid integral of the profile so that
    segments straddling a bin edge contribute their exact share.
    """
    lam = pred.lambdas
    den = pred.density
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (den[1:] + den[:-1]) * np.diff(lam))]
    )
    at_edges = np.interp(edges, lam, cum, left=0.0, right=cum[-1])
    masses = np.diff(at_edges)
    zero_bin = np.searchsorted(edges, 0.0, side="right") - 1
    if 0 <= zero_bin < masses.size:
        masses[zero_bin] += pred.atom_at_zero
    elif zero_bin < 0 and edges[0] >= 0.0 and masses.size:
        # Support starting at the first edge keeps the atom in the first bin.
        masses[0] += pred.atom_at_zero
    return masses


def cmd_compare(
    config: ExperimentConfig,
    out_dir: str,
    seed: int | None = None,
    verbose: bool = False,
) -> int:
    section = config.compare
    if seed is None:
        seed = section.get("seed", 0)
    trials = section.get("trials", 10)
    samples = _trial_samples(config.generator_pairs(), seed, trials)
    bins = section.get("bins", 20)
    mixture = config.mixture()
    spectra = [empirical_spectrum(X).values for X in samples]
    pooled = np.concatenate(spectra)
    _log(verbose, f"compare: {trials} trials sampled")

    if np.ndim(bins) == 0:
        top = float(pooled.max()) * (1.0 + 1e-9) or 1.0
        bins = np.linspace(0.0, top, bins + 1)
    hist = histogram(pooled, bins)
    edges = hist.edges

    def default_lambdas():
        lo = max(float(edges[1]) * 1e-3, float(edges[-1]) * 1e-5)
        return np.linspace(lo, float(edges[-1]), max(200, 10 * (edges.size - 1)))

    z_grid, sols, pred, all_converged = _predictions(config, "compare", mixture, default_lambdas)
    m_pred = np.array([sol.stieltjes for sol in sols])
    # Stieltjes values follow directly from the eigenvalues.
    m_emp = np.array([[float(np.mean(1.0 / (v + z))) for z in z_grid] for v in spectra])
    mean = m_emp.mean(axis=0)
    std = m_emp.std(axis=0, ddof=1) if trials > 1 else np.zeros(z_grid.size)
    abs_err = np.abs(mean - m_pred)
    sup_err = float(abs_err.max())
    hist_l1 = float(np.abs(hist.masses - _binned_prediction(pred, edges)).sum())
    _log(verbose, f"compare: sup_err={sup_err:g}, hist_l1={hist_l1:g}")

    write_csv(
        os.path.join(out_dir, "compare.csv"),
        ("z", "m_emp_mean", "m_emp_std", "m_pred", "abs_err"),
        [
            (z, mean[i], std[i], m_pred[i], abs_err[i])
            for i, z in enumerate(z_grid)
        ],
        comments=(
            f"sup_err = {fmt_float(sup_err)}",
            f"hist_l1 = {fmt_float(hist_l1)}",
            f"trials = {trials}",
            f"seed = {seed}",
        ),
    )
    if not all_converged:
        print("compare: one or more solves did not converge", file=sys.stderr)
        return 1
    return 0


def _record(name, value, stderr, n, seed, ok) -> str:
    err = fmt_float(stderr) if stderr is not None else "na"
    status = "pass" if ok else "fail"
    return (
        f"name={name} value={fmt_float(value)} stderr={err} "
        f"n={n} seed={seed} status={status}"
    )


def cmd_conclab(
    config: ExperimentConfig,
    out_dir: str,
    seed: int | None = None,
    verbose: bool = False,
) -> int:
    if seed is None:
        seed = config.conclab.get("seed", 0)
    lines = []
    all_ok = True
    for idx, name in enumerate(config.conclab.get("checks", [])):
        _log(verbose, f"conclab: running {name}")
        params = config.checks.get(name, {})
        records = conc_lab.CHECKS[name](derive_seed(seed, idx), **params)
        for rec in records:
            lines.append(_record(*rec))
            all_ok &= rec[5]
    atomic_write_text(
        os.path.join(out_dir, "conclab.txt"),
        "\n".join(lines) + ("\n" if lines else ""),
    )
    return 0 if all_ok else 1


def cmd_ingest(
    config: ExperimentConfig,
    out_dir: str,
    seed: int | None = None,
    verbose: bool = False,
) -> int:
    entries = config.ingest.get("classes")
    if not entries:
        raise ParameterError("ingest requires an [ingest] section with classes")
    delimiter = config.ingest.get("delimiter", ",")
    models = []
    for entry in entries:
        raw = read_matrix(entry["file"], delimiter=delimiter)
        model = estimate_class_model(raw, entry["n_l"])
        models.append((entry["label"], model))
        _log(verbose, f"ingest: {entry['label']} <- {raw.shape[1]} samples")
    p = models[0][1].p
    for label, model in models:
        if model.p != p:
            raise ShapeError(f"class {label} has dimension {model.p}, expected {p}")
    total = sum(m.n_l for _, m in models)
    lines = ["[mixture]", f"p = {p}", f"n = {total}",
             "classes = " + " ".join(label for label, _ in models), ""]
    for label, model in models:
        sigma_name = f"class_{label}_sigma.csv"
        mean_name = f"class_{label}_mean.csv"
        write_matrix(os.path.join(out_dir, sigma_name), model.sigma)
        write_matrix(os.path.join(out_dir, mean_name), model.mean[None, :])
        lines += [
            f"[class.{label}]",
            f"n_l = {model.n_l}",
            f"sigma = file {sigma_name}",
            f"mean = file {mean_name}",
            "generator = gaussian",
            "",
        ]
    atomic_write_text(os.path.join(out_dir, "mixture.ini"), "\n".join(lines))
    return 0


_COMMANDS = {
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "conclab": cmd_conclab,
    "ingest": cmd_ingest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covspec",
        description="Spectral predictions and concentration experiments "
        "for mixture sample covariances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="INI experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="64-bit seed override")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; changes neither results nor speed",
        )
        cmd.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("seed must fit in 64 bits", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("threads must be at least 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](
            config,
            args.out,
            seed=args.seed,
            verbose=args.verbose,
        )
    except (ParameterError, ShapeError, DataError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
