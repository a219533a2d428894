"""Monte Carlo checks for concentration predictions.

Every estimator here is a plain seeded experiment: draw from a generator
spec, form a scalar observable, and compare its fluctuation profile or its
mean against the deterministic prediction. Trial t of an estimator seeded s
samples with the subseed derive_seed(s, t), and size n of a sweep with
derive_seed(s, n). Tail profiles are pivoted at the median, which is
interchangeable with the mean for exponentially concentrated observables up
to a constant-factor change in the head.

Scaling sweeps express errors against the sample count n on a log-log
scale; the reported slope is the least-squares exponent estimate, and the
theoretical target throughout is n^(-1/2) or faster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalent import deterministic_resolvent
from .errors import DataError, ParameterError, ShapeError
from .fixed_point import _check_z, solve_delta
from .model import Mixture, _check_symmetric, _gram
from .sampler import (
    GeneratorSpec,
    _trial_samples,
    class_model_of,
    derive_seed,
    mixture_of,
    sample_class,
)

__all__ = [
    "CHECKS",
    "TailProfile",
    "TailFit",
    "DiameterEstimate",
    "QuadFormCheck",
    "DeltaEstimate",
    "ScalingReport",
    "LIPSCHITZ_FUNCTIONALS",
    "tail_thresholds",
    "tail_profile",
    "fit_exponential_tail",
    "observable_diameter",
    "quadratic_form_check",
    "delta_empirical",
    "resolvent_mean_error",
    "delta_gap_sweep",
    "resolvent_error_sweep",
]

# Named 1-Lipschitz observables, each applied column-wise: a (p, m) block
# maps to the m values of its columns (a single p-vector to one value). The
# coordinate mean has gradient norm 1/sqrt(p), within the Lipschitz budget.
LIPSCHITZ_FUNCTIONALS = {
    "euclidean-norm": lambda X: np.linalg.norm(X, axis=0),
    "first-coordinate": lambda X: X[0],
    "coordinate-mean": lambda X: np.mean(X, axis=0),
}


@dataclass(frozen=True)
class TailProfile:
    """Empirical exceedance P(|Z - median| >= t) over a threshold grid."""

    thresholds: np.ndarray
    exceedance: np.ndarray
    pivot: float
    n_samples: int


@dataclass(frozen=True)
class TailFit:
    """Fitted exponential tail C exp(-(t/sigma)^q) around the pivot."""

    head_C: float
    tail_sigma: float
    exponent_q: float
    pivot: float
    r2: float


@dataclass(frozen=True)
class DiameterEstimate:
    """Observable diameter estimate: worst mean |f(X) - f(X')| over functionals."""

    value: float
    stderr: float
    per_functional: dict


@dataclass(frozen=True)
class QuadFormCheck:
    """Empirical statistics of Z^T A Z against its trace pivot."""

    mean: float
    std: float
    pivot: float
    bias: float
    stderr: float


@dataclass(frozen=True, eq=False)
class DeltaEstimate:
    """Leave-one-out Monte Carlo estimate of the fixed-point vector.

    ``draws`` keeps the per-trial statistics (trials x k) so callers can
    study single-realization accuracy, not just the averaged estimate.
    """

    delta_hat: np.ndarray
    stderr: np.ndarray
    draws: np.ndarray


@dataclass(frozen=True)
class ScalingReport:
    """Log-log rate summary of an error sweep over sample sizes."""

    sizes: np.ndarray
    errors: np.ndarray
    slope: float

    @classmethod
    def from_points(cls, sizes, errors) -> "ScalingReport":
        sizes = np.asarray(sizes, dtype=float)
        errors = np.asarray(errors, dtype=float)
        if sizes.shape != errors.shape or sizes.ndim != 1 or sizes.size < 2:
            raise ShapeError("need matching 1-d sizes and errors with >= 2 points")
        if np.any(sizes <= 0) or np.any(errors <= 0):
            raise DataError("sizes and errors must be positive for a log-log fit")
        slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
        return cls(sizes=sizes, errors=errors, slope=slope)


def tail_thresholds(deviations, lo=0.98, hi=0.9998, count=20) -> np.ndarray:
    """Threshold grid over the deep tail of a deviation sample.

    Thresholds are quantiles of the absolute deviations restricted to the
    top few percent. Exponent estimation needs this: thresholds in the bulk
    pull the fitted exponent well below its tail value whenever the true
    exceedance is only asymptotically of the fitted exp(-(t/sigma)^q) form
    (for a Gaussian observable the bulk chord reads ~1.5 instead of 2), so
    the default grid starts at the 98th percentile.
    """
    deviations = np.asarray(deviations, dtype=float).ravel()
    if not 0.0 < lo < hi < 1.0:
        raise ParameterError(f"need 0 < lo < hi < 1, got ({lo}, {hi})")
    if count < 5:
        raise ParameterError(f"need at least 5 thresholds, got {count}")
    grid = np.unique(np.quantile(deviations, np.linspace(lo, hi, count)))
    grid = grid[grid > 0]
    if grid.size < 5:
        raise DataError(
            "deviation sample too discrete for a tail grid: fewer than 5 "
            "distinct positive thresholds"
        )
    return grid


def tail_profile(samples, grid) -> TailProfile:
    """Exceedance profile of |Z - median(Z)| over a threshold grid."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 100:
        raise ParameterError(
            f"need at least 100 samples for a tail profile, got {samples.size}"
        )
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ParameterError("threshold grid must be nonempty")
    if np.any(grid < 0) or np.any(np.diff(grid) <= 0):
        raise ParameterError("thresholds must be nonnegative and strictly increasing")
    pivot = float(np.median(samples))
    dev = np.sort(np.abs(samples - pivot))
    exceed = (samples.size - np.searchsorted(dev, grid, side="left")) / samples.size
    return TailProfile(
        thresholds=grid, exceedance=exceed, pivot=pivot, n_samples=samples.size
    )


def fit_exponential_tail(
    profile: TailProfile, prob_window=(1e-4, 0.5)
) -> TailFit:
    """Fit C exp(-(t/sigma)^q) to a tail profile.

    The exponent comes from a least-squares line of log(-log P) against
    log t over thresholds whose exceedance lies strictly inside
    ``prob_window`` (clipping away the saturated head and the empty tail).
    The head constant is the smallest C >= 1 for which the fitted curve
    dominates the empirical profile over the fitted range.
    """
    lo, hi = prob_window
    keep = (
        (profile.exceedance > lo)
        & (profile.exceedance < hi)
        & (profile.thresholds > 0)
    )
    if np.count_nonzero(keep) < 5:
        raise DataError(
            "degenerate tail profile: fewer than 5 thresholds inside the "
            f"probability window ({lo:g}, {hi:g})"
        )
    t = profile.thresholds[keep]
    prob = profile.exceedance[keep]
    x = np.log(t)
    y = np.log(-np.log(prob))
    slope, intercept = np.polyfit(x, y, 1)
    if not slope > 1e-8:
        raise DataError(f"tail fit produced a degenerate exponent {slope:g}")
    q = float(slope)
    sigma = float(np.exp(-intercept / slope))
    if not (np.isfinite(sigma) and sigma > 0):
        raise DataError(f"tail fit produced degenerate scale {sigma:g}")
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    head = float(max(1.0, np.max(prob * np.exp((t / sigma) ** q))))
    return TailFit(
        head_C=head, tail_sigma=sigma, exponent_q=q, pivot=profile.pivot, r2=r2
    )


def observable_diameter(
    spec: GeneratorSpec, functionals, trials: int, seed: int
) -> DiameterEstimate:
    """Monte Carlo observable diameter: max over functionals of E|f(X) - f(X')|.

    X and X' are independent draws from the spec; ``functionals`` is a list
    of names from :data:`LIPSCHITZ_FUNCTIONALS`.
    """
    names = list(functionals)
    if not names:
        raise ParameterError("at least one functional name is required")
    for name in names:
        if name not in LIPSCHITZ_FUNCTIONALS:
            raise ParameterError(f"unknown functional {name!r}")
    if trials < 100:
        raise ParameterError(f"need at least 100 trials, got {trials}")
    first = sample_class(spec, trials, seed, column_offset=0)
    second = sample_class(spec, trials, seed, column_offset=trials)
    per = {}
    best = None
    for name in names:
        f = LIPSCHITZ_FUNCTIONALS[name]
        gaps = np.abs(f(first) - f(second))
        mean = float(gaps.mean())
        se = float(gaps.std(ddof=1) / np.sqrt(trials))
        per[name] = (mean, se)
        if best is None or mean > per[best][0]:
            best = name
    value, stderr = per[best]
    return DiameterEstimate(
        value=value, stderr=stderr, per_functional=per
    )


def quadratic_form_check(
    spec: GeneratorSpec,
    A: np.ndarray,
    trials: int,
    seed: int,
) -> QuadFormCheck:
    """Statistics of Z^T A Z against the pivot tr(A E[Z Z^T])."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != spec.p:
        raise ShapeError(f"A must be {spec.p} x {spec.p}, got shape {A.shape}")
    _check_symmetric(A, "A")
    if trials < 2:
        raise ParameterError(f"need at least 2 trials, got {trials}")
    pivot = float(np.sum(A * class_model_of(spec, 1).sigma))
    Z = sample_class(spec, trials, seed)
    vals = np.einsum("ji,jk,ki->i", Z, A, Z, optimize=True)
    mean = float(vals.mean())
    std = float(vals.std(ddof=1))
    return QuadFormCheck(
        mean=mean,
        std=std,
        pivot=pivot,
        bias=mean - pivot,
        stderr=std / np.sqrt(trials),
    )


def delta_empirical(pairs, z: float, trials: int, seed: int) -> DeltaEstimate:
    """Leave-one-out estimate of the fixed-point vector.

    Per trial and class, one held-out column y of that class is tested
    against the resolvent of the remaining columns (the divisor stays n):
    the statistic y^T (S - y y^T/n + z I)^-1 y / n concentrates around the
    class's fixed-point coordinate. It is read off the full resolvent
    Q = (S + z I)^-1 by the rank-one (Sherman-Morrison) identity: with
    q = y^T Q y / n the statistic equals q / (1 - q). Each trial solves
    (S + z I) V = Y once for the held-out columns Y of all classes and
    takes q = y^T v / n column by column.
    """
    pairs = [(spec, int(count)) for spec, count in pairs]
    samples = _trial_samples(pairs, seed, trials)
    z = _check_z(z)
    for _, count in pairs:
        if count < 2:
            raise ParameterError("every class needs at least 2 columns")
    k = len(pairs)
    n = sum(count for _, count in pairs)
    starts = np.concatenate([[0], np.cumsum([c for _, c in pairs])[:-1]]).astype(int)
    draws = np.empty((trials, k))
    for t, X in enumerate(samples):
        Y = X[:, starts]
        q = (Y * np.linalg.solve(_gram(X, n, z), Y)).sum(axis=0) / n
        draws[t] = q / (1.0 - q)
    delta_hat = draws.mean(axis=0)
    if trials > 1:
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        stderr = np.full(k, np.nan)
    return DeltaEstimate(
        delta_hat=delta_hat,
        stderr=stderr,
        draws=draws,
    )


def resolvent_mean_error(
    pairs,
    z: float,
    trials: int,
    seed: int,
    mixture: Mixture | None = None,
) -> float:
    """Spectral norm gap between the Monte Carlo mean resolvent and its equivalent.

    ``mixture`` defaults to the exact second-moment mixture of the specs;
    pass one explicitly when the spec moments are not analytic.
    """
    pairs = [(spec, int(count)) for spec, count in pairs]
    samples = _trial_samples(pairs, seed, trials)
    z = _check_z(z)
    n = sum(count for _, count in pairs)
    if mixture is None:
        mixture = mixture_of(pairs)
    elif not pairs or (mixture.p, mixture.n) != (pairs[0][0].p, n):
        raise ShapeError(
            f"mixture has (p, n) = ({mixture.p}, {mixture.n}), "
            "which the (spec, count) pairs do not match"
        )
    acc = np.zeros((mixture.p, mixture.p))
    for X in samples:
        acc += np.linalg.inv(_gram(X, n, z))
    mean_q = acc / trials
    mean_q = (mean_q + mean_q.T) / 2.0
    sol = solve_delta(mixture, z)
    target = deterministic_resolvent(mixture, sol.delta, z)
    gap = mean_q - target
    return float(np.abs(np.linalg.eigvalsh(gap)).max())


def delta_gap_sweep(
    sizes, gamma: float, z: float, trials: int, seed: int
) -> ScalingReport:
    """Expected single-realization gap |delta-hat - delta'| across sample sizes.

    Single-class identity-covariance Gaussian data at aspect ratio
    p = gamma * n for each n in ``sizes``. The per-size error is the Monte
    Carlo mean over trials of the sup-norm gap of one leave-one-out draw,
    which tracks the n^(-1/2) single-dataset accuracy directly; the gap of
    the trial-averaged estimate would instead bottom out at the Monte Carlo
    noise of the average.
    """
    def error(pairs, n, subseed):
        est = delta_empirical(pairs, z, trials, subseed)
        sol = solve_delta(mixture_of(pairs), z)
        return float(np.abs(est.draws - sol.delta[None, :]).max(axis=1).mean())

    return _size_sweep(sizes, gamma, seed, error)


def resolvent_error_sweep(
    sizes, gamma: float, z: float, trials: int, seed: int
) -> ScalingReport:
    """Spectral-norm error of the mean resolvent across sample sizes.

    ``trials`` is the Monte Carlo budget at the smallest size and the budget
    grows linearly with n. The growth is structural, not a tuning knob: the
    spectral norm of the averaging noise is dimension-free at fixed budget
    (entry variance ~ 1/(p * trials) against a sqrt(p) norm factor), so a
    flat budget would floor the curve at that noise level no matter how
    large n becomes. Linear scaling keeps the noise proportional to the
    n^(-1/2) bias target the sweep is meant to expose.
    """
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    sizes = [int(n) for n in sizes]

    def error(pairs, n, subseed):
        budget = max(10, round(trials * n / sizes[0]))
        return resolvent_mean_error(pairs, z, budget, subseed)

    return _size_sweep(sizes, gamma, seed, error)


def _isotropic(p) -> GeneratorSpec:
    """The N(0, I_p) generator that every named check samples."""
    if p < 1:
        raise ParameterError(f"p must be a positive integer, got {p}")
    return GeneratorSpec("gaussian", np.zeros(p), np.eye(p))


def _size_sweep(sizes, gamma, seed, error) -> ScalingReport:
    """Log-log report of ``error(pairs, n, subseed)`` over the sample sizes n, where
    size n is one N(0, I_p) class of n columns at p = max(1, round(gamma n)) and
    its subseed is derive_seed(seed, n). Sizes and gamma are checked first."""
    sizes = [int(n) for n in sizes]
    if len(sizes) < 2 or sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"sizes must be 2 or more increasing positive integers, got {sizes}")
    if not 0 < gamma < np.inf:
        raise ParameterError(f"gamma must be finite and positive, got {gamma}")
    errors = [error([(_isotropic(max(1, round(gamma * n))), n)], n, derive_seed(seed, n))
              for n in sizes]
    return ScalingReport.from_points(sizes, errors)


def _rate_records(report, size_name, slope_name, trials, seed, slope_max):
    """One record per size, then the slope record, which passes at or below slope_max."""
    records = [
        (f"{size_name}{int(n)}", err, None, trials, seed, True)
        for n, err in zip(report.sizes, report.errors)
    ]
    records.append((slope_name, report.slope, None, trials, seed, report.slope <= slope_max))
    return records


def _check_tail_fit(seed, *, p=256, samples=100_000, q_lo=1.6, q_hi=2.4):
    # Blocks of whole 64-column sampler chunks keep one draw's norms; samples < 1 fails there.
    spec, block = _isotropic(p), 4096
    norms = np.concatenate([np.linalg.norm(sample_class(
        spec, min(block, samples - start), seed, column_offset=start), axis=0)
        for start in range(0, max(samples, 1), block)])
    dev = np.abs(norms - np.median(norms))
    grid = tail_thresholds(dev)
    profile = tail_profile(norms, grid)
    fit = fit_exponential_tail(profile)
    return [
        ("tail_q", fit.exponent_q, None, samples, seed, q_lo <= fit.exponent_q <= q_hi),
        ("tail_sigma", fit.tail_sigma, None, samples, seed, True),
        ("tail_r2", fit.r2, None, samples, seed, True),
    ]


def _check_diameter(seed, *, p_list=(64, 256, 1024), trials=2000, ratio_max=2.0):
    if not p_list:
        raise ParameterError("p_list must name at least one dimension, got none")
    specs = [_isotropic(p) for p in p_list]
    values = []
    records = []
    for p, spec in zip(p_list, specs):
        est = observable_diameter(
            spec, ["euclidean-norm"], trials, derive_seed(seed, p)
        )
        values.append(est.value)
        records.append((f"diameter_p{p}", est.value, est.stderr, trials, seed, True))
    ratio = max(values) / min(values)
    records.append(("diameter_ratio", ratio, None, trials, seed, ratio <= ratio_max))
    return records


def _check_quad_form(seed, *, p=100, trials=10_000, mean_tol=0.5, std_rtol=0.1):
    check = quadratic_form_check(_isotropic(p), np.eye(p), trials, seed)
    std_target = np.sqrt(2.0 * p)
    return [
        (
            "quadform_mean",
            check.mean,
            check.stderr,
            trials,
            seed,
            abs(check.mean - p) <= mean_tol,
        ),
        (
            "quadform_std",
            check.std,
            None,
            trials,
            seed,
            abs(check.std - std_target) <= std_rtol * std_target,
        ),
    ]


def _check_delta_gap(
    seed, *, sizes=(100, 200, 400, 800), gamma=0.5, z=1.0, trials=200, slope_max=-0.35
):
    report = delta_gap_sweep(sizes, gamma, z, trials, seed)
    return _rate_records(report, "delta_gap_n", "delta_gap_slope", trials, seed, slope_max)


def _check_resolvent_error(
    seed, *, sizes=(100, 200, 400, 800), gamma=0.5, z=1.0, trials=100, slope_max=-0.35
):
    report = resolvent_error_sweep(sizes, gamma, z, trials, seed)
    records = _rate_records(report, "resolvent_err_n", "resolvent_slope", trials, seed, slope_max)
    decreasing = bool(np.all(np.diff(report.errors) < 0))
    records.append(
        ("resolvent_monotone", float(decreasing), None, trials, seed, decreasing)
    )
    return records


# Named checks of ``covspec conclab``. Each takes a seed and, as keyword-only
# arguments, the overrides of its [conclab.<name>] config section; the keys
# and their types are read off that signature. Each returns records
# (name, value, stderr, n, seed, passed).
CHECKS = {
    "tail_fit": _check_tail_fit,
    "diameter": _check_diameter,
    "quad_form": _check_quad_form,
    "delta_gap": _check_delta_gap,
    "resolvent_error": _check_resolvent_error,
}
