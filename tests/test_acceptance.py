"""Acceptance gate: one test per stated criterion, at the stated tolerance.

``pytest -v tests/test_acceptance.py`` yields one PASSED/FAILED line per
criterion; each test additionally prints its measured numbers (visible with
``-s`` or on failure).
"""

import hashlib
import textwrap
import time

import numpy as np

from covspec import (
    ClassModel,
    TailProfile,
    bounded_class_spec,
    build_mixture,
    check_sigma_lipschitz,
    check_singular_triangle,
    class_model_of,
    delta_gap_sweep,
    density_prediction,
    empirical_spectrum,
    fit_exponential_tail,
    gaussian_class_spec,
    majorizes,
    observable_diameter,
    quadratic_form_check,
    resolvent_error_sweep,
    sample_class,
    sample_mixture,
    singular_values,
    solve_delta,
    spectral_ks_distance,
    stieltjes_prediction,
    tail_profile,
    tail_thresholds,
    toeplitz_covariance,
)
from covspec.cli import _binned_prediction, main
from covspec.sampler import derive_seed

from conftest import identity_mixture, mp_positive_root


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status} - {detail}")


def test_criterion_01_fixed_point_matches_quadratic_oracle():
    start = time.perf_counter()
    n = 20
    worst = 0.0
    for gamma in (0.1, 0.5, 1.0, 2.0):
        mix = identity_mixture(round(gamma * n), n)
        for z in (0.1, 1.0, 10.0):
            sol = solve_delta(mix, z)
            worst = max(worst, abs(sol.delta[0] - mp_positive_root(gamma, z)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, "single-class-fixed-point", ok, f"max|err|={worst:.3e}, {elapsed:.3f}s")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_density_matches_closed_form_value():
    start = time.perf_counter()
    mix = identity_mixture(200, 200)
    pred = density_prediction(mix, np.array([2.0]), 1e-4)
    target = 1.0 / (2.0 * np.pi)
    err = abs(float(pred.density[0]) - target)
    elapsed = time.perf_counter() - start
    ok = err <= 2e-3 and elapsed < 5.0
    report(2, "square-case-density-value", ok, f"|err|={err:.3e}, {elapsed:.3f}s")
    assert err <= 2e-3
    assert elapsed < 5.0


def test_criterion_03_two_class_histogram_and_stieltjes():
    start = time.perf_counter()
    p = n = 500
    base = toeplitz_covariance(0.1, p)
    sigma1 = 10.0 * base
    squared = base @ base
    sigma2 = 10.0 * (squared + squared.T) / 2.0
    mix = build_mixture(
        [
            ClassModel(sigma=sigma1, mean=np.zeros(p), n_l=50),
            ClassModel(sigma=sigma2, mean=np.zeros(p), n_l=450),
        ],
        n,
    )
    pairs = [(gaussian_class_spec(sigma1), 50), (gaussian_class_spec(sigma2), 450)]

    z_grid = np.linspace(0.5, 5.0, 10)
    pooled = []
    m_emp = np.empty((10, z_grid.size))
    for s in range(10):
        spectrum = empirical_spectrum(sample_mixture(pairs, s))
        pooled.append(spectrum)
        m_emp[s] = [float(np.mean(1.0 / (spectrum + z))) for z in z_grid]
    pooled = np.concatenate(pooled)

    top = float(pooled.max())
    edges = np.linspace(0.0, top * (1.0 + 1e-9), 21)
    counts, _ = np.histogram(pooled, bins=edges)
    emp_mass = counts / pooled.size

    grid = np.geomspace(1e-8, top * 1.05, 400)
    pred = density_prediction(mix, grid, 3e-5, tol=1e-10, max_iter=20_000)
    assert bool(pred.converged.all())
    pred_mass = _binned_prediction(pred, edges)
    l1 = float(np.abs(emp_mass - pred_mass).sum())

    m_pred = np.array([stieltjes_prediction(mix, float(z)) for z in z_grid])
    sup_err = float(np.abs(m_emp.mean(axis=0) - m_pred).max())
    elapsed = time.perf_counter() - start
    ok = l1 <= 0.1 and sup_err <= 0.05 and elapsed < 120.0
    report(
        3,
        "two-class-toeplitz-reproduction",
        ok,
        f"hist_l1={l1:.4f}, sup_stieltjes_err={sup_err:.2e}, {elapsed:.1f}s",
    )
    assert l1 <= 0.1
    assert sup_err <= 0.05
    assert elapsed < 120.0


def test_criterion_04_generator_universality():
    start = time.perf_counter()
    p = n = 400
    sigma = toeplitz_covariance(0.3, p)
    gauss = gaussian_class_spec(sigma)
    bounded = bounded_class_spec(sigma)
    spec_g = empirical_spectrum(sample_class(gauss, n, derive_seed(0, 1)))
    spec_b = empirical_spectrum(sample_class(bounded, n, derive_seed(0, 2)))
    ks = spectral_ks_distance(spec_g, spec_b)

    model_g = class_model_of(gauss, n)
    model_b = class_model_of(bounded, n)
    moment_gap = float(np.abs(model_g.sigma - model_b.sigma).max())
    sol_g = solve_delta(build_mixture([model_g], n), 1.0)
    sol_b = solve_delta(build_mixture([model_b], n), 1.0)
    delta_gap = float(np.abs(sol_g.delta - sol_b.delta).max())
    elapsed = time.perf_counter() - start
    ok = ks <= 0.1 and moment_gap == 0.0 and delta_gap == 0.0 and elapsed < 60.0
    report(
        4,
        "matched-moment-universality",
        ok,
        f"ks={ks:.4f}, moment_gap={moment_gap:g}, delta_gap={delta_gap:g}, {elapsed:.1f}s",
    )
    assert ks <= 0.1
    assert moment_gap == 0.0
    assert delta_gap == 0.0
    assert elapsed < 60.0


def test_criterion_05_leave_one_out_rate():
    start = time.perf_counter()
    sweep = delta_gap_sweep([100, 200, 400, 800], 0.5, 1.0, 200, seed=7)
    elapsed = time.perf_counter() - start
    ok = sweep.slope <= -0.35 and elapsed < 180.0
    report(
        5,
        "delta-hat-convergence-rate",
        ok,
        f"slope={sweep.slope:.3f}, errors={np.round(sweep.errors, 4).tolist()}, {elapsed:.1f}s",
    )
    assert sweep.slope <= -0.35
    assert elapsed < 180.0


def test_criterion_06_mean_resolvent_rate():
    start = time.perf_counter()
    sweep = resolvent_error_sweep([100, 200, 400, 800], 0.5, 1.0, 100, seed=11)
    elapsed = time.perf_counter() - start
    decreasing = bool(np.all(np.diff(sweep.errors) < 0))
    ok = sweep.slope <= -0.35 and decreasing and elapsed < 300.0
    report(
        6,
        "mean-resolvent-convergence-rate",
        ok,
        f"slope={sweep.slope:.3f}, decreasing={decreasing}, "
        f"errors={np.round(sweep.errors, 4).tolist()}, {elapsed:.1f}s",
    )
    assert sweep.slope <= -0.35
    assert decreasing
    assert elapsed < 300.0


def test_criterion_07_quadratic_form_concentration():
    start = time.perf_counter()
    p = 100
    check = quadratic_form_check(
        gaussian_class_spec(np.eye(p)), np.eye(p), trials=10_000, seed=3
    )
    std_target = np.sqrt(2.0 * p)
    mean_err = abs(check.mean - p)
    std_err = abs(check.std - std_target)
    elapsed = time.perf_counter() - start
    ok = mean_err <= 0.5 and std_err <= 0.1 * std_target and elapsed < 10.0
    report(
        7,
        "quadratic-form-moments",
        ok,
        f"mean={check.mean:.3f} (target {p}), std={check.std:.3f} "
        f"(target {std_target:.3f}), {elapsed:.2f}s",
    )
    assert mean_err <= 0.5
    assert std_err <= 0.1 * std_target
    assert elapsed < 10.0


def test_criterion_08_tail_fitting_and_diameter():
    start = time.perf_counter()
    worst_fit = 0.0
    for q in (0.5, 1.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            t_hi = sigma * np.log(1 / 1e-4) ** (1 / q) * 0.999
            t = np.geomspace(0.05, t_hi, 60)
            prof = TailProfile(
                thresholds=t,
                exceedance=np.exp(-((t / sigma) ** q)),
                pivot=0.0,
                n_samples=10**6,
            )
            fit = fit_exponential_tail(prof)
            worst_fit = max(
                worst_fit, abs(fit.exponent_q - q), abs(fit.tail_sigma - sigma)
            )

    draws = sample_class(gaussian_class_spec(np.eye(256)), 100_000, seed=3)
    norms = np.linalg.norm(draws, axis=0)
    deviations = np.abs(norms - np.median(norms))
    profile = tail_profile(norms, tail_thresholds(deviations))
    mc_fit = fit_exponential_tail(profile)

    diameters = []
    functionals = ["euclidean-norm", "first-coordinate", "coordinate-mean"]
    for p in (64, 256, 1024):
        est = observable_diameter(
            gaussian_class_spec(np.eye(p)), functionals, trials=2000, seed=9
        )
        diameters.append(est.value)
    ratio = max(diameters) / min(diameters)
    elapsed = time.perf_counter() - start
    ok = (
        worst_fit <= 1e-6
        and 1.6 <= mc_fit.exponent_q <= 2.4
        and ratio <= 2.0
        and elapsed < 60.0
    )
    report(
        8,
        "tail-exponent-and-diameter",
        ok,
        f"synthetic_err={worst_fit:.2e}, q_hat={mc_fit.exponent_q:.4f}, "
        f"diameter_ratio={ratio:.3f}, {elapsed:.1f}s",
    )
    assert worst_fit <= 1e-6
    assert 1.6 <= mc_fit.exponent_q <= 2.4
    assert ratio <= 2.0
    assert elapsed < 60.0


def test_criterion_09_majorization_inequalities():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    failures = 0
    for _ in range(10_000):
        rows = int(rng.integers(1, 21))
        cols = int(rng.integers(1, 21))
        A = rng.standard_normal((rows, cols))
        B = rng.standard_normal((rows, cols))
        sv_sum = singular_values(A) + singular_values(B)
        sv_ab = singular_values(A + B)
        if np.any(np.cumsum(sv_ab) > np.cumsum(sv_sum) + 1e-10):
            failures += 1
        gap = np.abs(singular_values(A) - singular_values(B)).max()
        if gap > np.linalg.norm(A - B, 2) + 1e-10:
            failures += 1
        if not check_singular_triangle(A, B):
            failures += 1
        if not check_sigma_lipschitz(A, B):
            failures += 1
    for _ in range(2000):
        size = int(rng.integers(2, 12))
        x = np.sort(rng.standard_normal(size))[::-1]
        if not majorizes(x, x):
            failures += 1
        y = x.copy()
        shift = rng.uniform(0.0, (x[0] - x[-1]) / 2.0)
        y[0] -= shift
        y[-1] += shift
        y = np.sort(y)[::-1]
        z = y.copy()
        shift = rng.uniform(0.0, (y[0] - y[-1]) / 2.0)
        z[0] -= shift
        z[-1] += shift
        z = np.sort(z)[::-1]
        if not (majorizes(x, y) and majorizes(y, z) and majorizes(x, z)):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(9, "singular-value-order-relations", ok, f"failures={failures}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 30.0


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        textwrap.dedent(
            """
            [mixture]
            p = 4
            n = 8
            classes = a

            [class.a]
            n_l = 8
            sigma = identity

            [simulate]
            seed = 3

            [compare]
            z_grid = 1 2
            lambda_grid = 0.01:3:40
            epsilon = 0.01
            trials = 3
            bins = 5
            """
        )
    )
    identical = True
    for command in ("simulate", "compare"):
        digests = []
        for run in ("first", "second"):
            out = tmp_path / f"{command}-{run}"
            code = main(
                [
                    command,
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--seed",
                    "9",
                    "--threads",
                    "2",
                ]
            )
            assert code == 0
            digests.append(
                {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in out.iterdir()
                }
            )
        assert digests[0]  # each command writes at least one file
        identical &= digests[0] == digests[1]
    report(10, "byte-identical-reruns", identical, "simulate+compare hashed twice")
    assert identical
