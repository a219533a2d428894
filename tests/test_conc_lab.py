"""Monte Carlo concentration checks against closed-form targets."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import no_sampling
import covspec.sampler
from covspec import (
    ClassModel,
    DataError,
    GeneratorSpec,
    ParameterError,
    ScalingReport,
    ShapeError,
    TailProfile,
    bounded_class_spec,
    build_mixture,
    delta_empirical,
    delta_gap_sweep,
    fit_exponential_tail,
    gaussian_class_spec,
    observable_diameter,
    quadratic_form_check,
    resolvent_error_sweep,
    resolvent_mean_error,
    solve_delta,
    tail_profile,
    tail_thresholds,
    toeplitz_covariance,
)
from covspec.conc_lab import (
    LIPSCHITZ_FUNCTIONALS,
    _check_delta_gap,
    _check_diameter,
    _check_resolvent_error,
    _check_tail_fit,
    _isotropic,
)
from covspec.sampler import derive_seed, mixture_of, sample_class, sample_mixture


def test_tail_profile_constant_samples():
    prof = tail_profile(np.full(200, 3.0), np.array([0.1, 1.0]))
    np.testing.assert_array_equal(prof.exceedance, [0.0, 0.0])
    assert prof.pivot == 3.0


def test_tail_profile_zero_threshold_is_one(rng):
    prof = tail_profile(rng.standard_normal(500), np.array([0.0, 0.5]))
    assert prof.exceedance[0] == 1.0


def test_tail_profile_standard_normal_exceedance(rng):
    samples = rng.standard_normal(100_000)
    prof = tail_profile(samples, np.array([1.0]))
    # P(|Z| >= 1) for a standard normal.
    assert abs(prof.exceedance[0] - 0.3173) <= 0.01


def test_tail_profile_is_nonincreasing(rng):
    prof = tail_profile(rng.standard_normal(1000), np.linspace(0.1, 3, 20))
    assert np.all(np.diff(prof.exceedance) <= 0)


def test_tail_profile_validation(rng):
    with pytest.raises(ParameterError):
        tail_profile(np.ones(50), np.array([1.0]))  # too few samples
    with pytest.raises(ParameterError):
        tail_profile(rng.standard_normal(200), np.array([]))
    with pytest.raises(ParameterError):
        tail_profile(rng.standard_normal(200), np.array([0.5, 0.2]))
    with pytest.raises(ParameterError):
        tail_profile(rng.standard_normal(200), np.array([-0.5, 0.2]))


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_fit_recovers_exact_synthetic_tails(q, sigma):
    t_hi = sigma * np.log(1 / 1e-4) ** (1 / q) * 0.999
    t = np.geomspace(0.05, t_hi, 60)
    prof = TailProfile(
        thresholds=t,
        exceedance=np.exp(-((t / sigma) ** q)),
        pivot=0.0,
        n_samples=10**6,
    )
    fit = fit_exponential_tail(prof)
    assert abs(fit.exponent_q - q) <= 1e-6
    assert abs(fit.tail_sigma - sigma) <= 1e-6
    assert fit.head_C >= 1.0


def test_fit_gaussian_example_values():
    # P(t) = exp(-t^2/2) reads as exponent 2 with tail scale sqrt(2).
    t = np.geomspace(0.3, 4.0, 40)
    prof = TailProfile(
        thresholds=t, exceedance=np.exp(-(t**2) / 2), pivot=0.0, n_samples=10**6
    )
    fit = fit_exponential_tail(prof)
    assert abs(fit.exponent_q - 2.0) <= 1e-6
    assert abs(fit.tail_sigma - np.sqrt(2.0)) <= 1e-6


def test_fit_requires_enough_window_points():
    t = np.array([0.1, 0.2, 0.3, 0.4])
    prof = TailProfile(
        thresholds=t, exceedance=np.exp(-t), pivot=0.0, n_samples=1000
    )
    with pytest.raises(DataError):
        fit_exponential_tail(prof)


def test_fit_rejects_degenerate_profiles():
    t = np.linspace(0.1, 2.0, 30)
    prof = TailProfile(
        thresholds=t, exceedance=np.full(30, 0.25), pivot=0.0, n_samples=1000
    )
    with pytest.raises(DataError):
        fit_exponential_tail(prof)  # flat profile has slope 0


def test_fitted_curve_majorizes_empirical_tail(rng):
    samples = np.abs(rng.standard_normal(50_000))
    dev = np.abs(samples - np.median(samples))
    grid = tail_thresholds(dev, lo=0.6, hi=0.999, count=30)
    prof = tail_profile(samples, grid)
    fit = fit_exponential_tail(prof)
    keep = (prof.exceedance > 1e-4) & (prof.exceedance < 0.5)
    curve = fit.head_C * np.exp(-((prof.thresholds[keep] / fit.tail_sigma) ** fit.exponent_q))
    assert np.all(curve >= prof.exceedance[keep] - 1e-12)


def test_tail_thresholds_validation(rng):
    dev = np.abs(rng.standard_normal(1000))
    with pytest.raises(ParameterError):
        tail_thresholds(dev, lo=0.9, hi=0.9)
    with pytest.raises(ParameterError):
        tail_thresholds(dev, lo=0.0, hi=0.5)
    with pytest.raises(ParameterError):
        tail_thresholds(dev, count=4)
    with pytest.raises(DataError):
        tail_thresholds(np.zeros(1000))


def test_observable_diameter_deterministic_spec_is_zero():
    spec = GeneratorSpec(kind="gaussian", mean=np.zeros(3), factor=np.zeros((3, 3)))
    est = observable_diameter(spec, ["euclidean-norm"], trials=200, seed=0)
    assert est.value == 0.0


def test_observable_diameter_first_coordinate_gaussian():
    # f(X) - f(X') is N(0, 2); its absolute mean is 2/sqrt(pi).
    spec = gaussian_class_spec(np.eye(16))
    est = observable_diameter(spec, ["first-coordinate"], trials=8000, seed=4)
    assert abs(est.value - 2 / np.sqrt(np.pi)) <= 0.03
    assert est.stderr < 0.02


def test_observable_diameter_dimension_free_norm():
    values = []
    for p in (64, 1024):
        spec = gaussian_class_spec(np.eye(p))
        est = observable_diameter(spec, ["euclidean-norm"], trials=600, seed=8)
        values.append(est.value)
    ratio = values[1] / values[0]
    assert 0.5 <= ratio <= 2.0


PER_COLUMN = {
    "euclidean-norm": lambda x: float(np.sqrt(sum(v * v for v in x))),
    "first-coordinate": lambda x: float(x[0]),
    "coordinate-mean": lambda x: float(sum(x) / x.size),
}


@pytest.mark.parametrize("name", sorted(LIPSCHITZ_FUNCTIONALS))
def test_lipschitz_functionals_act_column_wise(name, rng):
    block = rng.standard_normal((37, 50)) + 0.5
    want = np.array([PER_COLUMN[name](block[:, i]) for i in range(50)])
    got = LIPSCHITZ_FUNCTIONALS[name](block)
    assert got.shape == (50,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # A single column still maps to one value.
    assert LIPSCHITZ_FUNCTIONALS[name](block[:, 3]) == pytest.approx(want[3], rel=1e-12)


def test_observable_diameter_matches_per_column_loop():
    spec = gaussian_class_spec(np.eye(12) + 0.2)
    trials, seed = 300, 5
    first = sample_class(spec, trials, seed, column_offset=0)
    second = sample_class(spec, trials, seed, column_offset=trials)
    names = sorted(LIPSCHITZ_FUNCTIONALS)
    est = observable_diameter(spec, names, trials=trials, seed=seed)
    for name in names:
        f = PER_COLUMN[name]
        gaps = np.array([abs(f(first[:, i]) - f(second[:, i])) for i in range(trials)])
        mean, se = est.per_functional[name]
        assert mean == pytest.approx(gaps.mean(), rel=1e-12)
        assert se == pytest.approx(gaps.std(ddof=1) / np.sqrt(trials), rel=1e-10)


def test_diameter_check_records_each_dimension_and_the_ratio():
    records = _check_diameter(7, p_list=(16, 64), trials=400)
    assert [r[0] for r in records] == ["diameter_p16", "diameter_p64", "diameter_ratio"]
    values = [r[1] for r in records[:2]]
    assert records[2][1] == pytest.approx(max(values) / min(values))
    # E|(|X| - |X'|)| for N(0, I_p) is near 2 / sqrt(2 pi) ~ 0.8 whatever p is.
    assert all(0.6 <= v <= 1.0 for v in values)
    assert all(r[5] for r in records)


def test_observable_diameter_validation():
    spec = gaussian_class_spec(np.eye(2))
    with pytest.raises(ParameterError):
        observable_diameter(spec, [], trials=200, seed=0)
    with pytest.raises(ParameterError):
        observable_diameter(spec, ["no-such"], trials=200, seed=0)
    with pytest.raises(ParameterError):
        observable_diameter(spec, ["euclidean-norm"], trials=50, seed=0)


def test_quad_form_zero_matrix():
    spec = gaussian_class_spec(np.eye(4))
    check = quadratic_form_check(spec, np.zeros((4, 4)), trials=50, seed=0)
    assert check.mean == 0.0
    assert check.std == 0.0
    assert check.pivot == 0.0


def test_quad_form_rademacher_identity_is_exact():
    spec = bounded_class_spec(np.eye(6))
    check = quadratic_form_check(spec, np.eye(6), trials=100, seed=1)
    assert check.mean == pytest.approx(6.0, abs=1e-12)
    assert check.std == pytest.approx(0.0, abs=1e-12)
    assert check.bias == pytest.approx(0.0, abs=1e-12)


def test_quad_form_gaussian_chi_square_moments():
    p = 50
    spec = gaussian_class_spec(np.eye(p))
    check = quadratic_form_check(spec, np.eye(p), trials=2000, seed=6)
    assert abs(check.mean - p) <= 1.0
    assert abs(check.std - np.sqrt(2 * p)) <= 0.15 * np.sqrt(2 * p)
    assert check.pivot == p


def test_quad_form_pivot_includes_mean():
    mean = np.array([2.0, 0.0, -1.0])
    sigma = np.eye(3) + np.outer(mean, mean)
    spec = gaussian_class_spec(sigma, mean)
    check = quadratic_form_check(spec, np.eye(3), trials=4000, seed=7)
    assert check.pivot == pytest.approx(np.trace(sigma))
    assert abs(check.bias) <= 0.3


def test_quad_form_validation():
    spec = gaussian_class_spec(np.eye(3))
    with pytest.raises(ShapeError):
        quadratic_form_check(spec, np.eye(4), trials=10, seed=0)
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(ShapeError):
        quadratic_form_check(spec, asym, trials=10, seed=0)
    # A is judged by the one exact symmetry rule: one ulp is asymmetric.
    ulp = np.eye(3)
    ulp[0, 1] = np.nextafter(0.0, 1.0)
    with pytest.raises(ShapeError, match="A must be exactly symmetric"):
        quadratic_form_check(spec, ulp, trials=10, seed=0)
    with pytest.raises(ParameterError):
        quadratic_form_check(spec, np.eye(3), trials=1, seed=0)


def test_delta_empirical_identity_near_fixed_point():
    p = n = 200
    pairs = [(gaussian_class_spec(np.eye(p)), n)]
    est = delta_empirical(pairs, z=1.0, trials=200, seed=12)
    assert abs(est.delta_hat[0] - 0.618) <= 0.05
    assert est.draws.shape == (200, 1)
    assert est.stderr.shape == (1,)
    sol = solve_delta(mixture_of(pairs), 1.0)
    assert abs(est.delta_hat[0] - sol.delta[0]) <= 4 * est.stderr[0] + 5e-3


def test_delta_empirical_zero_covariance_class():
    zero_spec = GeneratorSpec(
        kind="gaussian", mean=np.zeros(4), factor=np.zeros((4, 4))
    )
    pairs = [(zero_spec, 5), (gaussian_class_spec(np.eye(4)), 15)]
    est = delta_empirical(pairs, z=1.0, trials=10, seed=0)
    np.testing.assert_array_equal(est.draws[:, 0], np.zeros(10))
    assert est.delta_hat[0] == 0.0


def test_delta_empirical_one_trial_has_a_nan_stderr():
    # One draw has no spread to estimate: NaN, without numpy's ddof warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = delta_empirical([(gaussian_class_spec(np.eye(3)), 6)], z=1.0, trials=1, seed=0)
    assert est.draws.shape == (1, 1) and np.isfinite(est.delta_hat).all()
    assert np.isnan(est.stderr).all() and est.stderr.shape == (1,)


def test_delta_empirical_single_draw_std_shrinks_with_n():
    # The across-trials spread of the leave-one-out statistic decays with n.
    stds = []
    for n in (100, 400):
        pairs = [(gaussian_class_spec(np.eye(n // 2)), n)]
        est = delta_empirical(pairs, z=1.0, trials=60, seed=13)
        stds.append(est.draws.std(ddof=1))
    assert stds[1] < stds[0]


def test_delta_empirical_validation():
    pairs = [(gaussian_class_spec(np.eye(2)), 4)]
    with pytest.raises(ParameterError):
        delta_empirical(pairs, z=1.0, trials=0, seed=0)
    with pytest.raises(ParameterError):
        delta_empirical(pairs, z=0.0, trials=5, seed=0)
    with pytest.raises(ParameterError):
        delta_empirical([(gaussian_class_spec(np.eye(2)), 1)], z=1.0, trials=5, seed=0)


def _leave_one_out_draws(pairs, z, trials, seed):
    """Per class, y^T (S - y y^T/n + z I)^-1 y / n with y the class's first column."""
    n = sum(count for _, count in pairs)
    starts = np.cumsum([0] + [count for _, count in pairs[:-1]])
    draws = np.empty((trials, len(pairs)))
    for t in range(trials):
        X = sample_mixture(pairs, derive_seed(seed, t)).matrix
        S = X @ X.T / n
        S = (S + S.T) / 2.0
        for l, j in enumerate(starts):
            y = X[:, j]
            minus = S - np.outer(y, y) / n
            minus[np.diag_indices_from(minus)] += z
            draws[t, l] = y @ np.linalg.solve(minus, y) / n
    return draws


@pytest.mark.parametrize("z", [1.0, 1e-2])
@pytest.mark.parametrize("p", [12, 60], ids=["p<n", "p>n"])
def test_delta_empirical_matches_the_leave_one_out_resolvent(p, z):
    # The rank-one identity q/(1 - q), q = y^T Q y / n, against the
    # resolvent with the held-out column removed, on a k = 3 mixture.
    t = toeplitz_covariance(0.4, p)
    pairs = [
        (gaussian_class_spec(t), 13),
        (bounded_class_spec(2.0 * np.eye(p)), 9),
        (bounded_class_spec((t @ t + (t @ t).T) / 2.0, latent="uniform"), 18),
    ]
    est = delta_empirical(pairs, z=z, trials=4, seed=21)
    want = _leave_one_out_draws(pairs, z, 4, 21)
    np.testing.assert_allclose(est.draws, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("z", [-1.0, 0.0, np.nan, np.inf])
def test_conc_lab_checks_z_before_sampling(monkeypatch, z):
    monkeypatch.setattr(covspec.sampler, "sample_mixture", no_sampling)
    pairs = [(gaussian_class_spec(np.eye(3)), 6)]
    with pytest.raises(ParameterError):
        delta_empirical(pairs, z=z, trials=2, seed=0)
    with pytest.raises(ParameterError):
        resolvent_mean_error(pairs, z=z, trials=2, seed=0)


@pytest.mark.parametrize(
    "p, n", [(4, 20), (3, 40)], ids=["p differs", "n differs"]
)
def test_resolvent_mean_error_rejects_a_mismatched_mixture(monkeypatch, p, n):
    monkeypatch.setattr(covspec.sampler, "sample_mixture", no_sampling)
    pairs = [(gaussian_class_spec(np.eye(3)), 20)]
    mix = build_mixture([ClassModel(sigma=np.eye(p), mean=np.zeros(p), n_l=n)], n)
    with pytest.raises(ShapeError):
        resolvent_mean_error(pairs, z=1.0, trials=2, seed=0, mixture=mix)


@pytest.mark.parametrize("p", [1, 64, 256, 1024])
def test_isotropic_samples_match_the_identity_gaussian_spec(p):
    want = sample_class(gaussian_class_spec(np.eye(p)), 70, 3, column_offset=5)
    got = sample_class(_isotropic(p), 70, 3, column_offset=5)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [0, -3])
def test_isotropic_rejects_nonpositive_p(p):
    with pytest.raises(ParameterError):
        _isotropic(p)


@pytest.mark.parametrize("sweep", [delta_gap_sweep, resolvent_error_sweep])
@pytest.mark.parametrize(
    "sizes, gamma",
    [
        ((20,), 0.5),
        ((40, 20), 0.5),
        ((20, 20), 0.5),
        ((0, 20), 0.5),
        ((20, 40), 0.0),
        ((20, 40), -1.0),
        ((20, 40), np.nan),
        ((20, 40), np.inf),
    ],
)
def test_size_sweeps_check_sizes_and_gamma_before_sampling(monkeypatch, sweep, sizes, gamma):
    monkeypatch.setattr(covspec.sampler, "sample_mixture", no_sampling)
    with pytest.raises(ParameterError):
        sweep(sizes, gamma, 1.0, 3, 0)


@pytest.mark.parametrize(
    "check, names",
    [
        (_check_delta_gap, ["delta_gap_n20", "delta_gap_n40", "delta_gap_slope"]),
        (
            _check_resolvent_error,
            ["resolvent_err_n20", "resolvent_err_n40", "resolvent_slope", "resolvent_monotone"],
        ),
    ],
)
def test_rate_check_records(check, names):
    for slope_max, passed in ((np.inf, True), (-np.inf, False)):
        records = check(9, sizes=(20, 40), trials=3, slope_max=slope_max)
        assert [rec[0] for rec in records] == names
        assert all(rec[3:5] == (3, 9) for rec in records)
        assert all(rec[5] for rec in records[:2])
        errors = [rec[1] for rec in records[:2]]
        assert min(errors) > 0
        slope = records[2]
        assert slope[1] == ScalingReport.from_points([20, 40], errors).slope
        assert slope[5] is passed


def test_resolvent_mean_error_small_case():
    pairs = [(gaussian_class_spec(np.eye(10)), 20)]
    err = resolvent_mean_error(pairs, z=1.0, trials=20, seed=5)
    assert 0.0 < err < 0.5
    # Passing the analytic mixture explicitly changes nothing.
    same = resolvent_mean_error(pairs, z=1.0, trials=20, seed=5, mixture=mixture_of(pairs))
    assert err == same


def test_resolvent_mean_error_with_explicit_mixture_for_nonlinear_spec():
    spec = GeneratorSpec(
        kind="lipschitz-of-gaussian",
        mean=np.zeros(6),
        factor=np.eye(6),
        nonlinearity="tanh",
    )
    target = np.var(np.tanh(np.random.default_rng(0).standard_normal(200_000)))
    mix = build_mixture(
        [ClassModel(sigma=target * np.eye(6), mean=np.zeros(6), n_l=30)], 30
    )
    err = resolvent_mean_error([(spec, 30)], z=1.0, trials=30, seed=2, mixture=mix)
    assert err < 0.2


def test_scaling_report_exact_power_law():
    sizes = np.array([100.0, 200.0, 400.0, 800.0])
    report = ScalingReport.from_points(sizes, 3.0 * sizes**-0.5)
    assert report.slope == pytest.approx(-0.5, abs=1e-12)


def test_scaling_report_validation():
    with pytest.raises(ShapeError):
        ScalingReport.from_points([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        ScalingReport.from_points([1.0], [1.0])
    with pytest.raises(DataError):
        ScalingReport.from_points([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(DataError):
        ScalingReport.from_points([0.0, 2.0], [1.0, 1.0])


def test_sample_class_seed_validation():
    spec = gaussian_class_spec(np.eye(2))
    with pytest.raises(ParameterError):
        sample_class(spec, 0, seed=1)
    with pytest.raises(ParameterError):
        sample_class(spec, 2, seed=2**64)


def _tail_fit_from_one_draw(seed, p, samples):
    """Reference: the tail-fit records computed from one full (p, samples) draw."""
    norms = np.linalg.norm(sample_class(_isotropic(p), samples, seed), axis=0)
    fit = fit_exponential_tail(
        tail_profile(norms, tail_thresholds(np.abs(norms - np.median(norms))))
    )
    return [fit.exponent_q, fit.tail_sigma, fit.r2]


@pytest.mark.parametrize("samples", [4095, 4096, 4097, 8193, 9000])
def test_tail_fit_in_blocks_matches_one_full_draw(samples):
    records = _check_tail_fit(7, p=8, samples=samples)
    assert [r[1] for r in records] == _tail_fit_from_one_draw(7, 8, samples)
    assert all(r[3] == samples for r in records)


def test_tail_fit_memory_stays_below_one_full_draw():
    p, samples = 256, 40_000
    tracemalloc.start()
    try:
        _check_tail_fit(1, p=p, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * p * samples * 8


@pytest.mark.parametrize("samples", [0, -3])
def test_tail_fit_rejects_nonpositive_samples(samples):
    with pytest.raises(ParameterError, match="count must be at least 1"):
        _check_tail_fit(1, p=4, samples=samples)
