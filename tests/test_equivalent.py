"""Deterministic equivalent, Stieltjes values, and density recovery."""

import numpy as np
import pytest

from conftest import identity_mixture, mp_density
from covspec.equivalent import resolvent_bounds
from covspec.fixed_point import _DenseTraces, _SpectralTraces, _solve, _trace_backend
from covspec import (
    ClassModel,
    ConvergenceError,
    DataError,
    ParameterError,
    ShapeError,
    atom_at_zero,
    build_mixture,
    density_prediction,
    deterministic_resolvent,
    empirical_resolvent,
    empirical_spectrum,
    empirical_stieltjes,
    interference_map,
    sigma_delta,
    solve_delta,
    solve_delta_complex,
    stieltjes_from_delta,
    stieltjes_prediction,
    toeplitz_covariance,
)


def test_identity_equivalent_is_scalar_matrix():
    mix = identity_mixture(8, 16)
    sol = solve_delta(mix, 1.0)
    q = deterministic_resolvent(mix, sol.delta, 1.0)
    # Single class carries weight n_l/n = 1 regardless of the aspect ratio.
    scalar = 1.0 / (1.0 / (1.0 + sol.delta[0]) + 1.0)
    np.testing.assert_allclose(q, scalar * np.eye(8), atol=1e-12)


def test_sigma_delta_weighted_sum():
    t = toeplitz_covariance(0.5, 6)
    c1 = ClassModel(sigma=t, mean=np.zeros(6), n_l=3)
    c2 = ClassModel(sigma=2 * np.eye(6), mean=np.zeros(6), n_l=9)
    mix = build_mixture([c1, c2], 12)
    out = sigma_delta(mix, np.array([1.0, 3.0]))
    expected = (3 / 12) * t / 2.0 + (9 / 12) * 2 * np.eye(6) / 4.0
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_sigma_delta_rejects_pole():
    mix = identity_mixture(4, 4)
    with pytest.raises(ParameterError):
        sigma_delta(mix, np.array([-1.0]))
    with pytest.raises(ParameterError):
        stieltjes_from_delta(mix, np.array([-1.0]), 1.0)


@pytest.mark.parametrize("delta", [-0.5, np.nan, 0.5 + 0.1j])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda mix, delta: interference_map(delta, mix, 1.0),
        sigma_delta,
        lambda mix, delta: deterministic_resolvent(mix, delta, 1.0),
        lambda mix, delta: stieltjes_from_delta(mix, delta, 1.0),
    ],
    ids=["interference_map", "sigma_delta", "deterministic_resolvent", "stieltjes_from_delta"],
)
def test_delta_evaluators_share_one_admissibility_rule(evaluate, delta):
    # A fixed-point vector is real and entrywise nonnegative for every evaluator.
    with pytest.raises(ParameterError, match="real and entrywise nonnegative"):
        evaluate(identity_mixture(4, 4), np.array([delta]))


def test_solution_carries_the_stieltjes_value_of_its_delta(rng):
    # The value the solve read off its last evaluation is, to the bit, a
    # fresh trace at the returned delta, on both backends.
    t = toeplitz_covariance(0.5, 12)
    a = rng.standard_normal((12, 12))
    s = a @ a.T / 12
    spectral = build_mixture([ClassModel(sigma=t, mean=np.zeros(12), n_l=10)], 10)
    dense = build_mixture(
        [
            ClassModel(sigma=t, mean=np.zeros(12), n_l=6),
            ClassModel(sigma=(s + s.T) / 2, mean=np.zeros(12), n_l=9),
        ],
        15,
    )
    assert spectral.spectral() is not None and dense.spectral() is None
    for mix in (spectral, dense):
        for z in (0.1, 1.0, 7.0):
            sol = solve_delta(mix, z)
            assert sol.stieltjes == stieltjes_from_delta(mix, sol.delta, z)
            assert stieltjes_prediction(mix, z) == sol.stieltjes
        w = complex(1.0, 0.05)
        csol = solve_delta_complex(mix, w)
        fresh = _trace_backend(mix).traces(mix.weights / (1.0 + csol.delta), -w)[2]
        assert csol.stieltjes == fresh


def test_stieltjes_matches_trace_of_equivalent():
    t = toeplitz_covariance(0.7, 10)
    mix = build_mixture([ClassModel(sigma=t, mean=np.zeros(10), n_l=20)], 20)
    sol = solve_delta(mix, 0.6)
    direct = np.trace(deterministic_resolvent(mix, sol.delta, 0.6)) / 10
    np.testing.assert_allclose(
        stieltjes_from_delta(mix, sol.delta, 0.6), direct, atol=1e-12
    )


def test_stieltjes_fast_path_matches_dense_path(monkeypatch):
    # The joint-eigenbasis shortcut and the dense inverse path must agree
    # on the same mixture; disabling the cache forces the dense branch.
    t = toeplitz_covariance(0.4, 8)
    pair = [t, t @ t]
    classes = [ClassModel(sigma=s, mean=np.zeros(8), n_l=4) for s in pair]
    fast = build_mixture(classes, 8)
    assert fast.spectral() is not None
    fast_value = stieltjes_prediction(fast, 1.1)

    import covspec.model

    monkeypatch.setattr(covspec.model.Mixture, "spectral", lambda self: None)
    dense = build_mixture(classes, 8)
    assert dense.spectral() is None
    dense_value = stieltjes_prediction(dense, 1.1)
    np.testing.assert_allclose(fast_value, dense_value, atol=1e-10)


def _rotated_diagonal_mixture(rng, k, p=16):
    # Diagonal classes rotated by one random orthogonal matrix commute.
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    classes = []
    for _ in range(k):
        s = q @ np.diag(rng.uniform(0.2, 4.0, p)) @ q.T
        n_l = int(rng.integers(6, 20))
        classes.append(ClassModel(sigma=(s + s.T) / 2, mean=np.zeros(p), n_l=n_l))
    return build_mixture(classes, sum(c.n_l for c in classes))


def _dense_density(mix, backend, lam, epsilon, tol, max_iter):
    w = complex(lam, epsilon)
    delta = _solve(backend, mix, -w, tol, max_iter)[0]
    m = backend.traces(mix.weights / (1.0 + delta), -w)[2]
    return max(float(m.imag) / np.pi, 0.0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_spectral_and_dense_backends_agree(rng, k):
    # The public API runs on the joint eigenbasis of a commuting mixture;
    # the same loop on a dense backend built directly must match it.
    mix = _rotated_diagonal_mixture(rng, k)
    assert isinstance(_trace_backend(mix), _SpectralTraces)
    dense = _DenseTraces(mix)
    for z in (0.02, 0.3, 1.0, 5.0):
        sol = solve_delta(mix, z)
        delta, _, _, converged, _, _ = _solve(dense, mix, z, 1e-12, 10_000)
        assert sol.converged and converged
        np.testing.assert_allclose(delta, sol.delta, rtol=1e-9, atol=0)
        m_dense = dense.traces(mix.weights / (1.0 + delta), z)[2]
        np.testing.assert_allclose(
            m_dense, stieltjes_from_delta(mix, sol.delta, z), rtol=1e-9, atol=0
        )
    top = max(c.eigenvalues[-1] for c in mix.classes)
    grid = np.linspace(0.02, 1.5 * top * (1 + np.sqrt(mix.gamma)) ** 2, 30)
    pred = density_prediction(mix, grid, 1e-2, tol=1e-12, max_iter=20_000)
    assert pred.converged.all()
    dense_density = [_dense_density(mix, dense, lam, 1e-2, 1e-12, 20_000) for lam in grid]
    np.testing.assert_allclose(dense_density, pred.density, rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", [2, 3])
def test_class_permutation_permutes_delta(rng, k):
    mix = _rotated_diagonal_mixture(rng, k)
    perm = np.roll(np.arange(k), 1)
    permuted = build_mixture([mix.classes[i] for i in perm], mix.n)
    for z in (0.1, 1.0):
        sol = solve_delta(mix, z)
        psol = solve_delta(permuted, z)
        np.testing.assert_allclose(psol.delta, sol.delta[perm], rtol=1e-9, atol=0)
        np.testing.assert_allclose(
            stieltjes_from_delta(permuted, psol.delta, z),
            stieltjes_from_delta(mix, sol.delta, z),
            rtol=1e-9,
            atol=0,
        )


def test_stieltjes_large_z_limit():
    t = toeplitz_covariance(0.5, 12)
    mix = build_mixture([ClassModel(sigma=t, mean=np.zeros(12), n_l=24)], 24)
    z = 1e6
    m = stieltjes_prediction(mix, z)
    assert 0.99 <= m * z <= 1.0


def test_stieltjes_prediction_raises_on_nonconvergence():
    mix = identity_mixture(20, 10)
    with pytest.raises(ConvergenceError) as info:
        stieltjes_prediction(mix, 0.3, max_iter=1)
    assert info.value.solution.iterations == 1
    assert not info.value.solution.converged


@pytest.mark.parametrize(
    "p,n,expected",
    [(30, 15, 0.5), (10, 20, 0.0), (20, 20, 0.0)],
)
def test_atom_at_zero_identity(p, n, expected):
    assert atom_at_zero(identity_mixture(p, n)) == expected


def test_atom_at_zero_rank_deficient_class():
    v = np.arange(1.0, 6.0)
    c = ClassModel(sigma=np.outer(v, v), mean=np.zeros(5), n_l=20)
    mix = build_mixture([c], 20)
    # Rank-one covariance supports only one nonzero sample direction.
    assert atom_at_zero(mix) == pytest.approx(4 / 5)


def test_density_matches_closed_form_inside_support():
    gamma = 0.5
    mix = identity_mixture(100, 200)
    lams = np.array([0.3, 0.8, 1.5, 2.5])
    pred = density_prediction(mix, lams, epsilon=1e-6)
    assert pred.converged.all()
    np.testing.assert_allclose(pred.density, mp_density(lams, gamma), atol=1e-4)


def test_density_vanishes_outside_support():
    mix = identity_mixture(100, 200)
    pred = density_prediction(mix, np.array([4.0, 6.0]), epsilon=1e-6)
    assert np.all(pred.density <= 1e-4)


def test_density_total_mass_with_atom():
    # gamma = 2: half the spectrum is an exact atom at zero.
    mix = identity_mixture(80, 40)
    assert atom_at_zero(mix) == 0.5
    grid = np.linspace(0.05, 6.5, 400)
    pred = density_prediction(mix, grid, epsilon=1e-4)
    bulk = np.trapezoid(pred.density, grid)
    total = bulk + pred.atom_at_zero
    assert 0.97 <= total <= 1.03


@pytest.mark.parametrize("lambdas, epsilon", [([1.0, np.nan], 0.01), ([1.0, 2.0], np.inf)])
def test_density_rejects_non_finite_grid_or_epsilon(lambdas, epsilon):
    # A NaN grid point has no solution, and epsilon = inf flattens the profile to 0.
    with pytest.raises(ParameterError, match="finite"):
        density_prediction(identity_mixture(4, 8), lambdas, epsilon)


def test_density_halving_epsilon_is_stable():
    # Cauchy smoothing converges: the epsilon/2 -> epsilon/4 step is no
    # larger than twice the epsilon -> epsilon/2 step on smooth points.
    mix = identity_mixture(60, 120)
    lams = np.array([0.5, 1.0, 1.8])
    eps = 1e-2
    f1 = density_prediction(mix, lams, epsilon=eps).density
    f2 = density_prediction(mix, lams, epsilon=eps / 2).density
    f4 = density_prediction(mix, lams, epsilon=eps / 4).density
    step12 = np.abs(f1 - f2)
    step24 = np.abs(f2 - f4)
    assert np.all(step24 <= 2.0 * step12 + 1e-12)


def test_density_grid_validation():
    mix = identity_mixture(4, 8)
    with pytest.raises(ParameterError):
        density_prediction(mix, np.array([1.0, 1.0]), epsilon=1e-3)
    with pytest.raises(ParameterError):
        density_prediction(mix, np.array([2.0, 1.0]), epsilon=1e-3)
    with pytest.raises(ParameterError):
        density_prediction(mix, np.array([1.0]), epsilon=0.0)


def test_density_single_point_grid():
    mix = identity_mixture(4, 8)
    pred = density_prediction(mix, np.array([1.0]), epsilon=1e-4)
    assert pred.density.shape == (1,)
    assert pred.density[0] >= 0


def test_empirical_resolvent_exact_two_by_two():
    x = np.sqrt(2.0) * np.eye(2)
    np.testing.assert_allclose(
        empirical_resolvent(x, 3.0), np.eye(2) / 4.0, atol=1e-14
    )
    np.testing.assert_allclose(empirical_stieltjes(x, 3.0), 0.25, atol=1e-14)


def test_resolvent_bounds_hold_on_random_inputs(rng):
    for _ in range(100):
        p = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        z = float(rng.uniform(0.05, 10.0))
        x = rng.standard_normal((p, n)) * rng.uniform(0.1, 3.0)
        q = empirical_resolvent(x, z)
        bounds = resolvent_bounds(x, z, q)
        assert bounds["resolvent"] <= 1.0 / z + 1e-10
        assert bounds["resolvent_covariance"] <= 1.0 + 1e-10
        assert bounds["resolvent_data"] <= 1.0 / np.sqrt(z) + 1e-10


@pytest.mark.parametrize(
    "x, z, q, error",
    [
        (np.ones((3, 4)), -1.0, np.eye(3), ParameterError),
        (np.ones(3), 1.0, np.eye(3), ShapeError),
        (np.ones((3, 4)), 1.0, np.eye(2), ShapeError),
    ],
    ids=["negative z", "1-d X", "Q of the wrong size"],
)
def test_resolvent_bounds_checks_inputs_when_q_is_passed(x, z, q, error):
    with pytest.raises(error):
        resolvent_bounds(x, z, q)


# Every function of a data matrix X checks it the same way: 2-d, p and n at
# least 1, finite entries.
DATA_MATRIX_FUNCTIONS = {
    "empirical_spectrum": empirical_spectrum,
    "empirical_resolvent": lambda x: empirical_resolvent(x, 1.0),
    "empirical_stieltjes": lambda x: empirical_stieltjes(x, 1.0),
    "resolvent_bounds": lambda x: resolvent_bounds(x, 1.0),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(DATA_MATRIX_FUNCTIONS))
def test_data_matrix_functions_reject_non_finite_entries(name, bad):
    x = np.ones((3, 4))
    x[1, 2] = bad
    with pytest.raises(DataError):
        DATA_MATRIX_FUNCTIONS[name](x)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0), (3,)])
@pytest.mark.parametrize("name", sorted(DATA_MATRIX_FUNCTIONS))
def test_data_matrix_functions_reject_empty_or_1d_data(name, shape):
    with pytest.raises(ShapeError):
        DATA_MATRIX_FUNCTIONS[name](np.zeros(shape))


def test_empirical_stieltjes_matches_eigenvalues(rng):
    x = rng.standard_normal((6, 9))
    s = x @ x.T / 9
    vals = np.linalg.eigvalsh((s + s.T) / 2)
    np.testing.assert_allclose(
        empirical_stieltjes(x, 2.0), np.mean(1.0 / (vals + 2.0)), atol=1e-12
    )
