"""Class models, mixtures, and the joint-eigenbasis fast path."""

import numpy as np
import pytest

from conftest import identity_mixture
from covspec import (
    ClassModel,
    DataError,
    Mixture,
    ParameterError,
    ShapeError,
    build_mixture,
    estimate_class_model,
    toeplitz_covariance,
)


def test_toeplitz_entries():
    t = toeplitz_covariance(0.5, 3)
    expected = np.array(
        [
            [0.5, 0.25, 0.125],
            [0.25, 0.5, 0.25],
            [0.125, 0.25, 0.5],
        ]
    )
    np.testing.assert_allclose(t, expected, rtol=0, atol=0)


@pytest.mark.parametrize("a", [0.0, 1.0, -0.3, 1.7])
def test_toeplitz_parameter_range(a):
    with pytest.raises(ParameterError):
        toeplitz_covariance(a, 4)


def test_toeplitz_positive_definite():
    t = toeplitz_covariance(0.9, 40)
    assert np.linalg.eigvalsh(t)[0] > 0


def test_class_model_basic_fields():
    sigma = toeplitz_covariance(0.4, 5)
    model = ClassModel(sigma=sigma, mean=np.zeros(5), n_l=7)
    assert model.p == 5
    assert model.n_l == 7
    np.testing.assert_allclose(model.trace(), np.trace(sigma))
    assert model.rank() == 5


def test_class_model_rank_deficient():
    v = np.arange(1.0, 5.0)
    sigma = np.outer(v, v)
    model = ClassModel(sigma=sigma, mean=np.zeros(4), n_l=3)
    assert model.rank() == 1


def test_class_model_rejects_asymmetry():
    sigma = np.eye(3)
    sigma[0, 1] = 1e-14
    with pytest.raises(ShapeError):
        ClassModel(sigma=sigma, mean=np.zeros(3), n_l=2)


def test_class_model_rejects_nonsquare_and_bad_mean():
    with pytest.raises(ShapeError):
        ClassModel(sigma=np.zeros((2, 3)), mean=np.zeros(2), n_l=1)
    with pytest.raises(ShapeError):
        ClassModel(sigma=np.eye(3), mean=np.zeros(2), n_l=1)


def test_class_model_rejects_zero_dimension():
    with pytest.raises(ShapeError, match="p >= 1"):
        ClassModel(np.eye(0), np.zeros(0), 3)


def test_class_model_rejects_mean_exceeding_second_moment():
    # sigma - mean mean^T must stay positive semidefinite.
    with pytest.raises(DataError):
        ClassModel(sigma=np.eye(2), mean=np.array([2.0, 0.0]), n_l=1)


def test_class_model_accepts_mean_on_boundary():
    mean = np.array([1.0, 0.0])
    model = ClassModel(sigma=np.eye(2), mean=mean, n_l=1)
    np.testing.assert_allclose(model.mean, mean)


def test_class_model_rejects_nonfinite():
    sigma = np.eye(2)
    sigma[0, 0] = np.nan
    with pytest.raises(DataError):
        ClassModel(sigma=sigma, mean=np.zeros(2), n_l=1)


def test_class_model_arrays_are_frozen():
    model = ClassModel(sigma=np.eye(2), mean=np.zeros(2), n_l=1)
    with pytest.raises(ValueError):
        model.sigma[0, 0] = 2.0
    with pytest.raises(ValueError):
        model.mean[0] = 1.0


def test_mixture_counts_weights_gamma():
    c1 = ClassModel(sigma=np.eye(3), mean=np.zeros(3), n_l=2)
    c2 = ClassModel(sigma=2.0 * np.eye(3), mean=np.zeros(3), n_l=6)
    mix = build_mixture([c1, c2], 8)
    assert mix.p == 3
    assert mix.k == 2
    assert mix.gamma == 3 / 8
    assert mix.gamma_bar == 1 + 3 / 8
    np.testing.assert_allclose(mix.weights, [0.25, 0.75])
    np.testing.assert_array_equal(mix.counts, [2, 6])
    np.testing.assert_allclose(mix.sigma(), (0.25 + 0.75 * 2.0) * np.eye(3))
    np.testing.assert_allclose(mix.class_traces(), [3.0, 6.0])


def test_mixture_count_total_must_match_n():
    c = ClassModel(sigma=np.eye(2), mean=np.zeros(2), n_l=3)
    with pytest.raises(ShapeError):
        build_mixture([c], 4)


def test_mixture_rejects_dimension_mismatch():
    c1 = ClassModel(sigma=np.eye(2), mean=np.zeros(2), n_l=1)
    c2 = ClassModel(sigma=np.eye(3), mean=np.zeros(3), n_l=1)
    with pytest.raises(ShapeError):
        build_mixture([c1, c2], 2)


def test_mixture_requires_a_class():
    with pytest.raises(ShapeError):
        Mixture(classes=(), n=4)


def test_spectral_cache_single_class():
    mix = identity_mixture(6, 10)
    cache = mix.spectral()
    assert cache is not None
    np.testing.assert_allclose(cache.class_eigs, np.ones((1, 6)))


def test_spectral_cache_commuting_classes():
    t = toeplitz_covariance(0.3, 8)
    t2 = t @ t
    c1 = ClassModel(sigma=t, mean=np.zeros(8), n_l=4)
    c2 = ClassModel(sigma=(t2 + t2.T) / 2, mean=np.zeros(8), n_l=4)
    mix = build_mixture([c1, c2], 8)
    cache = mix.spectral()
    assert cache is not None
    # The certified basis must reproduce each class matrix exactly.
    for row, model in zip(cache.class_eigs, mix.classes):
        rebuilt = (cache.basis * row) @ cache.basis.T
        np.testing.assert_allclose(rebuilt, model.sigma, atol=1e-10)


def test_spectral_cache_absent_for_noncommuting_classes(rng):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    d1 = np.diag(np.arange(1.0, 7.0))
    rotated = q @ d1 @ q.T
    c1 = ClassModel(sigma=d1, mean=np.zeros(6), n_l=3)
    c2 = ClassModel(sigma=(rotated + rotated.T) / 2, mean=np.zeros(6), n_l=3)
    mix = build_mixture([c1, c2], 6)
    assert mix.spectral() is None


def test_spectral_cache_is_lazy_and_cached():
    mix = identity_mixture(4, 4)
    first = mix.spectral()
    assert mix.spectral() is first


def test_estimate_class_model_moments(rng):
    p, m = 4, 50_000
    x = rng.standard_normal((p, m))
    model = estimate_class_model(x, n_l=10)
    assert model.n_l == 10
    np.testing.assert_allclose(model.sigma, x @ x.T / m, atol=1e-12)
    np.testing.assert_allclose(model.sigma, np.eye(p), atol=5 / np.sqrt(m))


def test_estimate_class_model_nonzero_mean(rng):
    # Uncentered second moment: the mean contributes mean mean^T.
    p, m = 3, 80_000
    mean = np.array([1.0, -0.5, 0.25])
    x = mean[:, None] + 0.1 * rng.standard_normal((p, m))
    model = estimate_class_model(x, n_l=5)
    target = np.outer(mean, mean) + 0.01 * np.eye(p)
    np.testing.assert_allclose(model.sigma, target, atol=5e-3)


def test_estimate_class_model_rejects_bad_input():
    with pytest.raises(ShapeError):
        estimate_class_model(np.zeros(3), n_l=1)
    with pytest.raises(DataError):
        estimate_class_model(np.zeros((3, 0)), n_l=1)
    bad = np.ones((2, 4))
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        estimate_class_model(bad, n_l=1)
