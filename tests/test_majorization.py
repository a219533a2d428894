"""Order relations on spectra and the singular-value inequalities behind them."""

import numpy as np
import pytest

from covspec import (
    ShapeError,
    check_sigma_lipschitz,
    check_singular_triangle,
    decreasing_rearrangement,
    empirical_spectrum,
    majorizes,
    singular_values,
    submajorizes,
)


def test_decreasing_rearrangement_sorts_descending():
    np.testing.assert_array_equal(
        decreasing_rearrangement([1.0, 3.0, 2.0]), [3.0, 2.0, 1.0]
    )


def test_decreasing_rearrangement_rejects_matrices():
    with pytest.raises(ShapeError):
        decreasing_rearrangement(np.eye(2))


def test_mean_vector_is_majorized(rng):
    x = rng.standard_normal(20)
    flat = np.full(20, x.mean())
    assert majorizes(x, flat)
    assert not majorizes(flat, x) or np.allclose(x, flat)


def test_majorization_requires_equal_totals():
    x = np.array([3.0, 1.0])
    y = np.array([2.0, 1.0])
    assert not majorizes(x, y)  # totals differ
    assert submajorizes(x, y)  # weak version only needs partial sums


def test_submajorization_fails_on_partial_sum_violation():
    assert not submajorizes(np.array([1.0, 1.0]), np.array([3.0, -1.0]))


def test_order_checks_shape_validation():
    with pytest.raises(ShapeError):
        majorizes([1.0, 2.0], [1.0])
    with pytest.raises(ShapeError):
        submajorizes([1.0, 2.0], [1.0, 2.0, 3.0])


def test_empty_vectors_are_trivially_ordered():
    assert majorizes([], [])
    assert submajorizes([], [])


def test_majorization_is_reflexive_and_transitive(rng):
    for _ in range(200):
        n = int(rng.integers(2, 12))
        x = np.sort(rng.standard_normal(n))[::-1]
        assert majorizes(x, x)
        # Robin Hood transfers move mass from the largest to the smallest
        # entry, producing a chain x >= y >= z in the majorization order.
        y = x.copy()
        t1 = rng.uniform(0, (x[0] - x[-1]) / 2)
        y[0] -= t1
        y[-1] += t1
        y = decreasing_rearrangement(y)
        z = y.copy()
        t2 = rng.uniform(0, (y[0] - y[-1]) / 2)
        z[0] -= t2
        z[-1] += t2
        assert majorizes(x, y)
        assert majorizes(y, z)
        assert majorizes(x, z)


def test_singular_values_descending(rng):
    A = rng.standard_normal((6, 9))
    sv = singular_values(A)
    assert sv.shape == (6,)
    assert np.all(np.diff(sv) <= 0)
    np.testing.assert_allclose(sv, np.linalg.svd(A, compute_uv=False))


def test_singular_values_reject_vectors():
    with pytest.raises(ShapeError):
        singular_values(np.ones(4))


def test_singular_triangle_random_matrices(rng):
    for _ in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, n))
        assert check_singular_triangle(A, B)


def test_singular_triangle_cancellation_case(rng):
    A = rng.standard_normal((5, 5))
    assert check_singular_triangle(A, -A)


def test_singular_triangle_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        check_singular_triangle(np.eye(2), np.eye(3))


def test_sigma_lipschitz_random_and_perturbed(rng):
    for _ in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, n))
        assert check_sigma_lipschitz(A, B)
    A = rng.standard_normal((6, 6))
    E = rng.standard_normal((6, 6))
    for t in (1e-8, 1e-3, 1.0):
        assert check_sigma_lipschitz(A, A + t * E)


def test_sigma_lipschitz_shape_mismatch():
    with pytest.raises(ShapeError):
        check_sigma_lipschitz(np.eye(2), np.eye(3))


def test_sample_singular_values_match_spectrum(rng):
    # Squared singular values over n are exactly the empirical spectrum
    # (including the zero padding when p > n).
    X = rng.standard_normal((8, 5))
    lam = empirical_spectrum(X)
    sv = singular_values(X)
    padded = np.zeros(8)
    padded[:5] = sv**2 / 5
    np.testing.assert_allclose(np.sort(lam), np.sort(padded), atol=1e-12)
