"""Shared fixtures and closed-form oracles for the test suite."""

import numpy as np
import pytest

from covspec import ClassModel, build_mixture


def mp_positive_root(gamma: float, z: float) -> float:
    """Positive root of z d^2 + (z + 1 - gamma) d - gamma = 0.

    Closed form for the single-class identity-covariance fixed point,
    derived by eliminating the trace from the self-consistent equation.
    """
    b = z + 1.0 - gamma
    return (-b + np.sqrt(b * b + 4.0 * z * gamma)) / (2.0 * z)


def mp_density(lam, gamma: float) -> np.ndarray:
    """Closed-form density of the identity-covariance spectral limit.

    Supported on [(1 - sqrt(gamma))^2, (1 + sqrt(gamma))^2]; the p > n
    atom at zero is not included.
    """
    lam = np.asarray(lam, dtype=float)
    lo = (1.0 - np.sqrt(gamma)) ** 2
    hi = (1.0 + np.sqrt(gamma)) ** 2
    inside = (lam > lo) & (lam < hi)
    out = np.zeros_like(lam)
    out[inside] = np.sqrt((hi - lam[inside]) * (lam[inside] - lo)) / (
        2.0 * np.pi * gamma * lam[inside]
    )
    return out


def identity_mixture(p: int, n: int):
    """Single-class mixture with identity covariance and zero mean."""
    return build_mixture(
        [ClassModel(sigma=np.eye(p), mean=np.zeros(p), n_l=n)], n
    )


def no_sampling(*args, **kwargs):
    """Stand-in for a sampler, patched in to show that arguments are checked first."""
    raise AssertionError("sampled before the arguments were checked")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
