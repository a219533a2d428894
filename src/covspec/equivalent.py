"""Deterministic equivalents for the sample covariance resolvent.

Given a mixture and the fixed-point vector delta' of
:func:`covspec.fixed_point.solve_delta`, the deterministic resolvent

    Qbar(z) = ( sum_l w_l Sigma_l / (1 + delta'_l) + z I_p )^-1

approximates E[(X X^T/n + z I)^-1] with spectral-norm error decaying like
n^(-1/2). Its normalized trace approximates the Stieltjes transform of the
empirical spectral distribution at -z, and pushing z to a complex spectral
argument close to the real axis recovers a density profile via the usual
Im(m)/pi limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, ShapeError
from .fixed_point import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    solve_delta,
    solve_delta_complex,
    _check_z,
    _coefficients,
    _trace_backend,
)
from .model import Mixture, _combine, _data_matrix, _gram

__all__ = [
    "SpectralPrediction",
    "sigma_delta",
    "deterministic_resolvent",
    "stieltjes_prediction",
    "stieltjes_from_delta",
    "density_prediction",
    "atom_at_zero",
    "empirical_resolvent",
    "empirical_stieltjes",
    "resolvent_bounds",
]


@dataclass(frozen=True)
class SpectralPrediction:
    """Predicted spectral density on a grid of real locations.

    ``density[j]`` is Im m(lambdas[j] + i epsilon) / pi, the limiting
    spectral density smoothed at scale epsilon. It is not the continuous
    part alone: when ``atom_at_zero`` (the predicted point mass at zero from
    rank bookkeeping) is a > 0, it includes the atom's Poisson kernel
    a epsilon / (pi (lambda^2 + epsilon^2)). Grid points whose complex solve
    did not reach tolerance are marked in ``converged`` and carry their last
    iterate value rather than NaN.
    """

    lambdas: np.ndarray
    density: np.ndarray
    atom_at_zero: float
    epsilon: float
    converged: np.ndarray


def sigma_delta(mixture: Mixture, delta) -> np.ndarray:
    """Weighted population moment sum_l (n_l/n) Sigma_l / (1 + delta_l)."""
    return _combine([c.sigma for c in mixture.classes], _coefficients(mixture, delta))


def deterministic_resolvent(mixture: Mixture, delta, z: float) -> np.ndarray:
    """Full matrix (sigma_delta + z I)^-1, symmetrized."""
    z = _check_z(z)
    coeff = _coefficients(mixture, delta)
    out = np.linalg.inv(_combine([c.sigma for c in mixture.classes], coeff, z))
    return (out + out.T) / 2.0


def stieltjes_from_delta(mixture: Mixture, delta, z: float) -> float:
    """(1/p) tr Qbar(z) at a given fixed-point vector.

    A solve already carries this value at its own delta as
    ``FixedPointSolution.stieltjes``.
    """
    z = _check_z(z)
    coeff = _coefficients(mixture, delta)
    return float(_trace_backend(mixture).traces(coeff, z)[2])


def stieltjes_prediction(
    mixture: Mixture,
    z: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Predicted Stieltjes transform value m(-z) = (1/p) tr Qbar(z).

    Raises :class:`ConvergenceError` if the underlying fixed point does not
    reach tolerance.
    """
    sol = solve_delta(mixture, z, tol=tol, max_iter=max_iter)
    if not sol.converged:
        raise ConvergenceError(
            f"fixed point did not converge at z={z} "
            f"(residual {sol.residual:.3e} after {sol.iterations} iterations)",
            solution=sol,
        )
    return sol.stieltjes


def atom_at_zero(mixture: Mixture) -> float:
    """Point mass at zero forced by rank bookkeeping.

    The data matrix has rank at most sum_l min(n_l, rank Sigma_l), so at
    least p minus that many eigenvalues of the sample covariance vanish
    exactly. For full-rank classes this reduces to max(0, 1 - 1/gamma).
    """
    reachable = sum(min(c.n_l, c.rank()) for c in mixture.classes)
    return max(0, mixture.p - reachable) / mixture.p


def density_prediction(
    mixture: Mixture,
    lambdas,
    epsilon: float,
    tol: float = 1e-10,
    max_iter: int = 2_000,
) -> SpectralPrediction:
    """Smoothed spectral density profile on a real grid.

    Each grid point solves the complex system at w = lambda + i epsilon and
    reads the density off Im m(w) / pi, with m(w) the solution's
    ``stieltjes`` value. That value includes the kernel of the zero atom
    (see :class:`SpectralPrediction`). The grid is walked from right to
    left, each point starting from its right neighbour's solution
    (continuation along the grid); the rightmost point, and any point after
    one that did not converge, starts cold.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ShapeError("lambda grid must be a nonempty 1-d array")
    if not np.isfinite(lambdas).all() or np.any(np.diff(lambdas) <= 0):
        raise ParameterError("lambda grid must be finite and strictly increasing")
    if not 0 < epsilon < np.inf:
        raise ParameterError(f"epsilon must be finite and positive, got {epsilon}")
    atom = atom_at_zero(mixture)
    density = np.empty(lambdas.size)
    converged = np.empty(lambdas.size, dtype=bool)
    start = None
    for j in reversed(range(lambdas.size)):
        w = complex(lambdas[j], epsilon)
        sol = solve_delta_complex(mixture, w, tol=tol, max_iter=max_iter, start=start)
        density[j] = max(sol.stieltjes.imag / np.pi, 0.0)
        converged[j] = sol.converged
        start = sol.delta if sol.converged else None
    return SpectralPrediction(
        lambdas=lambdas,
        density=density,
        atom_at_zero=atom,
        epsilon=float(epsilon),
        converged=converged,
    )


def empirical_resolvent(X: np.ndarray, z: float) -> np.ndarray:
    """(X X^T/n + z I)^-1 for a data matrix X of shape (p, n)."""
    z = _check_z(z)
    X = _data_matrix(X)
    Q = np.linalg.inv(_gram(X, X.shape[1], z))
    return (Q + Q.T) / 2.0


def resolvent_bounds(X: np.ndarray, z: float, Q: np.ndarray | None = None) -> dict:
    """Operator norms certifying the resolvent contraction bounds.

    Returns ||Q||, ||Q S|| and ||Q X/sqrt(n)|| for S = X X^T/n; the three
    are bounded by 1/z, 1 and 1/sqrt(z) respectively.
    """
    z = _check_z(z)
    X = _data_matrix(X)
    p, n = X.shape
    if Q is None:
        Q = empirical_resolvent(X, z)
    elif np.shape(Q) != (p, p):
        raise ShapeError(f"Q has shape {np.shape(Q)}, expected ({p}, {p})")
    S = _gram(X, n)
    return {
        "resolvent": float(np.linalg.norm(Q, 2)),
        "resolvent_covariance": float(np.linalg.norm(Q @ S, 2)),
        "resolvent_data": float(np.linalg.norm(Q @ X, 2) / np.sqrt(n)),
    }


def empirical_stieltjes(X: np.ndarray, z: float) -> float:
    """(1/p) tr (X X^T/n + z I)^-1."""
    Q = empirical_resolvent(X, z)
    return float(np.trace(Q) / Q.shape[0])
