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
from .fixed_point import DEFAULT_COMPLEX_MAX_ITER, DEFAULT_COMPLEX_TOL, solve_delta_complex
from .fixed_point import DEFAULT_MAX_ITER, DEFAULT_TOL, solve_delta
from .fixed_point import _check_z, _coefficients, _continuation, _trace_backend
from .model import Mixture, _combine, _rank

__all__ = ["SpectralPrediction", "deterministic_resolvent", "stieltjes_prediction",
           "stieltjes_from_delta", "density_prediction", "atom_at_zero"]


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


def deterministic_resolvent(mixture: Mixture, delta, z: float) -> np.ndarray:
    """Full matrix (sum_l (n_l/n) Sigma_l / (1 + delta_l) + z I)^-1, symmetrized."""
    z = _check_z(z)
    coeff = _coefficients(mixture, delta)
    out = np.linalg.inv(_combine([c.sigma for c in mixture.classes], coeff, z))
    return (out + out.T) / 2.0


def stieltjes_from_delta(mixture: Mixture, delta, z: float) -> float:
    """(1/p) tr Qbar(z) at a given fixed-point vector.

    A solve at z already carries this value at its own delta as the float
    ``FixedPointSolution.stieltjes``; this recomputes it for any delta.
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
    reachable = sum(min(c.n_l, _rank(w)) for c, w in zip(mixture.classes, mixture.class_spectra()))
    return max(0, mixture.p - reachable) / mixture.p


def density_prediction(
    mixture: Mixture,
    lambdas,
    epsilon: float,
    tol: float = DEFAULT_COMPLEX_TOL,
    max_iter: int = DEFAULT_COMPLEX_MAX_ITER,
) -> SpectralPrediction:
    """Smoothed spectral density profile on a real grid.

    Each grid point solves the complex system at w = lambda + i epsilon and
    reads the density off Im m(w) / pi, with m(w) the solution's
    ``stieltjes`` value. That value includes the kernel of the zero atom
    (see :class:`SpectralPrediction`). The grid is walked from right to
    left by the continuation rule of :mod:`covspec.fixed_point`: each start
    is predicted from the last two converged solutions, and the rightmost
    point, and any point after one that did not converge, starts cold.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ShapeError("lambda grid must be a nonempty 1-d array")
    if not np.isfinite(lambdas).all() or np.any(np.diff(lambdas) <= 0):
        raise ParameterError("lambda grid must be finite and strictly increasing")
    if not 0 < epsilon < np.inf:
        raise ParameterError(f"epsilon must be finite and positive, got {epsilon}")
    sols = _continuation(
        lambda lam, start: solve_delta_complex(
            mixture, complex(lam, epsilon), tol=tol, max_iter=max_iter, start=start
        ),
        lambdas,
    )
    return SpectralPrediction(
        lambdas=lambdas,
        density=np.array([max(sol.stieltjes.imag / np.pi, 0.0) for sol in sols]),
        atom_at_zero=atom_at_zero(mixture),
        epsilon=float(epsilon),
        converged=np.array([sol.converged for sol in sols]),
    )
