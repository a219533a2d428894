"""Self-consistent trace system behind the deterministic resolvent equivalent.

For a k-class mixture with per-class second moments Sigma_l, weights
w_l = n_l/n and a shift s, define the interference map

    I(x)_l = (1/n) tr( Sigma_l ( sum_h w_h Sigma_h / (1 + x_h) + s I_p )^-1 ).

At a real regularization s = z > 0, I is entrywise increasing in x, and the
start point x0_l = tr(Sigma_l)/(n z) satisfies I(x0) <= x0 (the resolvent
norm is at most 1/z), so Picard iteration from x0 decreases monotonically to
the unique nonnegative fixed point delta'. That vector parameterizes every
spectral prediction downstream.

At a spectral argument w with Im(w) > 0 the shift is s = -w (resolvent
convention Sigma_delta - w I); this variant is used for density recovery
near the real axis. Convergence there is flagged, not guaranteed, and
callers treat a non-converged grid point as a flagged data point rather
than a fatal error.

Both solves run one loop, x <- x + beta (I(x) - x) from x0_l =
tr(Sigma_l)/(n |s|), halving beta whenever consecutive steps reverse
direction. The real solve starts at beta = 1 and, its iterates falling
monotonically, never halves it: it is plain Picard iteration.

Every trace goes through one backend, selected by :func:`_trace_backend`:
sums over the joint eigenbasis when the class matrices commute, dense
factorizations otherwise. A backend gives the k class traces of the map and
the normalized trace (1/p) tr(...)^-1 behind the Stieltjes transform, at a
real or a complex shift.

Tolerances are empirical: the underlying contraction estimates hold for any
z bounded away from zero, with constants that play no computational role
here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import ParameterError, ShapeError
from .model import Mixture

__all__ = [
    "FixedPointSolution",
    "ComplexFixedPointSolution",
    "interference_map",
    "solve_delta",
    "solve_delta_complex",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
_MIN_DAMPING = 1.0 / 64.0


@dataclass(frozen=True)
class FixedPointSolution:
    """Result of the nonnegative fixed-point solve at real z > 0.

    ``delta`` is the fixed-point vector and ``residual`` the sup-norm of
    I(delta) - delta at the returned iterate.
    """

    delta: np.ndarray
    residual: float
    iterations: int
    converged: bool
    z: float


@dataclass(frozen=True)
class ComplexFixedPointSolution:
    """Damped Picard result at a complex spectral argument w, Im(w) > 0."""

    delta: np.ndarray
    residual: float
    iterations: int
    converged: bool
    w: complex
    damping: float


def _check_z(z) -> float:
    arr = np.asarray(z)
    if arr.ndim != 0 or np.iscomplexobj(arr):
        raise ParameterError(f"z must be a positive real scalar, got {z!r}")
    val = float(arr)
    if not np.isfinite(val) or val <= 0.0:
        raise ParameterError(f"z must be a positive real scalar, got {z!r}")
    return val


def _coefficients(mixture: Mixture, delta) -> np.ndarray:
    """Per-class scalars w_l / (1 + delta_l) entering Sigma_delta."""
    delta = np.asarray(delta)
    if delta.shape != (mixture.k,):
        raise ShapeError(
            f"delta has shape {delta.shape}, expected ({mixture.k},)"
        )
    if np.any(delta == -1.0):
        raise ParameterError("delta component equal to -1 divides by zero")
    return mixture.weights / (1.0 + delta)


class _SpectralTraces:
    """Traces in a joint eigenbasis, where Sigma_h = diag(eigs[h])."""

    def __init__(self, class_eigs: np.ndarray):
        self.eigs = class_eigs

    def traces(self, coeff: np.ndarray, shift) -> np.ndarray:
        """tr(Sigma_l (sum_h coeff_h Sigma_h + shift I)^-1) for every class l."""
        return (self.eigs / (coeff @ self.eigs + shift)).sum(axis=1)

    def mean_trace(self, coeff: np.ndarray, shift):
        """(1/p) tr(sum_h coeff_h Sigma_h + shift I)^-1."""
        return (1.0 / (coeff @ self.eigs + shift)).sum() / self.eigs.shape[1]


class _DenseTraces:
    """The same traces from a factorization of the p x p matrix.

    A real positive shift uses a Cholesky factorization; a complex shift an
    LU factorization of the (complex symmetric, non-Hermitian) matrix.
    """

    def __init__(self, mixture: Mixture):
        self.sigmas = [c.sigma for c in mixture.classes]

    def _core(self, coeff: np.ndarray, shift) -> np.ndarray:
        p = self.sigmas[0].shape[0]
        core = np.zeros((p, p), dtype=np.result_type(coeff.dtype, type(shift)))
        for c, sigma in zip(coeff, self.sigmas):
            core += c * sigma
        core[np.diag_indices_from(core)] += shift
        return core

    @staticmethod
    def _inverse(core: np.ndarray) -> np.ndarray:
        eye = np.eye(len(core), dtype=core.dtype)
        if np.iscomplexobj(core):
            lu = la.lu_factor(core, check_finite=False)
            return la.lu_solve(lu, eye, check_finite=False)
        cf = la.cho_factor(core, lower=True, check_finite=False)
        return la.cho_solve(cf, eye, check_finite=False)

    def traces(self, coeff: np.ndarray, shift) -> np.ndarray:
        # The resolvent is assembled explicitly because k traces against
        # arbitrary class matrices are needed.
        resolvent = self._inverse(self._core(coeff, shift))
        return np.array([np.sum(sigma * resolvent) for sigma in self.sigmas])

    def mean_trace(self, coeff: np.ndarray, shift):
        core = self._core(coeff, shift)
        p = len(core)
        if np.iscomplexobj(core):
            return np.trace(self._inverse(core)) / p
        # With core = L L^T, tr core^-1 = ||L^-1||_F^2: no full inverse.
        lower = la.cholesky(core, lower=True, check_finite=False)
        inv_l = la.solve_triangular(lower, np.eye(p), lower=True, check_finite=False)
        return (inv_l**2).sum() / p


def _trace_backend(mixture: Mixture):
    """Joint-eigenbasis traces when the classes commute, dense ones otherwise."""
    cache = mixture.spectral()
    if cache is not None:
        return _SpectralTraces(cache.class_eigs)
    return _DenseTraces(mixture)


def _solve(backend, mixture: Mixture, shift, tol: float, max_iter: int, beta: float):
    """Iterate x <- x + beta (I(x) - x) at ``shift`` from x0 = tr(Sigma_l)/(n |shift|).

    beta is halved, down to a floor, whenever consecutive steps reverse
    direction. The loop stops once the sup-norm step falls below ``tol``;
    a converged iterate with an imaginary part below -tol is flagged as not
    converged. Returns (delta, residual, iterations, converged, beta), the
    residual being ||I(delta) - delta||_inf at the returned iterate.
    """
    n = mixture.n
    weights = mixture.weights
    cur = (mixture.class_traces() / (n * abs(shift))).astype(type(shift))
    prev_step = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mapped = backend.traces(weights / (1.0 + cur), shift) / n
        step = mapped - cur
        if float(np.abs(step).max()) <= tol:
            cur, converged = mapped, True
            break
        if prev_step is not None and beta > _MIN_DAMPING:
            if np.vdot(prev_step, step).real < 0.0:
                beta = max(beta / 2.0, _MIN_DAMPING)
        cur += beta * step
        prev_step = step
    mapped = backend.traces(weights / (1.0 + cur), shift) / n
    residual = float(np.abs(mapped - cur).max())
    if converged and float(np.imag(cur).min()) < -tol:
        converged = False
    return cur, residual, iterations, converged, beta


def interference_map(delta, mixture: Mixture, z: float) -> np.ndarray:
    """One application of the interference map I at regularization z > 0.

    ``delta`` must be entrywise nonnegative; the output again is, and is
    entrywise increasing in ``delta``.
    """
    z = _check_z(z)
    delta = np.asarray(delta, dtype=float)
    if delta.min() < 0:
        raise ParameterError("delta must be entrywise nonnegative")
    coeff = _coefficients(mixture, delta)
    return _trace_backend(mixture).traces(coeff, z) / mixture.n


def solve_delta(
    mixture: Mixture,
    z: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointSolution:
    """Solve delta = I(delta) by monotone Picard iteration from above.

    Starting from x0_l = tr(Sigma_l)/(n z) the iterates decrease
    componentwise toward the unique nonnegative fixed point; the loop stops
    once the sup-norm step falls below ``tol``. The reported residual is
    ||I(delta) - delta||_inf evaluated at the returned iterate.
    """
    z = _check_z(z)
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    delta, residual, iterations, converged, _ = _solve(
        _trace_backend(mixture), mixture, z, tol, max_iter, 1.0
    )
    return FixedPointSolution(delta, residual, iterations, converged, z)


def solve_delta_complex(
    mixture: Mixture,
    w: complex,
    tol: float = 1e-10,
    max_iter: int = 2_000,
    damping: float = 1.0,
) -> ComplexFixedPointSolution:
    """Damped Picard iteration for the system at spectral argument w.

    The map is I(x)_l = (1/n) tr(Sigma_l (sum_h w_h Sigma_h/(1+x_h) - w I)^-1)
    with Im(w) > 0. The update is x <- (1-beta) x + beta I(x); beta starts at
    ``damping`` and is halved whenever consecutive steps reverse direction
    (oscillation), down to a floor. Non-convergence within ``max_iter`` is
    reported through the ``converged`` flag.
    """
    w = complex(w)
    if not w.imag > 0:
        raise ParameterError(f"w must have positive imaginary part, got {w!r}")
    if not 0 < damping <= 1:
        raise ParameterError(f"damping must lie in (0, 1], got {damping}")
    if tol <= 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    delta, residual, iterations, converged, beta = _solve(
        _trace_backend(mixture), mixture, -w, tol, max_iter, float(damping)
    )
    return ComplexFixedPointSolution(delta, residual, iterations, converged, w, beta)
