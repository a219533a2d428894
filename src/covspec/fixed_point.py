"""Self-consistent trace system behind the deterministic resolvent equivalent.

For a k-class mixture with per-class second moments Sigma_l, weights
w_l = n_l/n and a shift s, define the interference map

    I(x)_l = (1/n) tr( Sigma_l Q(x) ),
    Q(x) = ( sum_h w_h Sigma_h / (1 + x_h) + s I_p )^-1.

At a real regularization s = z > 0 the unique nonnegative fixed point is
delta', which parameterizes every spectral prediction downstream. At a
spectral argument w with Im(w) > 0 the shift is s = -w (resolvent convention
Sigma_delta - w I) and the fixed point sought has Im(delta) >= 0; this
variant is used for density recovery near the real axis.

Both solves run one safeguarded Newton loop on F(x) = I(x) - x. Its
Jacobian is

    dI_l/dx_h = (w_h / (1 + x_h)^2) (1/n) tr( Sigma_l Q Sigma_h Q ),

so each step solves the k x k system (Id - J) d = I(x) - x and moves to
x + t d. The step fraction t starts at 1 and is halved while the trial is
not finite, leaves the admissible set (x >= 0 at a real shift, Im x >= 0
at a complex one) or does not lower the residual. Below a floor the Newton
step has stalled, typically against the boundary of that set while drawn
to a root outside it; the loop then takes damped Picard steps
x + beta (I(x) - x), which the map keeps admissible, until the residual
has halved, and resumes Newton steps from there. The loop stops once
||I(x) - x||_inf <= tol * max(1, ||x||_inf), a relative test that makes
the result independent of the covariance scale. It starts from
x0_l = tr(Sigma_l)/(n |s|), or from a caller's warm start, such as the
solution at a neighbouring grid point.

Every trace goes through one backend, selected by :func:`_trace_backend`:
sums over the joint eigenbasis when the class matrices commute, the explicit
inverse of the dense p x p matrix otherwise. A backend has one method,
``traces``, which from one factorization at a real or a complex shift gives
the k class traces of the map, the k x k cross traces behind the Jacobian
and the normalized trace (1/p) tr(...)^-1 behind the Stieltjes transform.
The solve keeps the last of these, so each solution carries its Stieltjes
value and nothing downstream factors the matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import Mixture, _combine

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
    I(delta) - delta at the returned iterate; ``iterations`` counts solver
    steps. ``stieltjes`` is the predicted Stieltjes value
    m(-z) = (1/p) tr Qbar(z) at ``delta``, from the solve's last evaluation.
    """

    delta: np.ndarray
    residual: float
    iterations: int
    converged: bool
    z: float
    stieltjes: float


@dataclass(frozen=True)
class ComplexFixedPointSolution:
    """Result of the solve at a complex spectral argument w, Im(w) > 0.

    ``damping`` is the smallest step fraction the loop used: 1.0 when every
    step was a full Newton step. ``stieltjes`` is m(w) =
    (1/p) tr(sum_l w_l Sigma_l/(1 + delta_l) - w I)^-1 at ``delta``.
    """

    delta: np.ndarray
    residual: float
    iterations: int
    converged: bool
    w: complex
    damping: float
    stieltjes: complex


def _check_z(z) -> float:
    arr = np.asarray(z)
    if arr.ndim != 0 or np.iscomplexobj(arr):
        raise ParameterError(f"z must be a positive real scalar, got {z!r}")
    val = float(arr)
    if not np.isfinite(val) or val <= 0.0:
        raise ParameterError(f"z must be a positive real scalar, got {z!r}")
    return val


def _check_stop(tol, max_iter) -> None:
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")


def _coefficients(mixture: Mixture, delta) -> np.ndarray:
    """Per-class w_l / (1 + delta_l); the one rule for a delta: k real entries, each >= 0."""
    delta = np.asarray(delta)
    if delta.shape != (mixture.k,):
        raise ShapeError(f"delta has shape {delta.shape}, expected ({mixture.k},)")
    if delta.dtype.kind not in "iuf" or not (delta >= 0).all():
        raise ParameterError(f"delta must be real and entrywise nonnegative, got {delta}")
    return mixture.weights / (1.0 + delta)


class _SpectralTraces:
    """Traces in a joint eigenbasis, where Sigma_h = diag(eigs[h])."""

    def __init__(self, class_eigs: np.ndarray):
        self.eigs = class_eigs

    def traces(self, coeff: np.ndarray, shift):
        """Class traces tr(Sigma_l Q), cross traces tr(Sigma_l Q Sigma_h Q) and
        (1/p) tr Q, for Q = (sum_h coeff_h Sigma_h + shift I)^-1."""
        diag = coeff @ self.eigs + shift
        er = self.eigs / diag
        return er.sum(axis=1), er @ er.T, (1.0 / diag).sum() / diag.size


class _DenseTraces:
    """The same traces from the explicit inverse of the p x p matrix.

    Real and complex shifts alike go through ``np.linalg.inv`` (an LU
    factorization): the matrix is SPD at a real positive shift and complex
    symmetric, non-Hermitian, at a complex one.
    """

    def __init__(self, mixture: Mixture):
        self.sigmas = [c.sigma for c in mixture.classes]

    def traces(self, coeff: np.ndarray, shift):
        # The resolvent is assembled explicitly because traces against
        # arbitrary class matrices are needed. With A_h = Sigma_h Q,
        # tr(A_l A_h) is the sum of A_l * A_h^T.
        resolvent = np.linalg.inv(_combine(self.sigmas, coeff, shift))
        products = [sigma @ resolvent for sigma in self.sigmas]
        traces = np.array([np.trace(a) for a in products])
        cross = np.array([[np.sum(a * b.T) for b in products] for a in products])
        return traces, cross, np.trace(resolvent) / len(resolvent)


def _trace_backend(mixture: Mixture):
    """Joint-eigenbasis traces when the classes commute, dense ones otherwise."""
    eigs = mixture.spectral()
    if eigs is not None:
        return _SpectralTraces(eigs)
    return _DenseTraces(mixture)


def _solve(backend, mixture: Mixture, shift, tol: float, max_iter: int, start=None):
    """Safeguarded Newton iteration for x = I(x) at ``shift``; see the module doc.

    Starts from ``start``, or from x0 = tr(Sigma_l)/(n |shift|). Returns
    (delta, residual, iterations, converged, damping, stieltjes): the
    residual is ||I(delta) - delta||_inf at the returned iterate, damping the
    smallest step fraction used and stieltjes (1/p) tr Q(delta), read off the
    evaluation at delta. A converged iterate with an imaginary part below
    -tol or a non-finite stieltjes is flagged as not converged, and a
    non-finite residual stops the loop unconverged.
    """
    n = mixture.n
    weights = mixture.weights

    def evaluate(x):
        """I(x) - x, its sup-norm, the Jacobian of I at x and (1/p) tr Q(x)."""
        traces, cross, mean = backend.traces(weights / (1.0 + x), shift)
        step = traces / n - x
        return step, float(np.abs(step).max()), cross * (weights / (1.0 + x) ** 2) / n, mean

    if start is None:
        cur = (mixture.class_traces() / (n * abs(shift))).astype(type(shift))
    else:
        cur = np.array(start, dtype=type(shift))
    # The admissible set: x >= 0 at a real shift, Im x >= 0 at a complex one.
    bounded = np.imag if np.iscomplexobj(cur) else np.real
    eye = np.eye(mixture.k)
    step, residual, jac, stieltjes = evaluate(cur)
    converged = residual <= tol * max(1.0, float(np.abs(cur).max()))
    damping = beta = 1.0
    stall = np.inf
    prev_step = None
    iterations = 0
    while not converged and iterations < max_iter and np.isfinite(residual):
        iterations += 1
        frac = 1.0
        if residual < stall:
            try:
                newton = np.linalg.solve(eye - jac, step)
            except np.linalg.LinAlgError:
                newton = np.full_like(step, np.nan)
            while frac >= _MIN_DAMPING:
                trial = cur + frac * newton
                if np.isfinite(trial).all() and bounded(trial).min() >= 0.0:
                    evaluated = evaluate(trial)
                    if evaluated[1] < residual:
                        break
                frac /= 2.0
            else:
                # Newton stalled: damped Picard steps until the residual halves.
                stall = residual / 2.0
        if residual >= stall:
            if prev_step is not None and np.vdot(prev_step, step).real < 0.0:
                beta = max(beta / 2.0, _MIN_DAMPING)
            frac, trial, prev_step = beta, cur + beta * step, step
            evaluated = evaluate(trial)
        damping = min(damping, frac)
        cur = trial
        step, residual, jac, stieltjes = evaluated
        converged = residual <= tol * max(1.0, float(np.abs(cur).max()))
    converged = converged and float(np.imag(cur).min()) >= -tol and bool(np.isfinite(stieltjes))
    return cur, residual, iterations, converged, damping, stieltjes


def interference_map(delta, mixture: Mixture, z: float) -> np.ndarray:
    """One application of the interference map I at regularization z > 0.

    ``delta`` must be entrywise nonnegative; the output again is, and is
    entrywise increasing in ``delta``.
    """
    z = _check_z(z)
    coeff = _coefficients(mixture, delta)
    return _trace_backend(mixture).traces(coeff, z)[0] / mixture.n


def solve_delta(
    mixture: Mixture,
    z: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointSolution:
    """Solve delta = I(delta) at real z > 0 by safeguarded Newton steps.

    Starts from x0_l = tr(Sigma_l)/(n z) and keeps every iterate
    nonnegative. The loop stops once ||I(delta) - delta||_inf is at most
    ``tol * max(1, ||delta||_inf)``, so ``tol`` is relative to the size of
    delta and a rescaling of every Sigma_l and z leaves the result unchanged.
    The reported residual is ||I(delta) - delta||_inf at the returned
    iterate; ``iterations`` counts Newton (or fallback Picard) steps.
    """
    z = _check_z(z)
    _check_stop(tol, max_iter)
    delta, residual, iterations, converged, _, m = _solve(
        _trace_backend(mixture), mixture, z, tol, max_iter
    )
    return FixedPointSolution(delta, residual, iterations, converged, z, float(m))


def solve_delta_complex(
    mixture: Mixture,
    w: complex,
    tol: float = 1e-10,
    max_iter: int = 2_000,
    start=None,
) -> ComplexFixedPointSolution:
    """Solve the system at spectral argument w by safeguarded Newton steps.

    The map is I(x)_l = (1/n) tr(Sigma_l (sum_h w_h Sigma_h/(1+x_h) - w I)^-1)
    with Im(w) > 0, and every iterate keeps Im(x) >= 0. A Newton step is
    halved while it leaves that set or does not lower the residual; once it
    stalls the loop takes Picard steps x <- (1-beta) x + beta I(x), beta
    starting at 1 and halved whenever consecutive steps reverse direction,
    until the residual has halved. ``start`` is
    the initial iterate, for instance the solution at a nearby w; by default
    x0_l = tr(Sigma_l)/(n |w|). ``tol`` is relative, as in
    :func:`solve_delta`. Non-convergence within ``max_iter`` is reported
    through the ``converged`` flag.
    """
    w = complex(w)
    if not (np.isfinite(w) and w.imag > 0):
        raise ParameterError(f"w must be finite with positive imaginary part, got {w!r}")
    _check_stop(tol, max_iter)
    if start is not None:
        start = np.asarray(start, dtype=complex)
        if start.shape != (mixture.k,):
            raise ShapeError(f"start has shape {start.shape}, expected ({mixture.k},)")
    delta, residual, iterations, converged, frac, m = _solve(
        _trace_backend(mixture), mixture, -w, tol, max_iter, start
    )
    return ComplexFixedPointSolution(delta, residual, iterations, converged, w, frac, complex(m))
