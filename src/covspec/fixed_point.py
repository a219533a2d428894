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
the result independent of the covariance scale. It starts from a caller's
``start``, which must be k finite admissible entries, or cold from the
map's large-|s| limit x0_l = tr(Sigma_l)/(n s), admissible at s = -w too.

Every trace goes through one backend, selected by :func:`_trace_backend`:
sums over the joint eigenbasis when the class matrices commute, the explicit
inverse of the dense p x p matrix otherwise. Its one method, ``traces``,
gives from one factorization the k class traces, (1/p) tr Q behind the
Stieltjes transform and a callable for the cross traces behind the Jacobian.
The loop calls it only at an accepted, unconverged iterate whose next step
is a Newton step, and holds no evaluation past its use. Each solution
carries the Stieltjes value of its last evaluation.

:func:`_continuation` walks a grid (the z grid, or the lambda of
w = lambda + i epsilon) from its largest point down. Each start is the
secant through the last two converged solutions, projected onto the
admissible set, or the one converged solution so far; the first point, and
any point after an unconverged one, starts cold (Allgower & Georg,
*Introduction to Numerical Continuation Methods*, SIAM 2003, ch. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .model import Mixture, _combine

__all__ = ["FixedPointSolution", "interference_map", "solve_delta", "solve_delta_complex"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_COMPLEX_TOL = 1e-10
DEFAULT_COMPLEX_MAX_ITER = 2_000
_MIN_DAMPING = 1.0 / 64.0


@dataclass(frozen=True)
class FixedPointSolution:
    """Result of the fixed-point solve at a real shift z > 0 or a complex one -w.

    ``delta`` is the fixed-point vector and ``residual`` the sup-norm of
    I(delta) - delta at the returned iterate; ``iterations`` counts solver
    steps and ``damping`` is the smallest step fraction used, 1.0 when every
    step was a full Newton step. ``stieltjes`` is (1/p) tr Q(delta) from the
    solve's last evaluation: the float m(-z) at a real shift, the complex
    m(w) at a complex one.
    """

    delta: np.ndarray
    residual: float
    iterations: int
    converged: bool
    damping: float
    stieltjes: float | complex


def _check_z(z) -> float:
    arr = np.asarray(z)
    if arr.ndim != 0 or np.iscomplexobj(arr) or not 0.0 < float(arr) < np.inf:
        raise ParameterError(f"z must be a positive real scalar, got {z!r}")
    return float(arr)


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
        """Class traces tr(Sigma_l Q), a callable for the cross traces tr(Sigma_l Q Sigma_h Q)
        and (1/p) tr Q, for Q = (sum_h coeff_h Sigma_h + shift I)^-1."""
        diag = coeff @ self.eigs + shift
        er = self.eigs / diag
        return er.sum(axis=1), lambda: er @ er.T, (1.0 / diag).sum() / diag.size


class _DenseTraces:
    """The same traces from the explicit inverse of the p x p matrix.

    Real and complex shifts alike go through ``np.linalg.inv`` (an LU
    factorization): the matrix is SPD at a real positive shift and complex
    symmetric, non-Hermitian, at a complex one.
    """

    def __init__(self, mixture: Mixture):
        self.sigmas = [c.sigma for c in mixture.classes]

    def traces(self, coeff: np.ndarray, shift):
        resolvent = np.linalg.inv(_combine(self.sigmas, coeff, shift))
        # Every Sigma_l is exactly symmetric, so tr(Sigma_l Q) is the sum of Sigma_l * Q: one
        # product of the raveled Sigma_l with Q's float view, a (Re, Im) pair for a complex Q.
        flat = resolvent.view(float).reshape(resolvent.size, -1)
        traces = np.array([s.ravel() @ flat for s in self.sigmas]).view(resolvent.dtype)[:, 0]

        def cross():
            # Each A_h = Sigma_h Q is one real product with the float view of the C-ordered Q
            # (a real Q is its own view), and tr(A_l A_h) is the sum of A_l * A_h^T.
            products = [(s @ resolvent.view(float)).view(resolvent.dtype) for s in self.sigmas]
            return np.array([[np.sum(a * b.T) for b in products] for a in products])

        return traces, cross, np.trace(resolvent) / len(resolvent)


def _trace_backend(mixture: Mixture):
    """Joint-eigenbasis traces when the classes commute, dense ones otherwise."""
    eigs = mixture.spectral()
    return _DenseTraces(mixture) if eigs is None else _SpectralTraces(eigs)


def _solve(backend, mixture: Mixture, shift, tol: float, max_iter: int, start=None):
    """Safeguarded Newton iteration for x = I(x) at ``shift``; see the module doc.

    A ``start`` off the start rule raises :class:`ParameterError`. Returns a
    :class:`FixedPointSolution` for a real and a complex shift alike, its
    ``stieltjes`` read off the evaluation at delta. A converged iterate with
    an imaginary part below -tol or a non-finite stieltjes is flagged as not
    converged, and a non-finite residual stops the loop unconverged.
    """
    n = mixture.n
    weights = mixture.weights
    # The admissible set: x >= 0 at a real shift, Im x >= 0 at a complex one.
    bounded = np.imag if isinstance(shift, complex) else np.real
    if start is None:
        cur = mixture.class_traces() / (n * shift)
    else:
        cur = np.asarray(start)
        if not (cur.shape == (mixture.k,) and np.can_cast(cur.dtype, type(shift))
                and np.isfinite(cur).all() and bounded(cur).min() >= 0.0):
            raise ParameterError(f"start needs {mixture.k} finite admissible entries, got {start}")
        cur = cur.astype(type(shift))

    def evaluate(x):
        """I(x) - x, its sup-norm, (1/p) tr Q(x) and a callable for the Jacobian of I at x."""
        traces, cross, mean = backend.traces(weights / (1.0 + x), shift)
        step = traces / n - x
        return (step, float(np.abs(step).max()), mean,
                lambda: cross() * (weights / (1.0 + x) ** 2) / n)

    eye = np.eye(mixture.k)
    step, residual, stieltjes, jacobian = evaluate(cur)
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
                newton = np.linalg.solve(eye - jacobian(), step)
            except np.linalg.LinAlgError:
                newton = np.full_like(step, np.nan)
            # Keep no stale resolvent alive: each is dropped before the next inverse.
            jacobian = evaluated = None
            while frac >= _MIN_DAMPING:
                trial = cur + frac * newton
                if np.isfinite(trial).all() and bounded(trial).min() >= 0.0:
                    evaluated = None
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
            jacobian = evaluated = None
            evaluated = evaluate(trial)
        damping = min(damping, frac)
        cur = trial
        step, residual, stieltjes, jacobian = evaluated
        converged = residual <= tol * max(1.0, float(np.abs(cur).max()))
    converged = converged and float(np.imag(cur).min()) >= -tol and bool(np.isfinite(stieltjes))
    return FixedPointSolution(cur, residual, iterations, converged, damping, stieltjes.item())


def _continuation(solve, grid) -> list:
    """``solve(t, start)`` at each t of ``grid``, from the largest t down, by the module
    doc's continuation rule; the solutions come back in the grid's order."""
    sols = [None] * len(grid)
    done = []  # (t, delta) of the last one or two converged solutions
    for i in np.argsort(grid, kind="stable")[::-1]:
        start = None
        if done:
            (t0, x0), (t1, x1) = done[0], done[-1]
            x = x1 + (x1 - x0) * ((grid[i] - t1) / (t1 - t0) if t1 != t0 else 0.0)
            start = x.real + 1j * np.maximum(x.imag, 0) if np.iscomplexobj(x) else np.maximum(x, 0)
        sols[i] = sol = solve(grid[i], start)
        done = [*done[-1:], (grid[i], sol.delta)] if sol.converged else []
    return sols


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
    start=None,
) -> FixedPointSolution:
    """Solve delta = I(delta) at real z > 0 by safeguarded Newton steps.

    Starts from ``start`` (k finite entries >= 0, say predicted from nearby
    z) or from x0_l = tr(Sigma_l)/(n z), and keeps every iterate >= 0.
    The loop stops once ||I(delta) - delta||_inf is at most
    ``tol * max(1, ||delta||_inf)``, so ``tol`` is relative to the size of
    delta and a rescaling of every Sigma_l and z leaves the result unchanged.
    The reported residual is ||I(delta) - delta||_inf at the returned
    iterate; ``iterations`` counts Newton (or fallback Picard) steps.
    """
    z = _check_z(z)
    _check_stop(tol, max_iter)
    return _solve(_trace_backend(mixture), mixture, z, tol, max_iter, start)


def solve_delta_complex(
    mixture: Mixture,
    w: complex,
    tol: float = DEFAULT_COMPLEX_TOL,
    max_iter: int = DEFAULT_COMPLEX_MAX_ITER,
    start=None,
) -> FixedPointSolution:
    """Solve the system at spectral argument w by safeguarded Newton steps.

    The map is I(x)_l = (1/n) tr(Sigma_l (sum_h w_h Sigma_h/(1+x_h) - w I)^-1)
    with Im(w) > 0, and every iterate keeps Im(x) >= 0; Picard steps after a
    stall take beta halved whenever consecutive steps reverse direction.
    ``start`` must be k finite entries with Im >= 0; by default the solve
    starts cold from x0_l = -tr(Sigma_l)/(n w). ``tol`` is relative, as in
    :func:`solve_delta`. Non-convergence within ``max_iter`` is reported
    through the ``converged`` flag.
    """
    w = complex(w)
    if not (np.isfinite(w) and w.imag > 0):
        raise ParameterError(f"w must be finite with positive imaginary part, got {w!r}")
    _check_stop(tol, max_iter)
    return _solve(_trace_backend(mixture), mixture, -w, tol, max_iter, start)
