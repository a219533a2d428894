"""Majorization order and singular-value inequalities.

y is majorized by x when every leading partial sum of the decreasing
rearrangement of y is dominated by the corresponding partial sum of x and
the total sums agree. Dropping the total-sum equality gives the weak order
(submajorization), which is the right notion for singular values of sums:
sv(A + B) is weakly majorized by sv(A) + sv(B), the leading partial sum
being the operator-norm triangle inequality and the full sum the trace-norm
one. The singular value map itself is 1-Lipschitz from spectral distance to
the sup distance of the sorted tuples.

Comparisons carry a relative tolerance so that floating-point partial sums
never flip a true relation; it scales with the larger total sum.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = [
    "decreasing_rearrangement",
    "majorizes",
    "submajorizes",
    "singular_values",
    "check_singular_triangle",
    "check_sigma_lipschitz",
]

_REL_TOL = 1e-12


def decreasing_rearrangement(x) -> np.ndarray:
    """Entries of x sorted in decreasing order."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-d vector, got shape {x.shape}")
    return np.sort(x)[::-1].copy()


def _partial_sums(x, y):
    """Partial sums of both decreasing rearrangements and the tolerance of their comparison."""
    px = np.cumsum(decreasing_rearrangement(x))
    py = np.cumsum(decreasing_rearrangement(y))
    if px.shape != py.shape:
        raise ShapeError("majorization compares vectors of equal length")
    tol = _REL_TOL * max(abs(px[-1]), abs(py[-1]), 1.0) if px.size else 0.0
    return px, py, tol


def majorizes(x, y) -> bool:
    """True when y is majorized by x (partial-sum domination, equal totals)."""
    px, py, tol = _partial_sums(x, y)
    return bool(np.all(py <= px + tol) and (px.size == 0 or abs(px[-1] - py[-1]) <= tol))


def submajorizes(x, y) -> bool:
    """True when y is weakly majorized by x (partial-sum domination only)."""
    px, py, tol = _partial_sums(x, y)
    return bool(np.all(py <= px + tol))


def singular_values(A) -> np.ndarray:
    """Singular values of A in decreasing order (numpy's convention)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {A.shape}")
    return np.linalg.svd(A, compute_uv=False)


def check_singular_triangle(A, B) -> bool:
    """Weak majorization of sv(A + B) by sv(A) + sv(B).

    Holds for every pair of equal-shape matrices; returning False signals a
    numerical problem rather than a counterexample.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {B.shape}")
    return submajorizes(singular_values(A) + singular_values(B), singular_values(A + B))


def check_sigma_lipschitz(A, B) -> bool:
    """1-Lipschitz property of the singular value map.

    max_i |sv_i(A) - sv_i(B)| <= ||A - B|| in spectral norm, with the same
    relative tolerance policy as the order checks.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {B.shape}")
    sa = singular_values(A)
    sb = singular_values(B)
    gap = float(np.abs(sa - sb).max()) if sa.size else 0.0
    dist = float(np.linalg.norm(A - B, 2)) if A.size else 0.0
    return gap <= dist + _REL_TOL * max(1.0, dist, sa.max(initial=0.0), sb.max(initial=0.0))
