"""Mixture models for multi-class sample covariance analysis.

A data matrix X of shape (p, n) collects n independent column samples drawn
from k classes. Class l contributes n_l columns with per-class second-moment
matrix Sigma_l = E[y y^T] (uncentered: the mean, when nonzero, is part of
Sigma_l). The objects here are purely statistical descriptions; sampling
lives in :mod:`covspec.sampler` and spectral predictions in
:mod:`covspec.fixed_point` / :mod:`covspec.equivalent`.

The aspect ratio gamma = p/n is a property of the mixture, computed on access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ParameterError, ShapeError

__all__ = [
    "ClassModel",
    "Mixture",
    "toeplitz_covariance",
    "build_mixture",
    "estimate_class_model",
]

# The one relative tolerance of every spectral judgement: the PSD rule, the rank,
# square-root and corruption floors, the commutator probe and the certificate.
_RTOL = 1e-10


def _flush(a: np.ndarray) -> np.ndarray:
    """Set every |a_ij| < max(tiny, 2^-511 max|a|) to 0 in place and return ``a``.

    2^-511 = sqrt(tiny). Once max|a| >= 1 no two kept entries multiply to a subnormal; the
    dropped mass is below p 2^-511 max|a|; above the tiny floor it commutes with scaling by 2^k.
    """
    tiny = np.finfo(float).tiny
    a[np.abs(a) < max(tiny, np.sqrt(tiny) * np.abs(a).max())] = 0.0
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only ``a``: itself when it is read-only and owns its memory, else a frozen copy."""
    out = a if a.base is None and not a.flags.writeable else a.copy(order="K")
    out.flags.writeable = False
    return out


def _data_matrix(X) -> np.ndarray:
    """X as a 2-d float array with p, n >= 1 and finite entries."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or 0 in X.shape:
        raise ShapeError(f"X must be 2-d with p, n >= 1, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("data matrix contains non-finite entries")
    return X


def _check_class(sigma, mean=None):
    """The one structural rule for a class: sigma square with p >= 1, the mean (zeros
    by default) of length p, both finite, sigma exactly symmetric. Returns both, read-only."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
        raise ShapeError(f"sigma must be square with p >= 1, got shape {sigma.shape}")
    mean = np.zeros(sigma.shape[0]) if mean is None else np.asarray(mean, dtype=float)
    if mean.shape != (sigma.shape[0],):
        raise ShapeError(f"mean has shape {mean.shape}, expected ({sigma.shape[0]},)")
    if not (np.isfinite(sigma).all() and np.isfinite(mean).all()):
        raise DataError("class model entries must be finite")
    _check_symmetric(sigma)
    return _freeze(sigma), _freeze(mean)


def _check_symmetric(matrix: np.ndarray, name: str = "sigma") -> None:
    """The one symmetry rule for a matrix: exact, with no tolerance."""
    asym = np.abs(matrix - matrix.T).max()
    if asym != 0.0:
        raise ShapeError(f"{name} must be exactly symmetric, max|s_ij - s_ji| = {asym:g}")


def _check_counts(counts, n) -> None:
    """The one count rule for a mixture: the class counts sum to the total n."""
    total = sum(counts)
    if total != n:
        raise ShapeError(f"class counts sum to {total}, expected total n = {n}")


def _check_psd(centered: np.ndarray, sigma: np.ndarray) -> None:
    """The one PSD rule for a class: lambda_min(Sigma - mean mean^T) >= -_RTOL max|Sigma_ij|."""
    tau = _RTOL * max(np.abs(sigma).max(), 1e-300)
    try:
        np.linalg.cholesky(centered + tau * np.eye(len(centered)))
    except np.linalg.LinAlgError:
        raise DataError(f"sigma - mean mean^T has an eigenvalue below the PSD slack -{tau:g}")


def _rank(w: np.ndarray) -> int:
    """Numerical rank from eigenvalues in any order: the count above _RTOL * the top one."""
    return int(np.count_nonzero(w > _RTOL * w.max()))


def _gram(X: np.ndarray, n: int, shift: float = 0.0) -> np.ndarray:
    """Exactly symmetric X X^T / n + shift I."""
    gram = X @ X.T / n
    gram = (gram + gram.T) / 2.0
    gram[np.diag_indices_from(gram)] += shift
    return gram


def _diagonal(a: np.ndarray) -> np.ndarray | None:
    """The one diagonal test: ``a``'s diagonal when it is square and zero elsewhere, else None."""
    d = a.diagonal()
    return d if a.shape[0] == a.shape[1] and np.count_nonzero(a) == np.count_nonzero(d) else None


def _combine(sigmas, coeff, shift=0.0) -> np.ndarray:
    """sum_h coeff_h sigmas[h] + shift I, accumulated in class order through one scratch term."""
    out = np.zeros(sigmas[0].shape, dtype=np.result_type(np.asarray(coeff), shift))
    term = np.empty_like(out)
    for c, sigma in zip(coeff, sigmas):
        out += np.multiply(c, sigma, out=term)
    out[np.diag_indices_from(out)] += shift
    return out


@dataclass(frozen=True, eq=False)
class ClassModel:
    """Second-moment description of one mixture class.

    Parameters
    ----------
    sigma:
        (p, p) symmetric PSD second-moment matrix E[y y^T].
    mean:
        (p,) mean vector of the class.
    n_l:
        Number of columns this class contributes to the data matrix.
    """

    sigma: np.ndarray
    mean: np.ndarray
    n_l: int

    def __post_init__(self):
        sigma, mean = _check_class(self.sigma, self.mean)
        if not isinstance(self.n_l, (int, np.integer)) or self.n_l < 1:
            raise ParameterError(f"n_l must be a positive integer, got {self.n_l!r}")
        _check_psd(sigma - np.outer(mean, mean), sigma)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "n_l", int(self.n_l))

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.sigma))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of sigma, computed once on first use."""
        return _freeze(np.linalg.eigvalsh(self.sigma))

    def rank(self) -> int:
        """Numerical rank of sigma."""
        return _rank(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class Mixture:
    """A k-class mixture: class models plus the total sample count n."""

    classes: tuple[ClassModel, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ShapeError("a mixture needs at least one class")
        p = self.classes[0].p
        for c in self.classes:
            if c.p != p:
                raise ShapeError("all class models must share the dimension p")
        _check_counts([c.n_l for c in self.classes], self.n)
        object.__setattr__(self, "n", int(self.n))

    @property
    def p(self) -> int:
        return self.classes[0].p

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def gamma(self) -> float:
        return self.p / self.n

    @property
    def weights(self) -> np.ndarray:
        """Class proportions n_l / n."""
        return np.array([c.n_l / self.n for c in self.classes])

    def class_traces(self) -> np.ndarray:
        return np.array([c.trace() for c in self.classes])

    def spectral(self) -> np.ndarray | None:
        """Read-only (k, p) class eigenvalues in one joint eigenbasis, or None. The basis V is
        kept beside it, in :attr:`eigenpairs`; one class is its own record, ClassModel's."""
        return self.eigenpairs[0]

    def class_spectra(self) -> list[np.ndarray]:
        """Each class's eigenvalues in any order: the record's rows, else ClassModel's."""
        eigs = self.spectral()
        return [c.eigenvalues for c in self.classes] if eigs is None else list(eigs)

    @cached_property
    def eigenpairs(self) -> tuple:
        """(record, V) computed once by _joint_eigenbasis, or (None, None); V is None if k = 1."""
        if self.k == 1:
            return self.classes[0].eigenvalues[None, :], None
        return _joint_eigenbasis([c.sigma for c in self.classes]) or (None, None)


def _joint_eigenbasis(sigmas) -> tuple[np.ndarray, np.ndarray] | None:
    """Read-only (k, p) eigenvalues of ``sigmas`` and their certified joint eigenbasis V, or None.

    With s_l = max|Sigma_l,ij|. Early reject: |C x|_inf <= max|C_ij| |x|_1, so probing
    each commutator C on one fixed x at O(p^2) cost fails only when max|C_ij| > _RTOL s_a s_b p.

    Certificate, one product per class: V, the eigenbasis of a generic combination, is accepted
    when every r_b = Sigma_l v_b - d_b v_b, d_b = v_b^T Sigma_l v_b, has ||r_b / s_l||_2 <= _RTOL
    (scaled first, so no square underflows). An off-diagonal entry of V^T Sigma_l V is
    v_a^T r_b, of size at most ||r_b||_2: never looser than bounding those entries by _RTOL s_l.
    A diagonal Sigma_l takes a row scale of V, one nonzero term per entry: the same record and V.

    The combination (of order 1) gets 2^-400 x x^T, ~2^340 below eigh's backward error, so that
    LAPACK's reduction of a recipe tail at the 2^-511 flush floor runs in normal arithmetic.
    """
    p = sigmas[0].shape[0]
    k = len(sigmas)
    scales = [max(np.abs(s).max(), 1e-300) for s in sigmas]
    x = np.cos(np.arange(p))
    for a in range(k):
        for b in range(a + 1, k):
            gap = sigmas[a] @ (sigmas[b] @ x) - sigmas[b] @ (sigmas[a] @ x)
            if np.abs(gap).max() > _RTOL * scales[a] * scales[b] * p * np.abs(x).sum():
                return None
    # Generic combination: irrational-looking weights break ties between
    # classes so the combination is simple whenever one exists.
    weights = [(1.0 + (j + 1) / np.pi) / s for j, s in enumerate(scales)]
    _, v = np.linalg.eigh(_combine(sigmas, weights) + np.outer(x, 2.0**-400 * x))
    eigs = np.empty((k, p))
    for j, s in enumerate(sigmas):
        d = _diagonal(s)
        sv = s @ v if d is None else d[:, None] * v
        eigs[j] = np.einsum("ib,ib->b", v, sv)
        if np.linalg.norm((sv - v * eigs[j]) / scales[j], axis=0).max() > _RTOL:
            return None
    return _freeze(eigs), _freeze(v)


def toeplitz_covariance(a: float, p: int) -> np.ndarray:
    """Symmetric Toeplitz matrix with entries a^(|i-j|+1).

    The first row reads (a, a^2, ..., a^p); for |a| < 1 the matrix is
    diagonally dominant, hence positive definite, once a > 0. The row goes
    through :func:`_flush`: entries below 2^-511 a are stored as 0, so two
    kept entries multiply to at least a^2 tiny, below tiny only where both
    sit at the very end of the row.
    """
    if not 0 < a < 1:
        raise ParameterError(f"toeplitz parameter must lie in (0, 1), got {a}")
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ParameterError(f"dimension must be a positive integer, got {p!r}")
    idx = np.arange(p)
    row = _flush(a ** (idx + 1.0))
    return row[np.abs(idx[:, None] - idx[None, :])]


build_mixture = Mixture  # Mixture(classes, n) takes any iterable of class models


def estimate_class_model(samples: np.ndarray, n_l: int) -> ClassModel:
    """Estimate a ClassModel from raw columns of one class.

    ``samples`` has shape (p, m): m observed columns. The second moment is
    the uncentered average (1/m) sum_i y_i y_i^T, symmetrized so the result
    is exactly symmetric; the mean is the column average.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2 and samples.shape[1] == 0:
        raise DataError("cannot estimate a class model from zero samples")
    samples = _data_matrix(samples)
    mean = samples.mean(axis=1)
    return ClassModel(sigma=_gram(samples, samples.shape[1]), mean=mean, n_l=n_l)
