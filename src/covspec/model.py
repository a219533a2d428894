"""Mixture models for multi-class sample covariance analysis.

A data matrix X of shape (p, n) collects n independent column samples drawn
from k classes. Class l contributes n_l columns with per-class second-moment
matrix Sigma_l = E[y y^T] (uncentered: the mean, when nonzero, is part of
Sigma_l). The objects here are purely statistical descriptions; sampling
lives in :mod:`covspec.sampler` and spectral predictions in
:mod:`covspec.fixed_point` / :mod:`covspec.equivalent`.

The aspect ratio gamma = p/n and its shifted companion gamma_bar = 1 + gamma
are cached on the mixture since every error bound downstream is expressed in
terms of them.
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


def _freeze(a: np.ndarray) -> np.ndarray:
    """Read-only float copy of ``a``."""
    out = np.array(a, dtype=float, copy=True)
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
    by default) of length p, both finite, sigma exactly symmetric. Returns both as arrays."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
        raise ShapeError(f"sigma must be square with p >= 1, got shape {sigma.shape}")
    mean = np.zeros(sigma.shape[0]) if mean is None else np.asarray(mean, dtype=float)
    if mean.shape != (sigma.shape[0],):
        raise ShapeError(f"mean has shape {mean.shape}, expected ({sigma.shape[0]},)")
    if not (np.isfinite(sigma).all() and np.isfinite(mean).all()):
        raise DataError("class model entries must be finite")
    _check_symmetric(sigma)
    return sigma, mean


def _check_symmetric(matrix: np.ndarray, name: str = "sigma") -> None:
    """The one symmetry rule for a matrix: exact, with no tolerance."""
    asym = np.abs(matrix - matrix.T).max()
    if asym != 0.0:
        raise ShapeError(f"{name} must be exactly symmetric, max|s_ij - s_ji| = {asym:g}")


def _check_psd(w: np.ndarray, sigma: np.ndarray) -> None:
    """The one PSD rule for a class: the ascending eigenvalues ``w`` of
    Sigma - mean mean^T may not fall below -_RTOL * max|Sigma_ij|."""
    if w[0] < -_RTOL * max(np.abs(sigma).max(), 1e-300):
        raise DataError(f"sigma - mean mean^T has eigenvalue {w[0]:g}, below the PSD slack")


def _gram(X: np.ndarray, n: int, shift: float = 0.0) -> np.ndarray:
    """Exactly symmetric X X^T / n + shift I."""
    gram = X @ X.T / n
    gram = (gram + gram.T) / 2.0
    gram[np.diag_indices_from(gram)] += shift
    return gram


def _combine(sigmas, coeff, shift=0.0) -> np.ndarray:
    """sum_h coeff_h sigmas[h] + shift I, accumulated in class order."""
    out = np.zeros(sigmas[0].shape, dtype=np.result_type(np.asarray(coeff), shift))
    for c, sigma in zip(coeff, sigmas):
        out += c * sigma
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
        centered = sigma - np.outer(mean, mean) if mean.any() else sigma
        w = np.linalg.eigvalsh(centered)
        _check_psd(w, sigma)
        if centered is sigma:
            object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "sigma", _freeze(sigma))
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "n_l", int(self.n_l))

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.sigma))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of sigma, computed once."""
        return _freeze(np.linalg.eigvalsh(self.sigma))

    def rank(self) -> int:
        """Numerical rank of sigma: eigenvalues above _RTOL * max eigenvalue."""
        w = self.eigenvalues
        top = w[-1] if w.size else 0.0
        if top <= 0.0:
            return 0
        return int(np.count_nonzero(w > _RTOL * top))


@dataclass(frozen=True, eq=False)
class Mixture:
    """A k-class mixture: class models plus the total sample count n."""

    classes: tuple[ClassModel, ...]
    n: int

    def __post_init__(self):
        if not self.classes:
            raise ShapeError("a mixture needs at least one class")
        p = self.classes[0].p
        for c in self.classes:
            if c.p != p:
                raise ShapeError("all class models must share the dimension p")
        total = sum(c.n_l for c in self.classes)
        if total != self.n:
            raise ShapeError(
                f"class counts sum to {total}, expected total n = {self.n}"
            )
        if self.n < 1:
            raise ParameterError("n must be positive")
        object.__setattr__(self, "classes", tuple(self.classes))
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
    def gamma_bar(self) -> float:
        return 1.0 + self.gamma

    @property
    def weights(self) -> np.ndarray:
        """Class proportions n_l / n."""
        return np.array([c.n_l / self.n for c in self.classes])

    @property
    def counts(self) -> np.ndarray:
        return np.array([c.n_l for c in self.classes], dtype=int)

    def sigma(self) -> np.ndarray:
        """Population-level second moment sum_l (n_l/n) Sigma_l."""
        return _combine([c.sigma for c in self.classes], self.weights)

    def class_traces(self) -> np.ndarray:
        return np.array([c.trace() for c in self.classes])

    def spectral(self) -> np.ndarray | None:
        """Read-only (k, p) class eigenvalues in one joint eigenbasis, or None.

        Computed lazily once. One class is its own record: ClassModel.eigenvalues.
        Otherwise a basis from a generic positive combination of the classes is
        certified by checking that it diagonalizes every Sigma_l. That check is
        the commutation test (a commutator probe only rejects early); its failure
        (non-commuting classes, or a degenerate combination) gives None.
        """
        return self._spectral

    @cached_property
    def _spectral(self) -> np.ndarray | None:
        if self.k == 1:
            return self.classes[0].eigenvalues[None, :]
        return _joint_eigenbasis([c.sigma for c in self.classes])


def _joint_eigenbasis(sigmas) -> np.ndarray | None:
    """Read-only (k, p) eigenvalues of ``sigmas`` in a certified joint eigenbasis, or None.

    Early reject: |C x|_inf <= max|C_ij| |x|_1, so probing each commutator C on
    one fixed x at O(p^2) cost fails only when max|C_ij| > _RTOL s_a s_b p.
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
    combo = np.zeros_like(sigmas[0])
    for j, s in enumerate(sigmas):
        combo += (1.0 + (j + 1) / np.pi) / scales[j] * s
    _, v = np.linalg.eigh(combo)
    eigs = np.empty((k, p))
    for j, s in enumerate(sigmas):
        m = v.T @ s @ v
        d = np.diagonal(m).copy()
        off = np.abs(m - np.diag(d)).max()
        if off > _RTOL * scales[j]:
            return None
        eigs[j] = d
    return _freeze(eigs)


def toeplitz_covariance(a: float, p: int) -> np.ndarray:
    """Symmetric Toeplitz matrix with entries a^(|i-j|+1).

    The first row reads (a, a^2, ..., a^p); for |a| < 1 the matrix is
    diagonally dominant, hence positive definite, once a > 0. Entries below
    the smallest normal double (about 2.2e-308) are stored as 0, so no
    product on the matrix runs in subnormal arithmetic.
    """
    if not 0 < a < 1:
        raise ParameterError(f"toeplitz parameter must lie in (0, 1), got {a}")
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ParameterError(f"dimension must be a positive integer, got {p!r}")
    idx = np.arange(p)
    row = a ** (idx + 1.0)
    row[row < np.finfo(float).tiny] = 0.0
    return row[np.abs(idx[:, None] - idx[None, :])]


def build_mixture(classes, n: int) -> Mixture:
    """Assemble a Mixture from class models, checking counts against n."""
    return Mixture(classes=tuple(classes), n=n)


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
