"""Column samplers for mixture data matrices.

Columns are drawn from counter-based Philox streams in chunks of 64
consecutive global columns: chunk c of a run seeded with s is one 64-row
block from the stream keyed (s, c) with counter (0, 0, d, law), d the
latent dimension and law the index in ``LATENTS``, and its row r is the
latent vector of global column 64 c + r. Classes sharing a chunk but not
(d, law) read disjoint streams. A column depends only on the seed, its
global index, d and law, never on how calls split or interleave the
columns, so a (seed, spec) pair pins the data matrix byte for byte. This is
the second stream version; the first keyed one stream per column by (s, j).

Three generator kinds are supported:

- ``gaussian``: y = mean + factor g, with g standard normal.
- ``lipschitz-of-gaussian``: y = mean + f(factor g) entrywise, f a fixed
  1-Lipschitz nonlinearity (tanh, relu, abs, or identity).
- ``bounded-affine``: y = mean + factor u with u i.i.d. symmetric entries
  in [-1, 1]; default is uniform signs (+-1), a uniform law on [-1, 1] is
  available and is rescaled by sqrt(3) inside the affine map so the latent
  second moment is the identity in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .model import _RTOL, ClassModel, Mixture, _check_class, _check_psd, _check_symmetric
from .model import _data_matrix, _freeze, _gram, build_mixture

__all__ = [
    "GeneratorSpec",
    "MixtureSample",
    "EmpiricalSpectrum",
    "Histogram",
    "gaussian_class_spec",
    "bounded_class_spec",
    "class_model_of",
    "mixture_of",
    "sample_class",
    "sample_mixture",
    "empirical_spectrum",
    "histogram",
    "spectral_ks_distance",
    "derive_seed",
    "principal_sqrt",
]

KINDS = ("gaussian", "lipschitz-of-gaussian", "bounded-affine")
NONLINEARITIES = ("identity", "tanh", "relu", "abs")
LATENTS = ("standard-normal", "rademacher", "uniform")

_CHUNK = 64

_U64 = np.uint64


def derive_seed(seed: int, *path: int) -> int:
    """Stable 64-bit subseed for a (seed, index...) path."""
    entropy = (int(seed),) + tuple(int(x) for x in path)
    if not all(0 <= v < 2**64 for v in entropy):
        raise ParameterError(f"seed and path must lie in [0, 2**64), got {entropy}")
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, _U64)[0])


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Recipe for drawing one class's columns."""

    kind: str
    mean: np.ndarray
    factor: np.ndarray
    nonlinearity: str = "identity"
    latent: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown generator kind {self.kind!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ParameterError(f"unknown nonlinearity {self.nonlinearity!r}")
        mean = np.asarray(self.mean, dtype=float)
        factor = np.asarray(self.factor, dtype=float)
        if factor.ndim != 2 or factor.shape[0] < 1:
            raise ShapeError(f"factor must be 2-d with p >= 1 rows, got shape {factor.shape}")
        if mean.ndim != 1 or mean.shape[0] != factor.shape[0]:
            raise ShapeError(
                f"mean has shape {mean.shape}, factor has {factor.shape[0]} rows"
            )
        if not (np.isfinite(mean).all() and np.isfinite(factor).all()):
            raise DataError("generator spec entries must be finite")
        latent = self.latent
        if latent is None:
            latent = "rademacher" if self.kind == "bounded-affine" else "standard-normal"
        if latent not in LATENTS:
            raise ParameterError(f"unknown latent law {latent!r}")
        if self.kind == "bounded-affine":
            if latent == "standard-normal":
                raise ParameterError("bounded-affine requires a bounded latent law")
            if self.nonlinearity != "identity":
                raise ParameterError("bounded-affine is affine: nonlinearity must be identity")
        else:
            if latent != "standard-normal":
                raise ParameterError(f"{self.kind} requires the standard-normal latent")
        if self.kind == "gaussian" and self.nonlinearity != "identity":
            raise ParameterError("gaussian kind takes the identity nonlinearity")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "factor", _freeze(factor))
        object.__setattr__(self, "latent", latent)

    @property
    def p(self) -> int:
        return self.factor.shape[0]

    @property
    def dim_latent(self) -> int:
        return self.factor.shape[1]

    @cached_property
    def diagonal(self) -> np.ndarray | None:
        """The factor's diagonal when it is square and zero elsewhere, else None."""
        f = self.factor
        if f.shape[0] != f.shape[1] or np.count_nonzero(f) != np.count_nonzero(f.diagonal()):
            return None
        return f.diagonal()


@dataclass(frozen=True, eq=False)
class MixtureSample:
    """A sampled data matrix with its class membership."""

    matrix: np.ndarray
    labels: np.ndarray
    seed: int


@dataclass(frozen=True, eq=False)
class EmpiricalSpectrum:
    """Ascending eigenvalues of X X^T / n, clamped at the numerical floor."""

    values: np.ndarray
    p: int
    n: int
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class Histogram:
    """Normalized histogram: masses sum to one over asc. bin edges."""

    edges: np.ndarray
    masses: np.ndarray
    transform: float | None = None


def principal_sqrt(matrix: np.ndarray, sigma: np.ndarray | None = None) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The matrix must be exactly symmetric (a ShapeError otherwise), as
    ClassModel requires. A DataError says it fails ClassModel's PSD rule,
    judged at the scale of ``sigma`` (its own by default) when it is
    sigma - mean mean^T. Eigenvalues below the relative floor are treated
    as zero, so nearly singular inputs produce a clean low-rank factor.
    """
    matrix = np.asarray(matrix, dtype=float)
    _check_symmetric(matrix)
    w, v = np.linalg.eigh(matrix)
    _check_psd(w, matrix if sigma is None else sigma)
    floor = _RTOL * max(w[-1], 0.0)
    w = np.where(w > floor, w, 0.0)
    return (v * np.sqrt(w)) @ v.T


def _class_spec(
    kind: str, sigma, mean=None, nonlinearity: str = "identity", latent=None
) -> GeneratorSpec:
    """Generator of ``kind`` whose factor is the principal square root of
    sigma - mean mean^T, so E[y y^T] equals sigma for an affine kind."""
    sigma, mean = _check_class(sigma, mean)
    factor = principal_sqrt(sigma - np.outer(mean, mean), sigma)
    return GeneratorSpec(kind, mean, factor, nonlinearity, latent)


def gaussian_class_spec(sigma: np.ndarray, mean: np.ndarray | None = None) -> GeneratorSpec:
    """Gaussian generator matching a target second moment."""
    return _class_spec("gaussian", sigma, mean)


def bounded_class_spec(
    sigma: np.ndarray,
    mean: np.ndarray | None = None,
    latent: str = "rademacher",
) -> GeneratorSpec:
    """Bounded-affine generator with the same second moment as the Gaussian one."""
    return _class_spec("bounded-affine", sigma, mean, latent=latent)


def class_model_of(spec: GeneratorSpec, n_l: int) -> ClassModel:
    """Exact ClassModel of a spec whose second moment is analytic.

    Valid for gaussian and bounded-affine kinds (and the identity
    nonlinearity): E[y y^T] = mean mean^T + factor factor^T.
    """
    if spec.nonlinearity != "identity":
        raise ParameterError(
            "second moment is not analytic for a nonlinear pushforward; "
            "estimate it from samples instead"
        )
    second = np.outer(spec.mean, spec.mean) + spec.factor @ spec.factor.T
    second = (second + second.T) / 2.0
    return ClassModel(sigma=second, mean=spec.mean.copy(), n_l=n_l)


def mixture_of(pairs) -> Mixture:
    """Mixture of exact class models for (spec, count) pairs."""
    classes = [class_model_of(spec, count) for spec, count in pairs]
    return build_mixture(classes, sum(c.n_l for c in classes))


def _latent_block(spec: GeneratorSpec, count: int, seed: int, offset: int) -> np.ndarray:
    first = offset // _CHUNK
    chunks = (offset + count - 1) // _CHUNK - first + 1
    block = np.empty((chunks * _CHUNK, spec.dim_latent))
    counter = np.array([0, 0, spec.dim_latent, LATENTS.index(spec.latent)], dtype=_U64)
    for i in range(chunks):
        key = np.array([seed, first + i], dtype=_U64)
        rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
        rows = block[i * _CHUNK : (i + 1) * _CHUNK]
        if spec.latent == "standard-normal":
            rng.standard_normal(out=rows)
        elif spec.latent == "rademacher":
            rows[...] = 2.0 * rng.integers(0, 2, size=rows.shape) - 1.0
        else:  # uniform on [-1, 1]
            rows[...] = rng.uniform(-1.0, 1.0, size=rows.shape)
    start = offset - first * _CHUNK
    return block[start : start + count].T


_SQRT3 = np.sqrt(3.0)


def sample_class(
    spec: GeneratorSpec, count: int, seed: int, column_offset: int = 0
) -> np.ndarray:
    """Draw ``count`` columns of one class as a (p, count) matrix.

    ``column_offset`` is the global index of the first column; a mixture
    run passes each class its global column positions so the full matrix is
    reproducible independent of class interleaving. A diagonal factor
    scales the latent rows instead of multiplying a dense matrix; each entry
    has one nonzero term, so the result is the same to the bit.
    """
    if count < 1:
        raise ParameterError(f"count must be at least 1, got {count}")
    if not 0 <= int(seed) < 2**64:
        raise ParameterError("seed must fit in 64 bits")
    offset = int(column_offset)
    if offset < 0 or (offset + count - 1) // _CHUNK >= 2**64:
        raise ParameterError(
            "column_offset must be nonnegative with its last chunk below 2**64, "
            f"got {column_offset}"
        )
    latent = _latent_block(spec, count, int(seed), offset)
    if spec.latent == "uniform":
        latent *= _SQRT3
    if spec.diagonal is None:
        core = spec.factor @ latent
    else:
        core = spec.diagonal[:, None] * latent
    if spec.nonlinearity == "tanh":
        core = np.tanh(core)
    elif spec.nonlinearity == "relu":
        core = np.maximum(core, 0.0)
    elif spec.nonlinearity == "abs":
        core = np.abs(core)
    return spec.mean[:, None] + core


def sample_mixture(pairs, seed: int) -> MixtureSample:
    """Draw a full (p, n) data matrix, columns grouped by class in order.

    ``pairs`` is a sequence of (GeneratorSpec, count). Labels record the
    class index of every column.
    """
    pairs = [(spec, int(count)) for spec, count in pairs]
    if not pairs:
        raise ShapeError("at least one (spec, count) pair is required")
    p = pairs[0][0].p
    for spec, count in pairs:
        if spec.p != p:
            raise ShapeError("all specs must share the dimension p")
        if count < 1:
            raise ParameterError(f"class counts must be positive, got {count}")
    n = sum(count for _, count in pairs)
    matrix = np.empty((p, n))
    labels = np.empty(n, dtype=int)
    offset = 0
    for idx, (spec, count) in enumerate(pairs):
        matrix[:, offset : offset + count] = sample_class(
            spec, count, seed, column_offset=offset
        )
        labels[offset : offset + count] = idx
        offset += count
    return MixtureSample(matrix=matrix, labels=labels, seed=int(seed))


def _trial_samples(pairs, seed: int, trials: int):
    """Data matrices of trials 0 .. trials-1, drawn one at a time as the caller
    iterates; ``trials`` is checked at the call, before anything is sampled."""
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    return (sample_mixture(pairs, derive_seed(seed, t)).matrix for t in range(trials))


def empirical_spectrum(X, seed: int | None = None) -> EmpiricalSpectrum:
    """Ascending spectrum of the sample covariance X X^T / n.

    Tiny negative eigenvalues from roundoff are clamped to zero; anything
    below -_RTOL times the largest eigenvalue is treated as data corruption.
    """
    if isinstance(X, MixtureSample):
        if seed is None:
            seed = X.seed
        X = X.matrix
    X = _data_matrix(X)
    p, n = X.shape
    vals = np.linalg.eigvalsh(_gram(X, n))
    top = max(vals[-1], 0.0)
    if vals[0] < -_RTOL * max(top, 1e-300):
        raise DataError(
            f"eigenvalue {vals[0]:g} below the numerical floor; matrix corrupted"
        )
    vals = np.maximum(vals, 0.0)
    return EmpiricalSpectrum(values=vals, p=p, n=n, seed=seed)


def histogram(spectrum, bins, transform: float | None = None) -> Histogram:
    """Normalized histogram of a spectrum, optionally pushed through x -> x^t.

    ``bins`` is a bin count or an explicit ascending edge array; explicit
    edges must cover every (transformed) eigenvalue so the masses sum to
    one.
    """
    values = np.asarray(getattr(spectrum, "values", spectrum), dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError("spectrum must be a nonempty 1-d array")
    if transform is not None:
        t = float(transform)
        if not 0 < t < np.inf:
            raise ParameterError(f"transform exponent must be finite and positive, got {t}")
        values = np.maximum(values, 0.0) ** t
    if np.ndim(bins) == 0:
        nbins = int(bins)
        if nbins < 1:
            raise ParameterError(f"bin count must be positive, got {bins}")
        counts, edges = np.histogram(values, bins=nbins)
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ParameterError("bin edges must be a strictly increasing 1-d array")
        if not np.isfinite(edges).all():
            raise ParameterError("bin edges must be finite")
        if values.min() < edges[0] or values.max() > edges[-1]:
            raise ParameterError(
                f"edges [{edges[0]:g}, {edges[-1]:g}] do not cover the spectrum "
                f"range [{values.min():g}, {values.max():g}]"
            )
        counts, edges = np.histogram(values, bins=edges)
    return Histogram(
        edges=edges,
        masses=counts / values.size,
        transform=None if transform is None else float(transform),
    )


def spectral_ks_distance(a, b) -> float:
    """Kolmogorov distance between the spectra's empirical distributions."""
    va = np.sort(np.asarray(getattr(a, "values", a), dtype=float))
    vb = np.sort(np.asarray(getattr(b, "values", b), dtype=float))
    if va.size == 0 or vb.size == 0:
        raise ShapeError("both spectra must be nonempty")
    grid = np.concatenate([va, vb])
    fa = np.searchsorted(va, grid, side="right") / va.size
    fb = np.searchsorted(vb, grid, side="right") / vb.size
    return float(np.abs(fa - fb).max())
