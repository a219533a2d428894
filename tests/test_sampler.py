"""Seeded generators, empirical spectra, and histogram plumbing."""

import numpy as np
import pytest

from conftest import no_sampling
import covspec.sampler
from covspec import (
    ClassModel,
    DataError,
    GeneratorSpec,
    ParameterError,
    ShapeError,
    bounded_class_spec,
    class_model_of,
    empirical_spectrum,
    gaussian_class_spec,
    histogram,
    mixture_of,
    sample_class,
    sample_mixture,
    spectral_ks_distance,
    toeplitz_covariance,
)
from covspec.sampler import (
    LATENTS,
    _LAWS,
    _latent_block,
    _trial_samples,
    derive_seed,
)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, 0)
    assert a == derive_seed(42, 0)
    assert a != derive_seed(42, 1)
    assert a != derive_seed(43, 0)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert 0 <= a < 2**64


@pytest.mark.parametrize("path", [(-1,), (2**64,), (0, -1)])
def test_derive_seed_rejects_values_outside_64_bits(path):
    with pytest.raises(ParameterError, match="2\\*\\*64"):
        derive_seed(*path)


def test_principal_sqrt_squares_back(rng):
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T
    root = gaussian_class_spec(sigma).factor
    np.testing.assert_allclose(root @ root.T, sigma, atol=1e-10)
    np.testing.assert_allclose(root, root.T, atol=1e-10)


def test_principal_sqrt_clips_roundoff_negatives():
    v = np.array([1.0, 1.0])
    rank1 = np.outer(v, v)
    root = gaussian_class_spec(rank1).factor
    np.testing.assert_allclose(root @ root.T, rank1, atol=1e-12)


def test_principal_sqrt_rejects_what_class_model_rejects():
    # One PSD rule: an indefinite matrix is no covariance, even when its top
    # eigenvalue is positive. Every public spec builder judges its class by
    # ClassModel, with the same error type and message.
    cases = [
        (np.diag([1.0, -1e-3]), None, DataError, "below the PSD slack"),
        (np.diag([1.0, 4.0]), np.array([1.5, 0.0]), DataError, "below the PSD slack"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), None, DataError, "must be finite"),
        (np.eye(2), np.array([np.inf, 0.0]), DataError, "must be finite"),
        (np.ones((3, 4)), None, ShapeError, "sigma must be square"),
        (np.eye(2), np.zeros(3), ShapeError, "mean has shape"),
    ]
    for sigma, mean, error, message in cases:
        for build in (lambda: ClassModel(sigma, mean, 1), lambda: gaussian_class_spec(sigma, mean),
                      lambda: bounded_class_spec(sigma, mean)):
            with pytest.raises(error, match=message):
                build()


def test_principal_sqrt_rejects_an_asymmetric_matrix():
    # Symmetrizing would sample from [[1, .45], [.45, 1]], a matrix the
    # caller never gave; ClassModel rejects the same input.
    asymmetric = np.array([[1.0, 0.5], [0.4, 1.0]])
    for build in (gaussian_class_spec, bounded_class_spec):
        with pytest.raises(ShapeError, match="exactly symmetric"):
            build(asymmetric)
    with pytest.raises(ShapeError, match="exactly symmetric"):
        ClassModel(sigma=asymmetric, mean=np.zeros(2), n_l=1)


def test_class_spec_rejects_a_non_square_sigma_before_any_arithmetic():
    with pytest.raises(ShapeError, match="sigma must be square"):
        gaussian_class_spec(np.ones((3, 4)))


def test_gaussian_spec_moments():
    t = toeplitz_covariance(0.5, 4)
    spec = gaussian_class_spec(t)
    assert spec.kind == "gaussian"
    assert spec.latent == "standard-normal"
    np.testing.assert_allclose(spec.factor @ spec.factor.T, t, atol=1e-12)


def test_bounded_spec_defaults_to_rademacher():
    spec = bounded_class_spec(np.eye(3))
    assert spec.kind == "bounded-affine"
    assert spec.latent == "rademacher"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="gaussian", nonlinearity="tanh"),
        dict(kind="gaussian", latent="rademacher"),
        dict(kind="bounded-affine", latent="standard-normal"),
        dict(kind="bounded-affine", latent="uniform", nonlinearity="abs"),
        dict(kind="lipschitz-of-gaussian", latent="uniform"),
        dict(kind="wishart"),
        dict(kind="gaussian", nonlinearity="sigmoid"),
        dict(kind="gaussian", latent="poisson"),
    ],
)
def test_generator_spec_rejects_invalid_combinations(kwargs):
    base = dict(mean=np.zeros(2), factor=np.eye(2))
    with pytest.raises(ParameterError):
        GeneratorSpec(**{**base, **kwargs})


# Every (kind, latent, nonlinearity) row the law table admits.
_VALID_LAWS = [
    ("gaussian", "standard-normal", "identity"),
    ("lipschitz-of-gaussian", "standard-normal", "identity"),
    ("lipschitz-of-gaussian", "standard-normal", "tanh"),
    ("lipschitz-of-gaussian", "standard-normal", "relu"),
    ("lipschitz-of-gaussian", "standard-normal", "abs"),
    ("bounded-affine", "rademacher", "identity"),
    ("bounded-affine", "uniform", "identity"),
]
_PUSHFORWARD = {"identity": lambda x: x, "tanh": np.tanh, "abs": np.abs,
                "relu": lambda x: np.maximum(x, 0.0)}


def test_law_table_admits_exactly_the_seven_valid_rows():
    rows = [(kind, latent, f) for kind, (latents, fs) in _LAWS.items()
            for latent in latents for f in fs]
    assert sorted(rows) == sorted(_VALID_LAWS)


@pytest.mark.parametrize("kind, latent, nonlinearity", _VALID_LAWS)
def test_every_valid_law_constructs_and_samples(kind, latent, nonlinearity):
    factor = np.linalg.cholesky(toeplitz_covariance(0.5, 3))
    spec = GeneratorSpec(kind, np.zeros(3), factor, nonlinearity, latent)
    assert (spec.kind, spec.latent, spec.nonlinearity) == (kind, latent, nonlinearity)
    x = sample_class(spec, 70, seed=4, column_offset=30)
    assert x.shape == (3, 70) and np.isfinite(x).all()
    if latent == "standard-normal":
        # The same latent stream as the Gaussian class, pushed through f.
        plain = sample_class(GeneratorSpec("gaussian", np.zeros(3), factor), 70, 4, 30)
        np.testing.assert_array_equal(x, _PUSHFORWARD[nonlinearity](plain))


def test_generator_spec_shape_checks():
    with pytest.raises(ShapeError):
        GeneratorSpec(kind="gaussian", mean=np.zeros(3), factor=np.eye(2))
    with pytest.raises(ShapeError):
        GeneratorSpec(kind="gaussian", mean=np.zeros(2), factor=np.zeros(2))


def test_generator_spec_rejects_zero_dimension():
    with pytest.raises(ShapeError, match="p >= 1"):
        GeneratorSpec(kind="gaussian", mean=np.zeros(0), factor=np.zeros((0, 0)))


def test_generator_spec_rejects_a_non_finite_mean():
    with pytest.raises(DataError, match="generator spec entries must be finite"):
        GeneratorSpec(kind="gaussian", mean=np.array([0.0, np.nan]), factor=np.eye(2))


def test_generator_spec_keeps_a_handed_over_factor_and_copies_a_writeable_one(monkeypatch):
    # The class's factor is built read-only and handed over, so the spec holds
    # no second p x p copy of it; a caller's writeable factor is still copied.
    kept = []
    freeze = covspec.sampler._freeze

    def spying(a):
        out = freeze(a)
        kept.append(out is a)
        return out

    monkeypatch.setattr(covspec.sampler, "_freeze", spying)
    spec = gaussian_class_spec(toeplitz_covariance(0.3, 5))
    assert kept == [True, True]  # mean and factor
    assert not spec.factor.flags.writeable
    factor = np.eye(3)
    spec = GeneratorSpec("gaussian", np.zeros(3), factor)
    assert spec.factor is not factor and factor.flags.writeable
    assert not spec.factor.flags.writeable
    factor[0, 0] = 5.0
    assert spec.factor[0, 0] == 1.0


def test_class_model_of_gaussian_is_exact():
    t = toeplitz_covariance(0.3, 5)
    mean = np.full(5, 0.2)
    spec = gaussian_class_spec(t, mean)
    model = class_model_of(spec, 7)
    assert model.n_l == 7
    np.testing.assert_allclose(model.sigma, t, atol=1e-12)


def test_class_model_of_rejects_nonlinear_specs():
    spec = GeneratorSpec(
        kind="lipschitz-of-gaussian",
        mean=np.zeros(2),
        factor=np.eye(2),
        nonlinearity="tanh",
    )
    with pytest.raises(ParameterError):
        class_model_of(spec, 4)


def test_mixture_of_matches_class_models():
    t = toeplitz_covariance(0.4, 3)
    pairs = [(gaussian_class_spec(t), 4), (bounded_class_spec(np.eye(3)), 8)]
    mix = mixture_of(pairs)
    assert mix.n == 12
    assert mix.k == 2
    np.testing.assert_allclose(mix.classes[0].sigma, t, atol=1e-12)
    np.testing.assert_allclose(mix.classes[1].sigma, np.eye(3), atol=1e-12)


def test_sampling_is_deterministic_per_seed():
    spec = gaussian_class_spec(toeplitz_covariance(0.5, 6))
    a = sample_class(spec, 10, seed=123)
    b = sample_class(spec, 10, seed=123)
    np.testing.assert_array_equal(a, b)
    c = sample_class(spec, 10, seed=124)
    assert not np.array_equal(a, c)


def test_columns_depend_only_on_global_index():
    # Counter-based streams: column j of a block at offset 0 equals column 0
    # of a block at offset j, so parallel layouts cannot change the data.
    # With a diagonal factor the equality is exact; a dense factor leaves
    # only the rounding difference between blocked and single-column BLAS.
    diag = gaussian_class_spec(np.eye(6))
    block = sample_class(diag, 5, seed=9)
    for j in range(5):
        single = sample_class(diag, 1, seed=9, column_offset=j)
        np.testing.assert_array_equal(block[:, j], single[:, 0])

    spec = gaussian_class_spec(toeplitz_covariance(0.5, 6))
    block = sample_class(spec, 5, seed=9)
    for j in range(5):
        single = sample_class(spec, 1, seed=9, column_offset=j)
        np.testing.assert_allclose(block[:, j], single[:, 0], rtol=0, atol=1e-14)


def test_sample_mixture_layout_and_labels():
    s1 = gaussian_class_spec(np.eye(4))
    s2 = bounded_class_spec(2.0 * np.eye(4))
    sample = sample_mixture([(s1, 3), (s2, 5)], seed=11)
    assert sample.matrix.shape == (4, 8)
    np.testing.assert_array_equal(sample.labels, [0, 0, 0, 1, 1, 1, 1, 1])
    # Class blocks reproduce standalone draws at the right offsets.
    np.testing.assert_array_equal(
        sample.matrix[:, :3], sample_class(s1, 3, seed=11, column_offset=0)
    )
    np.testing.assert_array_equal(
        sample.matrix[:, 3:], sample_class(s2, 5, seed=11, column_offset=3)
    )


LAWS = [
    ("gaussian", "standard-normal"),
    ("bounded-affine", "rademacher"),
    ("bounded-affine", "uniform"),
]


def diagonal_spec(kind, latent, p=5):
    return GeneratorSpec(
        kind=kind,
        mean=np.linspace(-1.0, 1.0, p),
        factor=np.diag(np.arange(1.0, p + 1)),
        latent=latent,
    )


def split_draw(spec, seed, offset, counts):
    parts = []
    for count in counts:
        parts.append(sample_class(spec, count, seed, column_offset=offset))
        offset += count
    return np.ascontiguousarray(np.hstack(parts))


@pytest.mark.parametrize("kind,latent", LAWS)
def test_latent_rows_follow_the_chunk_stream_format(kind, latent):
    # Global column j is row j % 64 of the 64-row block drawn from the
    # Philox stream keyed (seed, j // 64) with counter (0, 0, d, law).
    spec = GeneratorSpec(kind=kind, mean=np.zeros(3), factor=np.eye(3), latent=latent)
    seed = 77
    counter = np.array([0, 0, 3, LATENTS.index(latent)], dtype=np.uint64)
    for chunk in (0, 1, 2**33 + 5):
        key = np.array([seed, chunk], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(counter=counter, key=key))
        if latent == "standard-normal":
            want = rng.standard_normal((64, 3))
        elif latent == "rademacher":
            want = 2.0 * rng.integers(0, 2, size=(64, 3)) - 1.0
        else:
            want = np.sqrt(3.0) * rng.uniform(-1.0, 1.0, size=(64, 3))
        got = sample_class(spec, 64, seed, column_offset=64 * chunk)
        np.testing.assert_array_equal(got, want.T)


@pytest.mark.parametrize("kind,latent", LAWS)
def test_sample_class_is_independent_of_splitting(kind, latent):
    spec = diagonal_spec(kind, latent)
    seed, n = 31, 400
    whole = sample_class(spec, n, seed).tobytes()
    rng = np.random.default_rng(5)
    for _ in range(6):
        cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, 9), replace=False))
        counts = np.diff(np.concatenate([[0], cuts, [n]]))
        assert split_draw(spec, seed, 0, counts).tobytes() == whole
    # Splits across chunk boundaries: 63 | 2 crosses the first, 1-column
    # calls land on either side of it, and 129 columns span three chunks.
    assert split_draw(spec, seed, 0, [63, 2, 1, 129, 205]).tobytes() == whole
    assert split_draw(spec, seed, 0, [63, 1, 1, 64, 64, 207]).tobytes() == whole
    far = 2**32 + 61
    whole = sample_class(spec, 200, seed, column_offset=far).tobytes()
    assert split_draw(spec, seed, far, [2, 1, 129, 68]).tobytes() == whole
    assert split_draw(spec, seed, far, [1] * 5 + [195]).tobytes() == whole


def test_sample_mixture_classes_straddling_chunks_match_standalone_draws():
    specs = [diagonal_spec(*law, p=4) for law in LAWS]
    specs.append(gaussian_class_spec(toeplitz_covariance(0.4, 4)))
    counts = [63, 2, 129, 70]
    sample = sample_mixture(list(zip(specs, counts)), seed=13)
    offset = 0
    for spec, count in zip(specs, counts):
        block = sample.matrix[:, offset : offset + count]
        np.testing.assert_array_equal(
            block, sample_class(spec, count, seed=13, column_offset=offset)
        )
        offset += count


def raw_words_read(monkeypatch, spec, count, seed, offset):
    """Every 64-bit Philox word generated while drawing these latent columns."""
    real = np.random.Philox
    made = []

    def recording(*args, **kwargs):
        made.append((args, kwargs, real(*args, **kwargs)))
        return made[-1][2]

    with monkeypatch.context() as m:
        m.setattr(np.random, "Philox", recording)
        _latent_block(spec, count, seed, offset)
    words = set()
    for args, kwargs, used in made:
        replay = real(*args, **kwargs)
        blocks = int(used.state["state"]["counter"][0] - replay.state["state"]["counter"][0])
        words.update(replay.random_raw(4 * blocks).tolist())
    return words


def latent_spec(latent, d, p=5):
    kind = "gaussian" if latent == "standard-normal" else "bounded-affine"
    return GeneratorSpec(kind=kind, mean=np.zeros(p), factor=np.eye(p)[:, :d], latent=latent)


@pytest.mark.parametrize(
    "first,second",
    [
        (("standard-normal", 5), ("standard-normal", 3)),
        (("standard-normal", 3), ("uniform", 3)),
        (("rademacher", 5), ("uniform", 5)),
    ],
    ids=["same law, other d", "gaussian vs uniform", "rademacher vs uniform"],
)
def test_classes_sharing_a_chunk_read_disjoint_streams(monkeypatch, first, second):
    # Columns 0-62 belong to the first class, 63-127 to the second, so both
    # draw chunk 0. A stream keyed by (seed, chunk) alone would hand the
    # second class raw words the first class already turned into latents.
    a, b = latent_spec(*first), latent_spec(*second)
    seed = 17
    words_a = raw_words_read(monkeypatch, a, 63, seed, 0)
    words_b = raw_words_read(monkeypatch, b, 65, seed, 63)
    assert words_a and words_b
    assert not words_a & words_b
    if first[0] == second[0]:
        sample = sample_mixture([(a, 63), (b, 65)], seed)
        latent_a = sample.matrix[: first[1], :63]
        latent_b = sample.matrix[: second[1], 63:]
        assert np.intersect1d(latent_a, latent_b).size == 0


@pytest.mark.parametrize("kind,latent", LAWS)
def test_diagonal_factor_equals_dense_product_exactly(kind, latent):
    spec = diagonal_spec(kind, latent, p=7)
    assert spec.diagonal is not None
    latent_block = _latent_block(spec, 150, 3, 40)
    scale = np.sqrt(3.0) if latent == "uniform" else 1.0
    dense = spec.mean[:, None] + spec.factor @ (scale * latent_block)
    np.testing.assert_array_equal(sample_class(spec, 150, 3, column_offset=40), dense)


@pytest.mark.parametrize(
    "factor",
    [np.eye(4) + np.eye(4, k=1) * 1e-3, np.ones((4, 2)), np.eye(4)[:, ::-1]],
    ids=["off-diagonal entry", "non-square", "permutation"],
)
def test_non_diagonal_factor_takes_the_dense_product(factor):
    spec = GeneratorSpec(kind="gaussian", mean=np.zeros(4), factor=factor)
    assert spec.diagonal is None
    got = sample_class(spec, 70, 8, column_offset=60)
    np.testing.assert_array_equal(got, factor @ _latent_block(spec, 70, 8, 60))


def test_sample_class_checks_column_offset():
    # The last column's chunk index (offset + count - 1) // 64 must fit in
    # 64 bits: with count 3 the largest valid offset is 2**70 - 3.
    spec = gaussian_class_spec(np.eye(2))
    with pytest.raises(ParameterError):
        sample_class(spec, 3, 1, column_offset=-1)
    last = sample_class(spec, 3, 1, column_offset=2**70 - 3)
    np.testing.assert_array_equal(last, _latent_block(spec, 3, 1, 2**70 - 3))
    with pytest.raises(ParameterError):
        sample_class(spec, 3, 1, column_offset=2**70 - 2)


def test_sample_mixture_rejects_dimension_mismatch():
    with pytest.raises(ShapeError):
        sample_mixture(
            [(gaussian_class_spec(np.eye(2)), 2), (gaussian_class_spec(np.eye(3)), 2)],
            seed=0,
        )


def test_sample_mixture_rejects_no_classes_and_an_empty_class():
    with pytest.raises(ShapeError, match="at least one"):
        sample_mixture([], seed=0)
    with pytest.raises(ParameterError, match="class counts must be positive, got 0"):
        sample_mixture([(gaussian_class_spec(np.eye(2)), 3), (gaussian_class_spec(np.eye(2)), 0)],
                       seed=0)


@pytest.mark.parametrize("trials", [0, -2])
def test_trial_samples_checks_trials_at_the_call(monkeypatch, trials):
    # Raised by the call itself, not on the first step of the iteration.
    monkeypatch.setattr(covspec.sampler, "sample_mixture", no_sampling)
    with pytest.raises(ParameterError):
        _trial_samples([(gaussian_class_spec(np.eye(2)), 3)], 0, trials)


def test_trial_samples_are_lazy_with_one_seed_per_trial(monkeypatch):
    pairs = [(gaussian_class_spec(np.eye(3)), 4), (bounded_class_spec(2.0 * np.eye(3)), 70)]
    seeds = []

    def recording(pairs, seed):
        seeds.append(seed)
        return sample_mixture(pairs, seed)

    monkeypatch.setattr(covspec.sampler, "sample_mixture", recording)
    stream = _trial_samples(pairs, 7, 3)
    assert seeds == []
    first = next(stream)
    assert seeds == [derive_seed(7, 0)]
    got = [first] + list(stream)
    assert seeds == [derive_seed(7, t) for t in range(3)]
    for t, matrix in enumerate(got):
        assert matrix.tobytes() == sample_mixture(pairs, derive_seed(7, t)).matrix.tobytes()


def test_gaussian_sample_moments():
    t = toeplitz_covariance(0.5, 4)
    spec = gaussian_class_spec(t)
    m = 40_000
    x = sample_class(spec, m, seed=2)
    np.testing.assert_allclose(x @ x.T / m, t, atol=5 / np.sqrt(m))


def test_bounded_sample_moments_and_range():
    sigma = toeplitz_covariance(0.6, 4)
    for latent in ("rademacher", "uniform"):
        spec = bounded_class_spec(sigma, latent=latent)
        m = 40_000
        x = sample_class(spec, m, seed=3)
        np.testing.assert_allclose(x @ x.T / m, sigma, atol=6 / np.sqrt(m))


def test_lipschitz_sample_applies_nonlinearity():
    spec = GeneratorSpec(
        kind="lipschitz-of-gaussian",
        mean=np.full(3, 10.0),
        factor=np.eye(3),
        nonlinearity="abs",
    )
    x = sample_class(spec, 50, seed=5)
    # mean + |g| is at least the mean everywhere.
    assert np.all(x >= 10.0)


def test_relu_sample_is_the_positive_part_of_the_identity_sample():
    factor = np.linalg.cholesky(toeplitz_covariance(0.5, 4))
    plain, relu = (GeneratorSpec("lipschitz-of-gaussian", np.zeros(4), factor, f)
                   for f in ("identity", "relu"))
    x = sample_class(plain, 100, seed=5)
    np.testing.assert_array_equal(sample_class(relu, 100, seed=5), np.maximum(x, 0.0))


def test_empirical_spectrum_trace_identity(rng):
    x = rng.standard_normal((12, 30))
    spec = empirical_spectrum(x)
    np.testing.assert_allclose(
        spec.values.sum(), (x**2).sum() / 30, rtol=1e-10
    )
    assert spec.p == 12
    assert spec.n == 30
    assert np.all(np.diff(spec.values) >= 0)


def test_empirical_spectrum_zero_padding_rank(rng):
    # Rank of X X^T / n is at most n, so p - n eigenvalues vanish up to
    # the symmetric eigensolver's floor.
    x = rng.standard_normal((6, 2))
    spec = empirical_spectrum(x)
    floor = 1e-12 * spec.values.max()
    assert np.sum(np.abs(spec.values) <= floor) >= 4
    assert np.all(spec.values >= -floor)


def test_empirical_spectrum_takes_mixture_sample():
    sample = sample_mixture([(gaussian_class_spec(np.eye(3)), 5)], seed=21)
    spec = empirical_spectrum(sample)
    assert spec.seed == 21


def test_empirical_spectrum_rejects_bad_input():
    with pytest.raises(ShapeError):
        empirical_spectrum(np.zeros((3, 0)))
    bad = np.ones((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        empirical_spectrum(bad)


def test_histogram_explicit_edges():
    hist = histogram(np.array([1.0, 1.0, 3.0, 3.0]), np.array([0.0, 2.0, 4.0]))
    np.testing.assert_allclose(hist.masses, [0.5, 0.5])
    assert hist.transform is None


def test_histogram_bin_count_masses_sum_to_one(rng):
    hist = histogram(rng.uniform(0, 5, 1000), 17)
    np.testing.assert_allclose(hist.masses.sum(), 1.0, atol=1e-12)
    assert hist.masses.size == 17


def test_histogram_transform_takes_roots():
    hist = histogram(
        np.array([1.0, 4.0, 9.0]), np.array([0.0, 1.5, 2.5, 3.5]), transform=0.5
    )
    np.testing.assert_allclose(hist.masses, [1 / 3, 1 / 3, 1 / 3])
    assert hist.transform == 0.5


def test_histogram_validation():
    with pytest.raises(ParameterError):
        histogram(np.array([1.0, 5.0]), np.array([0.0, 2.0]))  # not covering
    with pytest.raises(ParameterError):
        histogram(np.array([1.0]), np.array([2.0, 1.0]))
    with pytest.raises(ParameterError):
        histogram(np.array([1.0]), 0)
    with pytest.raises(ParameterError):
        histogram(np.array([1.0]), 3, transform=-1.0)
    with pytest.raises(ShapeError, match="nonempty"):
        histogram(np.array([]), 3)


@pytest.mark.parametrize("bins, transform", [(np.array([0.0, np.nan, 10.0]), None), (3, np.nan)])
def test_histogram_rejects_non_finite_edges_or_transform(bins, transform):
    with pytest.raises(ParameterError, match="finite"):
        histogram(np.array([1.0, 2.0]), bins, transform)


def test_ks_distance_basic_cases():
    assert spectral_ks_distance(np.arange(5.0), np.arange(5.0)) == 0.0
    assert spectral_ks_distance(np.zeros(4), np.ones(4)) == 1.0
    # {1} vs {1,2}: CDFs agree at 2 but split at 1.
    assert spectral_ks_distance(np.array([1.0]), np.array([1.0, 2.0])) == 0.5


@pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], [])], ids=["left", "right"])
def test_ks_distance_rejects_an_empty_spectrum(a, b):
    with pytest.raises(ShapeError, match="both spectra must be nonempty"):
        spectral_ks_distance(np.array(a), np.array(b))


def test_ks_distance_universality_small_case():
    sigma = toeplitz_covariance(0.3, 100)
    g = sample_class(gaussian_class_spec(sigma), 100, seed=1)
    b = sample_class(bounded_class_spec(sigma), 100, seed=2)
    ks = spectral_ks_distance(empirical_spectrum(g), empirical_spectrum(b))
    assert ks <= 8 / np.sqrt(100)
