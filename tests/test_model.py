"""Class models, mixtures, and the joint-eigenbasis fast path."""

import numpy as np
import pytest

from conftest import identity_mixture
from covspec import (
    ClassModel,
    DataError,
    Mixture,
    ParameterError,
    ShapeError,
    build_mixture,
    estimate_class_model,
    gaussian_class_spec,
    toeplitz_covariance,
)
from covspec.cli import cmd_compare, cmd_predict, cmd_simulate
from covspec.config import load_config
from covspec.equivalent import atom_at_zero
from covspec.fixed_point import _DenseTraces, _SpectralTraces
from covspec.model import _joint_eigenbasis
from covspec.sampler import _class_spec


def test_toeplitz_entries():
    t = toeplitz_covariance(0.5, 3)
    expected = np.array(
        [
            [0.5, 0.25, 0.125],
            [0.25, 0.5, 0.25],
            [0.125, 0.25, 0.5],
        ]
    )
    np.testing.assert_allclose(t, expected, rtol=0, atol=0)


@pytest.mark.parametrize("a", [0.0, 1.0, -0.3, 1.7])
def test_toeplitz_parameter_range(a):
    with pytest.raises(ParameterError):
        toeplitz_covariance(a, 4)


@pytest.mark.parametrize("p", [2.5, 3.0, 0, -2])
def test_toeplitz_dimension_must_be_a_positive_integer(p):
    with pytest.raises(ParameterError):
        toeplitz_covariance(0.5, p)


def _lags(p):
    idx = np.arange(p)
    return np.abs(idx[:, None] - idx[None, :])


@pytest.mark.parametrize("p", [40, 500, 600])
@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.9])
def test_toeplitz_row_build_is_the_entrywise_formula_without_its_subnormal_tail(a, p):
    formula = a ** (_lags(p) + 1.0)
    t = toeplitz_covariance(a, p)
    kept = formula >= 2.0**-511 * a
    assert t[kept].tobytes() == formula[kept].tobytes()
    assert not t[~kept].any()
    assert not ((t > 0) & (t < np.finfo(float).tiny)).any()


def test_toeplitz_positive_definite():
    t = toeplitz_covariance(0.9, 40)
    assert np.linalg.eigvalsh(t)[0] > 0


def test_class_model_basic_fields():
    sigma = toeplitz_covariance(0.4, 5)
    model = ClassModel(sigma=sigma, mean=np.zeros(5), n_l=7)
    assert model.p == 5
    assert model.n_l == 7
    np.testing.assert_allclose(model.trace(), np.trace(sigma))
    assert model.rank() == 5


def test_class_model_rank_deficient():
    v = np.arange(1.0, 5.0)
    sigma = np.outer(v, v)
    model = ClassModel(sigma=sigma, mean=np.zeros(4), n_l=3)
    assert model.rank() == 1


def test_class_model_rejects_asymmetry():
    sigma = np.eye(3)
    sigma[0, 1] = 1e-14
    with pytest.raises(ShapeError):
        ClassModel(sigma=sigma, mean=np.zeros(3), n_l=2)


def test_class_model_rejects_nonsquare_and_bad_mean():
    with pytest.raises(ShapeError):
        ClassModel(sigma=np.zeros((2, 3)), mean=np.zeros(2), n_l=1)
    with pytest.raises(ShapeError):
        ClassModel(sigma=np.eye(3), mean=np.zeros(2), n_l=1)


def test_class_model_rejects_an_empty_class():
    with pytest.raises(ParameterError, match="n_l must be a positive integer, got 0"):
        ClassModel(sigma=np.eye(3), mean=np.zeros(3), n_l=0)


def test_class_model_rejects_zero_dimension():
    with pytest.raises(ShapeError, match="p >= 1"):
        ClassModel(np.eye(0), np.zeros(0), 3)


def test_class_model_rejects_mean_exceeding_second_moment():
    # sigma - mean mean^T must stay positive semidefinite.
    with pytest.raises(DataError):
        ClassModel(sigma=np.eye(2), mean=np.array([2.0, 0.0]), n_l=1)


def test_class_model_accepts_mean_on_boundary():
    mean = np.array([1.0, 0.0])
    model = ClassModel(sigma=np.eye(2), mean=mean, n_l=1)
    np.testing.assert_allclose(model.mean, mean)


def test_class_model_rejects_nonfinite():
    sigma = np.eye(2)
    sigma[0, 0] = np.nan
    with pytest.raises(DataError):
        ClassModel(sigma=sigma, mean=np.zeros(2), n_l=1)


def test_class_model_arrays_are_frozen():
    model = ClassModel(sigma=np.eye(2), mean=np.zeros(2), n_l=1)
    with pytest.raises(ValueError):
        model.sigma[0, 0] = 2.0
    with pytest.raises(ValueError):
        model.mean[0] = 1.0


def test_class_model_copies_what_a_caller_can_still_write():
    # A writeable array, or a read-only view of one, is copied; a read-only
    # array that owns its memory is kept as it is.
    sigma = np.eye(3)
    view = sigma[:]
    view.flags.writeable = False
    for given in (sigma, view):
        model = ClassModel(sigma=given, mean=np.zeros(3), n_l=1)
        assert not np.shares_memory(model.sigma, sigma)
    sigma[0, 0] = 7.0
    assert model.sigma[0, 0] == 1.0
    frozen = np.eye(3)
    frozen.flags.writeable = False
    assert ClassModel(sigma=frozen, mean=np.zeros(3), n_l=1).sigma is frozen


def test_mixture_counts_weights_gamma():
    c1 = ClassModel(sigma=np.eye(3), mean=np.zeros(3), n_l=2)
    c2 = ClassModel(sigma=2.0 * np.eye(3), mean=np.zeros(3), n_l=6)
    mix = build_mixture([c1, c2], 8)
    assert mix.p == 3
    assert mix.k == 2
    assert mix.gamma == 3 / 8
    np.testing.assert_allclose(mix.weights, [0.25, 0.75])
    np.testing.assert_allclose(mix.class_traces(), [3.0, 6.0])


def test_mixture_count_total_must_match_n():
    c = ClassModel(sigma=np.eye(2), mean=np.zeros(2), n_l=3)
    with pytest.raises(ShapeError):
        build_mixture([c], 4)


def test_mixture_rejects_dimension_mismatch():
    c1 = ClassModel(sigma=np.eye(2), mean=np.zeros(2), n_l=1)
    c2 = ClassModel(sigma=np.eye(3), mean=np.zeros(3), n_l=1)
    with pytest.raises(ShapeError):
        build_mixture([c1, c2], 2)


def test_mixture_requires_a_class():
    with pytest.raises(ShapeError):
        Mixture(classes=(), n=4)


def _assert_record_matches(mix):
    """The record's sorted rows are the class spectra, and its traces are
    those of the dense matrices at a real and a complex shift, which holds
    only if one basis diagonalizes every class."""
    eigs = mix.spectral()
    assert eigs is not None and eigs.shape == (mix.k, mix.p)
    assert not eigs.flags.writeable
    for row, model in zip(eigs, mix.classes):
        np.testing.assert_allclose(np.sort(row), np.linalg.eigvalsh(model.sigma), atol=1e-10)
    coeff = mix.weights / (1.0 + np.arange(1.0, mix.k + 1))
    for shift in (0.7, -1.3 - 0.2j):
        fast = _SpectralTraces(eigs).traces(coeff, shift)
        dense = _DenseTraces(mix).traces(coeff, shift)
        # (class traces, cross traces on demand, (1/p) tr Q)
        for a, b in ((fast[0], dense[0]), (fast[1](), dense[1]()), (fast[2], dense[2])):
            np.testing.assert_allclose(a, b, rtol=1e-9)


def test_spectral_cache_single_class():
    mix = identity_mixture(6, 10)
    np.testing.assert_array_equal(mix.spectral(), np.ones((1, 6)))
    t = toeplitz_covariance(0.3, 8)
    _assert_record_matches(build_mixture([ClassModel(sigma=t, mean=np.zeros(8), n_l=5)], 5))


def test_spectral_cache_commuting_classes():
    t = toeplitz_covariance(0.3, 8)
    t2 = t @ t
    c1 = ClassModel(sigma=t, mean=np.zeros(8), n_l=4)
    c2 = ClassModel(sigma=(t2 + t2.T) / 2, mean=np.zeros(8), n_l=4)
    _assert_record_matches(build_mixture([c1, c2], 8))


def test_spectral_cache_absent_for_noncommuting_classes(rng):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    d1 = np.diag(np.arange(1.0, 7.0))
    rotated = q @ d1 @ q.T
    c1 = ClassModel(sigma=d1, mean=np.zeros(6), n_l=3)
    c2 = ClassModel(sigma=(rotated + rotated.T) / 2, mean=np.zeros(6), n_l=3)
    mix = build_mixture([c1, c2], 6)
    assert mix.spectral() is None


def test_spectral_cache_is_lazy_and_cached():
    mix = identity_mixture(4, 4)
    first = mix.spectral()
    assert mix.spectral() is first


def test_estimate_class_model_moments(rng):
    p, m = 4, 50_000
    x = rng.standard_normal((p, m))
    model = estimate_class_model(x, n_l=10)
    assert model.n_l == 10
    np.testing.assert_allclose(model.sigma, x @ x.T / m, atol=1e-12)
    np.testing.assert_allclose(model.sigma, np.eye(p), atol=5 / np.sqrt(m))


def test_estimate_class_model_nonzero_mean(rng):
    # Uncentered second moment: the mean contributes mean mean^T.
    p, m = 3, 80_000
    mean = np.array([1.0, -0.5, 0.25])
    x = mean[:, None] + 0.1 * rng.standard_normal((p, m))
    model = estimate_class_model(x, n_l=5)
    target = np.outer(mean, mean) + 0.01 * np.eye(p)
    np.testing.assert_allclose(model.sigma, target, atol=5e-3)


def test_estimate_class_model_rejects_bad_input():
    with pytest.raises(ShapeError):
        estimate_class_model(np.zeros(3), n_l=1)
    with pytest.raises(DataError):
        estimate_class_model(np.zeros((3, 0)), n_l=1)
    bad = np.ones((2, 4))
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        estimate_class_model(bad, n_l=1)


def _full_commutator_rejects(sigmas):
    """Reference: the full p x p commutator test that the probe replaced."""
    p = sigmas[0].shape[0]
    scales = [max(np.abs(s).max(), 1e-300) for s in sigmas]
    return any(
        np.abs(sigmas[a] @ sigmas[b] - sigmas[b] @ sigmas[a]).max()
        > 1e-10 * scales[a] * scales[b] * p
        for a in range(len(sigmas))
        for b in range(a + 1, len(sigmas))
    )


def _reference_is_spectral(sigmas):
    """Reference choice: full commutator test, then certification of the basis."""
    if _full_commutator_rejects(sigmas):
        return False
    scales = [max(np.abs(s).max(), 1e-300) for s in sigmas]
    combo = sum((1.0 + (j + 1) / np.pi) / scales[j] * s for j, s in enumerate(sigmas))
    v = np.linalg.eigh(combo)[1]
    for s, scale in zip(sigmas, scales):
        m = v.T @ s @ v
        if np.abs(m - np.diag(np.diagonal(m))).max() > 1e-10 * scale:
            return False
    return True


class _Counted:
    """Wraps a numpy.linalg routine and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    wrapped = {
        name: _Counted(getattr(np.linalg, name)) for name in ("eigvalsh", "eigh", "cholesky")
    }
    for name, fn in wrapped.items():
        monkeypatch.setattr(np.linalg, name, fn)
    return wrapped


def _symmetric(m):
    return (m + m.T) / 2.0


def _rotated_diagonals(p, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    return [_symmetric((q * d) @ q.T) for d in (np.arange(1.0, p + 1), np.cos(np.arange(p)) + 2)]


def _random_pair(p, seed):
    rng = np.random.default_rng(seed)
    return [_symmetric(g @ g.T / p) for g in rng.standard_normal((2, p, p))]


# The unflushed formula, not toeplitz_covariance: the probe must stay sound on
# matrices that carry a subnormal tail, such as a sigma file may hold.
_T = 0.1 ** (_lags(500) + 1.0)
_PROBE_FAMILIES = {
    "toeplitz powers a=0.1": [10 * _symmetric(_T @ _T), 10 * _T],
    "toeplitz cube a=0.1": [_T, _symmetric(_T @ _T @ _T)],
    "identity and toeplitz": [np.eye(500), 10 * _T],
    "identity and toeplitz a=0.5": [np.eye(60), toeplitz_covariance(0.5, 60)],
    "rotated diagonals": _rotated_diagonals(80, 1),
    "three classes": [np.eye(500), 10 * _T, 10 * _symmetric(_T @ _T)],
    **{f"{s:g} I": [s * np.eye(40), toeplitz_covariance(0.3, 40)]
       for s in (1e-8, 1e-4, 1.0, 1e4, 1e8)},
    **{f"{s:g} I and 2 I": [s * np.eye(30), 2 * np.eye(30)] for s in (1e-8, 1e8)},
    **{f"random pair {seed}": _random_pair(50, seed) for seed in range(4)},
    "random rotated diagonal": [np.diag(np.arange(1.0, 51)), _random_pair(50, 9)[0]],
}


def test_toeplitz_a01_has_a_subnormal_tail():
    tiny = _T[(_T > 0) & (_T < np.finfo(float).tiny)]
    assert tiny.size > 0


@pytest.mark.parametrize("family", list(_PROBE_FAMILIES))
def test_commutator_probe_rejects_only_what_the_full_test_rejects(family, counted):
    sigmas = _PROBE_FAMILIES[family]
    cache = _joint_eigenbasis(sigmas)
    probe_rejected = cache is None and counted["eigh"].calls == 0
    if probe_rejected:
        assert _full_commutator_rejects(sigmas)
    assert (cache is not None) == _reference_is_spectral(sigmas)
    expect_spectral = not family.startswith("random")
    assert (cache is not None) == expect_spectral


def test_certificate_rejects_a_pair_the_probe_cannot_see(counted):
    # For symmetric 3 x 3 A, B the commutator C = AB - BA is antisymmetric, so
    # C x is the cross product of C's axis with x. With A = diag(1, 2, 3),
    # C_ij = (a_i - a_j) B_ij, and these entries of B set the axis to the
    # probe vector x itself: the probe passes, and the certificate rejects.
    x = np.cos(np.arange(3.0))
    b = 5.0 * np.eye(3)
    b[1, 2] = b[2, 1] = x[0]
    b[0, 2] = b[2, 0] = -x[1] / 2.0
    b[0, 1] = b[1, 0] = x[2]
    sigmas = [np.diag([1.0, 2.0, 3.0]), b]
    assert _full_commutator_rejects(sigmas)
    assert _joint_eigenbasis(sigmas) is None
    assert counted["eigh"].calls == 1


def _predict_config(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return load_config(str(path))


README_MIXTURE = """
[mixture]
p = 500
n = 500
classes = bulk spike

[class.bulk]
n_l = 450
sigma = toeplitz a=0.1 scale=10 power=2

[class.spike]
n_l = 50
sigma = toeplitz a=0.1 scale=10
"""

THREE_CLASS_MIXTURE = """
[mixture]
p = 600
n = 300
classes = iso near far

[class.iso]
n_l = 100
sigma = identity

[class.near]
n_l = 100
sigma = toeplitz a=0.1 scale=10

[class.far]
n_l = 100
sigma = toeplitz a=0.1 scale=10 power=2
"""


@pytest.mark.parametrize("text", [README_MIXTURE, THREE_CLASS_MIXTURE])
def test_example_mixtures_take_the_spectral_path(tmp_path, text):
    assert _predict_config(tmp_path, text, "exp.ini").mixture().spectral() is not None


def _unflushed_toeplitz(p, power):
    out = 10.0 * np.linalg.matrix_power(0.1 ** (_lags(p) + 1.0), power)
    return _symmetric(out)


@pytest.mark.parametrize("text, unflushed", [
    (README_MIXTURE, lambda: [_unflushed_toeplitz(500, 2), _unflushed_toeplitz(500, 1)]),
    (THREE_CLASS_MIXTURE,
     lambda: [np.eye(600), _unflushed_toeplitz(600, 1), _unflushed_toeplitz(600, 2)]),
])
def test_flushing_the_recipe_tail_leaves_the_spectral_record_byte_identical(
    tmp_path, text, unflushed
):
    mix = _predict_config(tmp_path, text, "exp.ini").mixture()
    reference = build_mixture(
        [ClassModel(sigma, np.zeros(mix.p), c.n_l) for sigma, c in zip(unflushed(), mix.classes)],
        mix.n,
    )
    assert mix.spectral().tobytes() == reference.spectral().tobytes()


@pytest.mark.parametrize("text", [README_MIXTURE, THREE_CLASS_MIXTURE], ids=["readme", "three"])
def test_recipe_products_run_in_normal_arithmetic(tmp_path, text):
    # A product of two stored recipe matrices holds no subnormal entry.
    for c in _predict_config(tmp_path, text, "exp.ini").class_configs:
        product = np.abs(c.sigma @ c.sigma)
        assert not ((product > 0) & (product < np.finfo(float).tiny)).any()


def test_estimated_classes_exit_before_the_eigh(rng, counted):
    p = 30
    classes = [estimate_class_model(rng.standard_normal((p, 60)), n_l=60) for _ in range(2)]
    assert _full_commutator_rejects([c.sigma for c in classes])
    assert build_mixture(classes, 120).spectral() is None
    assert counted["eigh"].calls == 0


def test_predict_decomposes_each_zero_mean_class_once(tmp_path, counted):
    config = _predict_config(tmp_path, """
[mixture]
p = 40
n = 60
classes = a b

[class.a]
n_l = 30
sigma = toeplitz a=0.3 scale=2

[class.b]
n_l = 30
sigma = toeplitz a=0.3 power=2

[predict]
z_grid = 0.5 2
epsilon = 0.05
""", "two.ini")
    (tmp_path / "out").mkdir()
    assert cmd_predict(config, str(tmp_path / "out")) == 0
    # One Cholesky per class for the PSD rule and the joint eigh; the class
    # eigenvalues are the rows of the record.
    assert counted["cholesky"].calls == 2
    assert counted["eigvalsh"].calls == 0
    assert counted["eigh"].calls == 1


@pytest.mark.parametrize("mean, eigvalsh_calls", [("zeros", 1), ("file mean.csv", 1)])
def test_one_class_predict_runs_no_eigh(tmp_path, counted, mean, eigvalsh_calls):
    # The record of one class is its ClassModel.eigenvalues, one eigvalsh of
    # sigma with or without a mean; the PSD rule is a Cholesky.
    (tmp_path / "mean.csv").write_text("0.5\n" + "0\n" * 19)
    config = _predict_config(tmp_path, f"""
[mixture]
p = 20
n = 30
classes = a

[class.a]
n_l = 30
sigma = toeplitz a=0.3 scale=2
mean = {mean}

[predict]
z_grid = 0.5 2
epsilon = 0.05
""", "one.ini")
    (tmp_path / "out").mkdir()
    assert cmd_predict(config, str(tmp_path / "out")) == 0
    assert counted["eigvalsh"].calls == eigvalsh_calls
    assert counted["cholesky"].calls == 1
    assert counted["eigh"].calls == 0


def test_zero_mean_eigenvalues_are_those_of_sigma():
    sigma = _symmetric(toeplitz_covariance(0.7, 30) @ toeplitz_covariance(0.2, 30))
    model = ClassModel(sigma=sigma, mean=np.zeros(30), n_l=3)
    np.testing.assert_array_equal(model.eigenvalues, np.linalg.eigvalsh(model.sigma))


def test_nonzero_mean_eigenvalues_are_those_of_sigma(counted):
    mean = np.full(4, 0.5)
    model = ClassModel(sigma=np.eye(4) + np.outer(mean, mean), mean=mean, n_l=3)
    np.testing.assert_array_equal(model.eigenvalues, np.linalg.eigvalsh(model.sigma))
    assert counted["cholesky"].calls == 1  # check
    assert counted["eigvalsh"].calls == 2  # eigenvalues, reference


def test_nonzero_mean_psd_check_uses_the_centered_matrix():
    # sigma is PSD but sigma - mean mean^T is not.
    with pytest.raises(DataError, match="sigma - mean mean"):
        ClassModel(sigma=np.diag([1.0, 4.0]), mean=np.array([1.5, 0.0]), n_l=1)


def test_non_commuting_predict_runs_one_eigvalsh_per_class(tmp_path, counted):
    # Without a joint record each class's rank and top eigenvalue come from
    # its own eigvalsh of sigma, once, whatever its mean.
    (tmp_path / "mean.csv").write_text("0.5\n" + "0\n" * 19)
    config = _predict_config(tmp_path, """
[mixture]
p = 20
n = 30
classes = a b

[class.a]
n_l = 15
sigma = toeplitz a=0.3 scale=2
mean = file mean.csv

[class.b]
n_l = 15
sigma = toeplitz a=0.6 scale=2
mean = file mean.csv

[predict]
z_grid = 0.5 2
epsilon = 0.05
""", "apart.ini")
    (tmp_path / "out").mkdir()
    assert cmd_predict(config, str(tmp_path / "out")) == 0
    assert counted["cholesky"].calls == 2
    assert counted["eigvalsh"].calls == 2
    assert config.mixture().spectral() is None


_COMMUTING_PAIR = """
[mixture]
p = 20
n = 40
classes = a b

[class.a]
n_l = 30
sigma = toeplitz a=0.3 scale=2

[class.b]
n_l = 10
sigma = toeplitz a=0.3 power=2
generator = bounded-affine

[compare]
z_grid = 0.5 2
lambda_grid = 0.05:6:30
epsilon = 0.05
trials = 2
"""


_IDENTITY_PAIR = _COMMUTING_PAIR.replace("sigma = toeplitz a=0.3 power=2", "sigma = identity")


@pytest.mark.parametrize("command, text", [
    (cmd_compare, _COMMUTING_PAIR),
    (cmd_simulate, _COMMUTING_PAIR),
    (cmd_compare, _IDENTITY_PAIR),
    (cmd_simulate, _IDENTITY_PAIR),
], ids=["compare", "simulate", "compare-identity", "simulate-identity"])
def test_sampling_commands_decompose_each_class_once(tmp_path, counted, command, text):
    # ClassModel judges each class once (one Cholesky each); the mixture reads
    # that one judged class, and the sampler takes each zero-mean class's square
    # root from the mixture's one joint eigenbasis, or, for the identity class,
    # from its diagonal with no eigh of its own: one eigh in all.
    config = _predict_config(tmp_path, text, "pair.ini")
    (tmp_path / "out").mkdir()
    assert command(config, str(tmp_path / "out")) == 0
    assert counted["cholesky"].calls == 2
    assert counted["eigh"].calls == 1


@pytest.mark.parametrize("scale", [1e-200, 1e-300, 1e150])
def test_certificate_judges_the_scaled_residual_at_extreme_scales(scale):
    # The commutator probe underflows at tiny scales and passes any pair, so
    # the certificate alone rejects; squaring an unscaled residual there
    # would underflow to 0 and certify a pair that does not commute.
    assert _joint_eigenbasis([scale * s for s in _random_pair(30, 0)]) is None
    t = toeplitz_covariance(0.3, 30)
    assert _joint_eigenbasis([scale * t, scale * _symmetric(t @ t)]) is not None


def test_joint_eigh_floor_leaves_the_record_where_an_unfloored_eigh_puts_it():
    # The record from the floored combination against the rows that an eigh of
    # the bare combination gives, on a README-like mixture: equal to far below
    # eigh's own error.
    t = toeplitz_covariance(0.1, 200)
    sigmas = [10.0 * _symmetric(t @ t), 10.0 * t]
    rows, v = build_mixture([ClassModel(s, np.zeros(200), 100) for s in sigmas], 200).eigenpairs
    weights = [(1.0 + (j + 1) / np.pi) / np.abs(s).max() for j, s in enumerate(sigmas)]
    _, v0 = np.linalg.eigh(weights[0] * sigmas[0] + weights[1] * sigmas[1])
    for row, s in zip(rows, sigmas):
        reference = np.einsum("ib,ib->b", v0, s @ v0)
        assert np.abs(row - reference).max() <= 1e-13 * np.abs(s).max()
    assert np.abs(v.T @ v - np.eye(200)).max() <= 1e-13


@pytest.mark.parametrize("text", [README_MIXTURE, THREE_CLASS_MIXTURE], ids=["readme", "three"])
def test_joint_eigh_runs_on_entries_that_stay_normal(tmp_path, text, monkeypatch):
    # The recipe tails decay to the 2^-511 flush floor; the matrix the joint eigh
    # reduces keeps every entry within 2^-420 of its largest, so LAPACK's
    # Householder products stay out of subnormal arithmetic.
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(np.abs(a).min() / np.abs(a).max())
        return eigh(a, *args, **kwargs)

    mixture = _predict_config(tmp_path, text, "exp.ini").mixture()
    monkeypatch.setattr(np.linalg, "eigh", spy)
    assert mixture.spectral() is not None
    assert len(seen) == 1 and seen[0] >= 2.0**-420


def _rotated_with_lambda_min(lam_over_tau, mean, scale=1.0):
    """Exactly symmetric sigma, in a rotated basis, with sigma - mean mean^T
    having the eigenvalue lam_over_tau * tau, tau = 1e-10 max|sigma_ij|."""
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
    base = _symmetric((q * np.array([0.0, 0.5, 1.0, 2.0, 3.0, 4.0])) @ q.T) + np.outer(mean, mean)
    tau = 1e-10 * np.abs(base).max()
    sigma = _symmetric(base + lam_over_tau * tau * np.outer(q[:, 0], q[:, 0]))
    return scale * sigma, np.sqrt(scale) * mean


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("mean", [np.zeros(6), np.linspace(-0.3, 0.4, 6)], ids=["zero", "mean"])
@pytest.mark.parametrize("lam_over_tau, accepted", [(-2.0, False), (-0.5, True)])
def test_cholesky_psd_verdict_at_the_slack(lam_over_tau, accepted, mean, scale):
    # The rule is lambda_min(sigma - mean mean^T) >= -tau; its verdict is the
    # same at every scale and the same for ClassModel and the sampler's spec.
    sigma, mean = _rotated_with_lambda_min(lam_over_tau, mean, scale)
    if accepted:
        ClassModel(sigma=sigma, mean=mean, n_l=2)
        gaussian_class_spec(sigma, mean)
        return
    for build in (lambda: ClassModel(sigma=sigma, mean=mean, n_l=2),
                  lambda: gaussian_class_spec(sigma, mean)):
        with pytest.raises(DataError, match="below the PSD slack"):
            build()


@pytest.mark.parametrize("make", [
    lambda: estimate_class_model(np.random.default_rng(5).standard_normal((40, 10)), n_l=10),
    lambda: ClassModel(sigma=np.eye(2), mean=np.array([1.0, 0.0]), n_l=1),
    lambda: ClassModel(sigma=np.zeros((4, 4)), mean=np.zeros(4), n_l=8),
], ids=["rank-deficient-sample", "boundary-mean", "zero"])
def test_cholesky_psd_verdict_accepts_singular_classes(make):
    model = make()
    centered = model.sigma - np.outer(model.mean, model.mean)
    assert np.linalg.eigvalsh(centered)[0] < 1e-12


def _commuting_classes():
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((12, 12)))
    d = np.arange(1.0, 13.0)
    low = np.where(d > 8, d, 0.0)  # rank 4
    rotated = [_symmetric((q * w) @ q.T) for w in (d, low, np.sqrt(d))]
    t = toeplitz_covariance(0.3, 12)
    return {
        "two, p = 2n": ([np.eye(12), t], [3, 3]),
        "three toeplitz": ([np.eye(12), t, _symmetric(t @ t)], [10, 10, 10]),
        "two, rank-deficient": (rotated[:2], [6, 10]),
        "three, rank-deficient": (rotated, [2, 3, 3]),
        "zero class": ([np.zeros((12, 12)), t], [4, 8]),
    }


@pytest.mark.parametrize("name", list(_commuting_classes()))
def test_record_rows_are_the_class_spectra_and_give_the_same_atom(name):
    sigmas, counts = _commuting_classes()[name]
    mix = build_mixture([ClassModel(s, np.zeros(12), n) for s, n in zip(sigmas, counts)],
                        sum(counts))
    rows = mix.spectral()
    assert rows is not None
    top = max(np.linalg.eigvalsh(s)[-1] for s in sigmas)
    for row, model in zip(rows, mix.classes):
        np.testing.assert_allclose(np.sort(row), np.linalg.eigvalsh(model.sigma),
                                   rtol=0, atol=1e-12 * top)
    by_eigvalsh = max(0, mix.p - sum(min(c.n_l, c.rank()) for c in mix.classes)) / mix.p
    assert atom_at_zero(mix) == by_eigvalsh
    if name == "two, p = 2n":
        assert atom_at_zero(mix) == 0.5


def test_config_builds_one_mixture_and_compare_certifies_one_basis(tmp_path, monkeypatch):
    import covspec.model

    calls = []

    def counted_joint(sigmas):
        calls.append(len(sigmas))
        return _joint_eigenbasis(sigmas)

    monkeypatch.setattr(covspec.model, "_joint_eigenbasis", counted_joint)
    config = _predict_config(tmp_path, _COMMUTING_PAIR, "pair.ini")
    assert config.mixture() is config.mixture()
    (tmp_path / "out").mkdir()
    assert cmd_compare(config, str(tmp_path / "out")) == 0
    assert calls == [2]


def _own_root(model):
    """The principal square root of sigma - mean mean^T from its own eigh, floored
    at 1e-10 of the top eigenvalue: the factor of a class outside the joint basis."""
    w, v = np.linalg.eigh(model.sigma - np.outer(model.mean, model.mean))
    w = np.where(w > 1e-10 * max(w[-1], 0.0), w, 0.0)
    return (v * np.sqrt(w)) @ v.T


@pytest.mark.parametrize("text", [README_MIXTURE, THREE_CLASS_MIXTURE], ids=["readme", "three"])
def test_joint_basis_roots_match_each_class_own_root(tmp_path, text):
    config = _predict_config(tmp_path, text, "exp.ini")
    assert config.mixture().eigenpairs[1] is not None
    for c, (spec, n_l) in zip(config.class_configs, config.generator_pairs()):
        scale = np.abs(c.sigma).max()
        assert n_l == c.n_l
        assert np.abs(spec.factor - _own_root(c.model)).max() <= 1e-13 * scale
        assert np.abs(spec.factor @ spec.factor.T - c.sigma).max() <= 1e-13 * scale


def test_diagonal_class_keeps_its_own_exact_root(tmp_path):
    # The identity class of a commuting mixture: its root is its diagonal, so
    # the factor stays diagonal and the sampler scales rows.
    config = _predict_config(tmp_path, THREE_CLASS_MIXTURE, "three.ini")
    iso = config.generator_pairs()[0][0]
    assert iso.diagonal is not None
    assert iso.factor.tobytes() == gaussian_class_spec(np.eye(600)).factor.tobytes()


@pytest.mark.parametrize("diag", [
    np.ones(50), np.arange(1.0, 51.0), np.r_[0.0, np.arange(1.0, 50.0)], np.r_[1e-12, np.ones(49)],
], ids=["identity", "1..p", "zero-entry", "below-floor"])
def test_diagonal_root_is_the_square_root_of_the_floored_diagonal(diag, counted):
    # No eigh: the factor is diag(sqrt(d)) with d floored at 1e-10 of its top
    # entry, to the bit the factor that the class's own eigh gives.
    model = ClassModel(np.diag(diag), np.zeros(50), 1)
    spec = _class_spec("gaussian", model)
    assert counted["eigh"].calls == 0
    floored = np.where(diag > 1e-10 * diag.max(), diag, 0.0)
    assert spec.factor.tobytes() == np.diag(np.sqrt(floored)).tobytes()
    assert spec.factor.tobytes() == _own_root(model).tobytes()
    assert spec.diagonal.tobytes() == np.sqrt(floored).tobytes()


def test_simulate_on_diagonal_classes_writes_the_bytes_of_their_own_eigh_roots(
    tmp_path, monkeypatch
):
    # The same files as when each class ran its own eigh for its root.
    import covspec.sampler

    text = _IDENTITY_PAIR.replace("toeplitz a=0.3 scale=2", "identity scale=2")
    written = []
    for name in ("diagonal", "eigh"):
        out = tmp_path / name
        out.mkdir()
        assert cmd_simulate(_predict_config(tmp_path, text, "iso.ini"), str(out)) == 0
        written.append([(out / f).read_bytes() for f in ("spectrum.csv", "histogram.csv")])
        monkeypatch.setattr(covspec.sampler, "_diagonal", lambda a: None)  # the next run: eigh
    assert written[0] == written[1]


_NON_COMMUTING_PAIR = """
[mixture]
p = 20
n = 40
classes = a b

[class.a]
n_l = 30
sigma = toeplitz a=0.3 scale=2

[class.b]
n_l = 10
sigma = file rotated.csv
"""


@pytest.mark.parametrize("text, shared", [
    (_COMMUTING_PAIR.replace("generator = bounded-affine", "mean = file mean.csv"), [True, False]),
    (_NON_COMMUTING_PAIR, [False, False]),
], ids=["mean-in-commuting-pair", "non-commuting"])
def test_classes_outside_the_joint_basis_keep_their_own_root(tmp_path, text, shared):
    (tmp_path / "mean.csv").write_text("0.1\n" + "0\n" * 19)
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((20, 20)))
    rotated = _symmetric((q * np.linspace(0.5, 2.0, 20)) @ q.T)
    (tmp_path / "rotated.csv").write_text(
        "\n".join(",".join(format(x, ".17g") for x in row) for row in rotated) + "\n")
    config = _predict_config(tmp_path, text, "pair.ini")
    assert (config.mixture().eigenpairs[1] is not None) == any(shared)
    for c, (spec, _), joint in zip(config.class_configs, config.generator_pairs(), shared):
        own = _own_root(c.model)
        if joint:
            assert np.abs(spec.factor - own).max() <= 1e-13 * np.abs(c.sigma).max()
        else:
            assert spec.factor.tobytes() == own.tobytes()


def test_joint_record_row_is_floored_on_its_largest_entry():
    # Record rows are not sorted: the floor is 1e-10 of the row's largest
    # entry, not of its last, and a tiny negative entry (inside the PSD
    # slack) is floored to 0 rather than passed to the square root.
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    row = np.array([2.0, 1.0, 1.5e-10, -1e-15, 0.5])
    kept = np.array([2.0, 1.0, 0.0, 0.0, 0.5])
    model = ClassModel(sigma=_symmetric((q * kept) @ q.T), mean=np.zeros(5), n_l=1)
    spec = _class_spec("gaussian", model, eigh=(row, q))
    assert spec.factor.tobytes() == ((q * np.sqrt(kept)) @ q.T).tobytes()
