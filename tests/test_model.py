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
    toeplitz_covariance,
)
from covspec.cli import cmd_predict
from covspec.config import load_config
from covspec.fixed_point import _DenseTraces, _SpectralTraces
from covspec.model import _joint_eigenbasis


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
    normal = formula >= np.finfo(float).tiny
    assert t[normal].tobytes() == formula[normal].tobytes()
    assert not t[~normal].any()
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


def test_mixture_counts_weights_gamma():
    c1 = ClassModel(sigma=np.eye(3), mean=np.zeros(3), n_l=2)
    c2 = ClassModel(sigma=2.0 * np.eye(3), mean=np.zeros(3), n_l=6)
    mix = build_mixture([c1, c2], 8)
    assert mix.p == 3
    assert mix.k == 2
    assert mix.gamma == 3 / 8
    assert mix.gamma_bar == 1 + 3 / 8
    np.testing.assert_allclose(mix.weights, [0.25, 0.75])
    np.testing.assert_array_equal(mix.counts, [2, 6])
    np.testing.assert_allclose(mix.sigma(), (0.25 + 0.75 * 2.0) * np.eye(3))
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
        for fast, dense in zip(_SpectralTraces(eigs).traces(coeff, shift),
                               _DenseTraces(mix).traces(coeff, shift)):
            np.testing.assert_allclose(fast, dense, rtol=1e-9)


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
    wrapped = {name: _Counted(getattr(np.linalg, name)) for name in ("eigvalsh", "eigh")}
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
    assert counted["eigvalsh"].calls == 2
    assert counted["eigh"].calls == 1


@pytest.mark.parametrize("mean, eigvalsh_calls", [("zeros", 1), ("file mean.csv", 2)])
def test_one_class_predict_runs_no_eigh(tmp_path, counted, mean, eigvalsh_calls):
    # The record of one class is its ClassModel.eigenvalues: the PSD check's
    # eigvalsh for a zero mean, one more eigvalsh of sigma otherwise.
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
    assert counted["eigh"].calls == 0


def test_zero_mean_eigenvalues_are_those_of_sigma():
    sigma = _symmetric(toeplitz_covariance(0.7, 30) @ toeplitz_covariance(0.2, 30))
    model = ClassModel(sigma=sigma, mean=np.zeros(30), n_l=3)
    np.testing.assert_array_equal(model.eigenvalues, np.linalg.eigvalsh(model.sigma))


def test_nonzero_mean_eigenvalues_are_those_of_sigma(counted):
    mean = np.full(4, 0.5)
    model = ClassModel(sigma=np.eye(4) + np.outer(mean, mean), mean=mean, n_l=3)
    np.testing.assert_array_equal(model.eigenvalues, np.linalg.eigvalsh(model.sigma))
    assert counted["eigvalsh"].calls == 3  # check, eigenvalues, reference


def test_nonzero_mean_psd_check_uses_the_centered_matrix():
    # sigma is PSD but sigma - mean mean^T is not.
    with pytest.raises(DataError, match="sigma - mean mean"):
        ClassModel(sigma=np.diag([1.0, 4.0]), mean=np.array([1.5, 0.0]), n_l=1)
