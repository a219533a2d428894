"""Fixed-point solver against the closed-form single-class oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import identity_mixture, mp_positive_root
from covspec import (
    ClassModel,
    ParameterError,
    build_mixture,
    interference_map,
    solve_delta,
    solve_delta_complex,
    toeplitz_covariance,
)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [0.1, 1.0, 10.0])
def test_identity_fixed_point_matches_quadratic_root(gamma, z):
    n = 20
    mix = identity_mixture(round(gamma * n), n)
    sol = solve_delta(mix, z)
    assert sol.converged
    assert abs(sol.delta[0] - mp_positive_root(gamma, z)) <= 1e-10


def test_golden_ratio_point():
    # gamma = z = 1 solves d^2 + d - 1 = 0.
    sol = solve_delta(identity_mixture(30, 30), 1.0)
    np.testing.assert_allclose(sol.delta[0], (np.sqrt(5) - 1) / 2, atol=1e-12)


def test_interference_map_at_zero():
    # k=1, identity covariance: I(0) = gamma / (1 + z).
    mix = identity_mixture(10, 20)
    out = interference_map(np.zeros(1), mix, 1.0)
    np.testing.assert_allclose(out, [0.25], atol=1e-14)


def test_interference_map_monotone_in_input():
    t = toeplitz_covariance(0.6, 12)
    c1 = ClassModel(sigma=t, mean=np.zeros(12), n_l=5)
    c2 = ClassModel(sigma=t @ t, mean=np.zeros(12), n_l=7)
    mix = build_mixture([c1, c2], 12)
    lo = interference_map(np.array([0.1, 0.2]), mix, 0.7)
    hi = interference_map(np.array([0.3, 0.5]), mix, 0.7)
    # Larger inputs downweight each class, enlarging the resolvent, so the
    # map is order-preserving coordinatewise.
    assert np.all(hi > lo)


def test_iteration_decreases_from_cold_start():
    mix = identity_mixture(15, 10)
    z = 0.8
    x = mix.class_traces() / (mix.n * z)
    for _ in range(5):
        nxt = interference_map(x, mix, z)
        assert np.all(nxt <= x + 1e-15)
        x = nxt


def test_fixed_point_residual_is_small_at_solution():
    mix = identity_mixture(12, 24)
    sol = solve_delta(mix, 2.0)
    mapped = interference_map(sol.delta, mix, 2.0)
    assert np.abs(mapped - sol.delta).max() <= 1e-11


def test_uniqueness_probe_from_below():
    # Iterating from 0 climbs to the same fixed point reached from above.
    mix = identity_mixture(18, 12)
    z = 1.3
    sol = solve_delta(mix, z)
    x = np.zeros(1)
    for _ in range(400):
        x = interference_map(x, mix, z)
    np.testing.assert_allclose(x, sol.delta, atol=1e-9)


def test_scaling_invariance():
    # Scaling every covariance and z by the same factor leaves delta fixed.
    t = toeplitz_covariance(0.5, 9)
    a = 3.7
    base = build_mixture(
        [ClassModel(sigma=t, mean=np.zeros(9), n_l=6)], 6
    )
    scaled = build_mixture(
        [ClassModel(sigma=a * t, mean=np.zeros(9), n_l=6)], 6
    )
    z = 0.9
    d1 = solve_delta(base, z).delta
    d2 = solve_delta(scaled, a * z).delta
    np.testing.assert_allclose(d1, d2, atol=1e-11)


def test_two_class_solution_consistency():
    t = toeplitz_covariance(0.1, 20)
    c1 = ClassModel(sigma=10 * t, mean=np.zeros(20), n_l=2)
    s2 = 10 * t @ t
    c2 = ClassModel(sigma=(s2 + s2.T) / 2, mean=np.zeros(20), n_l=18)
    mix = build_mixture([c1, c2], 20)
    sol = solve_delta(mix, 1.0)
    assert sol.converged
    assert np.all(sol.delta > 0)
    mapped = interference_map(sol.delta, mix, 1.0)
    np.testing.assert_allclose(mapped, sol.delta, atol=1e-10)


def test_fast_path_matches_dense_path(rng):
    # The same mixture with a rotation applied to every class has the same
    # spectrum but (after rotating only one class) no joint basis.
    t = toeplitz_covariance(0.4, 10)
    c1 = ClassModel(sigma=t, mean=np.zeros(10), n_l=5)
    c2 = ClassModel(sigma=t @ t, mean=np.zeros(10), n_l=5)
    commuting = build_mixture([c1, c2], 10)
    assert commuting.spectral() is not None

    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    r1 = q @ t @ q.T
    r2 = q @ (t @ t) @ q.T
    mixed = build_mixture(
        [
            ClassModel(sigma=(r1 + r1.T) / 2, mean=np.zeros(10), n_l=5),
            ClassModel(sigma=(r2 + r2.T) / 2, mean=np.zeros(10), n_l=5),
        ],
        10,
    )
    # A global rotation preserves every trace in the fixed-point system.
    d1 = solve_delta(commuting, 1.2).delta
    d2 = solve_delta(mixed, 1.2).delta
    np.testing.assert_allclose(d1, d2, atol=1e-9)


_DENSE_RUN = """
import sys
import numpy as np
from covspec import (ClassModel, build_mixture, delta_empirical, density_prediction,
    empirical_stieltjes, gaussian_class_spec, solve_delta, toeplitz_covariance)
t = toeplitz_covariance(0.4, 6)
d = np.diag(np.arange(1.0, 7.0))
mix = build_mixture([ClassModel(sigma=s, mean=np.zeros(6), n_l=4) for s in (t, d)], 8)
assert mix.spectral() is None
assert solve_delta(mix, 1.0).converged
density_prediction(mix, [1.0], epsilon=0.1)
empirical_stieltjes(np.random.default_rng(0).standard_normal((6, 8)), 1.0)
delta_empirical([(gaussian_class_spec(s), 4) for s in (t, d)], z=1.0, trials=2, seed=0)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_dense_linear_algebra_never_imports_scipy():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool; a run
    # that loaded both would pay scipy's import and pools that contend.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _DENSE_RUN],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_solver_reports_nonconvergence_without_raising():
    mix = identity_mixture(40, 20)
    sol = solve_delta(mix, 0.05, max_iter=2)
    assert not sol.converged
    assert sol.iterations == 2
    assert sol.residual > 0


def test_non_finite_residual_stops_the_solve_unconverged():
    # At w = 1e-310 i the traces of a subnormal class overflow to a NaN
    # residual; the solve must report that, not fail inside its loop.
    mix = build_mixture([ClassModel(1e-310 * np.eye(4), np.zeros(4), 4)], 4)
    with np.errstate(all="ignore"):
        sol = solve_delta_complex(mix, 1e-310j)
    assert not sol.converged
    assert np.isnan(sol.residual)


def test_infinite_stieltjes_value_is_not_converged():
    # The fixed point of 1e-310 I at z = 1e-310 is finite, but (1/p) tr Q
    # overflows to inf; a converged flag would pass that inf on silently.
    mix = build_mixture([ClassModel(1e-310 * np.eye(4), np.zeros(4), 4)], 4)
    with np.errstate(all="ignore"):
        sol = solve_delta(mix, 1e-310)
    assert np.isfinite(sol.delta).all() and np.isinf(sol.stieltjes)
    assert not sol.converged


@pytest.mark.parametrize("z", [0.0, -1.0, 1j, np.array([1.0, 2.0])])
def test_real_solver_rejects_bad_z(z):
    mix = identity_mixture(4, 4)
    with pytest.raises(ParameterError):
        solve_delta(mix, z)


@pytest.mark.parametrize("max_iter", [0, -5])
def test_both_solvers_reject_nonpositive_max_iter(max_iter):
    mix = identity_mixture(4, 4)
    with pytest.raises(ParameterError, match="max_iter must be at least 1"):
        solve_delta(mix, 1.0, max_iter=max_iter)
    with pytest.raises(ParameterError, match="max_iter must be at least 1"):
        solve_delta_complex(mix, 1.0 + 0.1j, max_iter=max_iter)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_both_solvers_reject_non_finite_tol(tol):
    # tol = inf would accept the start point at once, and nan would never stop.
    mix = identity_mixture(4, 4)
    with pytest.raises(ParameterError, match="tol must be finite and positive"):
        solve_delta(mix, 1.0, tol=tol)
    with pytest.raises(ParameterError, match="tol must be finite and positive"):
        solve_delta_complex(mix, 1.0 + 0.1j, tol=tol)


def test_complex_solver_rejects_non_finite_w():
    with pytest.raises(ParameterError, match="w must be finite"):
        solve_delta_complex(identity_mixture(4, 4), complex(np.nan, 1.0))


def test_interference_map_rejects_negative_delta():
    mix = identity_mixture(4, 4)
    with pytest.raises(ParameterError):
        interference_map(np.array([-0.1]), mix, 1.0)


def test_complex_solution_satisfies_quadratic():
    # k=1 identity covariance: w d^2 - (1 - w - gamma) d + gamma = 0.
    gamma = 0.5
    mix = identity_mixture(10, 20)
    for w in (-1.0 + 0.1j, -2.5 + 0.01j, 0.5 + 0.5j):
        sol = solve_delta_complex(mix, w)
        assert sol.converged
        d = sol.delta[0]
        residual = w * d * d - (1.0 - w - gamma) * d + gamma
        assert abs(residual) <= 1e-8


def test_complex_solver_matches_real_axis_limit():
    mix = identity_mixture(25, 50)
    z = 1.7
    real = solve_delta(mix, z)
    cplx = solve_delta_complex(mix, complex(-z, 1e-9))
    np.testing.assert_allclose(cplx.delta.real, real.delta, atol=1e-6)
    np.testing.assert_allclose(cplx.delta.imag, np.zeros(1), atol=1e-6)


def test_complex_solver_requires_damping_on_hard_points():
    # Near-zero spectral argument on a heavy two-class mixture, where plain
    # Picard iteration oscillates and needs thousands of damped steps. The
    # Newton solve must converge here in few steps to the same root, with
    # an imaginary part that stays in the upper half plane.
    t = toeplitz_covariance(0.1, 60)
    s1 = 10 * t
    s2 = 10 * t @ t
    mix = build_mixture(
        [
            ClassModel(sigma=s1, mean=np.zeros(60), n_l=6),
            ClassModel(sigma=(s2 + s2.T) / 2, mean=np.zeros(60), n_l=54),
        ],
        60,
    )
    sol = solve_delta_complex(mix, 1e-4 + 1e-5j, max_iter=50_000)
    assert sol.converged
    assert sol.iterations <= 100
    np.testing.assert_allclose(
        sol.delta,
        [9.80434807 + 297.59139521j, 0.99760724 + 29.23710804j],
        rtol=1e-8,
        atol=0,
    )
    assert np.all(sol.delta.imag >= -1e-10)
