"""Properties the mathematics guarantees, at every scale the solver accepts.

The fixed point must converge and give the same answer whatever the units
of the covariances; the backends' cross traces must be the derivative of
their traces; the density sweep must converge across a whole grid, each
point started by the continuation rule; and the Stieltjes transform must
reach its known limits at both ends of z.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import covspec.equivalent
from conftest import mp_positive_root
from test_equivalent import _rotated_diagonal_mixture
from covspec import (
    ClassModel,
    atom_at_zero,
    build_mixture,
    density_prediction,
    solve_delta,
    stieltjes_prediction,
    toeplitz_covariance,
)
from covspec.fixed_point import _DenseTraces, _SpectralTraces, _continuation, _trace_backend


def _mixture(sigmas, counts):
    p = sigmas[0].shape[0]
    classes = [
        ClassModel(sigma=(s + s.T) / 2, mean=np.zeros(p), n_l=c)
        for s, c in zip(sigmas, counts)
    ]
    return build_mixture(classes, sum(counts))


def _toeplitz_pair(p, counts):
    t = toeplitz_covariance(0.3, p)
    return _mixture([4.0 * t, 4.0 * t @ t], counts)


def _non_commuting_pair(p, counts):
    # The Toeplitz pair with its second class rotated: the dense backend.
    t = toeplitz_covariance(0.3, p)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((p, p)))
    return _mixture([4.0 * t, q @ (4.0 * t @ t) @ q.T], counts)


@pytest.mark.parametrize("s,z", [(1e4, 1e-3), (1e8, 1.0), (1e8, 1e-3)])
def test_large_covariance_scale_converges_to_closed_form(s, z):
    # Sigma = s I with p = n: delta'(s I, z) is the gamma = 1 root at z/s.
    mix = _mixture([s * np.eye(50)], [50])
    sol = solve_delta(mix, z)
    assert sol.converged
    exact = mp_positive_root(1.0, z / s)
    np.testing.assert_allclose(sol.delta[0], exact, rtol=1e-10, atol=0)


@pytest.mark.parametrize("build", [_toeplitz_pair, _non_commuting_pair])
@pytest.mark.parametrize("s", [1e-4, 1e-2, 1e2, 1e4, 1e8])
def test_scale_equivariance(build, s):
    # gamma = 1, where the fixed point grows like z^(-1/2) as z -> 0.
    base = build(12, [5, 7])
    scaled = _mixture([s * c.sigma for c in base.classes], [5, 7])
    assert (base.spectral() is None) == (build is _non_commuting_pair)
    for z in (1e-6, 1e-3, 0.1, 1.0, 10.0):
        sol = solve_delta(base, z)
        ssol = solve_delta(scaled, s * z)
        assert sol.converged and ssol.converged
        np.testing.assert_allclose(ssol.delta, sol.delta, rtol=1e-9, atol=0)
    lambdas = np.linspace(0.05, 30.0, 40)
    eps = 1e-2
    pred = density_prediction(base, lambdas, eps)
    spred = density_prediction(scaled, s * lambdas, s * eps)
    assert pred.converged.all() and spred.converged.all()
    np.testing.assert_allclose(
        s * spred.density, pred.density, rtol=1e-8, atol=1e-12 * pred.density.max()
    )


def _central_difference(backend, coeff, shift, h):
    cols = []
    for j in range(coeff.size):
        bump = np.zeros(coeff.size)
        bump[j] = h
        cols.append(
            (backend.traces(coeff + bump, shift)[0] - backend.traces(coeff - bump, shift)[0])
            / (2 * h)
        )
    return np.stack(cols, axis=1)


def _check_cross_traces(backend, coeff, shift):
    # d tr(Sigma_l Q) / d coeff_h = -tr(Sigma_l Q Sigma_h Q).
    cross = backend.traces(coeff, shift)[1]()
    numeric = _central_difference(backend, coeff, shift, 1e-5)
    np.testing.assert_allclose(-cross, numeric, rtol=1e-6, atol=0)
    return cross


SHIFTS = (0.7, -complex(1.3, 0.2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cross_traces_are_the_derivative_of_traces(rng, k):
    mix = _rotated_diagonal_mixture(rng, k)
    spectral = _trace_backend(mix)
    assert isinstance(spectral, _SpectralTraces)
    dense = _DenseTraces(mix)
    coeff = mix.weights / (1.0 + rng.uniform(0.1, 2.0, k))
    for shift in SHIFTS:
        np.testing.assert_allclose(
            _check_cross_traces(dense, coeff, shift),
            _check_cross_traces(spectral, coeff, shift),
            rtol=1e-9,
            atol=0,
        )
    # Random classes: for k > 1 they do not commute and Sigma_l Q is not
    # symmetric.
    sigmas = []
    for _ in range(k):
        a = rng.standard_normal((16, 16))
        sigmas.append(a @ a.T / 16)
    mix = _mixture(sigmas, [int(c) for c in rng.integers(6, 20, k)])
    assert (mix.spectral() is None) == (k > 1)
    for shift in SHIFTS:
        _check_cross_traces(_DenseTraces(mix), coeff, shift)


def _record_density_starts(monkeypatch, unconverged_at=None):
    """Patch the density solve to record (lambda, start, solution) per call; the
    call numbered ``unconverged_at`` is reported unconverged."""
    calls = []
    solve = covspec.equivalent.solve_delta_complex

    def recording(mixture, w, **kwargs):
        sol = solve(mixture, w, **kwargs)
        if len(calls) == unconverged_at:
            sol = dataclasses.replace(sol, converged=False)
        calls.append((w.real, kwargs["start"], sol))
        return sol

    monkeypatch.setattr(covspec.equivalent, "solve_delta_complex", recording)
    return calls


def _secant(t, first, second):
    (t0, x0), (t1, x1) = first, second
    x = x1 + (x1 - x0) * ((t - t1) / (t1 - t0))
    return x.real + 1j * np.maximum(x.imag, 0.0)


def test_density_sweep_starts_from_the_projected_secant(monkeypatch):
    # Points are solved right to left: the first cold, the second from the
    # first's solution, every later one from the secant through the last two
    # solutions, projected onto Im x >= 0.
    calls = _record_density_starts(monkeypatch)
    mix = _toeplitz_pair(20, [10, 30])
    lambdas = np.linspace(0.2, 3.0, 8)
    pred = density_prediction(mix, lambdas, 1e-3)
    assert pred.converged.all()
    assert [c[0] for c in calls] == list(lambdas[::-1])
    assert calls[0][1] is None
    np.testing.assert_array_equal(calls[1][1], calls[0][2].delta)
    for j in range(2, len(calls)):
        before = [(calls[i][0], calls[i][2].delta) for i in (j - 2, j - 1)]
        np.testing.assert_array_equal(calls[j][1], _secant(calls[j][0], *before))


def test_an_unconverged_density_point_resets_the_history(monkeypatch):
    calls = _record_density_starts(monkeypatch, unconverged_at=3)
    density_prediction(_toeplitz_pair(20, [10, 30]), np.linspace(0.2, 3.0, 8), 1e-3)
    assert calls[4][1] is None
    np.testing.assert_array_equal(calls[5][1], calls[4][2].delta)
    before = [(calls[i][0], calls[i][2].delta) for i in (4, 5)]
    np.testing.assert_array_equal(calls[6][1], _secant(calls[6][0], *before))
    calls.clear()
    density_prediction(_toeplitz_pair(20, [10, 30]), np.linspace(0.2, 3.0, 8), 1e-3, max_iter=1)
    assert all(start is None for _, start, _ in calls)


@pytest.mark.parametrize("deltas, projected", [
    ([[1.0 + 1.0j], [0.5 + 0.2j]], [0.0 + 0.0j]),
    ([[1.0], [0.5]], [0.0]),
    ([[0.2 + 1.0j], [0.5 + 2.0j]], [0.8 + 3.0j]),
], ids=["complex-clipped", "real-clipped", "inside"])
def test_continuation_projects_the_secant_onto_the_admissible_set(deltas, projected):
    # Walked 3, 2, 1: the secant through t = 3 and t = 2 meets t = 1 at
    # 2 delta(2) - delta(3), clipped to Im x >= 0 (complex) or x >= 0 (real).
    starts = []

    def solve(t, start):
        starts.append(start)
        return SimpleNamespace(delta=np.array(deltas[min(len(starts) - 1, 1)]), converged=True)

    _continuation(solve, np.array([1.0, 2.0, 3.0]))
    assert starts[0] is None
    np.testing.assert_array_equal(starts[1], deltas[0])
    np.testing.assert_array_equal(starts[2], projected)


def test_continuation_returns_solutions_in_grid_order_and_survives_repeats():
    seen = []

    def solve(t, start):
        seen.append(t)
        return SimpleNamespace(delta=np.array([1.0 / t]), converged=True, t=t)

    grid = np.array([2.0, 5.0, 2.0, 1.0, 5.0])
    sols = _continuation(solve, grid)
    assert [s.t for s in sols] == list(grid)
    assert seen == sorted(grid, reverse=True)


def test_readme_density_converges_on_a_fine_log_grid():
    # So close to the real axis, damped Picard iteration runs out of the
    # default iteration budget at 19 of these points; every point must
    # converge. The mixture is the README worked example.
    t = toeplitz_covariance(0.1, 500)
    mix = _mixture([10.0 * t @ t, 10.0 * t], [450, 50])
    pred = density_prediction(mix, np.geomspace(1e-3, 5.0, 400), 1e-4)
    assert pred.converged.all()


@pytest.mark.parametrize("p,n", [(40, 20), (30, 30)])
def test_stieltjes_limits(p, n):
    # z m(-z) -> 1 as z -> infinity, and -> the zero atom as z -> 0.
    mix = _toeplitz_pair(p, [n // 2, n - n // 2])
    for z in (1e6, 1e8, 1e10):
        assert abs(z * stieltjes_prediction(mix, z) - 1.0) <= 1.0 / z
    atom = atom_at_zero(mix)
    assert atom == (0.5 if p == 2 * n else 0.0)
    gaps = [abs(z * stieltjes_prediction(mix, z) - atom) for z in (1e-4, 1e-6, 1e-8)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3
