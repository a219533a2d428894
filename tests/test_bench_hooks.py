"""The benchmark's hooks into covspec still resolve.

``bench/`` reaches into covspec by name: ``bench/tracer.py`` patches the
functions its ``TARGETS`` table names, and ``bench/worker.py setup`` builds
each mixture, its generator specs and ``Mixture.spectral()``. The bench's own
self-tests are not part of this suite, so a rename in ``src/`` is caught
here. These tests only read ``bench/``.
"""

import os
import sys

import pytest

import covspec.cli  # noqa: F401  (imports every module a target names)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(covspec.__file__)))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [BENCH] + sys.path)
    import tracer
    import worker
    import workloads

    return tracer, worker, workloads


def _owner(module_name, attr):
    """(object patched, attribute name) of one tracer target."""
    obj = sys.modules[module_name]
    *cls, name = attr.split(".")
    return (getattr(obj, cls[0]) if cls else obj), name


def test_tracer_patches_every_target_and_setup_runs_traced(bench, tmp_path):
    tracer, worker, workloads = bench
    configs = workloads.write_inputs("predict-spectral", 1, str(tmp_path))["setup_configs"]
    originals = [getattr(*_owner(m, attr)) for m, attr, _, _ in tracer.TARGETS]
    t = tracer.Tracer()
    try:
        t.install()
        patched = {(id(obj), key) for obj, key, _ in t._patched}
        for module_name, attr, _, _ in tracer.TARGETS:
            obj, name = _owner(module_name, attr)
            assert (id(obj), name) in patched, f"{module_name}.{attr} was not patched"
        worker.setup(SRC, configs)
    finally:
        t.uninstall()
    assert [getattr(*_owner(m, attr)) for m, attr, _, _ in tracer.TARGETS] == originals
    # Both predict-spectral mixtures commute: the backend counter reads 1.
    backends = [s.counts for s in t.spans if s.name == "model.spectral"]
    assert backends == [{"spectral": 1}] * len(configs)


@pytest.mark.parametrize("config, cholesky, eigh", [
    (0, 2, 1),  # README mixture: one PSD verdict per class, one joint eigh
    (1, 3, 1),  # three-class: the identity class's root is its diagonal, with no eigh
], ids=["readme", "three"])
def test_setup_decomposes_a_commuting_mixture_once(bench, tmp_path, monkeypatch, config,
                                                   cholesky, eigh):
    # Set-up builds the mixture, the generator specs and the spectral record:
    # each zero-mean, non-diagonal class's square root is read off the joint
    # eigenbasis that the record already computed, and a diagonal class's is
    # the square root of its diagonal.
    import numpy as np

    _, worker, workloads = bench
    path = workloads.write_inputs("predict-spectral", 1, str(tmp_path))["setup_configs"][config]
    calls = {"cholesky": 0, "eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    worker.setup(SRC, [path])
    assert calls == {"cholesky": cholesky, "eigh": eigh, "eigvalsh": 0}


def test_predict_solves_every_point_through_the_traced_names(bench, tmp_path):
    # predict with m z points and q lambda points calls solve_delta m times and
    # solve_delta_complex q times through the names the tracer patches, so a
    # refactor that went round them could not zero fixed_point.*_iters.
    tracer, _, _ = bench
    config = tmp_path / "predict.ini"
    config.write_text("[mixture]\np = 6\nn = 10\nclasses = a b\n\n"
                      "[class.a]\nn_l = 4\nsigma = toeplitz a=0.3\n\n"
                      "[class.b]\nn_l = 6\nsigma = identity scale=2\n\n"
                      "[predict]\nz_grid = 0.5 1 2\nlambda_grid = 0.1:4:7\nepsilon = 0.01\n")
    t = tracer.Tracer()
    try:
        t.install()
        code = covspec.cli.main(["predict", "--config", str(config), "--out", str(tmp_path / "o")])
    finally:
        t.uninstall()
    assert code == 0
    names = [s.name for s in t.spans]
    assert names.count("fixed_point.real") == 3
    assert names.count("fixed_point.complex") == 7
    assert sum(s.counts["iters"] for s in t.spans if s.name == "fixed_point.real") > 0
    assert sum(s.counts["iters"] for s in t.spans if s.name == "fixed_point.complex") > 0
