"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps functions and methods of this package by name,
and ``perfbench/run.py --trace 1`` reads the rows of ``Mlp.forward`` from
axis 0 of its first argument. A rename here would otherwise only show up as
a broken traced benchmark run. The tracer module is loaded from its file and
nothing is written next to it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import totalcorr.cli  # noqa: F401  (loads every module the tracer wraps)
from totalcorr import decomposition, harness
from totalcorr.decomposition import PathKind, build_plan, make_tc_estimator
from totalcorr.estimators import MiEstimatorKind
from totalcorr.gaussian import equicorrelated_sigma, sample

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _attribute(module_name, attr, cls_name):
    owner = sys.modules[module_name]
    if cls_name is not None:
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_every_layer_resolves_and_is_restored(tracer_module):
    layers = tracer_module.LAYERS
    originals = [_attribute(module, attr, cls) for _, module, attr, cls, _, _ in layers]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (name, module, attr, cls, _, _), original in zip(layers, originals):
            assert _attribute(module, attr, cls) is not original, name
    finally:
        tracer.restore()
    for (name, module, attr, cls, _, _), original in zip(layers, originals):
        assert _attribute(module, attr, cls) is original, name


@pytest.mark.parametrize("kind", list(MiEstimatorKind))
def test_training_step_reaches_the_model_layers(tracer_module, kind):
    n = 8
    est = make_tc_estimator(build_plan(3, PathKind.LINE), kind, seed=0)
    batch = sample(equicorrelated_sigma(3, 0.5), n, np.random.default_rng(0))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        decomposition.tc_train_step(est, batch)
        decomposition.tc_evaluate(est, batch)
        decomposition.tc_train_step(est, batch)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"decomposition.tc_train_step", "decomposition.tc_evaluate"} <= names
    assert all(span[1] == kind.value for span in tracer.spans)
    per_term = {"estimators.train_step", "estimators.evaluate", "nn.Mlp.forward", "nn.Mlp.backward"}
    if kind is MiEstimatorKind.CLUB:
        # one pass over all heads: no term runs on its own, and the value
        # comes from batch moments, so no step builds the (N, N) matrix
        assert "nn.cond_gaussian_logpdf" in names
        assert names.isdisjoint(per_term | {"nn.cond_gaussian_logpdf_matrix"})
    else:
        assert per_term <= names
        rows = {span[5] for span in tracer.spans if span[0] == "nn.Mlp.forward"}
        assert rows == {n * n}


def test_trace_files_reach_the_harness_layers(tracer_module, tmp_path):
    raw = np.linspace(0.0, 1.0, 7)
    path = tmp_path / "trace.csv"
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        trace = harness.TrainingTrace(
            steps=np.arange(1, 8), target=raw, raw=raw, smoothed=harness.smooth(raw, 3), terms=raw[:, None]
        )
        harness.persist_trace(trace, path)
    finally:
        tracer.restore()
    sizes = {span[0]: span[5] for span in tracer.spans}
    assert {"harness.smooth", "harness.persist_trace"} <= sizes.keys()
    assert sizes["harness.persist_trace"] == path.stat().st_size > 0
