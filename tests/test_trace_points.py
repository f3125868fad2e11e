"""The benchmark's tracer patches module attributes by name: they must exist.

`perfbench/tracing.py` replaces each ``TRACED`` (module, attribute) for the
length of a traced run and reads counts from some calls' arguments and
results. A renamed function or a reshaped result would otherwise show only
when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from partfusion.svm import TrainConfig, train_binary, train_multiclass

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_callable(tracing):
    assert tracing.TRACED
    for module_name, attr, _, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_row_counts_read_both_svm_results(tracing):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y_pm = np.where(X[:, 0] > 0.0, 1, -1)
    grid = train_binary(X, y_pm, (0.5, 2.0))
    counts = tracing._rows((X, y_pm, (0.5, 2.0)), {}, grid)
    assert set(counts) == {"rows", "rolled_back"}
    assert counts["rows"] == 40 and counts["rolled_back"] >= 0

    labels = np.argmax(X, axis=1)
    model = train_multiclass(X, labels, TrainConfig(epochs=3))
    counts = tracing._rows((X, labels), {}, model)
    assert set(counts) == {"rows", "rolled_back"}
    assert counts["rows"] == 40 and 0 <= counts["rolled_back"] <= 3 * model.n_classes
