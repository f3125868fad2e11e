import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from partfusion import FusionWeights, SynthConfig, generate
from partfusion.protocols import learn_fusion_weights

_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    """Collect an acceptance verdict for the end-of-run summary."""
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.line(line)


def finite_floats(min_value=None):
    """Finite floats, above ``min_value`` if given.

    Integral floats, which `data.format_num` prints without ``.0``, are drawn as often as the rest.
    """
    integral = st.integers(-(10**6), 10**6).map(float)
    if min_value is not None:
        integral = integral.filter(lambda v: v > min_value)
    floats = st.floats(min_value=min_value, exclude_min=min_value is not None, allow_nan=False, allow_infinity=False)
    return integral | floats


@pytest.fixture
def deadline():
    """A hang fails the test instead of stalling the suite; forked children drop the alarm."""

    def expire(signum, frame):
        raise TimeoutError("no result within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def child_env():
    """The environment for child interpreters, with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


@pytest.fixture(scope="session")
def bench():
    """Default synthetic benchmark, shared read-only across tests."""
    return generate(SynthConfig())


@pytest.fixture(scope="session")
def uniform_weights(bench):
    return FusionWeights(np.ones(len(bench.registry.parts)))


@pytest.fixture(scope="session")
def learned_weights(bench):
    """Fusion weights learned on the validation split, clamped at zero."""
    fw, _ = learn_fusion_weights(
        bench.dataset,
        bench.features,
        bench.registry,
        seed=0,
        clamp_nonnegative=True,
    )
    return fw
