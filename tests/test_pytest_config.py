"""The tier-1 warning filters of ``pyproject.toml`` leave a failing Hypothesis test one failure among the rest."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ["pytester"]


def test_a_failing_given_test_does_not_stop_the_run(pytester):
    # Hypothesis reports a falsifying example through libcst, which warns on import; an error filter
    # that catches that warning turns the report into an INTERNALERROR that ends the run.
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    filters = pyproject["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {line}\n" for line in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """
    )
    pytester.runpytest_subprocess().assert_outcomes(failed=1, passed=1)
