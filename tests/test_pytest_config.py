"""The repository's own pytest configuration."""

import pytest

pytest_plugins = ["pytester"]

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_shows_its_example(pytester, pytestconfig):
    # hypothesis's failure report imports libcst, which warns of a
    # deprecation; under the repository's filterwarnings that warning once
    # ended the run in INTERNALERROR before the example was shown
    pytest.importorskip("libcst")
    filters = "".join(f"\n    {f}" for f in pytestconfig.getini(
        "filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(FAILING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    out = result.stdout.str() + result.stderr.str()
    assert "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out
    result.assert_outcomes(failed=1)
