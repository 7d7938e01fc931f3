"""The repository's pytest settings, run on an inline test suite."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_reports_its_falsifying_example(pytester):
    # with every warning an error, a warning raised inside hypothesis's
    # own report hook turns a failing property into an INTERNALERROR
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    path = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(n):
            assert n < 10
        """
    )
    result = pytester.runpytest_subprocess(path, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    out = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
