"""A pytest plugin, loaded by ``pyproject.toml``'s ``addopts``, that keeps a
failing ``hypothesis`` property readable while warnings are errors.

Only when a property fails does hypothesis's report hook import
``hypothesis.extra._patching``, which imports ``libcst``, and that import
warns that ``mypy_extensions.TypedDict`` is deprecated. A ``-W error`` given
on the command line outranks every filter of the settings file, so the
warning would end the run in an INTERNALERROR that hides the falsifying
example. This hook runs around every report hook, hypothesis's included,
and ignores that one message there.
"""

import warnings

import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="mypy_extensions.TypedDict is deprecated",
            category=DeprecationWarning,
        )
        return (yield)
