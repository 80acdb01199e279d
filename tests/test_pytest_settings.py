"""The project's pytest settings keep a failing property readable and let
a bare ``python -m pytest`` import the checkout's viewdiv."""

import os
import subprocess
import sys

from helpers import ROOT

PYPROJECT = ROOT / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_never_zero(x):
    assert x != 0
'''


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    """Warnings are errors, yet hypothesis's own deprecation warning in its
    report hook must not turn a failing property into an INTERNALERROR that
    hides the example: neither with the settings file's filter alone nor
    with ``-W error`` given on the command line, which outranks the file."""
    test_file = tmp_path / "test_property.py"
    test_file.write_text(_FAILING_PROPERTY)
    for extra in ([], ["-W", "error"]):
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
             *extra, str(test_file)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        output = result.stdout + result.stderr
        assert result.returncode == 1, (extra, output)
        assert "Falsifying example" in output, (extra, output)
        assert "INTERNALERROR" not in output, (extra, output)


def test_a_bare_run_imports_viewdiv_from_src():
    """With no PYTHONPATH, and no viewdiv installed, the settings alone put
    ``src`` on the path, so a test module that imports viewdiv collects."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", "pyproject.toml", "-p", "no:cacheprovider",
         "--collect-only", "-q", "tests/test_package.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 0, output
    assert "1 test collected" in output
