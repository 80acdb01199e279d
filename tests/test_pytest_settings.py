"""The project's pytest settings keep a failing property readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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
    hides the example."""
    test_file = tmp_path / "test_property.py"
    test_file.write_text(_FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
