"""The benchmark's traced stage names still name live calls.

``bench/tracing.py`` wraps module attributes by name and reports a target a
refactor removed as absent, not as a failure. This runs the tracer on the
toy fixture and checks that every span it targets was recorded, so a
rename, or a call that no longer goes through the wrapped module global,
shows here.
"""

import subprocess
import sys

from helpers import ROOT, child_env, load_bench_module

TRACING = ROOT / "bench" / "tracing.py"
TOY = ROOT / "tests" / "data" / "toy"


def test_every_traced_target_is_recorded(tmp_path):
    tracing = load_bench_module("tracing")
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACING), str(spans_path), "1",
         str(TOY / "config.json"), str(TOY / "users.jsonl"), str(TOY / "tweets.jsonl"),
         "-", str(tmp_path / "rep")],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans, _, absent, _ = tracing.load(spans_path)
    recorded = {s.name for s in spans}
    missing = [name for _, _, name in tracing.TARGETS if name not in recorded]
    assert not missing, f"traced targets never called: {missing}; absent: {absent}"
