"""The correctness gate passes a clean rerun and fails tampered reports."""

import shutil

import pytest

from gate import EXPECTED_REPORTS, check_run, oracle_check
from viewdiv.cli import RunConfig, cmd_analyze
from workloads import WORKLOADS, make_inputs


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    base = tmp_path_factory.mktemp("gate")
    inputs = make_inputs(WORKLOADS["dirty_crawl"], 2, base / "in", small=True)
    out = base / "out"
    cmd_analyze(RunConfig(
        config_path=inputs.config, users_path=inputs.users, tweets_path=inputs.tweets,
        spam_path=inputs.spam, out_dir=out,
    ))
    return inputs, out


def _copy(out, tmp_path):
    dest = tmp_path / "copy"
    shutil.copytree(out, dest)
    return dest


def test_clean_rerun_passes(reports, tmp_path):
    _, out = reports
    reference, problems = check_run(0, out, None)
    assert not problems
    assert {p.name for p in out.iterdir()} == EXPECTED_REPORTS
    assert check_run(0, _copy(out, tmp_path), reference) == (reference, [])


def test_tampered_report_fails(reports, tmp_path):
    _, out = reports
    reference, _ = check_run(0, out, None)
    copy = _copy(out, tmp_path)
    metrics = copy / "users_metrics.csv"
    data = bytearray(metrics.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    metrics.write_bytes(bytes(data))
    digest, problems = check_run(0, copy, reference)
    assert digest != reference
    assert problems == ["report bytes differ from the first run"]


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_wrong_report_set_fails(reports, tmp_path, change):
    _, out = reports
    reference, _ = check_run(0, out, None)
    copy = _copy(out, tmp_path)
    if change == "missing":
        (copy / "dist_reply_diversity.csv").unlink()
    else:
        (copy / "timings.json").write_text("{}")
    _, problems = check_run(0, copy, reference)
    assert any("report set differs" in p for p in problems)


def test_nonzero_exit_fails(reports):
    _, out = reports
    assert check_run(2, out, None) == (None, ["exit code 2"])


def test_oracle_check_passes_on_the_noisy_shape(reports):
    inputs, _ = reports
    kept, problems = oracle_check(inputs.config, inputs.users, inputs.tweets, inputs.spam)
    assert kept > 0
    assert problems == []
