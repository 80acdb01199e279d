"""CLI behavior: exit codes, determinism, round trips, comparisons."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from viewdiv.cli import main

TOY = Path(__file__).resolve().parent / "data" / "toy"

runner = CliRunner()


def _analyze_args(out_dir, users=None):
    return [
        "analyze",
        "--config", str(TOY / "config.json"),
        "--users", str(users or TOY / "users.jsonl"),
        "--tweets", str(TOY / "tweets.jsonl"),
        "--out", str(out_dir),
    ]


def _read_all(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_analyze_writes_expected_files(tmp_path):
    result = runner.invoke(main, _analyze_args(tmp_path / "rep"))
    assert result.exit_code == 0, result.output
    names = {p.name for p in (tmp_path / "rep").iterdir()}
    assert {"users_metrics.csv", "summary.json", "seed_matrix.csv"} <= names
    assert sum(1 for n in names if n.startswith("dist_")) == 6


def test_report_headers_are_machine_checkable(tmp_path):
    runner.invoke(main, _analyze_args(tmp_path / "rep"))
    rep = tmp_path / "rep"
    assert (rep / "users_metrics.csv").read_text().splitlines()[0] == (
        "user_id,direct_source_diversity,indirect_source_diversity,"
        "retweet_diversity,reply_diversity,minority_reach,minority_exposure,"
        "io_correlated,io_correlated_15"
    )
    assert (rep / "seed_matrix.csv").read_text().splitlines()[0] == "wing,left,right"
    for dist in rep.glob("dist_*.csv"):
        assert dist.read_text().splitlines()[0] == "bin_start,bin_end,count"
    summary = json.loads((rep / "summary.json").read_text())
    assert {"alpha", "dataset", "metrics", "io_correlation", "seed_matrix"} <= set(summary)


def test_run_config_invariants(tmp_path):
    from viewdiv.cli import RunConfig

    def rc(**kw):
        base = dict(
            config_path=TOY / "config.json", users_path=TOY / "users.jsonl",
            tweets_path=TOY / "tweets.jsonl", spam_path=None, out_dir=tmp_path,
        )
        base.update(kw)
        return RunConfig(**base)

    rc()  # defaults are valid
    with pytest.raises(ValueError):
        rc(thresholds=(0.0,))
    with pytest.raises(ValueError):
        rc(thresholds=(1.2,))
    with pytest.raises(ValueError):
        rc(alpha=1.0)
    with pytest.raises(ValueError):
        rc(bin_width=0.0)


def test_analyze_missing_users_file_exits_2(tmp_path):
    result = runner.invoke(main, _analyze_args(tmp_path, users=tmp_path / "nope.jsonl"))
    assert result.exit_code == 2
    assert "cannot open" in result.output


def test_analyze_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "categories": [{"id": "only", "wing": "left"}]}')
    result = runner.invoke(
        main,
        ["analyze", "--config", str(bad), "--users", str(TOY / "users.jsonl"),
         "--tweets", str(TOY / "tweets.jsonl"), "--out", str(tmp_path / "rep")],
    )
    assert result.exit_code == 2
    assert "n < 2" in result.output


def test_analyze_string_minority_ids_exits_2(tmp_path):
    cfg = json.loads((TOY / "config.json").read_text())
    cfg["minority_user_ids"] = "s_green"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    result = runner.invoke(
        main,
        ["analyze", "--config", str(bad), "--users", str(TOY / "users.jsonl"),
         "--tweets", str(TOY / "tweets.jsonl"), "--out", str(tmp_path / "rep")],
    )
    assert result.exit_code == 2
    assert "malformed country config" in result.output


def test_analyze_non_string_reply_target_is_a_line_diagnostic(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text(
        (TOY / "tweets.jsonl").read_text()
        + '{"id":"t99","author_id":"u_bob","kind":"reply","target_user_id":["s_blue"]}\n'
    )
    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(tweets)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["dataset"]["ingest"]["malformed_lines"] == 1


def test_analyze_invalid_utf8_is_a_line_diagnostic(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    # The bad byte sits inside a JSON string, where a decoder that replaced
    # or escaped it would still yield a parseable record.
    tweets.write_bytes(
        (TOY / "tweets.jsonl").read_bytes()
        + b'{"id":"t\xff99","author_id":"s_red","kind":"original","timestamp":99}\n'
    )
    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(tweets)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["dataset"]["ingest"]["malformed_lines"] == 1
    # Every other line still counts: the reports are the golden ones.
    reports = _read_all(tmp_path / "rep")
    expected = _read_all(TOY / "expected")
    assert reports.pop("summary.json") != expected.pop("summary.json")
    assert reports == expected


def test_analyze_loads_neither_numpy_nor_scipy(tmp_path):
    """analyze runs on click and the stdlib alone; synth/compare load the rest.

    A subprocess, because this interpreter has imported scipy already.
    """
    import subprocess
    import sys

    check = (
        "import sys\n"
        "from viewdiv.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)\n"
        "heavy = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
        "assert not heavy, heavy\n"
        "import viewdiv\n"
        "assert viewdiv.generate is viewdiv.synth.generate\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check] + _analyze_args(tmp_path / "rep"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert _read_all(tmp_path / "rep") == _read_all(TOY / "expected")


def test_analyze_rerun_is_byte_identical(tmp_path):
    assert runner.invoke(main, _analyze_args(tmp_path / "a")).exit_code == 0
    assert runner.invoke(main, _analyze_args(tmp_path / "b")).exit_code == 0
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_analyze_threshold_and_margin_flags(tmp_path):
    result = runner.invoke(
        main, _analyze_args(tmp_path / "rep") + ["--thresholds", "0.9", "--io-margin", "0.4"]
    )
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["thresholds"] == [0.9]
    assert list(summary["metrics"]["minority_reach"]["fraction_below"]) == ["0.9"]
    assert summary["io_margin"] == 0.4


def test_compare_dataset_with_itself(tmp_path):
    args = ["compare"]
    for _ in range(2):
        args += [
            "--config", str(TOY / "config.json"),
            "--users", str(TOY / "users.jsonl"),
            "--tweets", str(TOY / "tweets.jsonl"),
        ]
    args += ["--out", str(tmp_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "significant" in result.output
    rows = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    assert rows[0].startswith("metric,")
    for row in rows[1:]:
        cols = row.split(",")
        # identical populations: t is 0 (or NA when both sides are constant)
        assert cols[5] in ("0.0000", "-0.0000", "NA")
        assert cols[-1] == "false"


def test_compare_rejects_mismatched_universes(tmp_path):
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps({
        "name": "other",
        "categories": [{"id": "x", "wing": "left"}, {"id": "y", "wing": "right"}],
        "minority_user_ids": [],
    }))
    other_users = tmp_path / "other_users.jsonl"
    other_users.write_text(
        '{"id":"sx","kind":"seed","category":"x","followees":[]}\n'
        '{"id":"sy","kind":"seed","category":"y","followees":[]}\n'
    )
    other_tweets = tmp_path / "other_tweets.jsonl"
    other_tweets.write_text(
        '{"id":"t1","author_id":"sx","kind":"original","timestamp":1}\n'
    )
    args = [
        "compare",
        "--config", str(TOY / "config.json"),
        "--users", str(TOY / "users.jsonl"),
        "--tweets", str(TOY / "tweets.jsonl"),
        "--config", str(other_cfg),
        "--users", str(other_users),
        "--tweets", str(other_tweets),
        "--out", str(tmp_path),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "category universes" in result.output


def test_synth_round_trips_through_validate_and_analyze(tmp_path):
    data = tmp_path / "data"
    result = runner.invoke(main, ["synth", "--preset", "uniform", "--out", str(data)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "validate",
        "--config", str(data / "config.json"),
        "--users", str(data / "users.jsonl"),
        "--tweets", str(data / "tweets.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ok:")
    result = runner.invoke(main, [
        "analyze",
        "--config", str(data / "config.json"),
        "--users", str(data / "users.jsonl"),
        "--tweets", str(data / "tweets.jsonl"),
        "--out", str(tmp_path / "rep"),
    ])
    assert result.exit_code == 0, result.output


def test_synth_seed_reproducibility(tmp_path):
    for d in ("a", "b"):
        result = runner.invoke(main, [
            "synth", "--preset", "segregated", "--rng-seed", "99",
            "--out", str(tmp_path / d),
        ])
        assert result.exit_code == 0, result.output
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_synth_params_file_and_bad_weights(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "rng_seed": 1, "n_categories": 3, "n_seeds": 5, "n_regulars": 4,
        "homophily": 0.3, "tweets_per_seed": 5,
        "category_weights": [0.5, 0.25, 0.25],
    }))
    result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "ok")])
    assert result.exit_code == 0, result.output

    params.write_text(json.dumps({"n_categories": 3, "category_weights": [0.9, 0.9, 0.9]}))
    result = runner.invoke(main, ["synth", "--params", str(params), "--out", str(tmp_path / "bad")])
    assert result.exit_code == 2
    assert "sum" in result.output


def test_synth_unknown_preset_exits_2(tmp_path):
    result = runner.invoke(main, ["synth", "--preset", "wat", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "unknown preset" in result.output


def test_analyze_deterministic_across_processes(tmp_path):
    """Fresh-interpreter runs produce the same bytes, not just reruns in one."""
    import subprocess
    import sys

    for d in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "viewdiv.cli"] + _analyze_args(tmp_path / d),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_validate_reports_diagnostics(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "name": "mini",
        "categories": [{"id": "red", "wing": "left"}, {"id": "blue", "wing": "right"}],
        "minority_user_ids": [],
    }))
    users = tmp_path / "users.jsonl"
    users.write_text(
        '{"id":"s1","kind":"seed","category":"red","followees":[]}\n{oops\n'
    )
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("")
    result = runner.invoke(main, [
        "validate", "--config", str(cfg),
        "--users", str(users), "--tweets", str(tweets),
    ])
    assert result.exit_code == 0, result.output
    assert "line 2" in result.output


def test_validate_reports_invalid_utf8_line(tmp_path):
    users = tmp_path / "users.jsonl"
    toy_users = (TOY / "users.jsonl").read_bytes()
    assert toy_users.split(b"\n")[4].startswith(b'{"id":"u_bob"')
    users.write_bytes(toy_users.replace(b'"u_bob"', b'"u_b\xffob"', 1))
    result = runner.invoke(main, [
        "validate", "--config", str(TOY / "config.json"),
        "--users", str(users), "--tweets", str(TOY / "tweets.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert "line 5: invalid UTF-8" in result.output
