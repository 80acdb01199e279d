"""CLI behavior: exit codes, determinism, round trips, comparisons."""

import csv
import json
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from viewdiv import parse_tweets
from viewdiv.cli import METRIC_FIELDS
from viewdiv.model import CodeMap
from viewdiv.synth import MAX_CATEGORIES, MAX_USERS, MAX_VOLUME_MEAN

from helpers import child_env, run_cli

TOY = Path(__file__).resolve().parent / "data" / "toy"


def _command_args(command, out_dir, config=None, users=None, spam=None):
    """Toy-fixture arguments for ``command``; ``compare`` gets them twice."""
    one = [
        "--config", str(config or TOY / "config.json"),
        "--users", str(users or TOY / "users.jsonl"),
        "--tweets", str(TOY / "tweets.jsonl"),
    ]
    if spam is not None:
        one += ["--spam", spam]
    args = [command] + one * (2 if command == "compare" else 1)
    return args if command == "validate" else args + ["--out", str(out_dir)]


def _analyze_args(out_dir, users=None):
    return _command_args("analyze", out_dir, users=users)


def _read_all(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_analyze_writes_expected_files(tmp_path):
    result = run_cli(_analyze_args(tmp_path / "rep"))
    assert result.exit_code == 0, result.output
    names = {p.name for p in (tmp_path / "rep").iterdir()}
    assert {"users_metrics.csv", "summary.json", "seed_matrix.csv"} <= names
    assert sum(1 for n in names if n.startswith("dist_")) == 6


def test_report_headers_are_machine_checkable(tmp_path):
    run_cli(_analyze_args(tmp_path / "rep"))
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
    assert {"bin_width", "dataset", "metrics", "io_correlation", "seed_matrix"} <= set(summary)


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
    # summary.json keys fractions by format(t, "g"): one key per threshold
    for repeated in [(0.05, 0.050, 0.5), (0.1234561, 0.1234562)]:
        with pytest.raises(ValueError, match="repeated threshold"):
            rc(thresholds=repeated)
    with pytest.raises(ValueError):
        rc(bin_width=0.0)
    # at most 10,000 bins: a narrower width is refused before it allocates
    for narrow in (1e-300, 1e-5):
        with pytest.raises(ValueError, match=r"^bin width must be in \[0.0001, 1\]"):
            rc(bin_width=narrow)
    rc(bin_width=1e-4)


def test_analyze_missing_users_file_exits_2(tmp_path):
    result = run_cli(_analyze_args(tmp_path, users=tmp_path / "nope.jsonl"))
    assert result.exit_code == 2
    assert "cannot open" in result.output
    assert "config validation failed" not in result.output


@pytest.mark.parametrize("bad", ["missing", "directory"])
def test_unreadable_tweets_path_exits_2(tmp_path, bad):
    """The tweets file is read as it is parsed; a path that cannot be
    opened still fails as an input error, before any report is written."""
    path = tmp_path / "tweets"
    if bad == "directory":
        path.mkdir()
    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(path)
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    assert f"cannot open {path}" in result.output
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_directory_config_exits_2(tmp_path, command):
    args = [command, "--config", str(tmp_path), "--users", str(TOY / "users.jsonl"),
            "--tweets", str(TOY / "tweets.jsonl")]
    if command == "analyze":
        args += ["--out", str(tmp_path / "rep")]
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    assert f"cannot open {tmp_path}: Is a directory" in result.output
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "config_text, message",
    [
        ('{"name": "x", "categories": [{"id": "only", "wing": "left"}]}', "n < 2"),
        (
            '{"name": "x", "categories": [{"id": "", "wing": "left"}, '
            '{"id": "b", "wing": "right"}]}',
            "error: config validation failed: empty category id; ",
        ),
    ],
    ids=["one_category", "empty_category_id"],
)
def test_analyze_invalid_config_exits_2(tmp_path, config_text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(config_text)
    result = run_cli(
        ["analyze", "--config", str(bad), "--users", str(TOY / "users.jsonl"),
         "--tweets", str(TOY / "tweets.jsonl"), "--out", str(tmp_path / "rep")],
    )
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "exc, message",
    [
        (RuntimeError("boom"), "error: internal: RuntimeError('boom')"),
        (OSError(5, "Input/output error"), "error: internal: OSError(5, 'Input/output error')"),
    ],
    ids=["runtime_error", "oserror_without_filename"],
)
def test_analyze_internal_error_exits_1(tmp_path, monkeypatch, exc, message):
    """A fault of the program, or an OSError that names no file, is no
    problem of the input: exit 1."""

    def fail(rc):
        raise exc

    monkeypatch.setattr("viewdiv.cli.cmd_analyze", fail)
    result = run_cli(_analyze_args(tmp_path / "rep"))
    assert result.exit_code == 1
    assert message in result.output


def test_analyze_string_minority_ids_exits_2(tmp_path):
    cfg = json.loads((TOY / "config.json").read_text())
    cfg["minority_user_ids"] = "s_green"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    result = run_cli(
        ["analyze", "--config", str(bad), "--users", str(TOY / "users.jsonl"),
         "--tweets", str(TOY / "tweets.jsonl"), "--out", str(tmp_path / "rep")],
    )
    assert result.exit_code == 2
    assert "malformed country config" in result.output


@pytest.mark.parametrize(
    "field, value", [("category_id", ["x"]), ("name", ["n"])], ids=["category_id", "name"]
)
def test_analyze_non_string_config_field_exits_2(tmp_path, field, value):
    cfg = json.loads((TOY / "config.json").read_text())
    if field == "name":
        cfg["name"] = value
    else:
        cfg["categories"][0]["id"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    result = run_cli(
        ["analyze", "--config", str(bad), "--users", str(TOY / "users.jsonl"),
         "--tweets", str(TOY / "tweets.jsonl"), "--out", str(tmp_path / "rep")],
    )
    assert result.exit_code == 2, result.output
    assert "malformed country config" in result.output
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("field", ["name", "category_id", "minority_id"])
def test_analyze_config_lone_surrogate_exits_2(tmp_path, field):
    """Config strings follow the input lines' UTF-8 policy: an escaped lone
    surrogate is a malformed config, not text copied into the reports."""
    cfg = json.loads((TOY / "config.json").read_text())
    if field == "name":
        cfg["name"] += "\udcff"
    elif field == "category_id":
        cfg["categories"][0]["id"] += "\udcff"
    else:
        cfg["minority_user_ids"][0] += "\udcff"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))  # json.dumps writes the escape \udcff
    result = run_cli(
        ["analyze", "--config", str(bad), "--users", str(TOY / "users.jsonl"),
         "--tweets", str(TOY / "tweets.jsonl"), "--out", str(tmp_path / "rep")],
    )
    assert result.exit_code == 2, result.output
    assert "malformed country config (invalid UTF-8)" in result.output
    assert not (tmp_path / "rep").exists()


def _escape_lone_surrogate(text: str, user_id: str) -> str:
    """Rename ``user_id`` everywhere in ``text`` to itself plus a lone
    surrogate, written as the JSON escape \\udcff (the text stays ASCII)."""
    return text.replace(f'"{user_id}"', f'"{user_id}\\udcff"')


def test_analyze_escaped_lone_surrogate_is_a_line_diagnostic(tmp_path):
    users = tmp_path / "users.jsonl"
    tweets = tmp_path / "tweets.jsonl"
    users.write_text(_escape_lone_surrogate((TOY / "users.jsonl").read_text(), "u_bob"))
    tweets.write_text(_escape_lone_surrogate((TOY / "tweets.jsonl").read_text(), "u_bob"))
    bad_lines = users.read_text().count("\\udcff") + tweets.read_text().count("\\udcff")
    assert bad_lines == 9
    args = _analyze_args(tmp_path / "rep", users=users)
    args[args.index("--tweets") + 1] = str(tweets)
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["dataset"]["ingest"]["malformed_lines"] == bad_lines
    # u_bob's lines are gone; u_alice's row is the golden one
    expected_rows = (TOY / "expected" / "users_metrics.csv").read_text().splitlines()
    assert (tmp_path / "rep" / "users_metrics.csv").read_text().splitlines() == [
        row for row in expected_rows if not row.startswith("u_bob,")
    ]


def test_analyze_non_string_reply_target_is_a_line_diagnostic(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text(
        (TOY / "tweets.jsonl").read_text()
        + '{"id":"t99","author_id":"u_bob","kind":"reply","target_user_id":["s_blue"]}\n'
    )
    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(tweets)
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["dataset"]["ingest"]["malformed_lines"] == 1


def _assert_one_malformed_tweet_line(tmp_path, line: bytes) -> None:
    """analyze on the toy tweets plus ``line`` exits 0 with one malformed
    line, and every other line still counts: the other reports are the
    golden ones."""
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_bytes((TOY / "tweets.jsonl").read_bytes() + line + b"\n")
    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(tweets)
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["dataset"]["ingest"]["malformed_lines"] == 1
    reports = _read_all(tmp_path / "rep")
    expected = _read_all(TOY / "expected")
    assert reports.pop("summary.json") != expected.pop("summary.json")
    assert reports == expected


def test_analyze_invalid_utf8_is_a_line_diagnostic(tmp_path):
    # The bad byte sits inside a JSON string, where a decoder that replaced
    # or escaped it would still yield a parseable record.
    _assert_one_malformed_tweet_line(
        tmp_path, b'{"id":"t\xff99","author_id":"s_red","kind":"original","timestamp":99}'
    )


@pytest.mark.parametrize("line", [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"id":"t99","author_id":"s_red","kind":"original","timestamp":' + b"9" * 5000 + b"}",
], ids=["nested_too_deeply", "integer_too_long"])
def test_analyze_undecodable_json_is_a_line_diagnostic(tmp_path, line):
    _assert_one_malformed_tweet_line(tmp_path, line)


def test_references_of_other_kinds_are_dropped(tmp_path):
    """Only a retweet keeps ``source_tweet_id`` and only a reply
    ``target_user_id``: on other kinds they are dropped like unknown keys,
    in the records and in every report."""
    extra = {
        "t01": ',"target_user_id":"s_blue"',   # an original by s_red, left -> right
        "t18": ',"target_user_id":"u_ghost"',  # u_alice's retweet of t01
        "t23": ',"source_tweet_id":"t06"',     # u_alice's reply to s_red
    }
    lines = []
    for line in _TOY_TWEET_LINES:
        tid = json.loads(line)["id"]
        lines.append(line[:-1] + extra.get(tid, "") + "}")
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("".join(line + "\n" for line in lines))

    table, diags = parse_tweets(lines, CodeMap())
    records = {t.id: t for t in table}
    assert diags == [] and len(records) == len(lines)
    assert records["t01"].target_user_id is None and records["t01"].source_tweet_id is None
    assert records["t18"].target_user_id is None and records["t18"].source_tweet_id == "t01"
    assert records["t23"].source_tweet_id is None and records["t23"].target_user_id == "s_red"

    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(tweets)
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    assert _read_all(tmp_path / "rep") == _read_all(TOY / "expected")


def test_analyze_loads_neither_numpy_nor_scipy(tmp_path):
    """analyze runs on the stdlib alone, and imports neither the generator
    nor the oracle; synth/compare load the rest.

    A subprocess, because this interpreter has imported scipy already. Any
    module the run imports from outside the stdlib and viewdiv fails it: an
    argument parser, numpy and scipy alike.
    """
    import subprocess
    import sys

    check = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from viewdiv.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "own = sys.stdlib_module_names | {'viewdiv'}\n"
        "foreign = sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in own)\n"
        "assert not foreign, foreign\n"
        "lazy = sorted(m for m in ('viewdiv.oracle', 'viewdiv.synth') if m in sys.modules)\n"
        "assert not lazy, lazy\n"
        "import viewdiv\n"
        "assert viewdiv.generate is viewdiv.synth.generate\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check] + _analyze_args(tmp_path / "rep"),
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert _read_all(tmp_path / "rep") == _read_all(TOY / "expected")


def test_analyze_rerun_is_byte_identical(tmp_path):
    assert run_cli(_analyze_args(tmp_path / "a")).exit_code == 0
    assert run_cli(_analyze_args(tmp_path / "b")).exit_code == 0
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_summary_of_a_metric_without_samples_is_null(tmp_path):
    """No regular replies to a seed: reply diversity has no defined value,
    so its summary holds a zero count and nulls, never 0."""
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("".join(
        line + "\n" for line in (TOY / "tweets.jsonl").read_text().splitlines()
        if '"reply"' not in line
    ))
    args = _analyze_args(tmp_path / "rep")
    args[args.index("--tweets") + 1] = str(tweets)
    assert run_cli(args).exit_code == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["metrics"]["reply_diversity"] == {
        "count": 0, "mean": None, "fraction_below": {"0.5": None, "0.05": None, "0.01": None},
    }
    assert summary["metrics"]["retweet_diversity"]["count"] == 2


def test_analyze_threshold_and_margin_flags(tmp_path):
    """--thresholds sets the reported fractions; the io margin is a fixed
    0.15, so there is no --io-margin to set."""
    result = run_cli(_analyze_args(tmp_path / "rep") + ["--thresholds", "0.9"])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert summary["thresholds"] == [0.9]
    assert list(summary["metrics"]["minority_reach"]["fraction_below"]) == ["0.9"]
    assert summary["io_margin"] == 0.15
    result = run_cli(_analyze_args(tmp_path / "other") + ["--io-margin", "0.4"])
    assert result.exit_code == 2
    assert "unrecognized arguments: --io-margin" in result.output
    assert not (tmp_path / "other").exists()


@pytest.mark.parametrize("command", ["analyze", "compare", "validate"])
def test_messages_name_paths_as_typed(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text('{"name": "x"}')
    result = run_cli(_command_args(command, tmp_path / "rep", config="./bad.json"))
    assert result.exit_code == 2, result.output
    assert "error: ./bad.json: malformed country config" in result.output


@pytest.mark.parametrize("command", ["analyze", "compare", "validate"])
def test_empty_spam_path_means_no_spam_list(tmp_path, command):
    runs = []
    for spam in (None, ""):
        result = run_cli(_command_args(command, tmp_path / "rep", spam=spam))
        assert result.exit_code == 0, result.output
        runs.append((result.output, {} if command == "validate" else _read_all(tmp_path / "rep")))
    assert runs[0] == runs[1]


# validate's whole output on the toy fixture
_TOY_VALIDATE_OUTPUT = (
    "ok: 3 seeds, 2 regulars, 31 tweets\n"
    "users_read=6 dropped_spam=0 dropped_threshold=1 tweets_read=35 tweets_dropped_dangling=4\n"
)


@pytest.mark.parametrize("reverse", [False, True])
def test_validate_prints_the_toy_counts(tmp_path, reverse):
    """The seed and regular counts and the ingest report, also with the
    user lines reversed, regulars before seeds."""
    users = TOY / "users.jsonl"
    if reverse:
        lines = users.read_text().splitlines(keepends=True)
        users = tmp_path / "users.jsonl"
        users.write_text("".join(reversed(lines)))
    result = run_cli(_command_args("validate", None, users=users))
    assert result.exit_code == 0, result.output
    assert result.output == _TOY_VALIDATE_OUTPUT


@pytest.mark.parametrize("user_id", ["u,alice", 'u"alice', "u\nalice", "u\ralice"])
def test_users_metrics_quotes_unusual_ids(tmp_path, user_id):
    """An id holding a comma, a quote or a line break is one quoted field;
    every other row keeps the golden bytes."""
    paths = {}
    for name in ("users.jsonl", "tweets.jsonl"):
        paths[name] = tmp_path / name
        paths[name].write_text((TOY / name).read_text().replace('"u_alice"', json.dumps(user_id)))
    args = _analyze_args(tmp_path / "rep", users=paths["users.jsonl"])
    args[args.index("--tweets") + 1] = str(paths["tweets.jsonl"])
    assert run_cli(args).exit_code == 0
    report = tmp_path / "rep" / "users_metrics.csv"
    with open(report, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {9}
    assert user_id in [row[0] for row in rows]
    text = report.read_bytes().decode("utf-8")
    assert '\n"' + user_id.replace('"', '""') + '",' in text
    expected = (TOY / "expected" / "users_metrics.csv").read_text().splitlines()
    assert set(expected) - set(text.split("\n")) == {
        line for line in expected if line.startswith("u_alice,")
    }


def test_compare_dataset_with_itself(tmp_path):
    args = ["compare"]
    for _ in range(2):
        args += [
            "--config", str(TOY / "config.json"),
            "--users", str(TOY / "users.jsonl"),
            "--tweets", str(TOY / "tweets.jsonl"),
        ]
    args += ["--out", str(tmp_path)]
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    assert "significant" in result.output
    rows = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    assert rows[0].startswith("metric,")
    for row in rows[1:]:
        cols = row.split(",")
        # identical populations: t is 0 (or NA when both sides are constant)
        assert cols[5] in ("0.0000", "-0.0000", "NA")
        assert cols[-1] == "false"


def test_compare_rejects_alpha_outside_the_open_unit_interval(tmp_path):
    result = run_cli(_command_args("compare", tmp_path) + ["--alpha", "1.5"])
    assert result.exit_code == 2
    assert "alpha must be in (0, 1), got 1.5" in result.output


_USAGE_REFUSALS = {
    "compare_inputs_once": (
        lambda out: ["compare", *_command_args("analyze", out)[1:]],
        "compare needs --config, --users and --tweets exactly twice",
    ),
    "compare_spam_once": (
        lambda out: _command_args("compare", out) + ["--spam", str(TOY / "users.jsonl")],
        "give --spam either zero or two times",
    ),
    "synth_preset_and_params": (
        lambda out: ["synth", "--preset", "uniform", "--params", TOY / "config.json", "--out", out],
        "give exactly one of --preset or --params",
    ),
    "synth_neither": (
        lambda out: ["synth", "--out", out], "give exactly one of --preset or --params"
    ),
}


@pytest.mark.parametrize("case", sorted(_USAGE_REFUSALS))
def test_usage_refusals_exit_2_before_writing(tmp_path, case):
    """Option counts that argparse cannot check are refused by the command
    itself, before anything is read or written."""
    args, problem = _USAGE_REFUSALS[case]
    out = tmp_path / "o"
    result = run_cli(args(out))
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {problem}\n"
    assert not out.exists()


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
    result = run_cli(args)
    assert result.exit_code == 2
    assert "category universes" in result.output


def test_synth_round_trips_through_validate_and_analyze(tmp_path):
    data = tmp_path / "data"
    result = run_cli(["synth", "--preset", "uniform", "--out", str(data)])
    assert result.exit_code == 0, result.output
    result = run_cli([
        "validate",
        "--config", str(data / "config.json"),
        "--users", str(data / "users.jsonl"),
        "--tweets", str(data / "tweets.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("ok:")
    result = run_cli([
        "analyze",
        "--config", str(data / "config.json"),
        "--users", str(data / "users.jsonl"),
        "--tweets", str(data / "tweets.jsonl"),
        "--out", str(tmp_path / "rep"),
    ])
    assert result.exit_code == 0, result.output


def test_synth_seed_reproducibility(tmp_path):
    for d in ("a", "b"):
        result = run_cli([
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
        "category_weights": [0.5, 0.25, 0.25], "minority_categories": ["cat3"],
    }))
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "ok")])
    assert result.exit_code == 0, result.output

    params.write_text(json.dumps({"n_categories": 3, "category_weights": [0.9, 0.9, 0.9]}))
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "bad")])
    assert result.exit_code == 2
    assert "sum" in result.output


_MALFORMED_PARAMS = {
    "not_an_object": ("5", "record is not an object"),
    "weights_not_a_list": (
        '{"category_weights": 5}', "'category_weights' must be tuple[float, ...] | None"
    ),
    "minority_not_strings": (
        '{"minority_categories": ["cat1", 2]}',
        "'minority_categories' must be tuple[str, ...] | None",
    ),
    "int_as_string": ('{"n_seeds": "x"}', "'n_seeds' must be int"),
    "int_as_bool": ('{"n_seeds": true}', "'n_seeds' must be int"),
    "int_as_float": ('{"n_seeds": 5.0}', "'n_seeds' must be int"),
    "float_as_bool": ('{"homophily": false}', "'homophily' must be float"),
    "unknown_key": ('{"n_seedz": 5}', "unknown keys: ['n_seedz']"),
    "nested_too_deeply": ("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply"),
    "integer_too_long": ('{"n_seeds": ' + "1" * 5000 + "}", "invalid JSON: integer too long"),
}


def test_every_synth_param_type_has_a_check():
    from viewdiv.synth import _PARAM_CHECKS, SynthParams

    assert {f.type for f in fields(SynthParams)} <= set(_PARAM_CHECKS)


@pytest.mark.parametrize("case", sorted(_MALFORMED_PARAMS))
def test_synth_malformed_params_file_exits_2(tmp_path, case):
    text, problem = _MALFORMED_PARAMS[case]
    params = tmp_path / "params.json"
    params.write_text(text)
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {params}: malformed synth params ({problem})\n"
    assert not (tmp_path / "o").exists()


_NON_FINITE_PARAMS = {
    "weight_nan": (
        '{"category_weights": [0.2, 0.2, 0.2, 0.2, NaN]}',
        "category_weights must be finite, got [0.2, 0.2, 0.2, 0.2, nan]",
    ),
    "tweets_per_seed_nan": (
        '{"tweets_per_seed": NaN}', "tweets_per_seed must be finite and non-negative, got nan"
    ),
    "replies_per_regular_infinite": (
        '{"replies_per_regular": Infinity}',
        "replies_per_regular must be finite and non-negative, got inf",
    ),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_PARAMS))
def test_synth_non_finite_params_exit_2_naming_the_field(tmp_path, case):
    """JSON's NaN and Infinity pass a range check, since NaN compares false;
    each is refused by name before anything is generated or written."""
    text, problem = _NON_FINITE_PARAMS[case]
    params = tmp_path / "params.json"
    params.write_text(text)
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {problem}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field", ["tweets_per_seed", "retweets_per_regular", "replies_per_regular"]
)
@pytest.mark.parametrize("mean", ["1e300", "1000000.5"])
def test_synth_volume_mean_above_the_bound_exits_2(tmp_path, field, mean):
    """A finite mean above synth.MAX_VOLUME_MEAN is refused by name before
    anything is drawn; 1e300 used to reach numpy's own "lam value too
    large"."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({field: float(mean)}))
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output == f"error: {field} must be at most 1e+06, got {float(mean)}\n"
    assert not (tmp_path / "o").exists()


def test_synth_category_count_above_the_bound_exits_2(tmp_path):
    """n_categories above synth.MAX_CATEGORIES is refused by name before
    anything is built: generate holds n floats per category, so 100,000
    categories would ask for 10^10 floats."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n_categories": MAX_CATEGORIES + 1, "minority_tweet_share": 0}))
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output == (
        f"error: n_categories must be at most {MAX_CATEGORIES}, got {MAX_CATEGORIES + 1}\n"
    )
    assert not (tmp_path / "o").exists()


def test_synth_user_count_above_the_bound_exits_2(tmp_path):
    """A 26-byte object that asks for 10^9 regulars is refused by name
    before any id is built, rather than running out of memory."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n_regulars": 10**9}))
    result = run_cli(["synth", "--params", str(params), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.output == (
        f"error: n_seeds + n_regulars must be at most {MAX_USERS}, got {10**9 + 50}\n"
    )
    assert not (tmp_path / "o").exists()


def test_synth_unknown_preset_exits_2(tmp_path):
    result = run_cli(["synth", "--preset", "wat", "--out", str(tmp_path)])
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
            env=child_env(),
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
    result = run_cli([
        "validate", "--config", str(cfg),
        "--users", str(users), "--tweets", str(tweets),
    ])
    assert result.exit_code == 0, result.output
    assert f"{users}:2: invalid JSON" in result.output


def test_validate_names_the_file_of_each_diagnostic(tmp_path):
    users = tmp_path / "users.jsonl"
    tweets = tmp_path / "tweets.jsonl"
    users.write_text((TOY / "users.jsonl").read_text() + "{bad\n")
    tweets.write_text((TOY / "tweets.jsonl").read_text() + "{bad\n")
    result = run_cli([
        "validate", "--config", str(TOY / "config.json"),
        "--users", str(users), "--tweets", str(tweets),
    ])
    assert result.exit_code == 0, result.output
    diagnostics = [line for line in result.output.splitlines() if "invalid JSON" in line]
    assert [line.split(": invalid JSON")[0] for line in diagnostics] == [
        f"{users}:7", f"{tweets}:36",
    ]


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_config_without_both_wings_exits_2(tmp_path, command):
    cfg = json.loads((TOY / "config.json").read_text())
    for c in cfg["categories"]:
        if c["id"] == "blue":
            c["wing"] = "unaligned"
    left_only = tmp_path / "config.json"
    left_only.write_text(json.dumps(cfg))
    args = [command, "--config", str(left_only), "--users", str(TOY / "users.jsonl"),
            "--tweets", str(TOY / "tweets.jsonl")]
    if command == "analyze":
        args += ["--out", str(tmp_path / "rep")]
    result = run_cli(args)
    assert result.exit_code == 2, result.output
    assert (
        "config validation failed: wing mapping must cover at least one Left and "
        "one Right category" in result.output
    )
    assert not (tmp_path / "rep").exists()


def test_validate_reports_invalid_utf8_line(tmp_path):
    users = tmp_path / "users.jsonl"
    toy_users = (TOY / "users.jsonl").read_bytes()
    assert toy_users.split(b"\n")[4].startswith(b'{"id":"u_bob"')
    users.write_bytes(toy_users.replace(b'"u_bob"', b'"u_b\xffob"', 1))
    result = run_cli([
        "validate", "--config", str(TOY / "config.json"),
        "--users", str(users), "--tweets", str(TOY / "tweets.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert f"{users}:5: invalid UTF-8" in result.output

    users.write_text(_escape_lone_surrogate(toy_users.decode(), "u_bob"))
    result = run_cli([
        "validate", "--config", str(TOY / "config.json"),
        "--users", str(users), "--tweets", str(TOY / "tweets.jsonl"),
    ])
    assert result.exit_code == 0, result.output
    assert f"{users}:5: invalid UTF-8" in result.output



# -- property: analyze exits 0 or 2 on noisy inputs --------------------------

_TOY_USER_LINES = (TOY / "users.jsonl").read_text().splitlines()
_TOY_TWEET_LINES = (TOY / "tweets.jsonl").read_text().splitlines()
# hypothesis draws early entries of sampled_from more often: the unhashable
# values, which once reached code that hashed them, come first.
_NOT_A_STRING = [["x"], {"k": 1}, None, 7, True]
_BAD_BYTES = [b"\xff", b"\x80", b"\xed\xa0\x80"]
_UNDECODABLE = {"too_deep": "[" * 100_000 + "]" * 100_000, "too_long": "1" * 5000}
REPORTS = {
    "users_metrics.csv", "summary.json", "seed_matrix.csv",
    *(f"dist_{m}.csv" for m in METRIC_FIELDS),
}


@st.composite
def _damaged(draw, line: str) -> bytes:
    """``line`` truncated, with a field of the wrong type, with a byte that
    is not UTF-8, with a string field holding an escaped lone surrogate, or
    with JSON the decoder cannot hold: nesting past the recursion limit or
    an integer longer than int() converts."""
    record = json.loads(line)
    how = draw(st.sampled_from([
        "truncated", "wrong_type", "bad_utf8", "lone_surrogate", "too_deep", "too_long",
    ]))
    if how == "truncated":
        return line[: draw(st.integers(0, len(line) - 1))].encode()
    if how in _UNDECODABLE:
        return (line[:-1] + ',"x":' + _UNDECODABLE[how] + "}").encode()
    if how == "bad_utf8":
        raw = line.encode()
        cut = draw(st.integers(0, len(raw)))
        return raw[:cut] + draw(st.sampled_from(_BAD_BYTES)) + raw[cut:]
    if how == "wrong_type":
        record[draw(st.sampled_from(sorted(record)))] = draw(st.sampled_from(_NOT_A_STRING))
    else:
        key = draw(st.sampled_from(sorted(k for k, v in record.items() if isinstance(v, str))))
        record[key] += "\udcff"
    return json.dumps(record).encode()  # non-ASCII is written as \\u escapes


@st.composite
def _noisy_file(draw, lines: list[str], rename: str | None) -> bytes:
    """The toy lines with up to four of them damaged; ``rename`` gives one
    user id an escaped lone surrogate on every line that names it."""
    out = [_escape_lone_surrogate(line, rename) if rename else line for line in lines]
    damaged = draw(st.lists(st.integers(0, len(lines) - 1), max_size=4, unique=True))
    encoded = [line.encode() for line in out]
    for i in damaged:
        encoded[i] = draw(_damaged(out[i]))
    return b"".join(line + b"\n" for line in encoded)


@st.composite
def _noisy_config(draw) -> bytes:
    cfg = json.loads((TOY / "config.json").read_text())
    how = draw(st.sampled_from(
        ["valid", "category_id", "valid", "name", "truncated", "too_deep", "too_long"]
    ))
    if how in _UNDECODABLE:
        return (json.dumps(cfg)[:-1] + ', "x": ' + _UNDECODABLE[how] + "}").encode()
    if how == "category_id":
        cfg["categories"][draw(st.integers(0, 2))]["id"] = draw(st.sampled_from(_NOT_A_STRING))
    elif how == "name":
        cfg["name"] = draw(st.sampled_from(_NOT_A_STRING))
    text = json.dumps(cfg)
    if how == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text.encode()


@st.composite
def _noisy_inputs(draw) -> tuple[bytes, bytes, bytes]:
    rename = draw(st.none() | st.sampled_from(["u_alice", "u_bob", "s_red", "s_green"]))
    return (
        draw(_noisy_config()),
        draw(_noisy_file(_TOY_USER_LINES, rename)),
        draw(_noisy_file(_TOY_TWEET_LINES, rename)),
    )


@settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(inputs=_noisy_inputs())
def test_analyze_exits_0_or_2_on_noisy_inputs(tmp_path, inputs):
    """Malformed input ends as a line diagnostic or as exit 2, never as an
    internal error; exit 2 comes before any report is written."""
    for name, data in zip(("config.json", "users.jsonl", "tweets.jsonl"), inputs):
        (tmp_path / name).write_bytes(data)
    out = tmp_path / "rep"
    shutil.rmtree(out, ignore_errors=True)
    result = run_cli([
        "analyze", "--config", str(tmp_path / "config.json"),
        "--users", str(tmp_path / "users.jsonl"),
        "--tweets", str(tmp_path / "tweets.jsonl"), "--out", str(out),
    ])
    assert result.exit_code in (0, 2), result.output
    written = {p.name for p in out.iterdir()} if out.exists() else set()
    assert written == (REPORTS if result.exit_code == 0 else set()), result.output
    if result.exit_code == 0:
        summary = json.loads((out / "summary.json").read_text())
        assert isinstance(summary["dataset"]["name"], str)


# -- property: every flag value exits 0 or 2 ----------------------------------

# Each flag's drawn values, then those of them its command accepts. No width
# in (0, 1e-4) but 1e-300 is drawn: without the bin bound, such a width
# allocated its bins, while 1e-300 failed at once.
_FLAG_VALUES = {
    "--bin-width": (
        ["1e-300", "0", "-0.05", "1e-4", "0.05", "1", "1.5", "nan", "inf", "abc"],
        {"1e-4", "0.05", "1"},
    ),
    "--thresholds": (["", "0.5", "0,1", "1,1.0", "nan", "a"], {"", "0.5"}),
    "--alpha": (["0.01", "0", "1", "nan", "x"], {"0.01"}),
    "--rng-seed": (["0", "-1", str(2**64), "x"], {"0", str(2**64)}),
}


def _flag(name: str):
    return st.sampled_from(_FLAG_VALUES[name][0])


@settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    bin_width=_flag("--bin-width"), thresholds=_flag("--thresholds"),
    alpha=_flag("--alpha"), rng_seed=_flag("--rng-seed"),
)
def test_flags_exit_0_or_2(tmp_path, bin_width, thresholds, alpha, rng_seed):
    """A flag value the command accepts leaves the exit code to the inputs,
    as validate gives it; a refused one exits 2 before any file is written.
    Never an internal error."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    validated = run_cli(_command_args("validate", None))
    assert validated.exit_code == 0, validated.output
    runs = [
        (_command_args("analyze", out / "rep"),
         {"--bin-width": bin_width, "--thresholds": thresholds}),
        (_command_args("compare", out / "cmp"), {"--alpha": alpha}),
        (["synth", "--preset", "uniform", "--out", out / "data"], {"--rng-seed": rng_seed}),
    ]
    for args, flags in runs:
        result = run_cli(args + [part for flag in flags.items() for part in flag])
        accepted = all(value in _FLAG_VALUES[flag][1] for flag, value in flags.items())
        assert result.exit_code == (validated.exit_code if accepted else 2), result.output
        assert "internal:" not in result.output
        assert Path(args[-1]).exists() == accepted
    if (out / "data").exists():
        # validate and analyze agree on the generated crawl too
        d = out / "data"
        inputs = ["--config", d / "config.json", "--users", d / "users.jsonl",
                  "--tweets", d / "tweets.jsonl"]
        analyzed = run_cli(["analyze", *inputs, "--out", out / "drep"])
        assert analyzed.exit_code == run_cli(["validate", *inputs]).exit_code, analyzed.output


# -- property: every synth --params object exits 0 or 2 ---------------------

_NAN, _INF = float("nan"), float("inf")
# Per SynthParams field, the values an object may give it: small valid ones
# first, then a wrong JSON type, NaN or Infinity, a negative number, the
# value just above the field's bound and, for the sizes, one far above the
# size bounds: 10^9 users, or a minority share that asks for ~10^10 tweets
# (or, with no non-minority originals, one that generate refuses). A valid
# draw stays tiny: at most 10 seeds, 20 regulars and a volume mean of 10; a
# key left out takes its default (50 seeds, 200 regulars), which is small
# too.
_PARAM_VALUES = {
    "rng_seed": [0, 3, "7", 1.5, -1],
    "n_categories": [2, 3, "3", _NAN, 1, -2, MAX_CATEGORIES + 1],
    "category_weights": [None, [0.5, 0.5], [0.2, 0.3, 0.5], "x", [_NAN, 1.0], [-0.5, 1.5]],
    "n_seeds": [1, 4, 10, True, 2.0, 0, -1, 10**9],
    "n_regulars": [0, 5, 20, None, -1, 10**9],
    "homophily": [0, 0.5, 1.0, "x", _NAN, _INF, -0.1, 1.5],
    "minority_categories": [None, ["cat1"], ["cat2", "cat3"], "cat1", [1], ["nope"]],
    "minority_tweet_share": [0, 0.15, 1.0, [0.1], _NAN, -0.1, 1.01, 0.9999999],
    "tweets_per_seed": [0, 3.5, 10, "5", _NAN, _INF, -1, MAX_VOLUME_MEAN + 0.5],
    "retweets_per_regular": [0, 4, 10, None, _NAN, -1, MAX_VOLUME_MEAN + 0.5],
    "replies_per_regular": [0, 2, 10, [], _INF, -0.5, MAX_VOLUME_MEAN + 0.5],
    "n_seedz": [5],  # no such field
}


@st.composite
def _params_objects(draw) -> dict:
    """A --params object of 0 to 4 keys, each with one of its values."""
    keys = draw(st.lists(st.sampled_from(sorted(_PARAM_VALUES)), max_size=4, unique=True))
    return {key: draw(st.sampled_from(_PARAM_VALUES[key])) for key in keys}


@settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(params=_params_objects())
def test_synth_params_exit_0_or_2(tmp_path, params):
    """Whatever a --params object holds, synth exits 0 or 2, never with an
    internal error, and writes its --out directory iff it exits 0."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))  # NaN and Infinity as JSON's extension spells them
    out = tmp_path / "data"
    shutil.rmtree(out, ignore_errors=True)
    result = run_cli(["synth", "--params", path, "--out", out])
    assert result.exit_code in (0, 2), (params, result.output)
    assert "internal:" not in result.output
    assert out.exists() == (result.exit_code == 0), (params, result.output)


# -- property: analyze and validate agree on mutated input files --------------

_TOY_SPAM = b"u_carol\nnobody\n"
# A value of another JSON type than the key's own, per type of the value.
_OTHER_TYPE = {str: 7, list: "x", dict: ["x"], int: "7", type(None): {"k": 1}}


def _wrong_type(data: bytes, line: int, key: int) -> bytes:
    """The ``line``-th line of ``data`` with its ``key``-th key's value of
    another JSON type; the file as it was if that line is no JSON object."""
    lines = data.split(b"\n")
    i = line % len(lines)
    try:
        record = json.loads(lines[i])
    except ValueError:
        return data
    if not isinstance(record, dict) or not record:
        return data
    name = sorted(record)[key % len(record)]
    record[name] = _OTHER_TYPE.get(type(record[name]), None)
    lines[i] = json.dumps(record).encode()
    return b"\n".join(lines)


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` unchanged, empty, with one byte flipped, truncated, with a
    line repeated or deleted, or with one key of a line given a value of the
    wrong JSON type."""
    how = draw(st.sampled_from(
        ["same", "empty", "flip", "truncate", "duplicate", "delete", "wrong_type"]
    ))
    if how == "empty":
        return b""
    if how == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return data[:i] + bytes([data[i] ^ draw(st.sampled_from([1, 0x20, 0x80]))]) + data[i + 1:]
    if how == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if how == "duplicate":
        return b"".join(lines[: i + 1] + lines[i:])
    if how == "delete":
        return b"".join(lines[:i] + lines[i + 1:])
    if how == "wrong_type":
        return _wrong_type(data, i, draw(st.integers(0, 5)))
    return data


@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    config=_mutated((TOY / "config.json").read_bytes()),
    users=_mutated((TOY / "users.jsonl").read_bytes()),
    tweets=_mutated((TOY / "tweets.jsonl").read_bytes()),
    spam=_mutated(_TOY_SPAM),
)
def test_mutated_files_exit_0_or_2_and_commands_agree(tmp_path, config, users, tweets, spam):
    """Whatever is done to the bytes of the four input files, analyze and
    validate each exit 0 or 2, never with an internal error, and both give
    the same one of the two."""
    inputs = []
    for flag, name, data in (
        ("--config", "config.json", config), ("--users", "users.jsonl", users),
        ("--tweets", "tweets.jsonl", tweets), ("--spam", "spam.txt", spam),
    ):
        (tmp_path / name).write_bytes(data)
        inputs += [flag, str(tmp_path / name)]
    out = tmp_path / "rep"
    shutil.rmtree(out, ignore_errors=True)
    analyzed = run_cli(["analyze", *inputs, "--out", str(out)])
    validated = run_cli(["validate", *inputs])
    for result in (analyzed, validated):
        assert result.exit_code in (0, 2), result.output
        assert "internal:" not in result.output
    assert analyzed.exit_code == validated.exit_code, (analyzed.output, validated.output)
