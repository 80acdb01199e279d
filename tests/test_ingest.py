"""Ingest pipeline tests: parsing, filtering, assembly, accounting."""

import json
import random
import subprocess
import sys
from dataclasses import astuple
from itertools import compress

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    UNSHRUNK, child_env, config, dataset, original, regular, reply, retweet, seed, tables,
    tweet_to_line, user_table, user_to_line,
)
from viewdiv import (
    IngestError,
    ParseDiagnostic,
    TweetKind,
    UserKind,
    compute_all,
    load_country_config,
    load_dataset,
    parse_spam,
    parse_tweets,
    parse_users,
)
from viewdiv.ingest import (
    _CANONICAL_TWEET,
    _CANONICAL_USER,
    _WRITE_ROWS,
    _compact_followees,
    _decode,
    _user_line,
    build_dataset,
    filter_active_regulars,
    resolve_tweets,
    validate_config,
    write_dataset,
)
from viewdiv.model import LONE_SURROGATE, CodeMap
from viewdiv.oracle import TweetRecord, UserRecord

USER_LINES = [
    '{"id":"s1","kind":"seed","category":"a","followees":[]}',
    '{"id":"s2","kind":"seed","category":"b","followees":[]}',
    '{"id":"u1","kind":"regular","followees":["s1"]}',
]


def _seed_ids(users):
    """The ids of a table's seeds, sorted."""
    return sorted(compress(users.ids, users.categories))


def test_parse_users_wellformed():
    users, diags = parse_users(USER_LINES)
    assert len(users) == 3 and diags == []
    assert list(users.rows())[2] == ("u1", UserKind.REGULAR, None, ["s1"])


def test_parse_users_missing_kind_is_diagnosed():
    lines = [USER_LINES[0], '{"id":"u9","followees":[]}', USER_LINES[2]]
    users, diags = parse_users(lines)
    assert len(users) == 2
    assert len(diags) == 1 and diags[0].line_no == 2
    assert "kind" in diags[0].message


def test_parse_users_empty_stream():
    users, diags = parse_users([])
    assert users.ids == [] and diags == []


def test_parse_users_duplicate_id_keeps_first():
    lines = [
        '{"id":"u1","kind":"regular","followees":["s1"]}',
        '{"id":"u1","kind":"regular","followees":[]}',
    ]
    users, diags = parse_users(lines)
    assert list(users.rows()) == [("u1", UserKind.REGULAR, None, ["s1"])]
    assert len(diags) == 1 and "duplicate" in diags[0].message


def test_parse_users_repeated_followee_is_one_edge():
    """A followee listed twice stays twice in the follow column, as read,
    and counts once everywhere else: in rows(), in table equality and in
    every metric."""
    lines = USER_LINES[:2] + ['{"id":"u1","kind":"regular","followees":["s1","s2","s1"]}']
    once = USER_LINES[:2] + ['{"id":"u1","kind":"regular","followees":["s2","s1"]}']
    users, diags = parse_users(lines)
    assert diags == [] and _seed_ids(users) == ["s1", "s2"]
    assert users.follows == [[], [], [0, 1, 0]]
    assert list(users.rows())[2] == ("u1", UserKind.REGULAR, None, ["s1", "s2"])
    assert users == parse_users(once)[0]

    tweets = [original("t1", "s1"), original("t2", "s2"), retweet("t3", "u1", "t1")]
    cfg = config({"a": "left", "b": "right"})
    with_repeat, without = (
        compute_all(load_dataset(cfg, user_lines, map(tweet_to_line, tweets), min_retweets=1)[0])
        for user_lines in (lines, once)
    )
    assert with_repeat == without
    # one original of each category, each counted once
    assert with_repeat[0][0].direct_source_diversity == 1.0


def test_parse_users_seeds_after_regulars_give_the_same_table():
    """Codes follow the order the lines name ids in, so a file listing every
    regular before the seeds numbers them otherwise, yet each user follows
    the same ids, a non-seed id included."""
    regulars_first = [
        '{"id":"u2","kind":"regular","followees":["s2","ghost","s1"]}',
        USER_LINES[2],
        *USER_LINES[:2],
    ]
    seeds_first = [*USER_LINES, '{"id":"u2","kind":"regular","followees":["s2","ghost","s1"]}']
    late, late_diags = parse_users(regulars_first)
    early, early_diags = parse_users(seeds_first)
    assert late_diags == early_diags == []
    assert late == early and _seed_ids(late) == _seed_ids(early) == ["s1", "s2"]

    def by_id(table):
        return {
            uid: sorted(table.codes.names[c] for c in table.follows[row])
            for row, uid in enumerate(table.ids)
        }

    assert by_id(late) == by_id(early) == {
        "s1": [], "s2": [], "u1": ["s1"], "u2": ["ghost", "s1", "s2"],
    }


def _mask_crawl() -> tuple[dict, list[str], list[str]]:
    """(config object, user lines in written order, tweet lines): u2 follows
    a ghost id and the regular u1, and retweets too few seed originals to be
    kept; u1 follows seeds only, and u3 follows the ghost, u1 and u2 among
    its seeds. Three tweets name ids no user line names, and dangle: an
    original and a retweet by the unknown author "nobody", and u1's reply to
    the ghost."""
    cfg = {
        "name": "mask",
        "categories": [{"id": "a", "wing": "left"}, {"id": "b", "wing": "right"}],
        "minority_user_ids": ["s3"],
    }
    users = [
        {"id": "s1", "kind": "seed", "category": "a", "followees": ["s2"]},
        {"id": "s2", "kind": "seed", "category": "b", "followees": []},
        {"id": "s3", "kind": "seed", "category": "b", "followees": []},
        {"id": "u1", "kind": "regular", "followees": ["s1", "s2"]},
        {"id": "u2", "kind": "regular", "followees": ["ghost", "s3", "u1"]},
        {"id": "u3", "kind": "regular", "followees": ["s3", "ghost", "s2", "u2", "s1", "u1"]},
    ]
    tweets = [
        original(f"{s}o{i}", s, ts=i) for s in ("s1", "s2", "s3") for i in (1, 2, 3)
    ]
    retweets = {
        "s1": ["s2o1"], "s2": ["s3o1", "s1o2"],
        "u1": ["s1o1", "s1o2", "s2o1", "s2o2", "s3o1"],
        "u2": ["s1o1", "s2o1", "s3o1", "s3o2"],
        "u3": ["s1o3", "s2o3", "s3o2", "s3o3", "s2o1"],
    }
    for author, sources in retweets.items():
        tweets += [retweet(f"{author}r{i}", author, src, ts=9) for i, src in enumerate(sources)]
    tweets += [
        reply("s3p", "s3", "s1", ts=10), reply("u1p", "u1", "s2", ts=10),
        reply("u3p", "u3", "s3", ts=10),
        original("xo", "nobody", ts=11), retweet("xr", "nobody", "s1o1", ts=11),
        reply("u1g", "u1", "ghost", ts=12),
    ]
    return cfg, [json.dumps(u) for u in users], [tweet_to_line(t) for t in tweets]


def test_follow_codes_never_reach_an_output(tmp_path):
    """A users file listing the seeds after the regulars, in reverse-sorted
    order, numbers the followed ids otherwise, and a tweets file in reverse
    order interns its unknown ids otherwise: every id of one line gets its
    code in the order the line names it, and the tweets hand out codes in
    the users' code map too. The seed mask that the filter and the count of
    ignored followees read must still mark each seed, so the counts, the
    metrics and the report bytes equal the written order's."""
    cfg_obj, written, tweet_lines = _mask_crawl()
    users_files = {"written": written, "reversed": written[::-1]}
    tweets_files = {"written": tweet_lines, "reversed": tweet_lines[::-1]}
    (tmp_path / "config.json").write_text(json.dumps(cfg_obj))
    for kind, files in (("users", users_files), ("tweets", tweets_files)):
        for name, lines in files.items():
            (tmp_path / f"{kind}-{name}.jsonl").write_text("".join(f"{x}\n" for x in lines))
    cfg = load_country_config(tmp_path / "config.json")
    results = []
    for user_lines in users_files.values():
        users, diags = parse_users(user_lines)
        assert diags == []
        # a follow list may name anyone
        assert validate_config(cfg, users) == []
        for lines in tweets_files.values():
            ds, report, _ = load_dataset(cfg, user_lines, lines)
            assert report.users_dropped_threshold == 1
            # u3's ghost, u2 and u1; u2's own list is not counted, since it is dropped
            assert report.followees_ignored == 3
            # u2's four retweets, the unknown author's two and the reply to the ghost
            assert report.tweets_dropped_dangling == 7
            results.append(compute_all(ds))
    assert all(r == results[0] for r in results)
    assert [m.user_id for m in results[0][0]] == ["u1", "u3"]

    reports = []
    for users_name in users_files:
        for tweets_name in tweets_files:
            for hash_seed in ("0", "1"):
                out = tmp_path / f"{users_name}-{tweets_name}-{hash_seed}"
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "viewdiv.cli", "analyze",
                        "--config", str(tmp_path / "config.json"),
                        "--users", str(tmp_path / f"users-{users_name}.jsonl"),
                        "--tweets", str(tmp_path / f"tweets-{tweets_name}.jsonl"),
                        "--out", str(out),
                    ],
                    capture_output=True, text=True,
                    env={**child_env(), "PYTHONHASHSEED": hash_seed},
                )
                assert proc.returncode == 0, proc.stderr
                reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(reports) == 8 and len(reports[0]) == 9
    assert all(r == reports[0] for r in reports)


def test_parse_users_ignores_unknown_keys_and_blank_lines():
    lines = ['{"id":"s1","kind":"seed","category":"a","followees":[],"extra":1}', "", "  "]
    users, diags = parse_users(lines)
    assert len(users) == 1 and diags == []


@pytest.mark.parametrize("line", ["\x0c", "\x0b", "\x1c", "\xa0", "\u2028", " \x0c\n", "\t\x85"])
def test_a_line_of_non_json_whitespace_is_one_invalid_json_diagnostic(line):
    """A line of whitespace that str.strip strips but JSON does not skip is
    invalid JSON, as json.loads says, in both readers."""
    users, user_diags = parse_users([line])
    tweets, tweet_diags = parse_tweets([line], CodeMap())
    assert len(users) == len(tweets) == 0
    assert user_diags == [ParseDiagnostic(1, _loads_reason(line), "users")]
    assert tweet_diags == [ParseDiagnostic(1, _loads_reason(line), "tweets")]
    assert _loads_reason(line).startswith("invalid JSON")


@pytest.mark.parametrize("line", ["", "   ", "\t", "\r\n"])
def test_json_whitespace_lines_are_skipped(line):
    assert parse_users([line]) == (parse_users([])[0], [])
    tweets, diags = parse_tweets([line], CodeMap())
    assert len(tweets) == 0 and diags == []


def test_parse_users_invalid_json():
    users, diags = parse_users(["{nope"])
    assert users.ids == [] and len(diags) == 1 and "invalid JSON" in diags[0].message


def test_parse_tweets_retweet_requires_source():
    ok, diags = parse_tweets(
        ['{"id":"t1","author_id":"u1","kind":"retweet","source_tweet_id":"t0","timestamp":1}'],
        CodeMap(),
    )
    assert len(ok) == 1 and diags == []
    bad, diags = parse_tweets(
        ['{"id":"t1","author_id":"u1","kind":"retweet","timestamp":1}'], CodeMap()
    )
    assert bad.ids == [] and len(diags) == 1


def test_parse_tweets_reply_requires_target():
    ok, diags = parse_tweets(
        ['{"id":"t1","author_id":"u1","kind":"reply","target_user_id":"s1","timestamp":1}'],
        CodeMap(),
    )
    assert len(ok) == 1 and diags == []


@pytest.mark.parametrize("field", ["source_tweet_id", "target_user_id"])
@pytest.mark.parametrize("value", [["s1"], 7, {"id": "s1"}, True])
def test_parse_tweets_non_string_reference_is_diagnosed(field, value):
    kind = "retweet" if field == "source_tweet_id" else "reply"
    line = json.dumps({"id": "t1", "author_id": "u1", "kind": kind, field: value})
    ok_line = json.dumps({"id": "t2", "author_id": "u1", "kind": kind, field: "x"})
    tweets, diags = parse_tweets([ok_line, line], CodeMap())
    assert tweets.ids == ["t2"]
    assert len(diags) == 1 and diags[0].line_no == 2
    assert diags[0].message == f"'{field}' must be a string"


def test_parse_tweets_non_string_reference_on_original_is_diagnosed():
    line = '{"id":"t1","author_id":"s1","kind":"original","target_user_id":["s2"]}'
    tweets, diags = parse_tweets([line], CodeMap())
    assert tweets.ids == [] and len(diags) == 1


@pytest.mark.parametrize("value", [["a"], 3, {"a": 1}])
def test_parse_users_non_string_category_is_diagnosed(value):
    line = json.dumps({"id": "s9", "kind": "seed", "category": value, "followees": []})
    users, diags = parse_users([USER_LINES[0], line])
    assert users.ids == ["s1"]
    assert len(diags) == 1 and diags[0].line_no == 2
    assert diags[0].message == "'category' must be a string"


_USER = {"id": "s9", "kind": "seed", "category": "a", "followees": ["s1"]}
_TWEETS = {
    "id": {"id": "t1", "author_id": "s1", "kind": "original"},
    "author_id": {"id": "t1", "author_id": "s1", "kind": "original"},
    "source_tweet_id": {"id": "t1", "author_id": "u1", "kind": "retweet", "source_tweet_id": "o1"},
    "target_user_id": {"id": "t1", "author_id": "u1", "kind": "reply", "target_user_id": "s1"},
}


def _with_escaped_suffix(record: dict, field: str, suffix: str) -> str:
    """The record as a JSON line, ``suffix`` appended to a string field
    (the first followee for "followees"); json.dumps writes any non-ASCII
    character of the suffix as a \\u escape, so the line stays ASCII."""
    record = json.loads(json.dumps(record))
    if field == "followees":
        record[field][0] += suffix
    else:
        record[field] += suffix
    line = json.dumps(record)
    assert line.isascii()
    return line


@pytest.mark.parametrize("field", ["id", "category", "followees"])
@pytest.mark.parametrize("surrogate", ["\udcff", "\ud800"])
def test_parse_users_escaped_lone_surrogate_is_invalid_utf8(field, surrogate):
    users, diags = parse_users(
        [USER_LINES[0], _with_escaped_suffix(_USER, field, surrogate)]
    )
    assert users.ids == ["s1"]
    assert diags == [ParseDiagnostic(2, "invalid UTF-8", "users")]


@pytest.mark.parametrize("field", sorted(_TWEETS))
def test_parse_tweets_escaped_lone_surrogate_is_invalid_utf8(field):
    line = _with_escaped_suffix(_TWEETS[field], field, "\udcff")
    tweets, diags = parse_tweets([line], CodeMap())
    assert tweets.ids == [] and diags == [ParseDiagnostic(1, "invalid UTF-8", "tweets")]


def test_parse_escaped_surrogate_pair_and_backslash_are_accepted():
    emoji = "\U0001f600"  # json.dumps writes it as the pair \ud83d\ude00
    users, diags = parse_users([_with_escaped_suffix(_USER, "id", emoji)])
    assert diags == [] and users.ids == ["s9" + emoji]
    # an escaped backslash before "udcff" is text, not a \u escape
    line = _with_escaped_suffix(_TWEETS["id"], "id", "\\udcff")
    tweets, diags = parse_tweets([line], CodeMap())
    assert diags == [] and tweets.ids == ["t1\\udcff"]


# Valid JSON that the decoder cannot hold: nesting past the recursion limit
# and an integer longer than int() converts.
_TOO_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_LONG = '{"id":"t9","author_id":"s1","kind":"original","timestamp":' + "1" * 5000 + "}"


def test_parse_nested_json_is_a_diagnostic_at_every_depth():
    """Each depth decodes to a record or fails as nested too deeply, also
    where the decode fits under the recursion limit but encoding the record
    again, for the escaped-surrogate check (the line holds a \\u escape),
    does not."""
    messages = set()
    for depth in range(1, sys.getrecursionlimit() + 1):
        line = '{"id":"s\\u00e9","kind":"seed","category":"a","x":%s%s}' % (
            "[" * depth, "]" * depth
        )
        users, diags = parse_users([line])
        assert len(users) + len(diags) == 1
        messages.update(d.message for d in diags)
    assert messages == {"invalid JSON: nested too deeply"}


@pytest.mark.parametrize(
    "text, message",
    [(_TOO_DEEP, "nested too deeply"), (_TOO_LONG, "integer too long")],
)
def test_load_country_config_undecodable_json_is_malformed(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_country_config(path)
    assert str(exc.value) == f"{path}: malformed country config (invalid JSON: {message})"


def _loads_reason(line: str) -> str | None:
    """What json.loads says of a line, spelled as a diagnostic: its own
    error message, "record is not an object", or None for an object."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    return None if isinstance(obj, dict) else "record is not an object"


_WHOLE = '{"id":"t1","author_id":"s1","kind":"original","timestamp":1}'


@pytest.mark.parametrize("line", [
    _WHOLE[:20],  # cut
    _WHOLE[:1],
    _WHOLE[:-1],
    '{"id":"t1",',
    "",  # empty
    "   ",  # blank
    " \t\r",
    " " + _WHOLE,  # leading whitespace
    " " + _WHOLE[:20],
    "\n" + _WHOLE[:20],
    "\ufeff" + _WHOLE,  # a BOM, which json.loads refuses before decoding
    "\ufeff" + _WHOLE[:20],
    _WHOLE + " x",  # trailing data
    _WHOLE + _WHOLE,
    _WHOLE + " \t",
    "[1, 2]",  # non-object
    '"t1"',
    "null",
    " 7",
])
def test_decode_gives_json_loads_own_reason(line):
    """_decode decodes a line that raises, and starts with neither JSON
    whitespace nor a BOM, once, and gives the reason json.loads would."""
    obj, reason = _decode(line)
    assert reason == _loads_reason(line)
    assert (obj is None) == (reason is not None)


# -- the canonical-line pattern and the JSON path ------------------------------
#
# parse_tweets reads a line that _CANONICAL_TWEET matches from the match and
# decodes any other line as JSON. A leading space makes a line miss the
# pattern without changing what it decodes to, so a line and " " + line must
# give the same rows and the same diagnostics.

# The characters a canonical string may hold: printable ASCII but '"' and
# '\', which JSON writes as escapes.
_PLAIN = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
_plain_ids = st.text(st.sampled_from(_PLAIN), min_size=1, max_size=6)
_STRING_FIELDS = ("id", "author_id", "source_tweet_id", "target_user_id")


def _assert_paths_agree(line: str) -> None:
    fast, fast_diags = parse_tweets([line], CodeMap())
    slow, slow_diags = parse_tweets([" " + line], CodeMap())
    assert list(fast.rows()) == list(slow.rows())
    assert fast_diags == slow_diags


@st.composite
def _canonical_record(draw) -> dict:
    kind = draw(st.sampled_from(["original", "retweet", "reply"]))
    record = {"id": draw(_plain_ids), "author_id": draw(_plain_ids), "kind": kind}
    if kind == "retweet":
        record["source_tweet_id"] = draw(_plain_ids)
    if kind == "reply":
        record["target_user_id"] = draw(_plain_ids)
    record["timestamp"] = draw(st.integers(0, 10**18 - 1))
    return record


def _compact(record: dict, ensure_ascii: bool = True) -> str:
    return json.dumps(record, separators=(",", ":"), ensure_ascii=ensure_ascii)


def _with_timestamp_text(record: dict, text: str) -> str:
    """The record's compact line with ``text`` as the timestamp literal."""
    return _compact({**record, "timestamp": 0}).replace('"timestamp":0', '"timestamp":' + text)


_ODD_CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\xe9", "\udcff", "\ud83d", "\U0001f600", "a"]
_MUTATIONS = [
    "none", "odd_string", "empty_string", "timestamp", "timestamp_text", "extra_key",
    "wrong_reference", "crlf", "trailing", "too_deep",
]


@st.composite
def _mutated_tweet_line(draw) -> str:
    """A canonical tweet line, changed in one of the ways that can send it
    down the JSON path or make it malformed."""
    record = draw(_canonical_record())
    how = draw(st.sampled_from(_MUTATIONS))
    fields = [f for f in _STRING_FIELDS if f in record]
    if how == "odd_string":
        field = draw(st.sampled_from(fields))
        odd = draw(st.text(st.sampled_from(_ODD_CHARS), min_size=1, max_size=3))
        at = draw(st.integers(0, len(record[field])))
        record[field] = record[field][:at] + odd + record[field][at:]
        return _compact(record, ensure_ascii=draw(st.booleans()))
    if how == "empty_string":
        record[draw(st.sampled_from(fields))] = ""
    elif how == "timestamp":
        record["timestamp"] = draw(st.sampled_from(
            [-1, -(10**17), 10**17, 10**18 - 1, 10**18, 10**19 - 1, 1.5, 0.0, True, False, None, "7"]
        ))
    elif how == "timestamp_text":
        return _with_timestamp_text(record, draw(st.sampled_from(
            ["00", "01", "-0", "0" + "1" * 17, "1" * 18, "1" * 19, "1" * 5000, "1e3", "1.0"]
        )))
    elif how == "extra_key":
        value = draw(st.sampled_from([1, "x", None, [], {"k": 1}]))
        record = {"x": value, **record} if draw(st.booleans()) else {**record, "x": value}
    elif how == "wrong_reference":
        # an original with a source, a retweet with a target, a reply with a
        # source, each ahead of the timestamp
        extra = {"original": "source_tweet_id", "retweet": "target_user_id",
                 "reply": "source_tweet_id"}[record["kind"]]
        timestamp = record.pop("timestamp")
        record[extra] = draw(st.sampled_from(["o1", 7, None]))
        record["timestamp"] = timestamp
    line = _compact(record)
    if how == "crlf":
        return line + "\r\n"
    if how == "trailing":
        return line + draw(st.sampled_from(["x", "}", ",", " 1", "\x0c", "\t\n", " \n"]))
    if how == "too_deep":
        return line[:-1] + ',"x":' + _TOO_DEEP + "}"
    return line + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(line=_mutated_tweet_line())
def test_pattern_and_json_paths_agree_on_mutated_lines(line):
    _assert_paths_agree(line)


_RT = {"id": "t1", "author_id": "u1", "kind": "retweet", "source_tweet_id": "o1", "timestamp": 5}
_RP = {"id": "t1", "author_id": "u1", "kind": "reply", "target_user_id": "s1", "timestamp": 5}
_OR = {"id": "t1", "author_id": "s1", "kind": "original", "timestamp": 5}


@pytest.mark.parametrize("line", [
    pytest.param(_compact(_RT), id="canonical_retweet"),
    pytest.param(_compact(_RP), id="canonical_reply"),
    pytest.param(_compact(_OR) + "\r\n", id="crlf"),
    pytest.param(_compact({**_RT, "id": 't"1'}), id="escaped_quote"),
    pytest.param(_compact({**_RT, "id": "t\\1"}), id="escaped_backslash"),
    pytest.param(_compact({**_RT, "author_id": "u\x01"}), id="control_character"),
    pytest.param(_compact({**_RT, "author_id": "u\x7f"}), id="delete_character"),
    pytest.param(_compact({**_RP, "target_user_id": "s\xe9"}, False), id="raw_non_ascii"),
    pytest.param(_compact({**_RP, "target_user_id": "s\xe9"}), id="escaped_non_ascii"),
    pytest.param(_compact({**_RT, "source_tweet_id": "o\udcff"}), id="escaped_lone_surrogate"),
    pytest.param(_compact({**_RT, "source_tweet_id": "o\udcff"}, False), id="raw_lone_surrogate"),
    pytest.param(_compact({**_OR, "id": ""}), id="empty_id"),
    pytest.param(_compact({**_OR, "author_id": ""}), id="empty_author"),
    pytest.param(_compact({**_RT, "source_tweet_id": ""}), id="empty_source"),
    pytest.param(_compact({**_RP, "target_user_id": ""}), id="empty_target"),
    pytest.param(_compact({**_OR, "timestamp": -1}), id="negative_timestamp"),
    pytest.param(_with_timestamp_text(_OR, "05"), id="leading_zero_timestamp"),
    pytest.param(_compact({**_OR, "timestamp": 10**18 - 1}), id="timestamp_18_digits"),
    pytest.param(_compact({**_OR, "timestamp": 10**18}), id="timestamp_19_digits"),
    pytest.param(_with_timestamp_text(_OR, "1" * 5000), id="timestamp_5000_digits"),
    pytest.param(_compact({**_OR, "timestamp": 5.0}), id="float_timestamp"),
    pytest.param(_compact({**_OR, "timestamp": True}), id="bool_timestamp"),
    pytest.param(_compact({**_OR, "x": 1}), id="extra_key"),
    pytest.param(_compact({"author_id": "s1", **_OR}), id="other_key_order"),
    pytest.param(json.dumps(_OR), id="default_spacing"),
    pytest.param(
        _compact({"id": "t1", "author_id": "s1", "kind": "original", "source_tweet_id": "o1",
                  "timestamp": 5}),
        id="original_with_source",
    ),
    pytest.param(
        _compact({"id": "t1", "author_id": "u1", "kind": "retweet", "source_tweet_id": "o1",
                  "target_user_id": "s1", "timestamp": 5}),
        id="retweet_with_target",
    ),
    pytest.param(_compact(_OR) + "x", id="trailing_garbage"),
    pytest.param(_compact(_OR)[:-1] + ',"x":' + _TOO_DEEP + "}", id="too_deep"),
])
def test_pattern_and_json_paths_agree_on_named_lines(line):
    _assert_paths_agree(line)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(record=_canonical_record())
def test_written_tweet_lines_take_the_pattern_path(record):
    """A change to the writer's format would put every written file back
    on the JSON path."""
    tweet = TweetRecord(
        record["id"], record["author_id"], TweetKind(record["kind"]),
        record.get("source_tweet_id"), record.get("target_user_id"), record["timestamp"],
    )
    line = tweet_to_line(tweet)
    assert _CANONICAL_TWEET.fullmatch(line) and _CANONICAL_TWEET.fullmatch(line + "\n")


# -- the compact user path and the JSON path -----------------------------------
#
# parse_users reads a line whose head _CANONICAL_USER matches, and whose rest
# _compact_followees accepts, from the head's groups and the split rest; it
# decodes any other line as JSON. As for tweets, " " + line takes the JSON
# path, so it must give the same table and diagnostics as the line itself.


def _assert_user_paths_agree(line: str, before: tuple[str, ...] = ()) -> None:
    """``line`` after the lines ``before`` and " " + ``line`` after them
    give the same rows, codes in the same order and the same diagnostics."""
    fast, fast_diags = parse_users([*before, line])
    slow, slow_diags = parse_users([*before, " " + line])
    assert list(fast.rows()) == list(slow.rows())
    assert fast.codes.names == slow.codes.names and fast.follows == slow.follows
    assert fast_diags == slow_diags


def _takes_compact_path(line: str) -> bool:
    m = _CANONICAL_USER.match(line)
    return m is not None and _compact_followees(line, m.end()) is not None


@st.composite
def _compact_user(draw) -> dict:
    record = {"id": draw(_plain_ids), "kind": draw(st.sampled_from(["seed", "regular"]))}
    if record["kind"] == "seed":
        record["category"] = draw(_plain_ids)
    # repeats included: a follow list is kept as read
    followee = st.sampled_from(["s1", "s2", "s3"]) | _plain_ids
    record["followees"] = draw(st.lists(followee, max_size=5))
    return record


_USER_MUTATIONS = [
    "none", "odd_string", "raw_control", "empty_string", "empty_list", "non_string_followee",
    "extra_key", "key_order", "repeated_followees", "seed_without_category",
    "regular_with_category", "repeated_id", "default_spacing", "crlf", "trailing", "too_deep",
]
# Control characters as they stand in a line's text, not escaped: JSON
# refuses each inside a string.
_RAW_CONTROLS = ["\x00", "\t", "\n", "\x1b", "\x1f"]


@st.composite
def _mutated_user_line(draw) -> tuple[str, tuple[str, ...]]:
    """A compact user line, changed in one of the ways that can send it
    down the JSON path or make it malformed, and the lines read before it."""
    record = draw(_compact_user())
    how = draw(st.sampled_from(_USER_MUTATIONS))
    # each string of the line as (container, key): the id, a seed's
    # category and each followee
    slots = [(record, key) for key in ("id", "category") if key in record]
    slots += [(record["followees"], i) for i in range(len(record["followees"]))]
    if how == "odd_string":
        box, key = draw(st.sampled_from(slots))
        odd = draw(st.text(st.sampled_from(_ODD_CHARS), min_size=1, max_size=3))
        at = draw(st.integers(0, len(box[key])))
        box[key] = box[key][:at] + odd + box[key][at:]
        return _compact(record, ensure_ascii=draw(st.booleans())), ()
    if how == "empty_string":
        box, key = draw(st.sampled_from(slots))
        box[key] = ""
    elif how == "empty_list":
        record["followees"] = []
    elif how == "non_string_followee":
        odd = draw(st.sampled_from([1, None, True, ["s1"], {"s": 1}]))
        at = draw(st.integers(0, len(record["followees"])))
        record["followees"] = [*record["followees"][:at], odd, *record["followees"][at:]]
    elif how == "extra_key":
        value = draw(st.sampled_from([1, "x", None, [], ["s1"], ["s1", "s2"], {"k": 1}]))
        items = list(record.items())
        at = draw(st.integers(0, len(items)))
        record = dict([*items[:at], ("x", value), *items[at:]])
    elif how == "key_order":
        record = dict(draw(st.permutations(list(record.items()))))
    elif how == "repeated_followees":
        # a second followees key, which json.loads reads as the one that counts
        other = draw(st.lists(_plain_ids, max_size=2))
        line = _compact(record)[:-1] + ',"followees":' + _compact(other) + "}"
        return line, ()
    elif how == "seed_without_category":
        record = {"id": record["id"], "kind": "seed", "followees": record["followees"]}
    elif how == "regular_with_category":
        record = {"id": record["id"], "kind": "regular", "category": draw(_plain_ids),
                  "followees": record["followees"]}
    elif how == "repeated_id":
        return _compact(record), (_compact({**record, "followees": []}),)
    elif how == "default_spacing":
        return json.dumps(record), ()
    elif how == "raw_control":
        # a followee holding a marker no plain id holds, written raw and
        # then replaced (the head's pattern refuses any other field's)
        at = draw(st.integers(0, len(record["followees"])))
        record["followees"].insert(at, "s\xff")
        line = _compact(record, ensure_ascii=False)
        return line.replace("\xff", draw(st.sampled_from(_RAW_CONTROLS))), ()
    line = _compact(record)
    if how == "crlf":
        return line + "\r\n", ()
    if how == "trailing":
        return line + draw(st.sampled_from(["x", "}", "]}", ",", " 1", "\x0c", "\t\n", " \n"])), ()
    if how == "too_deep":
        return line[:-1] + ',"x":' + _TOO_DEEP + "}", ()
    return line + draw(st.sampled_from(["", "\n"])), ()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_mutated_user_line())
def test_compact_and_json_user_paths_agree_on_mutated_lines(case):
    line, before = case
    _assert_user_paths_agree(line, before)


_SD = {"id": "s9", "kind": "seed", "category": "a", "followees": ["s1", "s2"]}
_RG = {"id": "u9", "kind": "regular", "followees": ["s1", "s2", "s1"]}


_NAMED_USER_LINES = [
    pytest.param(_compact(_SD), id="compact_seed"),
    pytest.param(_compact(_RG), id="compact_regular_with_a_repeat"),
    pytest.param(_compact({**_RG, "followees": []}), id="no_followees"),
    pytest.param(_compact(_RG) + "\r\n", id="crlf"),
    pytest.param(_compact(_RG) + " \t\n", id="trailing_whitespace"),
    pytest.param(_compact({**_SD, "id": 's"9'}), id="escaped_quote_in_id"),
    pytest.param(_compact({**_SD, "category": "a\\b"}), id="escaped_backslash_in_category"),
    pytest.param(_compact({**_RG, "followees": ['s"1']}), id="escaped_quote_in_followee"),
    pytest.param(_compact({**_RG, "followees": ["s1", 's","2']}), id="escaped_separator"),
    pytest.param(_compact({**_RG, "followees": ["s\\1"]}), id="escaped_backslash_in_followee"),
    pytest.param(_compact({**_RG, "followees": ["s\x01"]}), id="control_character"),
    pytest.param('{"id":"u9","kind":"regular","followees":["s\x01"]}', id="raw_control_character"),
    pytest.param('{"id":"u9","kind":"regular","followees":["s\t1"]}', id="raw_tab"),
    pytest.param(_compact({**_RG, "followees": ["s\x7f"]}), id="delete_character"),
    pytest.param(_compact({**_RG, "followees": ["s\xe9"]}, False), id="raw_non_ascii"),
    pytest.param(_compact({**_RG, "followees": ["s\xe9"]}), id="escaped_non_ascii"),
    pytest.param(_compact({**_RG, "followees": ["s\udcff"]}), id="escaped_lone_surrogate"),
    pytest.param(_compact({**_RG, "followees": ["s\udcff"]}, False), id="raw_lone_surrogate"),
    pytest.param(_compact({**_RG, "id": ""}), id="empty_id"),
    pytest.param(_compact({**_SD, "category": ""}), id="empty_category"),
    pytest.param(_compact({**_RG, "followees": [""]}), id="empty_followee"),
    pytest.param(_compact({**_RG, "followees": ["s1", "", "s2"]}), id="empty_middle_followee"),
    pytest.param('{"id":"u9","kind":"regular","followees":["]}', id="lone_quote"),
    pytest.param('{"id":"u9","kind":"regular","followees":[""""]}', id="four_quotes"),
    pytest.param('{"id":"u9","kind":"regular","followees":["s1" ,"s2"]}', id="space_in_list"),
    pytest.param('{"id":"u9","kind":"regular","followees":["s1",]}', id="trailing_comma"),
    pytest.param(_compact({**_RG, "followees": ["s1", 2]}), id="int_followee"),
    pytest.param(_compact({**_RG, "followees": [["s1"]]}), id="nested_followee"),
    pytest.param(_compact({**_RG, "x": ["s3"]}), id="extra_list_key_last"),
    pytest.param(_compact({"x": 1, **_RG}), id="extra_key_first"),
    pytest.param(_compact({"kind": "regular", **_RG}), id="other_key_order"),
    pytest.param(_compact(_RG)[:-1] + ',"followees":["s3"]}', id="repeated_followees_key"),
    pytest.param(_compact({**_RG, "kind": "seed"}), id="seed_without_category"),
    pytest.param(_compact({**_RG, "category": "a"}), id="regular_with_category"),
    pytest.param(_compact({**_RG, "kind": "bot"}), id="unknown_kind"),
    pytest.param(json.dumps(_RG), id="default_spacing"),
    pytest.param(_compact(_RG) + "x", id="trailing_garbage"),
    pytest.param(_compact(_RG)[:-1], id="cut_before_brace"),
    pytest.param(_compact(_RG)[:-2], id="cut_before_bracket"),
    pytest.param(_compact(_RG)[:-1] + ',"x":' + _TOO_DEEP + "}", id="too_deep"),
]
# The named lines that take the compact path: an empty followee is a string
# like any other.
_COMPACT_NAMED = {
    "compact_seed", "compact_regular_with_a_repeat", "no_followees", "crlf",
    "trailing_whitespace", "empty_followee", "empty_middle_followee",
}


@pytest.mark.parametrize("line", _NAMED_USER_LINES)
def test_compact_and_json_user_paths_agree_on_named_lines(line):
    _assert_user_paths_agree(line)


def test_named_user_lines_take_the_path_their_shape_gives():
    taken = {p.id for p in _NAMED_USER_LINES if _takes_compact_path(p.values[0])}
    assert taken == _COMPACT_NAMED


def test_compact_user_line_with_a_read_id_is_named_as_a_repeat():
    line = _compact(_RG)
    _assert_user_paths_agree(line, (line,))
    users, diags = parse_users([line, line])
    assert users.ids == ["u9"]
    assert diags == [ParseDiagnostic(2, "duplicate user id 'u9'", "users")]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(record=_compact_user())
def test_written_user_lines_take_the_compact_path(record):
    """Every line _user_line writes takes the compact path and gives its
    followees as listed, repeats included; a change to the writer's format
    would put every written file back on the JSON path."""
    line = _user_line(record["id"], UserKind(record["kind"]), record.get("category"),
                      record["followees"])
    for text in (line, line + "\n"):
        m = _CANONICAL_USER.match(text)
        assert m is not None and m.groups() == (record["id"], record.get("category"))
        assert _compact_followees(text, m.end()) == record["followees"]


# Any text a record can hold, including the characters JSON escapes: not a
# lone surrogate, which a record refuses as its line does.
_odd_text = st.text(
    st.sampled_from([c for c in _ODD_CHARS if not LONE_SURROGATE.search(c)])
    | st.characters(exclude_categories=["Cs"]),
    max_size=8,
)
_timestamps = st.one_of(
    st.integers(0, 10**6),
    st.integers(10**18, 10**19 - 1),  # 19 digits, past the compact pattern
    st.integers(10**4999, 10**5000 - 1),  # past int's str-conversion limit
)


def _outcome(f, arg) -> str:
    """``f(arg)``, or the message of the ValueError it raises: a timestamp
    past int's str-conversion limit is one for json.dumps too."""
    try:
        return f(arg)
    except ValueError as e:
        return f"ValueError: {e}"


_odd_id = _odd_text.filter(bool)


@st.composite
def _any_tweet(draw) -> TweetRecord:
    """Any tweet a record can hold: ids are not empty, and only a retweet
    has a source and only a reply a target."""
    kind = draw(st.sampled_from(TweetKind))
    source = draw(_odd_id) if kind == TweetKind.RETWEET else None
    target = draw(_odd_id) if kind == TweetKind.REPLY else None
    return TweetRecord(draw(_odd_id), draw(_odd_id), kind, source, target, draw(_timestamps))


@st.composite
def _any_user(draw) -> UserRecord:
    kind = draw(st.sampled_from(UserKind))
    category = draw(_odd_id) if kind == UserKind.SEED else None
    followees = draw(st.frozensets(_odd_text, max_size=3))
    if draw(st.booleans()):
        # many ids, cheaply: one drawn stem, numbered
        stem = draw(_odd_text)
        followees |= {f"{stem}{i}" for i in range(draw(st.integers(100, 1000)))}
    return UserRecord(draw(_odd_id), kind, category, followees)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tweet=_any_tweet())
def test_tweet_line_is_json_dumps_of_the_record(tweet):
    obj: dict = {"id": tweet.id, "author_id": tweet.author_id, "kind": tweet.kind.value}
    if tweet.source_tweet_id is not None:
        obj["source_tweet_id"] = tweet.source_tweet_id
    if tweet.target_user_id is not None:
        obj["target_user_id"] = tweet.target_user_id
    obj["timestamp"] = tweet.timestamp
    assert _outcome(tweet_to_line, tweet) == _outcome(_compact, obj)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(user=_any_user())
def test_user_line_is_json_dumps_of_the_record(user):
    obj: dict = {"id": user.id, "kind": user.kind.value}
    if user.category is not None:
        obj["category"] = user.category
    obj["followees"] = sorted(user.followees)
    assert _outcome(user_to_line, user) == _outcome(_compact, obj)


@pytest.mark.parametrize("rows", [_WRITE_ROWS, 2 * _WRITE_ROWS + 1])
def test_write_dataset_writes_each_records_line(rows, tmp_path):
    """write_dataset writes the lines in chunks of _WRITE_ROWS; each
    written line is still tweet_to_line of its record, in table order, and
    user_to_line of each user, by id. Ids hold a quote, a backslash and
    non-ASCII text, every kind is there, a timestamp is above 2^63, and the
    rows fill one chunk or run into a third."""
    seeds = ['s"1', "s\\2", "sé3"]
    users = [
        seed(seeds[0], "a"), seed(seeds[1], "b", [seeds[0]]), seed(seeds[2], "a"),
        regular('u"ü\\', seeds), regular("u2", [seeds[2]]),
    ]
    authors = [u.id for u in users]
    tweets = [original('t"0', seeds[0], 2**63 + 1)]
    for i in range(1, rows):
        author = authors[i % len(authors)]
        ts = 2**63 + i if i < 4 else i  # one of each kind above 2^63
        if i % 3 == 0:
            tweets.append(original(f'o"{i}é', seeds[i % 2], ts))
        elif i % 3 == 1:
            tweets.append(retweet(f"r\\{i}", author, 't"0', ts))
        else:
            tweets.append(reply(f"p{i}ü", author, authors[(i + 1) % len(authors)], ts))
    ds = dataset(config({"a": "left", "b": "right"}, minorities=[seeds[1]]), users, tweets)
    assert len(ds.tweets) == rows  # nothing dangles

    paths = write_dataset(ds, tmp_path)
    assert paths["tweets"].read_bytes().decode("utf-8") == "".join(
        tweet_to_line(t) + "\n" for t in tweets
    )
    assert paths["users"].read_bytes().decode("utf-8") == "".join(
        user_to_line(u) + "\n" for u in sorted(users, key=lambda u: u.id)
    )


# -- a record is held to the rule of a line ---------------------------------
# Field values JSON can hold. A line holding a lone surrogate is invalid
# UTF-8 before any field is read, and a record refuses one in a string
# field with that message, so ids may hold one: a low surrogate, which
# never pairs with what precedes it.
_json_text = st.text(st.characters(exclude_categories=["Cs"]), max_size=3)
_json_scalars = [st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3), _json_text]
_json_values = st.one_of(*_json_scalars, st.lists(st.one_of(*_json_scalars), max_size=3))
_json_ids = st.text(
    st.characters(exclude_categories=["Cs"]) | st.just("\udcff"), min_size=1, max_size=3
)


def _kind_spellings(kinds) -> st.SearchStrategy:
    """Each kind, its value, its name, a near miss, or any JSON value."""
    spellings = [k for kind in kinds for k in (kind, kind.value, kind.name, kind.value + " ")]
    return st.sampled_from(spellings) | _json_values


@st.composite
def _fields(draw, plausible: dict, kinds) -> dict:
    """Fields of the right types, with up to two of them set to any value."""
    fields = dict(plausible)
    for name in draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)):
        fields[name] = draw(_kind_spellings(kinds) if name == "kind" else _json_values)
    return fields


# Kinds and references drawn apart, so that each kind rule is met and broken.
_json_refs = st.none() | _json_ids


@st.composite
def _tweet_fields(draw) -> dict:
    plausible = {
        "id": draw(_json_ids), "author_id": draw(_json_ids),
        "kind": draw(st.sampled_from([*TweetKind, *(k.value for k in TweetKind)])),
        "source_tweet_id": draw(_json_refs), "target_user_id": draw(_json_refs),
        "timestamp": draw(st.integers(-2, 10**6)),
    }
    return draw(_fields(plausible, TweetKind))


@st.composite
def _user_fields(draw) -> dict:
    plausible = {
        "id": draw(_json_ids),
        "kind": draw(st.sampled_from([*UserKind, *(k.value for k in UserKind)])),
        "category": draw(_json_refs), "followees": draw(st.lists(_json_ids, max_size=3)),
    }
    return draw(_fields(plausible, UserKind))


def _refusal(make, **fields) -> str | None:
    """The message of the ValueError ``make(**fields)`` raises, or None."""
    try:
        make(**fields)
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=500, deadline=None, derandomize=True)
@given(fields=_tweet_fields())
def test_tweet_record_refuses_what_its_line_refuses(fields):
    """A record refuses exactly the fields its line gets a diagnostic for,
    with the same message, and a reference the line may carry but its kind
    drops; each record that constructs round-trips through its line."""
    parsed, diags = parse_tweets([json.dumps(fields)], CodeMap())
    refusal = _refusal(TweetRecord, **fields)
    if diags:
        assert [refusal] == [d.message for d in diags]
        return
    kind = TweetKind(fields["kind"])
    owners = {"source_tweet_id": TweetKind.RETWEET, "target_user_id": TweetKind.REPLY}
    stray = [f for f, own in owners.items() if fields[f] is not None and kind != own]
    if stray:
        assert refusal == f"{kind.value} {fields['id']!r} must not carry {stray[0]}"
        return
    assert refusal is None
    record = TweetRecord(**fields)
    assert list(parsed.rows()) == [astuple(record)]
    reparsed, diags = parse_tweets([tweet_to_line(record)], CodeMap())
    assert list(reparsed.rows()) == [astuple(record)] and diags == []


@settings(max_examples=500, deadline=None, derandomize=True)
@given(fields=_user_fields())
def test_user_record_refuses_what_its_line_refuses(fields):
    """A record refuses exactly the fields its line gets a diagnostic for,
    with the same message; each record that constructs round-trips through
    its line. A line's follow list is a record's frozenset."""
    parsed, diags = parse_users([json.dumps(fields)])
    followees = fields["followees"]
    if isinstance(followees, list):
        followees = frozenset(followees)
    refusal = _refusal(UserRecord, **{**fields, "followees": followees})
    if diags:
        assert [refusal] == [d.message for d in diags]
        return
    assert refusal is None
    record = UserRecord(**{**fields, "followees": followees})
    # a table row holds the follow list sorted
    row = (record.id, record.kind, record.category, sorted(record.followees))
    assert list(parsed.rows()) == [row]
    reparsed, diags = parse_users([user_to_line(record)])
    assert list(reparsed.rows()) == [row] and diags == []


def test_parse_users_reports_a_repeated_id_before_the_seed_rule():
    """The duplicate-id check comes before the kind rules: a repeated seed
    line without a category is reported as the repeat."""
    users, diags = parse_users([USER_LINES[0], '{"id":"s1","kind":"seed","followees":[]}'])
    assert len(users) == 1
    assert [(d.line_no, d.message) for d in diags] == [(2, "duplicate user id 's1'")]


def test_load_dataset_counts_non_string_fields_as_malformed():
    cfg = config({"a": "left", "b": "right"})
    user_lines = USER_LINES + ['{"id":"s3","kind":"seed","category":["b"],"followees":[]}']
    tweet_lines = [
        '{"id":"o1","author_id":"s1","kind":"original"}',
        '{"id":"r1","author_id":"u1","kind":"retweet","source_tweet_id":{"id":"o1"}}',
        '{"id":"p1","author_id":"u1","kind":"reply","target_user_id":["s2"]}',
    ]
    ds, report, diags = load_dataset(cfg, user_lines, tweet_lines)
    assert len(diags) == 3
    assert report.users_read == 4 and report.tweets_read == 3
    assert "s3" not in ds.users.ids and ds.tweets.ids == ["o1"]
    # each reader names its own file, and load_dataset passes the users'
    # diagnostics and then the tweets' on as they are
    users, user_diags = parse_users(user_lines)
    _, tweet_diags = parse_tweets(tweet_lines, users.codes)
    assert user_diags == [ParseDiagnostic(4, "'category' must be a string", "users")]
    assert tweet_diags == [
        ParseDiagnostic(2, "'source_tweet_id' must be a string", "tweets"),
        ParseDiagnostic(3, "'target_user_id' must be a string", "tweets"),
    ]
    assert diags == user_diags + tweet_diags


@pytest.mark.parametrize(
    "minority", ['"s_green"', '["s_green", 3]', '{"s_green": true}', "null"]
)
def test_load_country_config_rejects_malformed_minority_ids(tmp_path, minority):
    path = tmp_path / "config.json"
    path.write_text(
        '{"name": "x", "categories": [{"id": "a", "wing": "left"}, '
        f'{{"id": "b", "wing": "right"}}], "minority_user_ids": {minority}}}'
    )
    with pytest.raises(ValueError, match="malformed country config"):
        load_country_config(path)


def test_load_country_config_minority_ids_default_empty(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"categories": [{"id": "a", "wing": "left"}, {"id": "b", "wing": "right"}]}')
    assert load_country_config(path).minority_user_ids == frozenset()


def test_parse_spam():
    assert parse_spam(["a", "", " b ", "a"]) == {"a", "b"}


def test_parse_spam_refuses_a_line_that_is_not_utf8():
    """Bytes that are not valid UTF-8, read with ``surrogateescape`` as the
    command line reads the list, become lone surrogates, which no user id
    can hold: the whole list is refused, naming the first such line. Other
    text is an id, ASCII or not."""
    lines = b"u_bob\n\xff\xfe\n\xed\xa0\x80\n".decode("utf-8", "surrogateescape")
    with pytest.raises(ValueError, match=r"^line 2: invalid UTF-8$"):
        parse_spam(lines.splitlines(keepends=True))
    with pytest.raises(ValueError, match=r"^line 3: invalid UTF-8$"):
        parse_spam(["a\n", "\n", " u\udcffx \n"])
    assert parse_spam(["\u00fcmit\n", " \u0130stanbul\n", "u_bob\n"]) == {
        "\u00fcmit", "\u0130stanbul", "u_bob",
    }


def _seed_originals(users, tweet_rows) -> dict[str, str]:
    """The originals among ``tweet_rows`` authored by a seed of the table
    ``users``: id -> author id."""
    seeds = set(_seed_ids(users))
    return {
        tid: author for tid, author, kind, *_ in tweet_rows
        if kind is TweetKind.ORIGINAL and author in seeds
    }


def _filter(users, tweets, **kwargs):
    """filter_active_regulars on the table of ``users`` and the resolved
    table of ``tweets``."""
    users, tweets, _ = tables(users, tweets)
    return filter_active_regulars(users, tweets, **kwargs)


def _activity(n_retweets: int):
    users = [seed("s1", "a"), regular("u1", ["s1"])]
    tweets = [original(f"o{i}", "s1", ts=i) for i in range(10)]
    tweets += [retweet(f"r{i}", "u1", f"o{i}", ts=20 + i) for i in range(n_retweets)]
    return users, tweets


def test_filter_keeps_regular_at_threshold():
    users, tweets = _activity(5)
    retained, spam, thr = _filter(users, tweets)
    assert set(retained.ids) == {"s1", "u1"} and (spam, thr) == (0, 0)


def test_filter_drops_regular_below_threshold():
    users, tweets = _activity(4)
    retained, spam, thr = _filter(users, tweets)
    assert set(retained.ids) == {"s1"} and thr == 1


def test_filter_counts_duplicate_retweets_once():
    users = [seed("s1", "a"), regular("u1", ["s1"])]
    tweets = [original("o1", "s1")] + [retweet(f"r{i}", "u1", "o1") for i in range(8)]
    retained, _, thr = _filter(users, tweets)
    assert set(retained.ids) == {"s1"} and thr == 1


def test_filter_spam_takes_precedence():
    users, tweets = _activity(10)
    retained, spam, thr = _filter(users, tweets, spam_ids={"u1"})
    assert set(retained.ids) == {"s1"} and (spam, thr) == (1, 0)


def test_filter_never_drops_seeds():
    users, tweets = _activity(0)
    retained, _, _ = _filter(users, tweets, spam_ids={"s1"})
    assert "s1" in retained.ids


def test_filter_requires_followed_seed():
    users = [seed("s1", "a"), regular("u1")]  # retweets but follows nobody
    tweets = [original(f"o{i}", "s1") for i in range(6)]
    tweets += [retweet(f"r{i}", "u1", f"o{i}") for i in range(6)]
    retained, _, thr = _filter(users, tweets)
    assert set(retained.ids) == {"s1"} and thr == 1


def test_build_drops_dangling_and_dedupes():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), regular("u1", ["s1"])]
    tweets = [
        original("o1", "s1", ts=1),
        original("o1", "s1", ts=2),  # duplicate id, second dropped silently
        retweet("r1", "u1", "o1", ts=3),
        retweet("r2", "u1", "missing", ts=4),  # dangling source
        retweet("r3", "ghost", "o1", ts=5),  # dangling author
    ]
    # load_dataset dedupes the ids; u1 has one seed retweet, so it passes
    # the filter at min_retweets=1
    ds, report, diags = load_dataset(
        cfg, [user_to_line(u) for u in users], [tweet_to_line(t) for t in tweets],
        min_retweets=1,
    )
    assert diags == []
    assert ds.tweets.ids == ["o1", "r1"]
    assert ds.tweets.timestamps[0] == 1
    assert report.tweets_dropped_dangling == 2
    assert report.tweets_read == 5
    # build_dataset itself drops the dangling source and author
    deduped = [tweets[0], *tweets[2:]]
    ds, dropped = build_dataset(cfg, *tables(users, deduped))
    assert ds.tweets.ids == ["o1", "r1"]
    assert dropped == 2


def test_build_drops_retweet_of_regular_original():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), regular("u1", ["s1"]), regular("u2", ["s1"])]
    tweets = [original("o1", "u1"), retweet("r1", "u2", "o1")]
    ds, dropped = build_dataset(cfg, *tables(users, tweets))
    # the regular's original is kept, but a retweet of it violates the
    # seed-original requirement and dangles
    assert ds.tweets.ids == ["o1"]
    assert dropped == 1


def test_build_clean_inputs_identity():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b")]
    tweets = [original("o1", "s1"), original("o2", "s2")]
    ds, dropped = build_dataset(cfg, *tables(users, tweets))
    assert len(ds.tweets) == 2 and dropped == 0
    loaded, report, _ = load_dataset(
        cfg, [user_to_line(u) for u in users], [tweet_to_line(t) for t in tweets]
    )
    assert loaded == ds
    assert report.users_read == 2 and report.tweets_read == 2


def test_tables_over_another_code_map_are_refused():
    """A code names a user only in its own map: tables built apart, even
    from the same records, are refused by the resolution and the build
    before anything is read. Resolving against a table listing the same
    users in another order would keep a retweet of a regular's original
    and drop one of a seed's."""
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"])]
    tweets = [original("o1", "s1"), retweet("r1", "u1", "o1"), original("o2", "u1")]
    table, resolved, first = tables(users, tweets)
    reordered = user_table(users[::-1])
    lines = [tweet_to_line(t) for t in tweets]
    with pytest.raises(ValueError, match="not over the user table's code map"):
        resolve_tweets(reordered, parse_tweets(lines, table.codes)[0])
    for other_users, other_tweets in (
        (reordered, resolved),
        (table, parse_tweets(lines, CodeMap())[0]),
    ):
        with pytest.raises(ValueError, match="not over the user table's code map"):
            build_dataset(cfg, other_users, other_tweets, first)
    assert build_dataset(cfg, table, resolved, first)[0].tweets.ids == ["o1", "r1", "o2"]


def test_build_fails_on_invalid_config():
    cfg = config({"a": "left"})  # n < 2
    with pytest.raises(IngestError) as exc:
        build_dataset(cfg, *tables([seed("s1", "a")], []))
    assert any("n < 2" in v for v in exc.value.violations)


def test_load_dataset_is_deterministic():
    cfg = config({"a": "left", "b": "right"})
    user_lines = USER_LINES + ['{"id":"u2","kind":"regular","followees":["s2"]}', "{broken"]
    tweet_lines = [
        json.dumps({"id": f"o{i}", "author_id": "s1", "kind": "original", "timestamp": i})
        for i in range(6)
    ] + [
        json.dumps(
            {"id": f"r{i}", "author_id": "u1", "kind": "retweet",
             "source_tweet_id": f"o{i}", "timestamp": 10 + i}
        )
        for i in range(6)
    ]
    first = load_dataset(cfg, user_lines, tweet_lines)
    second = load_dataset(cfg, user_lines, tweet_lines)
    assert first[0] == second[0] and first[1] == second[1] and first[2] == second[2]


def test_load_dataset_reads_one_pass_iterators():
    """Lines given as generators, each read once, load exactly as lists do:
    the same dataset, report and diagnostics, noise included."""
    cfg = config({"a": "left", "b": "right"})
    user_lines = USER_LINES + ["", "{broken", '{"id":"u2","kind":"regular","followees":["s2"]}']
    tweet_lines = [
        json.dumps({"id": f"o{i}", "author_id": "s1", "kind": "original", "timestamp": i})
        for i in range(6)
    ] + [
        json.dumps({"id": f"r{i}", "author_id": "u1", "kind": "retweet",
                    "source_tweet_id": f"o{i}", "timestamp": 10 + i})
        for i in range(6)
    ] + [
        '{"id":"o0","author_id":"s2","kind":"original"}',  # re-used id: dropped
        '{"id":"p1","author_id":"u1","kind":"reply","target_user_id":"s2"}',
        '{"id":"p2","author_id":"u1","kind":"reply"}',  # malformed
        "\n",
        '{"id":"x1","author_id":"ghost","kind":"original"}',  # dangling
    ]
    from_lists = load_dataset(cfg, user_lines, tweet_lines)
    from_iterators = load_dataset(
        cfg, (line for line in user_lines), (line + "\n" for line in tweet_lines)
    )
    assert from_iterators == from_lists
    ds, report, diags = from_iterators
    assert len(ds.tweets) == 13 and len(diags) == 2
    assert report.tweets_read == 16 and report.tweets_dropped_dangling == 1


@pytest.mark.parametrize("rng_seed", range(6))
def test_user_accounting_identity(rng_seed):
    """users_read == retained + dropped_spam + dropped_threshold + malformed."""
    rng = random.Random(rng_seed)
    cfg = config({"a": "left", "b": "right"})
    user_lines = [
        '{"id":"s1","kind":"seed","category":"a","followees":[]}',
        '{"id":"s2","kind":"seed","category":"b","followees":[]}',
    ]
    tweet_lines = [
        json.dumps({"id": f"o{i}", "author_id": rng.choice(["s1", "s2"]),
                    "kind": "original", "timestamp": i})
        for i in range(8)
    ]
    spam = set()
    for i in range(rng.randint(0, 12)):
        uid = f"u{i}"
        roll = rng.random()
        if roll < 0.2:
            user_lines.append(f'{{"id":"{uid}","kind":"bogus"}}')  # malformed
            continue
        user_lines.append(
            json.dumps({"id": uid, "kind": "regular", "followees": ["s1"]})
        )
        if roll < 0.4:
            spam.add(uid)
        n_retweets = rng.randint(0, 8)
        for k in range(n_retweets):
            tweet_lines.append(
                json.dumps({"id": f"r{uid}_{k}", "author_id": uid, "kind": "retweet",
                            "source_tweet_id": f"o{k}", "timestamp": 100 + k})
            )
    ds, report, diags = load_dataset(cfg, user_lines, tweet_lines, spam_ids=spam)
    malformed_users = sum(1 for d in diags if d.message == "missing or invalid 'kind'")
    assert report.users_read == (
        len(ds.users) + report.users_dropped_spam
        + report.users_dropped_threshold + malformed_users
    )
    assert report.users_read >= report.users_dropped_spam + report.users_dropped_threshold


# -- tweet ids are deduplicated once, before the activity filter -------------

def _load_records(users: list[dict], tweets: list[dict], min_retweets: int = 5):
    cfg = config({"a": "left", "b": "right"})
    return load_dataset(
        cfg, [json.dumps(u) for u in users], [json.dumps(t) for t in tweets],
        min_retweets=min_retweets,
    )


_DEDUPE_USERS = [
    {"id": "s1", "kind": "seed", "category": "a"},
    {"id": "u1", "kind": "regular", "followees": ["s1"]},
    {"id": "u2", "kind": "regular", "followees": ["s1"]},
]


def _orig(tid: str, author: str) -> dict:
    return {"id": tid, "author_id": author, "kind": "original"}


def _rt(tid: str, author: str, source: str) -> dict:
    return {"id": tid, "author_id": author, "kind": "retweet", "source_tweet_id": source}


@pytest.mark.parametrize("first_author", ["s1", "u2"])
def test_load_dataset_reused_original_id_first_occurrence_wins(first_author):
    """An original id re-used by another author resolves to its first line.

    u1 retweets o1..o5. Only if the first "o1" is the seed's does u1 hold
    five seed-original retweets, in the filter as in the built dataset.
    """
    other = "u2" if first_author == "s1" else "s1"
    tweets = [_orig("o1", first_author)] + [_orig(f"o{i}", "s1") for i in range(2, 6)]
    tweets += [_rt(f"r{i}", "u1", f"o{i}") for i in range(1, 6)]
    tweets.append(_orig("o1", other))
    ds, report, diags = _load_records(_DEDUPE_USERS, tweets)
    assert diags == []
    u1_retweets = [tid for tid, author, *_ in ds.tweets.rows() if author == "u1"]
    if first_author == "s1":
        assert "u1" in ds.users.ids and len(u1_retweets) == 5
        assert report.users_dropped_threshold == 1  # u2 only
    else:
        assert "u1" not in ds.users.ids and u1_retweets == []
        assert report.users_dropped_threshold == 2


def test_load_dataset_reused_retweet_id_counts_first_source_only():
    """A retweet id re-used with another source is one retweet, the first.

    u1's five retweet lines name five seed originals, but "r1" comes twice,
    so the dataset holds four distinct sources and u1 is under threshold.
    """
    tweets = [_orig(f"o{i}", "s1") for i in range(1, 6)]
    tweets += [_rt(f"r{i}", "u1", f"o{i}") for i in range(1, 5)]
    tweets.append(_rt("r1", "u1", "o5"))
    ds, report, _ = _load_records(_DEDUPE_USERS, tweets)
    assert "u1" not in ds.users.ids
    assert report.users_dropped_threshold == 2
    assert report.tweets_read == 10
    assert report.tweets_dropped_dangling == 4  # u1's kept retweets
    assert ds.tweets.ids == [f"o{i}" for i in range(1, 6)]


# -- the first row of each id, at each stage ---------------------------------

def test_filter_counts_no_later_row_of_a_retweet_id():
    """A later row reusing a retweet's id names another seed original; the
    filter reads first rows only, so u1 stays at 4 distinct originals."""
    users = [seed("s1", "a"), regular("u1", ["s1"])]
    tweets = [original(f"o{i}", "s1") for i in range(1, 6)]
    tweets += [retweet(f"r{i}", "u1", f"o{i}") for i in range(1, 5)]
    tweets.append(retweet("r1", "u1", "o5"))
    retained, _, thr = _filter(users, tweets)
    assert retained.ids == ["s1"] and thr == 1
    # without the later row's source, a fifth retweet lifts u1 over
    retained, _, thr = _filter(users, tweets[:-1] + [retweet("r5", "u1", "o5")])
    assert retained.ids == ["s1", "u1"] and thr == 0


@pytest.mark.parametrize("first_author, later_author, resolved", [
    ("s1", "s2", "s1"),  # a seed's original, reused by another seed
    ("u2", "s1", None),  # a regular's original, reused by a seed
])
def test_resolution_reads_the_first_original_of_an_id(first_author, later_author, resolved):
    """A later original reusing an original's id under another author does
    not change whom that id's retweets resolve to, wherever they stand."""
    users = user_table([seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"]), regular("u2")])
    tweets = [
        retweet("r0", "u1", "o1"),
        original("o1", first_author),
        retweet("r1", "u1", "o1"),
        original("o1", later_author),
        retweet("r2", "u1", "o1"),
    ]
    table = parse_tweets(map(tweet_to_line, tweets), users.codes)[0]
    first = resolve_tweets(users, table)
    assert first == bytes([1, 1, 1, 0, 1])
    target = -1 if resolved is None else users.codes[resolved]
    assert [table.targets[row] for row in (0, 2, 4)] == [target] * 3


def test_build_keeps_and_counts_no_later_row_of_a_kept_id():
    """Later rows of a kept id, verbatim or with another author, kind or
    target, are neither kept nor counted as dangling, even where the later
    row itself would dangle."""
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"])]
    tweets = [
        original("o1", "s1", ts=1),
        retweet("r1", "u1", "o1", ts=2),
        reply("p1", "u1", "s2", ts=3),
        original("o1", "s1", ts=1),  # verbatim
        original("o1", "ghost", ts=4),  # dangling author
        retweet("r1", "u1", "missing", ts=5),  # dangling source
        reply("p1", "u1", "ghost", ts=6),  # dangling target
        retweet("p1", "s2", "o1", ts=7),  # another kind
    ]
    ds, dropped = build_dataset(cfg, *tables(users, tweets))
    assert ds.tweets.ids == ["o1", "r1", "p1"]
    assert ds.tweets.timestamps == [1, 2, 3]
    assert dropped == 0


# -- property: ingest accounting over noisy input ----------------------------

_REGULARS = ["u1", "u2", "u3", "u4"]
_TWEET_IDS = [f"t{i}" for i in range(16)]
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]
_HOW = ["valid"] * 5 + [
    "truncated", "wrong_type", "non_object", "blank", "bad_utf8", "too_deep", "too_long",
]

# A small valid crawl that every example shuffles its noise into, so that
# some regulars clear the threshold unless the noise takes their tweets.
_SEED_LINES = [
    '{"id":"s1","kind":"seed","category":"a","followees":[]}',
    '{"id":"s2","kind":"seed","category":"b","followees":[]}',
]
_BASE_USER_LINES = ['{"id":"u1","kind":"regular","followees":["s1"]}']
_BASE_TWEET_LINES = [
    json.dumps(r) for r in (
        _orig("t0", "s1"), _orig("t1", "s2"), _rt("t10", "u1", "t0"), _rt("t11", "u1", "t1")
    )
]


@st.composite
def _user_record(draw) -> dict:
    uid = draw(st.sampled_from(["s3"] + _REGULARS))
    if uid == "s3":
        # "c" is not a configured category: config validation must fail.
        return {"id": uid, "kind": "seed", "category": draw(st.sampled_from("abbbc"))}
    followees = draw(st.lists(st.sampled_from(["s1", "s2"]), unique=True))
    return {"id": uid, "kind": "regular", "followees": followees}


@st.composite
def _tweet_record(draw) -> dict:
    # Originals take the low ids and the rest the high ones, overlapping in
    # t2..t3, so that ids are re-used within and across kinds.
    kind = draw(st.sampled_from(["original", "retweet", "retweet", "reply"]))
    if kind == "original":
        tid = draw(st.sampled_from(_TWEET_IDS[:4]))
        author = draw(st.sampled_from(["s1", "s2", "s3", "u1", "ghost"]))
    else:
        tid = draw(st.sampled_from(_TWEET_IDS[2:]))
        author = draw(st.sampled_from(_REGULARS + ["s1", "ghost"]))
    record = {"id": tid, "author_id": author, "kind": kind,
              "timestamp": draw(st.integers(0, 99))}
    if kind == "retweet":
        record["source_tweet_id"] = draw(st.sampled_from(_TWEET_IDS[:4]))
    if kind == "reply":
        record["target_user_id"] = draw(st.sampled_from(["s1", "s2", "ghost"] + _REGULARS))
    return record


@st.composite
def _noisy_line(draw, records) -> tuple[str, str]:
    """One input line and how it was made from a valid record."""
    record = draw(records)
    line = json.dumps(record)
    how = draw(st.sampled_from(_HOW))
    if how == "truncated":
        line = line[: draw(st.integers(0, len(line) - 1))]
    elif how == "wrong_type":
        key = draw(st.sampled_from(sorted(record)))
        record[key] = draw(st.sampled_from([None, 7, True, ["x"], {"k": 1}]))
        line = json.dumps(record)
    elif how == "non_object":
        line = json.dumps(draw(st.sampled_from([[], 3, "x", None, [record]])))
    elif how == "blank":
        line = draw(st.sampled_from(["", "   ", "\t"]))
    elif how == "too_deep":
        line = _TOO_DEEP
    elif how == "too_long":
        line = line[:-1] + ', "n": ' + "1" * 5000 + "}"
    elif how == "bad_utf8":
        raw = line.encode("utf-8")
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + draw(st.sampled_from(_BAD_BYTES)) + raw[cut:]
        line = raw.decode("utf-8", errors="surrogateescape")
    return line, how


@st.composite
def _input_file(draw, records, base: list[str], max_noisy: int) -> list[tuple[str, str]]:
    lines = draw(st.lists(_noisy_line(records), max_size=max_noisy))
    lines += [(line, "valid") for line in base]
    return [(line + "\n", how) for line, how in draw(st.permutations(lines))]


@settings(
    max_examples=120, deadline=None, derandomize=True, phases=UNSHRUNK,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    users=_input_file(_user_record(), _BASE_USER_LINES, 8),
    tweets=_input_file(_tweet_record(), _BASE_TWEET_LINES, 25),
    spam=st.sets(st.sampled_from(_REGULARS), max_size=1),
)
def test_ingest_accounting_holds_on_noisy_lines(users, tweets, spam):
    cfg = config({"a": "left", "b": "right"})
    user_lines = [line + "\n" for line in _SEED_LINES] + [line for line, _ in users]
    tweet_lines = [line for line, _ in tweets]
    try:
        ds, report, diags = load_dataset(cfg, user_lines, tweet_lines, spam, min_retweets=2)
    except IngestError:
        return

    parsed_users, user_diags = parse_users(user_lines)
    parsed_tweets, tweet_diags = parse_tweets(tweet_lines, parsed_users.codes)
    assert len(diags) == len(user_diags) + len(tweet_diags)
    for message, how in (
        ("invalid UTF-8", "bad_utf8"),
        ("invalid JSON: nested too deeply", "too_deep"),
        ("invalid JSON: integer too long", "too_long"),
    ):
        made = sum(1 for _, made_how in users + tweets if made_how == how)
        assert sum(1 for d in diags if d.message == message) == made, message

    assert report.users_read == (
        len(ds.users) + report.users_dropped_spam + report.users_dropped_threshold
        + len(user_diags)
    )
    # every row after the first of its id is a duplicate, and nothing is
    # left over: kept + dangling + duplicate + malformed
    duplicates = len(parsed_tweets) - len(set(parsed_tweets.ids))
    assert report.tweets_dropped_duplicate == duplicates
    assert report.tweets_read == (
        len(ds.tweets) + report.tweets_dropped_dangling + report.tweets_dropped_duplicate
        + len(tweet_diags)
    )

    # The kept tweets, from the definition: the first line of each id whose
    # author is retained, whose retweet source is an original authored by a
    # seed, and whose reply target is retained.
    first = {}  # id -> first parsed row, in input order
    for row in parsed_tweets.rows():
        first.setdefault(row[0], row)
    by_seed = _seed_originals(parsed_users, first.values())
    retained = set(ds.users.ids)
    assert ds.tweets.ids == [
        tid for tid, author, kind, source, reply_to, _ in first.values()
        if author in retained
        and (kind is not TweetKind.RETWEET or source in by_seed)
        and (kind is not TweetKind.REPLY or reply_to in retained)
    ]

    # The one target column: a kept retweet points at the seed that wrote
    # its source, a kept reply at its retained target, an original at none.
    names = ds.tweets.codes.names
    for (_, _, kind, source, reply_to, _), target in zip(
        ds.tweets.rows(), ds.tweets.targets, strict=True
    ):
        if kind is TweetKind.RETWEET:
            assert names[target] == by_seed[source]
        elif kind is TweetKind.REPLY:
            assert names[target] == reply_to and reply_to in retained
        else:
            assert target == -1

    # The filter saw the tweets the dataset holds: every retained regular
    # clears the threshold on the built dataset itself.
    seed_originals = _seed_originals(ds.users, ds.tweets.rows())
    for uid, kind, _, _ in ds.users.rows():
        if kind is UserKind.REGULAR:
            sources = {
                source for _, author, _, source, _, _ in ds.tweets.rows()
                if author == uid and source in seed_originals
            }
            assert len(sources) >= 2, uid
