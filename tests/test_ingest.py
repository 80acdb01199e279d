"""Ingest pipeline tests: parsing, filtering, assembly, accounting."""

import json
import random

import pytest

from helpers import config, original, regular, retweet, seed
from viewdiv import (
    IngestError,
    build_dataset,
    filter_active_regulars,
    load_country_config,
    load_dataset,
    parse_spam,
    parse_tweets,
    parse_users,
)

USER_LINES = [
    '{"id":"s1","kind":"seed","category":"a","followees":[]}',
    '{"id":"s2","kind":"seed","category":"b","followees":[]}',
    '{"id":"u1","kind":"regular","followees":["s1"]}',
]


def test_parse_users_wellformed():
    users, diags = parse_users(USER_LINES)
    assert len(users) == 3 and diags == []
    assert users[2].followees == frozenset({"s1"})


def test_parse_users_missing_kind_is_diagnosed():
    lines = [USER_LINES[0], '{"id":"u9","followees":[]}', USER_LINES[2]]
    users, diags = parse_users(lines)
    assert len(users) == 2
    assert len(diags) == 1 and diags[0].line_no == 2
    assert "kind" in diags[0].message


def test_parse_users_empty_stream():
    assert parse_users([]) == ([], [])


def test_parse_users_duplicate_id_keeps_first():
    lines = [
        '{"id":"u1","kind":"regular","followees":["s1"]}',
        '{"id":"u1","kind":"regular","followees":[]}',
    ]
    users, diags = parse_users(lines)
    assert len(users) == 1 and users[0].followees == frozenset({"s1"})
    assert len(diags) == 1 and "duplicate" in diags[0].message


def test_parse_users_ignores_unknown_keys_and_blank_lines():
    lines = ['{"id":"s1","kind":"seed","category":"a","followees":[],"extra":1}', "", "  "]
    users, diags = parse_users(lines)
    assert len(users) == 1 and diags == []


def test_parse_users_invalid_json():
    users, diags = parse_users(["{nope"])
    assert users == [] and len(diags) == 1 and "invalid JSON" in diags[0].message


def test_parse_tweets_retweet_requires_source():
    ok, diags = parse_tweets(
        ['{"id":"t1","author_id":"u1","kind":"retweet","source_tweet_id":"t0","timestamp":1}']
    )
    assert len(ok) == 1 and diags == []
    bad, diags = parse_tweets(['{"id":"t1","author_id":"u1","kind":"retweet","timestamp":1}'])
    assert bad == [] and len(diags) == 1


def test_parse_tweets_reply_requires_target():
    ok, diags = parse_tweets(
        ['{"id":"t1","author_id":"u1","kind":"reply","target_user_id":"s1","timestamp":1}']
    )
    assert len(ok) == 1 and diags == []


@pytest.mark.parametrize("field", ["source_tweet_id", "target_user_id"])
@pytest.mark.parametrize("value", [["s1"], 7, {"id": "s1"}, True])
def test_parse_tweets_non_string_reference_is_diagnosed(field, value):
    kind = "retweet" if field == "source_tweet_id" else "reply"
    line = json.dumps({"id": "t1", "author_id": "u1", "kind": kind, field: value})
    ok_line = json.dumps({"id": "t2", "author_id": "u1", "kind": kind, field: "x"})
    tweets, diags = parse_tweets([ok_line, line])
    assert [t.id for t in tweets] == ["t2"]
    assert len(diags) == 1 and diags[0].line_no == 2
    assert diags[0].message == f"'{field}' must be a string"


def test_parse_tweets_non_string_reference_on_original_is_diagnosed():
    line = '{"id":"t1","author_id":"s1","kind":"original","target_user_id":["s2"]}'
    tweets, diags = parse_tweets([line])
    assert tweets == [] and len(diags) == 1


@pytest.mark.parametrize("value", [["a"], 3, {"a": 1}])
def test_parse_users_non_string_category_is_diagnosed(value):
    line = json.dumps({"id": "s9", "kind": "seed", "category": value, "followees": []})
    users, diags = parse_users([USER_LINES[0], line])
    assert [u.id for u in users] == ["s1"]
    assert len(diags) == 1 and diags[0].line_no == 2
    assert diags[0].message == "'category' must be a string"


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
    assert "s3" not in ds.users and [t.id for t in ds.tweets] == ["o1"]


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


def _activity(n_retweets: int):
    users = [seed("s1", "a"), regular("u1", ["s1"])]
    tweets = [original(f"o{i}", "s1", ts=i) for i in range(10)]
    tweets += [retweet(f"r{i}", "u1", f"o{i}", ts=20 + i) for i in range(n_retweets)]
    return users, tweets


def test_filter_keeps_regular_at_threshold():
    users, tweets = _activity(5)
    retained, spam, thr = filter_active_regulars(users, tweets)
    assert {u.id for u in retained} == {"s1", "u1"} and (spam, thr) == (0, 0)


def test_filter_drops_regular_below_threshold():
    users, tweets = _activity(4)
    retained, spam, thr = filter_active_regulars(users, tweets)
    assert {u.id for u in retained} == {"s1"} and thr == 1


def test_filter_counts_duplicate_retweets_once():
    users = [seed("s1", "a"), regular("u1", ["s1"])]
    tweets = [original("o1", "s1")] + [retweet(f"r{i}", "u1", "o1") for i in range(8)]
    retained, _, thr = filter_active_regulars(users, tweets)
    assert {u.id for u in retained} == {"s1"} and thr == 1


def test_filter_spam_takes_precedence():
    users, tweets = _activity(10)
    retained, spam, thr = filter_active_regulars(users, tweets, spam_ids={"u1"})
    assert {u.id for u in retained} == {"s1"} and (spam, thr) == (1, 0)


def test_filter_never_drops_seeds():
    users, tweets = _activity(0)
    retained, _, _ = filter_active_regulars(users, tweets, spam_ids={"s1"})
    assert any(u.id == "s1" for u in retained)


def test_filter_requires_followed_seed():
    users = [seed("s1", "a"), regular("u1")]  # retweets but follows nobody
    tweets = [original(f"o{i}", "s1") for i in range(6)]
    tweets += [retweet(f"r{i}", "u1", f"o{i}") for i in range(6)]
    retained, _, thr = filter_active_regulars(users, tweets)
    assert {u.id for u in retained} == {"s1"} and thr == 1


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
    ds, report = build_dataset(cfg, users, tweets)
    assert [t.id for t in ds.tweets] == ["o1", "r1"]
    assert ds.tweet("o1").timestamp == 1
    assert report.tweets_dropped_dangling == 2
    assert report.tweets_read == 5


def test_build_drops_retweet_of_regular_original():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), regular("u1", ["s1"]), regular("u2", ["s1"])]
    tweets = [original("o1", "u1"), retweet("r1", "u2", "o1")]
    ds, report = build_dataset(cfg, users, tweets)
    # the regular's original is kept, but a retweet of it violates the
    # seed-original requirement and dangles
    assert [t.id for t in ds.tweets] == ["o1"]
    assert report.tweets_dropped_dangling == 1


def test_build_clean_inputs_identity():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b")]
    tweets = [original("o1", "s1"), original("o2", "s2")]
    ds, report = build_dataset(cfg, users, tweets)
    assert len(ds.tweets) == 2 and report.tweets_dropped_dangling == 0
    assert report.users_read == 2 and report.tweets_read == 2


def test_build_fails_on_invalid_config():
    cfg = config({"a": "left"})  # n < 2
    with pytest.raises(IngestError) as exc:
        build_dataset(cfg, [seed("s1", "a")], [])
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
