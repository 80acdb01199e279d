"""Ingest pipeline tests: parsing, filtering, assembly, accounting."""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import config, original, regular, retweet, seed
from viewdiv import (
    IngestError,
    TweetKind,
    UserKind,
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
    u1_retweets = [t.id for t in ds.tweets if t.author_id == "u1"]
    if first_author == "s1":
        assert "u1" in ds.users and len(u1_retweets) == 5
        assert report.users_dropped_threshold == 1  # u2 only
    else:
        assert "u1" not in ds.users and u1_retweets == []
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
    assert "u1" not in ds.users
    assert report.users_dropped_threshold == 2
    assert report.tweets_read == 10
    assert report.tweets_dropped_dangling == 4  # u1's kept retweets
    assert [t.id for t in ds.tweets] == [f"o{i}" for i in range(1, 6)]


# -- property: ingest accounting over noisy input ----------------------------

_REGULARS = ["u1", "u2", "u3", "u4"]
_TWEET_IDS = [f"t{i}" for i in range(16)]
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]
_HOW = ["valid"] * 5 + ["truncated", "wrong_type", "non_object", "blank", "bad_utf8"]

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
    max_examples=120, deadline=None, derandomize=True,
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

    _, user_diags = parse_users(user_lines)
    parsed_tweets, tweet_diags = parse_tweets(tweet_lines)
    assert len(diags) == len(user_diags) + len(tweet_diags)
    invalid_utf8 = sum(1 for d in diags if d.message == "invalid UTF-8")
    assert invalid_utf8 == sum(1 for _, how in users + tweets if how == "bad_utf8")

    assert report.users_read == (
        len(ds.users) + report.users_dropped_spam + report.users_dropped_threshold
        + len(user_diags)
    )
    duplicates = len(parsed_tweets) - len({t.id for t in parsed_tweets})
    assert report.tweets_read == (
        len(ds.tweets) + report.tweets_dropped_dangling + len(tweet_diags) + duplicates
    )

    # The filter saw the tweets the dataset holds: every retained regular
    # clears the threshold on the built dataset itself.
    seed_originals = {
        t.id for t in ds.tweets
        if t.kind is TweetKind.ORIGINAL and ds.users[t.author_id].kind is UserKind.SEED
    }
    for u in ds.users.values():
        if u.kind is UserKind.REGULAR:
            sources = {
                t.source_tweet_id for t in ds.tweets
                if t.author_id == u.id and t.source_tweet_id in seed_originals
            }
            assert len(sources) >= 2, u.id
