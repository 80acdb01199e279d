"""Domain model and config validation tests."""

import dataclasses
import json
from pathlib import Path

import pytest

from helpers import config, regular, seed, user_table, user_to_line
from viewdiv import (
    CountryConfig,
    Dataset,
    IngestReport,
    MetricDistribution,
    ParseDiagnostic,
    PoliticalCategory,
    TTestResult,
    TweetKind,
    TweetTable,
    UserKind,
    UserTable,
    Wing,
    load_country_config,
    load_dataset,
    parse_tweets,
    parse_users,
    validate_config,
)
from viewdiv.cli import RunConfig
from viewdiv.ingest import filter_active_regulars
from viewdiv.model import CodeMap
from viewdiv.oracle import TweetRecord, UserRecord

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _users(*records) -> UserTable:
    return user_table(records)


def test_validate_wellformed_config_passes():
    cfg = config(
        {"a": "left", "b": "left", "c": "right", "d": "right", "e": "unaligned"},
        minorities=["s1"],
    )
    users = _users(seed("s1", "a"), regular("u1", ["s1"]))
    assert validate_config(cfg, users) == []


def test_validate_rejects_single_category():
    cfg = config({"only": "left"})
    violations = validate_config(cfg, _users())
    assert any("n < 2" in v for v in violations)


def test_validate_rejects_regular_minority():
    cfg = config({"a": "left", "b": "right"}, minorities=["u1"])
    users = _users(regular("u1"))
    violations = validate_config(cfg, users)
    assert any("must be a seed" in v for v in violations)


def test_validate_rejects_unresolved_minority():
    cfg = config({"a": "left", "b": "right"}, minorities=["ghost"])
    violations = validate_config(cfg, _users())
    assert any("ghost" in v for v in violations)


def test_validate_rejects_duplicate_category_ids():
    from viewdiv import CountryConfig, PoliticalCategory

    cfg = CountryConfig(
        name="dup",
        categories=(
            PoliticalCategory("a", Wing.LEFT),
            PoliticalCategory("a", Wing.RIGHT),
        ),
    )
    assert any("duplicate category id" in v for v in validate_config(cfg, _users()))


def test_validate_rejects_an_empty_category_id():
    from viewdiv import CountryConfig, PoliticalCategory

    cfg = CountryConfig(
        name="empty",
        categories=(PoliticalCategory("", Wing.LEFT), PoliticalCategory("b", Wing.RIGHT)),
    )
    assert "empty category id" in validate_config(cfg, _users())


def test_validate_accepts_followees_that_name_no_seed():
    """A follow list may name anyone: validate_config reads no follow list,
    and load_dataset counts the retained users' entries that name no seed.
    Once the filter drops a regular, its own list is not counted, and a
    follower of it follows an unknown id."""
    cfg = config({"a": "left", "b": "right"})
    records = [seed("s1", "a"), regular("u1", ["nobody"]), regular("u2", ["u1"])]
    users = _users(*records)
    assert validate_config(cfg, users) == []
    users.follows = None  # a table without follow lists validates the same
    assert validate_config(cfg, users) == []
    # u1 and u2 follow no seed, so the filter drops both
    _, report, _ = load_dataset(cfg, map(user_to_line, records), [], min_retweets=0)
    assert (report.users_dropped_threshold, report.followees_ignored) == (2, 0)

    # min_retweets=0 keeps exactly the regulars that follow a seed: u3
    records = [
        seed("s1", "a", ["zed"]), regular("u1", ["nobody"]), regular("u3", ["u1", "s1", "zed"]),
    ]
    users = _users(*records)
    retained, _, dropped = filter_active_regulars(users, TweetTable(users.codes), min_retweets=0)
    assert retained.ids == ["s1", "u3"] and dropped == 1
    assert validate_config(cfg, retained) == []
    ds, report, diags = load_dataset(cfg, map(user_to_line, records), [], min_retweets=0)
    assert diags == [] and ds.users.ids == ["s1", "u3"]
    # s1's "zed", u3's "u1" and "zed"; u1's "nobody" is not counted
    assert report.followees_ignored == 3


def test_followees_ignored_counts_entries_as_read():
    """Each entry of a retained list that names no seed counts, repeats
    included, in any order; a seed's own id in its list names a seed."""
    cfg = config({"a": "left", "b": "right"})
    lines = [
        '{"id":"s1","kind":"seed","category":"a","followees":["s1","u1"]}',
        '{"id":"u1","kind":"regular","followees":["s1"]}',
        '{"id":"u2","kind":"regular","followees":["zed","s1","u1","zed","u2"]}',
    ]
    users, diags = parse_users(lines)
    assert diags == [] and validate_config(cfg, users) == []
    shuffled = lines[:2] + [
        '{"id":"u2","kind":"regular","followees":["u2","zed","u1","zed","s1","s1"]}'
    ]
    for user_lines in (lines, shuffled, shuffled[::-1]):
        _, report, _ = load_dataset(cfg, user_lines, [], min_retweets=0)
        assert report.followees_ignored == 5, user_lines


def test_validate_rejects_seed_with_unknown_category():
    cfg = config({"a": "left", "b": "right"})
    violations = validate_config(cfg, _users(seed("s1", "zz")))
    assert any("unknown category 'zz'" in v for v in violations)


def test_validation_is_idempotent():
    cfg = config({"a": "left", "b": "right"}, minorities=["u1"])
    users = _users(regular("u1", ["nope"]))
    first = validate_config(cfg, users)
    assert first == validate_config(cfg, users)


def test_user_record_invariants():
    with pytest.raises(ValueError):
        UserRecord("s1", UserKind.SEED)  # seed needs a category
    with pytest.raises(ValueError):
        UserRecord("u1", UserKind.REGULAR, category="a")


def test_user_record_holds_its_followees_as_a_frozenset():
    """A line's follow list becomes a record's frozenset. A record given a
    list would neither hash nor equal its parsed line, so it refuses one."""
    with pytest.raises(ValueError, match="^a record's 'followees' must be a frozenset of ids$"):
        UserRecord("u1", UserKind.REGULAR, followees=["s1", "s1"])
    record = UserRecord("u1", UserKind.REGULAR, followees=frozenset({"s1"}))
    assert hash(record) == hash(UserRecord("u1", UserKind.REGULAR, followees=frozenset(["s1"])))
    line = '{"id":"u1","kind":"regular","followees":["s1","s1"]}'
    for text in (line, user_to_line(record)):
        users, diags = parse_users([text])
        [(uid, kind, category, followees)] = users.rows()
        assert UserRecord(uid, kind, category, frozenset(followees)) == record and diags == []


def test_tweet_record_invariants():
    with pytest.raises(ValueError):
        TweetRecord("t1", "a", TweetKind.RETWEET)  # no source
    with pytest.raises(ValueError):
        TweetRecord("t1", "a", TweetKind.REPLY)  # no target
    with pytest.raises(ValueError):
        TweetRecord("t1", "a", TweetKind.ORIGINAL, timestamp=-1)


@pytest.mark.parametrize("kind, references, stray", [
    (TweetKind.ORIGINAL, {"source_tweet_id": "o1"}, "source_tweet_id"),
    (TweetKind.ORIGINAL, {"target_user_id": "s1"}, "target_user_id"),
    (TweetKind.RETWEET, {"source_tweet_id": "o1", "target_user_id": "s1"}, "target_user_id"),
    (TweetKind.REPLY, {"source_tweet_id": "o1", "target_user_id": "s1"}, "source_tweet_id"),
])
def test_tweet_record_refuses_a_reference_its_kind_drops(kind, references, stray):
    """A line may carry it, but its table row drops it, so a record holding
    it could not round-trip."""
    with pytest.raises(ValueError, match=f"^{kind.value} 't1' must not carry {stray}$"):
        TweetRecord("t1", "a", kind, **references)


_LONE_SURROGATE_FIELDS = {
    "user_id_and_followee": (UserRecord, {
        "id": "u\udc80", "kind": UserKind.REGULAR, "followees": frozenset({"s\ud800"}),
    }),
    "user_category": (UserRecord, {"id": "s1", "kind": UserKind.SEED, "category": "a\udfff"}),
    "followee": (UserRecord, {
        "id": "u1", "kind": UserKind.REGULAR, "followees": frozenset({"s1", "s\ud800"}),
    }),
    "tweet_id": (TweetRecord, {"id": "t\udc80", "author_id": "a", "kind": TweetKind.ORIGINAL}),
    "author_id": (TweetRecord, {"id": "t1", "author_id": "a\udfff", "kind": TweetKind.ORIGINAL}),
    "source_tweet_id": (TweetRecord, {
        "id": "t1", "author_id": "a", "kind": TweetKind.RETWEET, "source_tweet_id": "o\ud800",
    }),
    "target_user_id": (TweetRecord, {
        "id": "t1", "author_id": "a", "kind": TweetKind.REPLY, "target_user_id": "s\udc80",
    }),
}


@pytest.mark.parametrize("case", sorted(_LONE_SURROGATE_FIELDS))
def test_record_refuses_a_lone_surrogate_as_its_line_does(case):
    """No UTF-8 text holds a lone surrogate, so the line of a record holding
    one in any string field is invalid UTF-8, and the record refuses it with
    that message."""
    record_type, fields = _LONE_SURROGATE_FIELDS[case]
    line = json.dumps({k: sorted(v) if k == "followees" else v for k, v in fields.items()})
    if record_type is UserRecord:
        _, diagnostics = parse_users([line])
    else:
        _, diagnostics = parse_tweets([line], CodeMap())
    with pytest.raises(ValueError) as raised:
        record_type(**fields)
    assert [str(raised.value)] == [d.message for d in diagnostics] == ["invalid UTF-8"]


@pytest.mark.parametrize("timestamp", [True, False, 3.0, "3", None], ids=repr)
def test_tweet_record_rejects_a_timestamp_a_line_cannot_hold(timestamp):
    """The writer would spell it as JSON that parse_tweets refuses, so the
    record refuses it with the parse path's message."""
    line = json.dumps({"id": "t1", "author_id": "a", "kind": "original", "timestamp": timestamp})
    _, diagnostics = parse_tweets([line], CodeMap())
    with pytest.raises(ValueError) as raised:
        TweetRecord("t1", "a", TweetKind.ORIGINAL, timestamp=timestamp)
    assert [str(raised.value)] == [d.message for d in diagnostics]


def test_classify_wing_identity_lookup():
    cfg = config({"left": "left", "right": "right", "centrist": "unaligned"})
    assert cfg.wing_of("left") is Wing.LEFT
    assert cfg.wing_of("centrist") is Wing.UNALIGNED
    with pytest.raises(KeyError):
        cfg.wing_of("martian")


def test_classify_wing_on_shipped_configs():
    turkey = load_country_config(CONFIGS / "turkey.json")
    assert turkey.n_categories == 9
    assert turkey.wing_of("kurdish") is Wing.LEFT
    netherlands = load_country_config(CONFIGS / "netherlands.json")
    assert netherlands.n_categories == 5
    assert netherlands.wing_of("green") is Wing.LEFT
    assert netherlands.wing_of("centrist") is Wing.UNALIGNED


_CODES = CodeMap()
_LEFT, _RIGHT = PoliticalCategory("left", Wing.LEFT), PoliticalCategory("right", Wing.RIGHT)


@pytest.mark.parametrize("cls, values, defaults, refused", [
    pytest.param(PoliticalCategory, ("left", Wing.LEFT), (), [], id="PoliticalCategory"),
    pytest.param(
        CountryConfig, ("nl", (_LEFT, _RIGHT), frozenset({"s1"})), (frozenset(),), [],
        id="CountryConfig",
    ),
    pytest.param(
        Dataset,
        (CountryConfig("nl", (_LEFT, _RIGHT)), UserTable([], [], [], _CODES), TweetTable(_CODES)),
        (), [], id="Dataset",
    ),
    pytest.param(ParseDiagnostic, (1, "m", "users"), (), [], id="ParseDiagnostic"),
    pytest.param(
        IngestReport, (5, 1, 2, 7, 40, 3, 6), (0, 0, 0, 0, 0, 0, 0), [], id="IngestReport",
    ),
    pytest.param(MetricDistribution, (0.5, (2, 1), 3), (), [], id="MetricDistribution"),
    pytest.param(TTestResult, (2.5, 17.25, 0.02, False), (), [], id="TTestResult"),
    pytest.param(
        RunConfig, ("c.json", "u.jsonl", "t.jsonl", None, "out", 0.1, (0.5, 0.25)),
        (0.05, (0.5, 0.05, 0.01)),
        [{"bin_width": 1e-300}, {"bin_width": 1.5}, {"thresholds": (0.0,)},
         {"thresholds": (0.5, 1.5)}, {"thresholds": (0.5, 0.50)}],
        id="RunConfig",
    ),
])
def test_records_behave_as_frozen_dataclasses(cls, values, defaults, refused):
    """Each record type keeps what callers relied on while it was a frozen
    dataclass, without being one: construction by position or keyword, its
    defaults, immutability, equality with its own type only, hashing, the
    repr and its own checks."""
    assert not dataclasses.is_dataclass(cls)
    names = cls.__slots__
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    required = len(names) - len(defaults)
    assert cls(*values[:required]) == cls(*values[:required], *defaults)

    bad_arguments = [
        (values, {"unknown": 1}),
        (values + values[-1:], {}),  # one too many
        (values[:1], {names[0]: values[0]}),  # one twice
    ]
    if required:
        bad_arguments.append((values[: required - 1], {}))  # one missing
    for args, kwargs in bad_arguments:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    for change in refused:
        with pytest.raises(ValueError):
            cls(**{**dict(zip(names, values)), **change})

    for attempt in (
        lambda: setattr(record, names[0], values[0]),
        lambda: delattr(record, names[-1]),
        lambda: setattr(record, "other", 1),
    ):
        with pytest.raises(AttributeError):
            attempt()

    assert record != values and record != list(values)
    assert ParseDiagnostic(1, "m", "users") != (1, "m", "users")
    if cls is Dataset:
        with pytest.raises(TypeError):  # its tables are unhashable
            hash(record)
    else:
        assert hash(cls(*values)) == hash(record)
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    assert repr(ParseDiagnostic(1, "m", "users")) == "ParseDiagnostic(line_no=1, message='m', file='users')"
