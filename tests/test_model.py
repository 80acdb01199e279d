"""Domain model and config validation tests."""

from pathlib import Path

import pytest

from helpers import config, regular, seed
from viewdiv import (
    TweetKind,
    TweetRecord,
    UserKind,
    UserRecord,
    Wing,
    load_country_config,
    validate_config,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_validate_wellformed_config_passes():
    cfg = config(
        {"a": "left", "b": "left", "c": "right", "d": "right", "e": "unaligned"},
        minorities=["s1"],
    )
    users = {"s1": seed("s1", "a"), "u1": regular("u1", ["s1"])}
    assert validate_config(cfg, users) == []


def test_validate_rejects_single_category():
    cfg = config({"only": "left"})
    violations = validate_config(cfg, {})
    assert any("n < 2" in v for v in violations)


def test_validate_rejects_regular_minority():
    cfg = config({"a": "left", "b": "right"}, minorities=["u1"])
    users = {"u1": regular("u1")}
    violations = validate_config(cfg, users)
    assert any("must be a seed" in v for v in violations)


def test_validate_rejects_unresolved_minority():
    cfg = config({"a": "left", "b": "right"}, minorities=["ghost"])
    violations = validate_config(cfg, {})
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
    assert any("duplicate category id" in v for v in validate_config(cfg, {}))


def test_validate_rejects_dangling_and_nonseed_followees():
    cfg = config({"a": "left", "b": "right"})
    users = {
        "s1": seed("s1", "a"),
        "u1": regular("u1", ["nobody"]),
        "u2": regular("u2", ["u1"]),
    }
    violations = validate_config(cfg, users)
    assert any("unknown id 'nobody'" in v for v in violations)
    assert any("non-seed 'u1'" in v for v in violations)


def test_validate_reports_bad_followees_in_sorted_order():
    """Each bad followee of a user is one message, in sorted followee order,
    whatever order the follow list holds them in."""
    cfg = config({"a": "left", "b": "right"})
    users = {
        "s1": seed("s1", "a"),
        "u1": regular("u1", ["s1"]),
        "u2": regular("u2", ["zed", "s1", "u1"]),
    }
    assert validate_config(cfg, users) == [
        "user 'u2' follows non-seed 'u1'",
        "user 'u2' follows unknown id 'zed'",
    ]


def test_validate_rejects_seed_with_unknown_category():
    cfg = config({"a": "left", "b": "right"})
    users = {"s1": seed("s1", "zz")}
    assert any("unknown category 'zz'" in v for v in validate_config(cfg, {"s1": users["s1"]}))


def test_validation_is_idempotent():
    cfg = config({"a": "left", "b": "right"}, minorities=["u1"])
    users = {"u1": regular("u1", ["nope"])}
    first = validate_config(cfg, users)
    assert first == validate_config(cfg, users)


def test_user_record_invariants():
    with pytest.raises(ValueError):
        UserRecord("s1", UserKind.SEED)  # seed needs a category
    with pytest.raises(ValueError):
        UserRecord("u1", UserKind.REGULAR, category="a")


def test_tweet_record_invariants():
    with pytest.raises(ValueError):
        TweetRecord("t1", "a", TweetKind.RETWEET)  # no source
    with pytest.raises(ValueError):
        TweetRecord("t1", "a", TweetKind.REPLY)  # no target
    with pytest.raises(ValueError):
        TweetRecord("t1", "a", TweetKind.ORIGINAL, timestamp=-1)


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
