"""Exposure timeline and histogram tests.

The timelines are the oracle's set-level definition; the histogram checks
compare them with what the fast path computes.
"""

from collections import Counter
from itertools import compress
from pathlib import Path

import pytest

from helpers import (
    by_user,
    config,
    dataset,
    original,
    original_authors,
    regular,
    regular_followees,
    reply,
    retweet,
    seed,
)
from viewdiv import SynthParams, generate, load_country_config, load_dataset, normalized_entropy
from viewdiv.metrics import ExposureIndex
from viewdiv.oracle import exposure_timeline as _timeline

TOY = Path(__file__).resolve().parent / "data" / "toy"


def _category_counts(ds, tweet_ids):
    """Per-category counts of a set of originals, by author category."""
    author = original_authors(ds)
    category = dict(zip(ds.users.ids, ds.users.categories))
    return Counter(category[author[t]] for t in tweet_ids)


def _assert_exposure_counts_match_the_timelines(ds):
    """For every regular, ``ExposureIndex.exposure`` gives the per-category
    counts of the oracle's direct and indirect timelines, in config order,
    and the number of minority-authored originals in the indirect one; the
    index's ``total_minority`` counts every minority seed's originals. An
    entropy is symmetric in its counts, so a count at the wrong category
    position moves none: only the counts themselves show it."""
    index = ExposureIndex(ds)
    author = original_authors(ds)
    order = [c.id for c in ds.config.categories]
    minority = ds.config.minority_user_ids
    assert index.total_minority == sum(a in minority for a in author.values())
    checked = 0
    for uid, category, follows in zip(ds.users.ids, ds.users.categories, ds.users.follows):
        if category is not None:
            continue
        tl = _timeline(ds, uid)
        direct = _category_counts(ds, tl.direct)
        indirect = _category_counts(ds, tl.indirect)
        assert index.exposure(follows) == (
            [direct[c] for c in order],
            [indirect[c] for c in order],
            sum(author[t] in minority for t in tl.indirect),
        ), uid
        checked += 1
    return checked


def _basic():
    cfg = config({"a": "left", "b": "right", "c": "unaligned"})
    users = [
        seed("s1", "a"),
        seed("s2", "b"),
        seed("s3", "c"),
        regular("u1", ["s1", "s2"]),
        regular("u2", []),
        regular("u3", ["s1"]),
    ]
    tweets = [
        original("o1", "s1", 1),
        original("o2", "s1", 2),
        original("o3", "s1", 3),
        original("o4", "s2", 4),
        original("o5", "s2", 5),
        original("o6", "s3", 6),
        retweet("r1", "s1", "o6", 7),  # s1 surfaces the non-followed s3
        retweet("r2", "s2", "o1", 8),  # already direct for u1
    ]
    return dataset(cfg, users, tweets)


def test_direct_is_union_of_followee_originals():
    tl = _timeline(_basic(), "u1")
    assert tl.direct == {"o1", "o2", "o3", "o4", "o5"}


def test_direct_empty_without_followees():
    tl = _timeline(_basic(), "u2")
    assert tl.direct == tl.indirect == frozenset()


def test_direct_excludes_followee_retweets():
    # r1/r2 are retweets by followed seeds; only originals count as direct
    tl = _timeline(_basic(), "u1")
    assert "r1" not in tl.direct and "o6" not in tl.direct


def test_indirect_adds_surfaced_original_once():
    ds = _basic()
    tl = _timeline(ds, "u1")
    # o6 arrives only via s1's retweet; o1 was already direct so the
    # retweet by s2 changes nothing
    assert tl.indirect == tl.direct | {"o6"}
    assert len(tl.indirect) == 6
    # The batch path agrees: counts (a, b, c) are (3, 2, 0) direct and
    # (3, 2, 1) indirect; counting the surfaced o1 again would give (4, 2, 1).
    u1 = by_user(ds)["u1"]
    assert u1.direct_source_diversity == normalized_entropy([3, 2, 0], 3)
    assert u1.indirect_source_diversity == normalized_entropy([3, 2, 1], 3)
    assert normalized_entropy([3, 2, 1], 3) != normalized_entropy([4, 2, 1], 3)


def test_indirect_equals_direct_without_retweets():
    cfg = config({"a": "left", "b": "right"})
    ds = dataset(
        cfg,
        [seed("s1", "a"), regular("u1", ["s1"])],
        [original("o1", "s1")],
    )
    tl = _timeline(ds, "u1")
    assert tl.indirect == tl.direct == {"o1"}


def test_unknown_user_raises():
    with pytest.raises(KeyError):
        _timeline(_basic(), "nobody")


def test_histogram_uniform_hundred():
    cfg = config({f"c{i}": "left" if i % 2 else "right" for i in range(5)})
    users = [seed(f"s{i}", f"c{i}") for i in range(5)]
    users.append(regular("u1", [f"s{i}" for i in range(5)]))
    tweets = [original(f"o{i}_{j}", f"s{i}") for i in range(5) for j in range(20)]
    ds = dataset(cfg, users, tweets)
    tl = _timeline(ds, "u1")
    assert len(tl.direct) == 100
    counts = _category_counts(ds, tl.direct)
    assert all(counts[f"c{i}"] == 20 for i in range(5))
    assert by_user(ds)["u1"].direct_source_diversity == 1.0


def test_histogram_empty_and_single_category():
    ds = _basic()
    assert not _category_counts(ds, _timeline(ds, "u2").direct)
    assert by_user(ds)["u2"].direct_source_diversity is None
    # u3 follows s1 alone: o1..o3, all in category "a" of n = 3
    direct = _timeline(ds, "u3").direct
    assert direct == {"o1", "o2", "o3"}
    assert _category_counts(ds, direct) == {"a": 3} and ds.config.n_categories == 3
    assert by_user(ds)["u3"].direct_source_diversity == 0.0


def test_output_histograms():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"]), regular("u2", [])]
    tweets = [original(f"o{i}", "s1") for i in range(10)]
    tweets += [retweet(f"r{i}", "u1", f"o{i}") for i in range(10)]
    tweets += [
        reply("p1", "u1", "s2"),
        reply("p2", "u1", "s2"),
        reply("p3", "u1", "u2"),  # reply to a regular: no category, excluded
    ]
    u1 = by_user(dataset(cfg, users, tweets))["u1"]
    assert u1.retweet_diversity == normalized_entropy([10, 0], 2) == 0.0
    assert u1.reply_diversity == normalized_entropy([0, 2], 2) == 0.0

    # One more retweet of a "b" original and one more reply to an "a" seed
    # make the counts show: (10, 1) retweets, one per record, and (1, 2)
    # replies, the reply to the regular u2 still excluded.
    tweets += [original("ob", "s2"), retweet("rb", "u1", "ob"), reply("p4", "u1", "s1")]
    u1 = by_user(dataset(cfg, users, tweets))["u1"]
    assert u1.retweet_diversity == normalized_entropy([10, 1], 2)
    assert u1.reply_diversity == normalized_entropy([1, 2], 2)
    assert normalized_entropy([1, 2], 2) != normalized_entropy([1, 3], 2)


def test_timeline_invariants_on_generated_datasets():
    for seed_value in (0, 1, 2):
        ds = generate(
            SynthParams(rng_seed=seed_value, n_categories=3, n_seeds=5, n_regulars=5,
                        homophily=0.5, tweets_per_seed=6, retweets_per_regular=5,
                        replies_per_regular=2)
        )
        seeds = set(compress(ds.users.ids, ds.users.categories))
        author = original_authors(ds)
        for uid in regular_followees(ds):
            tl = _timeline(ds, uid)
            assert tl.direct <= tl.indirect
            # every member is a seed-authored original
            assert all(author[t] in seeds for t in tl.indirect)
            assert set(_category_counts(ds, tl.direct)) <= set(
                _category_counts(ds, tl.indirect)
            )
        assert _assert_exposure_counts_match_the_timelines(ds) == len(regular_followees(ds))


def test_exposure_counts_on_the_toy_fixture():
    """The golden toy crawl: three categories, a minority seed, surfaced
    originals from a seed the regulars do not follow."""
    cfg = load_country_config(TOY / "config.json")
    with open(TOY / "users.jsonl") as users, open(TOY / "tweets.jsonl") as tweets:
        ds = load_dataset(cfg, users, tweets)[0]
    assert _assert_exposure_counts_match_the_timelines(ds) == 2
