"""Metric definitions: entropy, diversity, minority access, io correlation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import config, dataset, original, regular, reply, retweet, seed
from test_acceptance import _assert_metrics_match
from viewdiv import (
    IngestError,
    compute_all,
    load_dataset,
    normalized_entropy,
    oracle_metrics,
    seed_interaction_matrix,
)
from viewdiv.ingest import tweet_to_line, user_to_line
from viewdiv.metrics import IO_MARGIN


def _by_user(ds):
    """compute_all's per-user rows keyed by user id."""
    per_user, _ = compute_all(ds)
    return {m.user_id: m for m in per_user}


def test_entropy_uniform_is_exactly_one():
    assert normalized_entropy([20] * 5, 5) == 1.0


def test_entropy_single_support_is_exactly_zero():
    """+0.0, never -0.0, from the general formula, so a report writes
    0.0000 whatever the universe's size."""
    assert normalized_entropy([10, 0, 0, 0, 0], 5) == 0.0
    for n in (2, 3, 9):
        value = normalized_entropy([0] * (n - 1) + [7], n)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_entropy_worked_value():
    # independent evaluation of -sum(p ln p)/ln n for counts (10, 10, 20)
    value = normalized_entropy([10, 10, 20], 3)
    assert value == pytest.approx(0.9464, abs=1e-4)
    assert value == pytest.approx(0.946394630357186, abs=1e-12)


def test_entropy_rejects_degenerate_universe():
    with pytest.raises(ValueError):
        normalized_entropy([1], 1)
    with pytest.raises(ValueError):
        normalized_entropy([3, -1], 2)


def test_entropy_empty_is_undefined():
    assert normalized_entropy([], 3) is None
    assert normalized_entropy([0, 0], 2) is None


@given(
    st.integers(2, 9).flatmap(
        lambda n: st.lists(st.integers(0, 1000), min_size=n, max_size=n)
    ),
    st.randoms(use_true_random=False),
    st.integers(2, 50),
)
def test_entropy_invariants(counts, rnd, scale):
    n = len(counts)
    value = normalized_entropy(counts, n)
    positive = [v for v in counts if v > 0]
    if not positive:
        assert value is None
        return
    assert 0.0 <= value <= 1.0
    if len(positive) == 1:
        assert value == 0.0
    if len(positive) == n and len(set(positive)) == 1:
        assert value == 1.0

    shuffled = counts[:]
    rnd.shuffle(shuffled)
    permuted = normalized_entropy(shuffled, n)
    assert permuted == pytest.approx(value, abs=1e-12)

    scaled = normalized_entropy([v * scale for v in counts], n)
    assert scaled == pytest.approx(value, abs=1e-12)


def _diversity_ds():
    cfg = config({"a": "left", "b": "right", "c": "unaligned"})
    users = [
        seed("s1", "a"),
        seed("s2", "b"),
        seed("s3", "c"),
        regular("one_seed", ["s1"]),
        regular("balanced", ["s1", "s2", "s3"]),
        regular("idle", []),
    ]
    tweets = [original(f"o{i}_{s}", f"s{s}", ts=i) for s in (1, 2, 3) for i in range(4)]
    return dataset(cfg, users, tweets)


def test_source_diversity_degenerate_and_uniform():
    m = _by_user(_diversity_ds())
    assert m["one_seed"].direct_source_diversity == 0.0
    assert m["balanced"].direct_source_diversity == 1.0
    assert m["idle"].direct_source_diversity is None
    assert m["idle"].indirect_source_diversity is None


def test_output_diversity_examples():
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1", "s2"])]
    tweets = [original(f"oa{i}", "s1") for i in range(4)]
    tweets += [original(f"ob{i}", "s2") for i in range(4)]
    tweets += [retweet(f"r{i}", "u1", f"oa{i}") for i in range(4)]
    u1 = _by_user(dataset(cfg, users, tweets))["u1"]
    assert u1.retweet_diversity == 0.0  # one category only
    assert u1.reply_diversity is None  # no replies made

    tweets += [retweet(f"rb{i}", "u1", f"ob{i}") for i in range(4)]
    assert _by_user(dataset(cfg, users, tweets))["u1"].retweet_diversity == 1.0


def _minority_ds():
    """10 minority originals from m1/m2; u1 receives 3 of them."""
    cfg = config({"a": "left", "m": "right"}, minorities=["m1", "m2"])
    users = [
        seed("s1", "a"),
        seed("m1", "m"),
        seed("m2", "m"),
        regular("u1", ["s1", "m1"]),
        regular("all_min", ["m1", "m2"]),
    ]
    tweets = [original(f"om1_{i}", "m1", ts=i) for i in range(3)]
    tweets += [original(f"om2_{i}", "m2", ts=10 + i) for i in range(7)]
    tweets += [original(f"os_{i}", "s1", ts=20 + i) for i in range(5)]
    return dataset(cfg, users, tweets)


def test_minority_reach_examples():
    m = _by_user(_minority_ds())
    assert m["u1"].minority_reach == pytest.approx(0.3)
    assert m["all_min"].minority_reach == 1.0


def test_minority_reach_via_indirect_path_only():
    cfg = config({"a": "left", "m": "right"}, minorities=["m1"])
    users = [seed("s1", "a"), seed("m1", "m"), regular("u1", ["s1"])]
    tweets = [
        original("om_0", "m1", 1),
        original("om_1", "m1", 2),
        original("os_0", "s1", 3),
        retweet("r1", "s1", "om_0", 4),  # the only minority access u1 has
    ]
    assert _by_user(dataset(cfg, users, tweets))["u1"].minority_reach == pytest.approx(1 / 2)


def test_minority_reach_undefined_without_minority_tweets():
    cfg = config({"a": "left", "b": "right"})
    ds = dataset(cfg, [seed("s1", "a"), regular("u1", ["s1"])], [original("o1", "s1")])
    assert _by_user(ds)["u1"].minority_reach is None


def test_minority_exposure_examples():
    cfg = config({"a": "left", "m": "right"}, minorities=["m1"])
    users = [seed("s1", "a"), seed("m1", "m"), regular("u1", ["s1", "m1"]), regular("idle", [])]
    tweets = [original(f"om_{i}", "m1", ts=i) for i in range(23)]
    tweets += [original(f"os_{i}", "s1", ts=100 + i) for i in range(77)]
    m = _by_user(dataset(cfg, users, tweets))
    assert m["u1"].minority_exposure == pytest.approx(0.23)
    assert m["idle"].minority_exposure is None

    no_min = dataset(
        config({"a": "left", "b": "right"}),
        [seed("s1", "a"), regular("u1", ["s1"])],
        [original("o1", "s1")],
    )
    assert _by_user(no_min)["u1"].minority_exposure == 0.0


def test_minority_monotone_in_followed_minority_seeds():
    """Adding a minority followee (with no retweets of its own) can only
    grow reach and exposure."""
    cfg = config({"a": "left", "m": "right"}, minorities=["m1", "m2"])
    users_before = [
        seed("s1", "a"), seed("m1", "m"), seed("m2", "m"), regular("u1", ["s1", "m1"]),
    ]
    users_after = [
        seed("s1", "a"), seed("m1", "m"), seed("m2", "m"),
        regular("u1", ["s1", "m1", "m2"]),
    ]
    tweets = [original(f"om1_{i}", "m1", ts=i) for i in range(2)]
    tweets += [original(f"om2_{i}", "m2", ts=10 + i) for i in range(4)]
    tweets += [original(f"os_{i}", "s1", ts=20 + i) for i in range(6)]
    before = _by_user(dataset(cfg, users_before, tweets))["u1"]
    after = _by_user(dataset(cfg, users_after, tweets))["u1"]
    assert after.minority_reach >= before.minority_reach
    assert after.minority_exposure >= before.minority_exposure


IO_CATS = {"a": "left", "b": "right", "c": "unaligned"}
TWO_CATS = {"a": "left", "b": "right"}


def _io_ds(input_counts, output_counts, cats=IO_CATS):
    """Dataset where u1's indirect histogram is input_counts (via direct
    follows) and the retweet histogram is output_counts."""
    cfg = config(cats)
    users = [seed(f"s_{c}", c) for c in cats] + [
        regular("u1", [f"s_{c}" for c, v in input_counts.items() if v > 0])
    ]
    tweets = []
    for c, v in input_counts.items():
        tweets += [original(f"o{c}{i}", f"s_{c}", ts=i) for i in range(v)]
    k = 0
    for c, v in output_counts.items():
        for i in range(v):
            # retweeting own-timeline originals keeps the input histogram as built
            tweets.append(retweet(f"r{k}", "u1", f"o{c}{i}", ts=100 + k))
            k += 1
    return dataset(cfg, users, tweets)


def _io(ds, user_id="u1", margin=False):
    """The user's io correlation: the plain column, or the margin column."""
    m = _by_user(ds)[user_id]
    return m.io_correlated_15 if margin else m.io_correlated


def test_io_correlation_match_and_mismatch():
    assert _io(_io_ds({"a": 5, "b": 2}, {"a": 3, "b": 1})) is True
    assert _io(_io_ds({"a": 5, "b": 2}, {"a": 1, "b": 2})) is False


def test_io_correlation_tie_is_false():
    ds = _io_ds({"a": 3, "b": 3}, {"a": 2, "b": 1})
    assert _io(ds) is False
    ds2 = _io_ds({"a": 4, "b": 2}, {"a": 2, "b": 2})
    assert _io(ds2) is False


def test_io_correlation_margin_requires_dominance():
    # input share 6/10 = 0.6 < 1/2 + IO_MARGIN; output share 1.0 passes alone
    ds = _io_ds({"a": 6, "b": 4}, {"a": 5}, TWO_CATS)
    assert _io(ds) is True
    assert _io(ds, margin=True) is False
    # comfortably dominant on both sides
    ds2 = _io_ds({"a": 9, "b": 1}, {"a": 5}, TWO_CATS)
    assert _io(ds2, margin=True) is True


@pytest.mark.parametrize("side", ["input", "output"])
@pytest.mark.parametrize("dominant, expected", [(13, True), (12, False)])
def test_io_correlation_margin_boundary(side, dominant, expected):
    """At n = 2 a dominant share of exactly 13/20 meets the 1/2 + IO_MARGIN
    floor and 12/20 misses it, on either side; the oracle agrees."""
    assert 13 / 20 == 1 / 2 + IO_MARGIN
    at_boundary = {"a": dominant, "b": 20 - dominant}
    if side == "input":
        ds = _io_ds(at_boundary, {"a": 5}, TWO_CATS)
    else:
        # input share 16/24 clears the floor; b has enough originals to retweet
        ds = _io_ds({"a": 16, "b": 8}, at_boundary, TWO_CATS)
    assert _io(ds, margin=True) is expected
    oracle = {m.user_id: m for m in oracle_metrics(ds)[0]}
    assert oracle["u1"].io_correlated_15 is expected


def test_io_correlation_undefined_cases():
    cfg = config({"a": "left", "b": "right"})
    ds = dataset(
        cfg,
        [seed("s1", "a"), regular("u1", ["s1"]), regular("u2", [])],
        [original("o1", "s1")],
    )
    assert _io(ds, "u1") is None  # no retweets made
    assert _io(ds, "u2") is None  # empty timeline


def test_io_correlation_scale_invariance():
    a = _io_ds({"a": 5, "b": 2}, {"a": 3, "b": 1})
    b = _io_ds({"a": 50, "b": 20}, {"a": 30, "b": 10})
    assert _io(a) is _io(b)


def _matrix_ds(left_to_left, left_to_right):
    """Left seeds make the given interaction counts; right row is fixed."""
    cfg = config({"a": "left", "b": "right", "x": "unaligned"})
    users = [seed("sa", "a"), seed("sa2", "a"), seed("sb", "b"), seed("sx", "x")]
    tweets = [original("oa", "sa2"), original("ob", "sb"), original("ox", "sx")]
    k = 0
    for _ in range(left_to_left):
        tweets.append(retweet(f"r{k}", "sa", "oa", ts=k))
        k += 1
    for _ in range(left_to_right):
        tweets.append(reply(f"r{k}", "sa", "sb", ts=k))
        k += 1
    tweets += [
        reply(f"r{k}", "sb", "sa", ts=k),
        retweet(f"r{k+1}", "sa", "ox", ts=k + 1),  # unaligned target: excluded
        retweet(f"r{k+2}", "sx", "oa", ts=k + 2),  # unaligned actor: excluded
    ]
    return dataset(cfg, users, tweets)


def test_matrix_pure_left_degenerate():
    m = seed_interaction_matrix(_matrix_ds(4, 0))
    assert (m.left_to_left, m.left_to_right) == (1.0, 0.0)


def test_matrix_seventy_three_twenty_seven():
    m = seed_interaction_matrix(_matrix_ds(73, 27))
    assert (m.left_to_left, m.left_to_right) == pytest.approx((0.73, 0.27))
    assert m.left_interactions == 100
    assert (m.right_to_left, m.right_to_right) == (1.0, 0.0)


def test_matrix_requires_both_wings():
    # the seed matrix needs a Left and a Right category; build_dataset,
    # which builds every Dataset, refuses a config without them
    cfg = config({"a": "left", "b": "left"})
    with pytest.raises(IngestError, match="wing mapping"):
        dataset(cfg, [seed("s1", "a")], [])


def test_compute_all_matches_per_op_results():
    ds = _minority_ds()
    per_user, matrix = compute_all(ds)
    assert [m.user_id for m in per_user] == ["all_min", "u1"]  # sorted ids
    oracle_per_user, oracle_matrix = oracle_metrics(ds)
    assert per_user == oracle_per_user
    assert matrix == oracle_matrix == seed_interaction_matrix(ds)


def test_repeated_tweet_id_keeps_first_row():
    # o1 is written by s1 first and by s2 again; the dataset keeps the
    # first, as load_dataset does, so r2 surfaces s1's category only
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"])]
    first = original("o1", "s1")
    rest = [retweet("r1", "s1", "o1"), retweet("r2", "u1", "o1")]
    ds = dataset(cfg, users, [first, original("o1", "s2"), *rest])
    assert compute_all(ds) == oracle_metrics(ds)
    assert ds == dataset(cfg, users, [first, *rest])


# -- one contract: every dataset drops its dangling tweets -------------------

def _assert_oracle_agrees(ds) -> None:
    fast, fast_matrix = compute_all(ds)
    slow, slow_matrix = oracle_metrics(ds)
    _assert_metrics_match(fast, slow, "fast path vs oracle")
    assert fast_matrix == slow_matrix


def _assert_dropped(dangling) -> None:
    """A dataset with the ``dangling`` retweet is the one without it."""
    cfg = config({"a": "left", "b": "right"})
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"])]
    ds = dataset(cfg, users, [original("o1", "u1"), dangling])
    assert ds == dataset(cfg, users, [original("o1", "u1")])
    _assert_oracle_agrees(ds)


def test_retweet_of_a_regulars_original_is_dropped():
    _assert_dropped(retweet("r1", "s1", "o1"))


def test_retweet_of_a_missing_source_is_dropped():
    _assert_dropped(retweet("r1", "s1", "missing"))


_TWEET_IDS = tuple(f"t{i}" for i in range(10))


@st.composite
def _crawl(draw):
    """2-3 seeds of a left, a right and an unaligned category, 0-3 regulars
    that each follow a seed, and up to 14 tweets whose ids repeat and whose
    authors, reply targets and retweet sources include ids that name
    nothing."""
    seeds = [
        seed(f"s{i}", draw(st.sampled_from("abc"))) for i in range(draw(st.integers(2, 3)))
    ]
    seed_ids = [s.id for s in seeds]
    regulars = [
        regular(f"u{i}", draw(st.sets(st.sampled_from(seed_ids), min_size=1)))
        for i in range(draw(st.integers(0, 3)))
    ]
    users = seeds + regulars
    names = [u.id for u in users] + ["ghost"]
    minorities = draw(st.sets(st.sampled_from(seed_ids)))
    tweets = []
    for _ in range(draw(st.integers(0, 14))):
        tid = draw(st.sampled_from(_TWEET_IDS))
        author = draw(st.sampled_from(names))
        ts = draw(st.integers(0, 3))
        kind = draw(st.sampled_from([original, retweet, reply]))
        if kind is original:
            tweets.append(original(tid, author, ts))
        elif kind is retweet:
            source = draw(st.sampled_from(_TWEET_IDS + ("missing",)))
            tweets.append(retweet(tid, author, source, ts))
        else:
            tweets.append(reply(tid, author, draw(st.sampled_from(names)), ts))
    return config({"a": "left", "b": "right", "c": "unaligned"}, minorities), users, tweets


@settings(max_examples=200, deadline=None, derandomize=True)
@given(crawl=_crawl())
def test_records_assemble_as_lines_do(crawl):
    """Every regular here follows a seed, so at min_retweets=0 the activity
    filter keeps them all: load_dataset gives the dataset that the build
    alone gives, and the fast path and the oracle agree on it, matrix
    included."""
    cfg, users, tweets = crawl
    ds = dataset(cfg, users, tweets)
    loaded, _, diags = load_dataset(
        cfg, map(user_to_line, users), map(tweet_to_line, tweets), min_retweets=0
    )
    assert diags == []
    assert ds == loaded
    _assert_oracle_agrees(ds)


def test_compute_all_empty_regulars():
    cfg = config({"a": "left", "b": "right"})
    ds = dataset(cfg, [seed("s1", "a"), seed("s2", "b")], [original("o1", "s1")])
    per_user, matrix = compute_all(ds)
    assert per_user == [] and matrix.left_interactions == 0


def test_compute_all_is_deterministic():
    ds = _minority_ds()
    assert compute_all(ds) == compute_all(ds)


def test_metric_values_in_unit_interval():
    ds = _minority_ds()
    per_user, _ = compute_all(ds)
    for m in per_user:
        for field in (
            "direct_source_diversity", "indirect_source_diversity",
            "retweet_diversity", "reply_diversity", "minority_reach",
            "minority_exposure",
        ):
            value = getattr(m, field)
            assert value is None or 0.0 <= value <= 1.0
