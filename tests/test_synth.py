"""Generator determinism, calibration hooks, and oracle behavior."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import config, dataset, load_script, original, regular, retweet, seed
from viewdiv import (
    SynthParams,
    TweetKind,
    compute_all,
    generate,
    load_dataset,
    oracle_metrics,
    presets,
    seed_interaction_matrix,
    validate_config,
)
from viewdiv import synth as synth_mod
from viewdiv.ingest import _tweet_line, _user_line, write_dataset
from viewdiv.synth import (
    MAX_CATEGORIES,
    MAX_DRAWS,
    MAX_TWEETS,
    MAX_USERS,
    MAX_VOLUME_MEAN,
    _choice_cdf,
    _choice_draw,
    _expected_tweets,
    _resolve,
    params_from_object,
)

SMALL = SynthParams(
    rng_seed=5, n_categories=3, n_seeds=6, n_regulars=6, homophily=0.5,
    tweets_per_seed=8, retweets_per_regular=7, replies_per_regular=3,
)


def _serialize(ds):
    return (
        [_user_line(*row) for row in sorted(ds.users.rows())],
        [_tweet_line(*row) for row in ds.tweets.rows()],
    )


def test_same_seed_gives_identical_datasets():
    assert _serialize(generate(SMALL)) == _serialize(generate(SMALL))


# Small parameter sets that, with the two presets below, run every branch of
# the generator: two weighted minority categories at h = 1 with a zero
# weight and a positively weighted category that gets no seed (so a regular
# takes the guaranteed followee, and seeds and regulars both reach the
# uniform fallback of split_by_mixture), zero-volume seeds, minority share
# 1.0 without regulars, and minority share 0 with the guaranteed followee.
# "dense" has every seed retweet into the shared category lists and into its
# own category without itself, with 3 zero-volume seeds; in "homophilous"
# regulars follow the whole of their home category, 4 of whose seeds post
# nothing.
PINNED_PARAMS = {
    "uniform": presets()["uniform"],
    "segregated": presets()["segregated"],
    "weighted": SynthParams(
        rng_seed=3, n_categories=5, category_weights=(0.5, 0.1, 0.0, 0.2, 0.2),
        n_seeds=5, n_regulars=20, homophily=1.0,
        minority_categories=("cat4", "cat5"), tweets_per_seed=1.5,
        retweets_per_regular=4, replies_per_regular=2,
    ),
    "all_minority": SynthParams(
        rng_seed=4, n_categories=2, n_seeds=4, n_regulars=0,
        minority_categories=("cat1", "cat2"), minority_tweet_share=1.0,
        tweets_per_seed=3, retweets_per_regular=4, replies_per_regular=2,
    ),
    "no_minority": SynthParams(
        rng_seed=5, n_categories=2, n_seeds=4, n_regulars=10, homophily=0.0,
        minority_categories=(), minority_tweet_share=0.0,
        tweets_per_seed=3, retweets_per_regular=4, replies_per_regular=2,
    ),
    "dense": SynthParams(
        rng_seed=6, n_categories=5, n_seeds=60, n_regulars=40, homophily=0.0,
        tweets_per_seed=3, retweets_per_regular=10, replies_per_regular=2,
    ),
    "homophilous": SynthParams(
        rng_seed=7, n_categories=9, n_seeds=30, n_regulars=60, homophily=0.85,
        minority_tweet_share=0.10, tweets_per_seed=1.5, retweets_per_regular=3,
        replies_per_regular=3,
    ),
}
_UNIVERSE5 = "285fc62c3e0394f54db6ffec3819fe2c02390902a8f8cdd30d237b43b3930527"
PINNED_SHA256 = {
    "uniform": (
        _UNIVERSE5,
        "5db5cda40dcf7d08369febe49c54a4862b301a61be7bdbec187afa7350777ac3",
        "d8d003df56505d6568303b34e43d9de69c0fa5f1602e475c4efe1b759c965d12",
    ),
    "segregated": (
        _UNIVERSE5,
        "8bf7cde473aec7a68beb896f0aa97bfcacb15bbc54e894c43f64d91e802fe8ea",
        "8c23f547a3da7c3bbe2ae00e02627467935d079adbd8e8276c5ade2680622daa",
    ),
    "weighted": (
        "6a41c965858fa245a571e28901f14c784b5050cbd8300636b344dd47e1693c1c",
        "7db38aea8d4d33094042281c625286ffac00c2ed8f62157e30e02079a1b7f180",
        "bb71bd6ae6c948380c9b8e59684cf97f27b78fde98a4050a229117dfe3d183d7",
    ),
    "all_minority": (
        "fadbe8e0428ddb61a5b0f32d5a562f7fde3b7860d61e14d264261c894005fe4c",
        "57d3469bc293417e759dfa4f07469f3ab7eeaf15ad1286dd55dafa9944dd12da",
        "e3b1980321acc1fba8007c35e20b5648e08adec82146ab685aa5adc2864433e2",
    ),
    "no_minority": (
        "e729ced837a31282285dbfda94750093550f7b32c6f5222301b7ad4469e87b51",
        "7ea714be0465ecc9114028c22b6cf268cd6f803f3bce9c622e814abcf83ac106",
        "c793f282e9dcddd0ff31527955ae0e1ec0bdd263e6829f6e889b574436d87e3a",
    ),
    "dense": (
        "cafdc7056d3047c3f9b586af6b63c805d45a804cba030dd775765819f386c77e",
        "08a29ebdd848a3314bf963247e8e380dde7417ffaa65f47ebab993d130279a8e",
        "608f39729ab6b399961f4103c39a3e444bf091e91e32707a2b20355e72274c05",
    ),
    "homophilous": (
        "0cb27cecd8635d81f40fa7951db1f31f37f241d14f3f8c1afc0db9e7080b0f1a",
        "65d20030dfff7b1a79020f33d3e6ecc9cedcc1fce68309272a73a05ee50e4d29",
        "702dfbe7270b7ad89732956038a555086f4cd7fe6153f86088cefbe628e781aa",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PARAMS))
def test_generated_files_are_pinned(name, tmp_path):
    """The sha256 of config.json, users.jsonl and tweets.jsonl as
    write_dataset writes them.

    The benchmark writes its inputs with the generator under test, so a
    change to the draws would silently change what both sides of a
    benchmark pair measure; this pins them. numpy keeps a Generator's
    stream stable only within one numpy version (NEP 19; pinned under
    numpy 2.4.6), so after a numpy upgrade re-pin the digests in a commit
    of their own.
    """
    paths = write_dataset(generate(PINNED_PARAMS[name]), tmp_path)
    digests = tuple(
        hashlib.sha256(paths[k].read_bytes()).hexdigest()
        for k in ("config", "users", "tweets")
    )
    assert digests == PINNED_SHA256[name]


@pytest.mark.parametrize("weights", [
    pytest.param([7.0], id="one_candidate"),
    pytest.param([3.0] * 6, id="tied"),
    pytest.param([1.0, 2.0e6, 1.0, 5.0], id="skewed"),
    pytest.param([1e-300, 1.0, 1e300], id="extreme"),
    pytest.param([0.0, 4.0, 0.0, 4.0], id="zero_weights"),
])
def test_choice_draw_matches_generator_choice(weights):
    """Draw for draw, the generator's pick is Generator.choice's: two
    generators seeded alike give the same index, and each then gives the
    same integers() draw, as a retweet's pick of an original follows its
    pick of a seed."""
    w = np.array(weights)
    ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
    cdf = _choice_cdf(w)
    for _ in range(500):
        assert _choice_draw(cdf, ours) == theirs.choice(len(w), p=w / w.sum())
        assert ours.integers(0, 9) == theirs.integers(0, 9)


_SHARES = [
    pytest.param([0.2] * 5, id="uniform"),
    pytest.param([0.92, 0.02, 0.02, 0.02, 0.02], id="mixture"),
    pytest.param([0.0, 0.5, 0.0, 0.5], id="zero_shares"),
    pytest.param([1.0], id="one_category"),
]


@pytest.mark.parametrize("p", _SHARES)
def test_multinomial_of_zero_leaves_the_stream_alone(p):
    """generate splits a minority volume target of 0 with no check, and
    skips the split of k = 0 activity draws; both give the same stream
    only because numpy's multinomial(0, p) draws nothing. The first
    integers() call leaves half of a 64-bit draw buffered, which is state
    too."""
    rng = np.random.default_rng(17)
    rng.integers(0, 9)
    state = rng.bit_generator.state
    assert rng.multinomial(0, p).tolist() == [0] * len(p)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("lam", [0.0, 30.0, 1e6])
def test_poisson_of_size_zero_leaves_the_stream_alone(lam):
    """generate draws the original volumes of one pool of seeds, which may
    be empty, with no check: numpy's poisson(lam, size=0) draws nothing."""
    rng = np.random.default_rng(17)
    rng.integers(0, 9)
    state = rng.bit_generator.state
    assert rng.poisson(lam, size=0).tolist() == []
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("p", _SHARES)
def test_choice_of_size_zero_leaves_the_stream_alone(p):
    """generate draws the regulars' home categories with no check for
    n_regulars = 0: numpy's choice(n, size=0, p=p) draws nothing."""
    rng = np.random.default_rng(17)
    rng.integers(0, 9)
    state = rng.bit_generator.state
    assert rng.choice(len(p), size=0, p=p).tolist() == []
    assert rng.bit_generator.state == state


def _cdf_builds(monkeypatch, params) -> int:
    """How many retweet cdfs generate builds for ``params``."""
    builds = []
    monkeypatch.setattr(synth_mod, "_choice_cdf", lambda w: builds.append(w) or _choice_cdf(w))
    generate(params)
    return len(builds)


def test_seeds_share_the_category_cdfs(monkeypatch):
    """Every seed retweets from the category cdfs built once; only its own
    category, without itself, is built per seed. The seeds act before any
    regular draws, so a run without regulars counts their builds alone."""
    dense = PINNED_PARAMS["dense"]
    assert _cdf_builds(monkeypatch, replace(dense, n_regulars=0)) <= (
        dense.n_categories + dense.n_seeds
    )


def test_a_wholly_followed_category_reuses_its_cdf(monkeypatch):
    """At h = 1 a regular follows every seed of its home category and
    retweets only there, so the regulars build no cdf."""
    segregated = replace(PINNED_PARAMS["dense"], homophily=1.0)
    regular_retweets = [
        tid for tid, author, kind, *_ in generate(segregated).tweets.rows()
        if kind is TweetKind.RETWEET and author.startswith("u")
    ]
    assert regular_retweets
    assert _cdf_builds(monkeypatch, segregated) == _cdf_builds(
        monkeypatch, replace(segregated, n_regulars=0)
    )


def test_different_seed_gives_different_datasets():
    assert _serialize(generate(SMALL)) != _serialize(generate(replace(SMALL, rng_seed=6)))


def test_generated_datasets_validate():
    for s in range(5):
        ds = generate(replace(SMALL, rng_seed=s))
        assert validate_config(ds.config, ds.users) == []


def test_full_homophily_kills_direct_diversity():
    ds = generate(replace(SMALL, homophily=1.0, n_regulars=30))
    per_user, _ = compute_all(ds)
    values = [m.direct_source_diversity for m in per_user
              if m.direct_source_diversity is not None]
    assert values and all(v == 0.0 for v in values)


def test_zero_homophily_gives_high_direct_diversity():
    ds = generate(replace(presets()["uniform"], n_regulars=300))
    per_user, _ = compute_all(ds)
    values = [m.direct_source_diversity for m in per_user
              if m.direct_source_diversity is not None]
    assert sum(values) / len(values) >= 0.95


def _original_authors(ds) -> list[str]:
    """The author of each original of a dataset, in table order."""
    return [author for _, author, kind, *_ in ds.tweets.rows() if kind is TweetKind.ORIGINAL]


def test_minority_share_hits_target():
    for share in (0.05, 0.15, 0.3):
        ds = generate(replace(SMALL, n_seeds=12, tweets_per_seed=40,
                              minority_tweet_share=share))
        originals = _original_authors(ds)
        minority = [a for a in originals if a in ds.config.minority_user_ids]
        assert len(minority) / len(originals) == pytest.approx(share, abs=0.02)


def test_infeasible_params_rejected():
    with pytest.raises(ValueError):
        generate(replace(SMALL, minority_categories=(), minority_tweet_share=1.0))
    with pytest.raises(ValueError):
        generate(replace(SMALL, minority_categories=(), minority_tweet_share=0.15))
    with pytest.raises(ValueError):
        generate(replace(SMALL, category_weights=(0.5, 0.2, 0.2)))  # sums to 0.9
    with pytest.raises(ValueError):
        generate(replace(SMALL, homophily=1.5))
    with pytest.raises(ValueError):
        generate(replace(SMALL, n_categories=1))
    with pytest.raises(ValueError):
        generate(replace(SMALL, minority_categories=("nope",)))
    # finite and summing to 1, but negative
    with pytest.raises(ValueError, match="category_weights must be non-negative"):
        generate(SynthParams(n_categories=2, category_weights=(-0.5, 1.5),
                             minority_tweet_share=0))
    # share 1.0 is representable when every category is minority
    ds = generate(replace(SMALL, minority_categories=("cat1", "cat2", "cat3"),
                          minority_tweet_share=1.0))
    assert set(_original_authors(ds)) <= ds.config.minority_user_ids


_VOLUME_MEANS = ("tweets_per_seed", "retweets_per_regular", "replies_per_regular")


@pytest.mark.parametrize("field", _VOLUME_MEANS)
def test_volume_mean_bound_is_accepted(field):
    """The bound itself resolves; nothing is generated at it, since that
    would draw in proportion to the mean."""
    resolved, _, _ = _resolve(replace(SMALL, **{field: MAX_VOLUME_MEAN}))
    assert getattr(resolved, field) == MAX_VOLUME_MEAN
    assert max(getattr(p, f) for p in presets().values() for f in _VOLUME_MEANS) < 1e4


def test_category_bound_is_accepted():
    """MAX_CATEGORIES itself resolves, one more does not; nothing is
    generated at the bound, since generate holds n floats per category."""
    at_bound = replace(SMALL, n_categories=MAX_CATEGORIES, minority_tweet_share=0.0)
    resolved, cat_ids, _ = _resolve(at_bound)
    assert resolved.n_categories == len(cat_ids) == MAX_CATEGORIES
    with pytest.raises(ValueError, match=f"^n_categories must be at most {MAX_CATEGORIES}, got"):
        _resolve(replace(at_bound, n_categories=MAX_CATEGORIES + 1))
    assert max(p.n_categories for p in presets().values()) < 10


# The throughput test's parameters at 20,100 users and 997,929 tweets, as
# tools/ab.py's 1m workload writes them for synth --params.
_1M_POINT = params_from_object(load_script("tools", "ab").POINT_1M, "tools/ab.py")


def test_every_size_in_use_resolves():
    """Every preset, every benchmark workload and the 1M-tweet point are
    within the size bounds, with room to spare; nothing is generated."""
    in_use = [*presets().values(), _1M_POINT]
    for workload in load_script("bench", "workloads").WORKLOADS.values():
        in_use += [workload.params, workload.oracle_params]
    for params in in_use:
        resolved, cat_ids, seeds_per_cat = _resolve(params)
        minority = resolved.minority_categories
        seats = sum(c for c, cid in zip(seeds_per_cat, cat_ids) if cid in minority)
        users = params.n_seeds + params.n_regulars
        assert users * 4 < MAX_USERS
        assert params.n_seeds * users * 4 < MAX_DRAWS
        assert params.n_categories * users * 4 < MAX_DRAWS
        assert _expected_tweets(resolved, seats) * 4 < MAX_TWEETS


# At each bound: the users with one seed, the draws with 1,000 seeds, and
# the tweets from 5 non-minority seeds at the volume bound (5 * 10^6
# originals) and 10 seeds retweeting at half the bound (5 * 10^6 retweets).
_USERS_AT_BOUND = replace(SMALL, n_seeds=1, n_regulars=MAX_USERS - 1, minority_tweet_share=0.0)
_DRAWS_AT_BOUND = replace(SMALL, n_seeds=1000, n_regulars=MAX_DRAWS // 1000 - 1000)
# The category walks at the bound: 1,000 categories over 10,000 users.
_WALKS_AT_BOUND = replace(
    SMALL, n_categories=MAX_CATEGORIES, n_seeds=10,
    n_regulars=MAX_DRAWS // MAX_CATEGORIES - 10, minority_tweet_share=0.0,
)
_TWEETS_AT_BOUND = replace(
    SMALL, n_categories=2, n_seeds=10, n_regulars=0, minority_tweet_share=0.0,
    tweets_per_seed=MAX_VOLUME_MEAN, retweets_per_regular=MAX_VOLUME_MEAN, replies_per_regular=0,
)


def test_size_bounds_are_accepted():
    """Each size bound itself resolves; nothing is generated at it."""
    for params in (_USERS_AT_BOUND, _DRAWS_AT_BOUND, _WALKS_AT_BOUND, _TWEETS_AT_BOUND):
        _resolve(params)
    assert _USERS_AT_BOUND.n_seeds + _USERS_AT_BOUND.n_regulars == MAX_USERS
    seeds, regulars = _DRAWS_AT_BOUND.n_seeds, _DRAWS_AT_BOUND.n_regulars
    assert seeds * (seeds + regulars) == MAX_DRAWS
    walks = _WALKS_AT_BOUND
    assert walks.n_categories * (walks.n_seeds + walks.n_regulars) == MAX_DRAWS
    assert _expected_tweets(_TWEETS_AT_BOUND, 5) == MAX_TWEETS


@pytest.mark.parametrize(
    "params, message",
    [
        # one user, one draw, one tweet above each bound
        (replace(_USERS_AT_BOUND, n_regulars=MAX_USERS),
         f"n_seeds + n_regulars must be at most {MAX_USERS}, got {MAX_USERS + 1}"),
        (replace(_DRAWS_AT_BOUND, n_regulars=_DRAWS_AT_BOUND.n_regulars + 1),
         f"n_seeds * (n_seeds + n_regulars) must be at most {MAX_DRAWS}, got {MAX_DRAWS + 1000}"),
        (replace(_TWEETS_AT_BOUND, replies_per_regular=0.2),
         f"the expected tweet count must be at most {MAX_TWEETS}, got {MAX_TWEETS + 1}"),
        # small objects that would each ask for 10^8 or more of something
        (SynthParams(n_regulars=10**9),
         f"n_seeds + n_regulars must be at most {MAX_USERS}, got {10**9 + 50}"),
        (SynthParams(n_seeds=10**9),
         f"n_seeds + n_regulars must be at most {MAX_USERS}, got {10**9 + 200}"),
        (SynthParams(retweets_per_regular=MAX_VOLUME_MEAN),
         f"the expected tweet count must be at most {MAX_TWEETS}, got "),
        (SynthParams(minority_tweet_share=0.9999999),
         f"the expected tweet count must be at most {MAX_TWEETS}, got "),
        # one category walk above its bound, and an object that asks for
        # 10^8 walks with every other size within its bound
        (replace(_WALKS_AT_BOUND, n_regulars=_WALKS_AT_BOUND.n_regulars + 1),
         f"n_categories * (n_seeds + n_regulars) must be at most {MAX_DRAWS}, "
         f"got {MAX_DRAWS + MAX_CATEGORIES}"),
        (SynthParams(n_categories=1000, n_seeds=100, n_regulars=99900, minority_tweet_share=0),
         f"n_categories * (n_seeds + n_regulars) must be at most {MAX_DRAWS}, got {10**8}"),
    ],
)
def test_size_bounds_refuse_by_name(params, message):
    """Above a bound, _resolve refuses before anything is drawn."""
    with pytest.raises(ValueError) as excinfo:
        _resolve(params)
    assert str(excinfo.value).startswith(message)


def test_expected_tweets_is_near_the_generated_count():
    """The count the bound reads is within 3% of what each preset posts."""
    for params in presets().values():
        ds = generate(params)
        seats = len(ds.config.minority_user_ids)
        assert _expected_tweets(params, seats) == pytest.approx(len(ds.tweets), rel=0.03)


def test_presets_names_and_extremes():
    available = presets()
    assert {"pluralist", "polarized", "uniform", "segregated"} <= set(available)
    assert available["uniform"].homophily == 0.0
    weights = available["uniform"].category_weights
    assert weights is None or len(set(weights)) == 1
    assert available["segregated"].homophily == 1.0
    for params in available.values():
        generate(replace(params, n_regulars=5))


def test_wing_matrix_tracks_configured_homophily():
    # symmetric population: 4 categories alternating left/right, uniform
    # weights; a seed's interactions hit its own wing with probability
    # h + (1 - h)/2
    h = 0.6
    params = SynthParams(
        rng_seed=3, n_categories=4, n_seeds=40, n_regulars=0, homophily=h,
        minority_categories=(), minority_tweet_share=0.0,
        tweets_per_seed=20, retweets_per_regular=30, replies_per_regular=10,
    )
    matrix = seed_interaction_matrix(generate(params))
    expected = h + (1 - h) / 2
    assert matrix.left_to_left == pytest.approx(expected, abs=0.07)
    assert matrix.right_to_right == pytest.approx(expected, abs=0.07)


def test_round_trip_through_ingest():
    ds = generate(SMALL)
    users_lines, tweet_lines = _serialize(ds)
    rebuilt, report, diags = load_dataset(
        ds.config, users_lines, tweet_lines, min_retweets=0
    )
    assert diags == [] and report.tweets_dropped_dangling == 0
    assert rebuilt.users == ds.users
    assert rebuilt.tweets == ds.tweets
    assert _serialize(rebuilt) == (users_lines, tweet_lines)


_ROUND_TRIP_PARAMS = {**presets(), **PINNED_PARAMS}


def _target_names(tweets) -> list[str | None]:
    """Each row's target as a user id, None for -1."""
    names = tweets.codes.names
    return [names[t] if t >= 0 else None for t in tweets.targets]


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP_PARAMS))
def test_targets_survive_the_round_trip(name, tmp_path):
    """generate sets each retweet's target as it draws it; load_dataset
    resolves it from the written source. The two name the same users, and
    compute_all, which reads the targets, agrees. rows(), table equality
    and the sha256 pins all leave a retweet's target out."""
    ds = generate(_ROUND_TRIP_PARAMS[name])
    paths = write_dataset(ds, tmp_path)
    with open(paths["users"], encoding="utf-8") as users, \
            open(paths["tweets"], encoding="utf-8") as tweets:
        rebuilt, report, diags = load_dataset(ds.config, users, tweets, min_retweets=0)
    assert diags == [] and report.tweets_dropped_dangling == 0
    assert _target_names(rebuilt.tweets) == _target_names(ds.tweets)
    assert compute_all(rebuilt) == compute_all(ds)


def test_oracle_refuses_large_datasets():
    ds = generate(replace(SMALL, n_seeds=20, n_regulars=300,
                          tweets_per_seed=40, retweets_per_regular=30))
    assert len(ds.tweets) > 10_000
    with pytest.raises(ValueError):
        oracle_metrics(ds)


def test_oracle_single_user_hand_computation():
    cfg = config({"a": "left", "b": "right"}, minorities=["s2"])
    users = [seed("s1", "a"), seed("s2", "b"), regular("u1", ["s1"])]
    tweets = [
        original("o1", "s1", 1),
        original("o2", "s1", 2),
        original("om", "s2", 3),
        retweet("r1", "s1", "om", 4),
        retweet("r2", "u1", "o1", 5),
        retweet("r3", "u1", "o2", 6),
    ]
    ds = dataset(cfg, users, tweets)
    per_user, matrix = oracle_metrics(ds)
    assert len(per_user) == 1
    m = per_user[0]
    # indirect = {o1, o2, om}: 2 of category a, 1 of b
    # entropy = -(2/3 ln 2/3 + 1/3 ln 1/3) / ln 2 = 0.63651/0.69315 = 0.91830
    assert m.direct_source_diversity == 0.0
    assert m.indirect_source_diversity == pytest.approx(0.9182958340544896, abs=1e-12)
    assert m.retweet_diversity == 0.0
    assert m.reply_diversity is None
    assert m.minority_reach == 1.0  # the only minority original arrived via r1
    assert m.minority_exposure == pytest.approx(1 / 3)
    assert m.io_correlated is True
    # input share 2/3 and output share 1 both clear the 1/2 + 0.15 floor
    assert m.io_correlated_15 is True
    # s1's retweet of om is one left-to-right seed interaction
    assert matrix.left_interactions == 1
    assert (matrix.left_to_left, matrix.left_to_right) == (0.0, 1.0)
    assert matrix.right_interactions == 0
