"""Synthetic population generator with controllable homophily.

The generative model is a simple mixture: each user has a "home" category
(a seed its own, a regular a draw from the category weights), and any
category-directed choice (who to follow, what to retweet, whom to reply
to) puts probability mass h on the home category and spreads 1 - h
uniformly over all n categories. h = 0 gives category-blind behavior,
h = 1 a fully segregated population.

Volume model: non-minority seeds draw their original-tweet counts from
Poisson(tweets_per_seed); the minority pool's total volume is set so the
minority share of all originals hits ``minority_tweet_share`` (within
integer rounding) and is split multinomially across minority seeds.

Activity has one rule for seeds and regulars alike. Retweet and reply
counts are Poisson around the configured means times a factor and are
split over the categories by the user's mixture; a retweet picks a
reachable seed weighted by its volume, then one of its originals
uniformly, and a reply picks a reachable seed uniformly. A seed reaches
every other seed at ``SEED_ACTIVITY_FACTOR``, which is what shapes the
wing interaction matrix; a regular reaches the seeds it follows at 1.
Tweet ids (``t00000001``, ...) and timestamps both number the tweets from
1 in generation order.

Generation is single-threaded and fully deterministic for a fixed
``rng_seed``: one numpy Generator, fixed draw order. A retweet picks its
seed from cumulative shares with ``Generator.choice``'s own algorithm
(:func:`_choice_draw`), so the draws, and the files
:func:`~viewdiv.ingest.write_dataset` writes, are the ones a ``choice``
call per retweet gives (``tests/test_synth.py`` pins them by sha256). The
shares are computed once per category, once per seed for its own category
less itself, and once per regular only for a category it follows in part;
the mixture split of a draw count is computed once per home category and
set of usable categories. The tweets go straight into the table's columns,
each seed's originals as one run of rows, and each retweet gets its
target, the seed it drew, as it is drawn, like ingest's
``resolve_tweets``; ingest's ``build_dataset`` applies the other rules. At
997,929 tweets (the throughput test's parameters with ``n_regulars=20000``
and ``tweets_per_seed=4000``), generating and writing take 4.3 s
(generating 2.9-3.3 s, writing 1.1-1.4 s) and peak at 188 MiB (medians and
ranges of 3 runs on a 2-vCPU Linux VM, Python 3.11.7, numpy 2.4.6).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .ingest import build_dataset
from .model import (
    CodeMap,
    CountryConfig,
    ORIGINAL,
    REPLY,
    RETWEET,
    Dataset,
    PoliticalCategory,
    TweetTable,
    UserTable,
    Wing,
)

# Base follow probability at h = 0; scaled by the mixture so that a home
# category at high h is followed with probability up to 1.
FOLLOW_DENSITY = 0.5

# Seeds retweet/reply at this multiple of the regular-user activity means.
# Seed retweets are what surface tweets into followers' indirect timelines,
# so this also sets the strength of indirect exposure.
SEED_ACTIVITY_FACTOR = 0.5

# The largest volume mean (tweets_per_seed, retweets_per_regular,
# replies_per_regular) generate accepts: far above any preset, yet it keeps
# the draws, and the tweets they post, from growing without bound.
MAX_VOLUME_MEAN = 1e6

# The largest n_categories generate accepts: it builds one mixture of n
# floats per category, so 1,000 categories hold 8 MB of mixtures. The
# largest universe in use has 9 (configs/turkey.json).
MAX_CATEGORIES = 1_000

# The largest sizes generate accepts, each about 5x the largest in use
# (1,000 seeds in the dense_follow benchmark workload; 20,100 users, 2.01M
# draws and 997,929 tweets at the 1M-tweet point above). MAX_USERS bounds
# n_seeds + n_regulars. MAX_DRAWS bounds n_seeds * (n_seeds + n_regulars):
# each regular draws once per seed to pick its follows, and each user's
# reach lists name up to every seed. It also bounds n_categories *
# (n_seeds + n_regulars): each user's activity walks every category, at
# about 1.3 us a walk (measured at 1,000 categories), so the bound allows
# about 15 s of walks. MAX_TWEETS bounds the tweet count the means give
# before any draw (_expected_tweets). Measured at 1/2 to 1/100
# of the bounds (Python 3.11.7, numpy 2.4.6), a user holds about 700 bytes,
# a follow 50 and a tweet 180 until the dataset is written, so the bounds
# allow about 70 MB of users, 0.5 GB of follows and 1.8 GB of tweets. The
# mixture shares are cached, at most two per user (retweets and replies)
# and one per home category (the guaranteed followee), each about 10 bytes
# per category (9.7 KB at 1,000 categories, by tracemalloc), so the
# n_categories bound on MAX_DRAWS holds them to about 0.2 GB; the benchmark
# workloads cache 5 to 1,221. About 2.6 GB in all.
MAX_USERS = 100_000
MAX_DRAWS = 10_000_000
MAX_TWEETS = 10_000_000


@dataclass(frozen=True)
class SynthParams:
    """Generator knobs. ``category_weights`` / ``minority_categories`` of
    None mean uniform weights and {last category} respectively."""

    rng_seed: int = 0
    n_categories: int = 5
    category_weights: tuple[float, ...] | None = None
    n_seeds: int = 50
    n_regulars: int = 200
    homophily: float = 0.5
    minority_categories: tuple[str, ...] | None = None
    minority_tweet_share: float = 0.15
    tweets_per_seed: float = 30.0
    retweets_per_regular: float = 10.0
    replies_per_regular: float = 4.0


def _is_number(v) -> bool:
    return type(v) in (int, float)


# A check per SynthParams field type (as spelled under postponed
# annotations). A JSON list stands for a tuple; an int field takes no bool
# and no float, a float field any JSON number but no bool.
_PARAM_CHECKS = {
    "int": lambda v: type(v) is int,
    "float": _is_number,
    "tuple[float, ...] | None": lambda v: v is None
    or (type(v) is list and all(_is_number(x) for x in v)),
    "tuple[str, ...] | None": lambda v: v is None
    or (type(v) is list and all(type(x) is str for x in v)),
}


def params_from_object(raw: dict, source: str | Path) -> SynthParams:
    """``SynthParams`` from a decoded JSON object, held to the fields'
    types; a key that is no field or a value of another type raises
    ``ValueError("<source>: malformed synth params (<reason>)")``. Ranges
    and sizes are :func:`generate`'s to check."""
    types = {f.name: f.type for f in fields(SynthParams)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"{source}: malformed synth params (unknown keys: {sorted(unknown)})")
    for name, value in raw.items():
        if not _PARAM_CHECKS[types[name]](value):
            raise ValueError(f"{source}: malformed synth params ('{name}' must be {types[name]})")
    return SynthParams(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def _apportion(total: int, weights: tuple[float, ...]) -> list[int]:
    """Largest-remainder apportionment; deterministic, ties to lower index."""
    quotas = [total * w for w in weights]
    base = [math.floor(q) for q in quotas]
    leftover = total - sum(base)
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def _resolve(params: SynthParams) -> tuple[SynthParams, list[str], list[int]]:
    """Validate params; returns (resolved params, category ids, seeds per category)."""
    p = params
    if p.n_categories < 2:
        raise ValueError(f"n_categories must be >= 2, got {p.n_categories}")
    if p.n_categories > MAX_CATEGORIES:
        raise ValueError(f"n_categories must be at most {MAX_CATEGORIES}, got {p.n_categories}")
    if p.n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if p.n_regulars < 0:
        raise ValueError("n_regulars must be >= 0")
    if not 0.0 <= p.homophily <= 1.0:
        raise ValueError(f"homophily must be in [0, 1], got {p.homophily}")
    if not 0.0 <= p.minority_tweet_share <= 1.0:
        raise ValueError("minority_tweet_share must be in [0, 1]")
    for name in ("tweets_per_seed", "retweets_per_regular", "replies_per_regular"):
        mean = getattr(p, name)
        # NaN compares false, so a range check alone would let it through
        if not math.isfinite(mean) or mean < 0:
            raise ValueError(f"{name} must be finite and non-negative, got {mean}")
        if mean > MAX_VOLUME_MEAN:
            raise ValueError(f"{name} must be at most {MAX_VOLUME_MEAN:g}, got {mean}")
    if p.rng_seed < 0:
        raise ValueError("rng_seed must be non-negative")

    cat_ids = [f"cat{i + 1}" for i in range(p.n_categories)]
    if p.category_weights is None:
        weights = tuple(1.0 / p.n_categories for _ in cat_ids)
    else:
        weights = tuple(float(w) for w in p.category_weights)
        if len(weights) != p.n_categories:
            raise ValueError(
                f"category_weights has {len(weights)} entries for "
                f"{p.n_categories} categories"
            )
        if not all(map(math.isfinite, weights)):
            raise ValueError(f"category_weights must be finite, got {list(weights)}")
        if any(w < 0 for w in weights):
            raise ValueError("category_weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"category_weights sum to {sum(weights)}, expected 1")

    if p.minority_categories is None:
        minority = (cat_ids[-1],)
    else:
        minority = tuple(p.minority_categories)
        unknown = set(minority) - set(cat_ids)
        if unknown:
            raise ValueError(f"minority_categories not in universe: {sorted(unknown)}")

    seeds_per_cat = _apportion(p.n_seeds, weights)
    minority_seats = sum(
        c for c, cid in zip(seeds_per_cat, cat_ids) if cid in minority
    )
    if p.minority_tweet_share > 0 and minority_seats == 0:
        raise ValueError(
            "minority_tweet_share > 0 but no seed lands in a minority category"
        )
    if p.minority_tweet_share >= 1.0 and minority_seats < p.n_seeds:
        raise ValueError(
            "minority_tweet_share of 1.0 requires every seed to be minority"
        )

    users = p.n_seeds + p.n_regulars
    if users > MAX_USERS:
        raise ValueError(f"n_seeds + n_regulars must be at most {MAX_USERS}, got {users}")
    if p.n_seeds * users > MAX_DRAWS:
        raise ValueError(
            f"n_seeds * (n_seeds + n_regulars) must be at most {MAX_DRAWS}, "
            f"got {p.n_seeds * users}"
        )
    if p.n_categories * users > MAX_DRAWS:
        raise ValueError(
            f"n_categories * (n_seeds + n_regulars) must be at most {MAX_DRAWS}, "
            f"got {p.n_categories * users}"
        )
    tweets = _expected_tweets(p, minority_seats)
    if tweets > MAX_TWEETS:
        raise ValueError(
            f"the expected tweet count must be at most {MAX_TWEETS}, got {round(tweets)}"
        )

    resolved = replace(p, category_weights=weights, minority_categories=minority)
    return resolved, cat_ids, seeds_per_cat


def _expected_tweets(p: SynthParams, minority_seats: int) -> float:
    """The tweet count the means give, before any draw: the originals,
    whose minority pool is sized to hit ``minority_tweet_share``, plus
    every user's retweets and replies."""
    share = p.minority_tweet_share
    if share >= 1.0:
        originals = minority_seats * p.tweets_per_seed
    else:
        originals = (p.n_seeds - minority_seats) * p.tweets_per_seed / (1.0 - share)
    activity = SEED_ACTIVITY_FACTOR * p.n_seeds + p.n_regulars
    return originals + activity * (p.retweets_per_regular + p.replies_per_regular)


def _mixture(home_idx: int, h: float, n: int) -> np.ndarray:
    m = np.full(n, (1.0 - h) / n)
    m[home_idx] += h
    return m


def _choice_cdf(weights: np.ndarray) -> list[float]:
    """The cumulative shares that ``Generator.choice(len(weights), p=weights
    / weights.sum())`` searches, computed as choice computes them."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _choice_draw(cdf: list[float], rng: np.random.Generator) -> int:
    """One index drawn as ``Generator.choice`` draws it from the shares of
    ``cdf`` (see :func:`_choice_cdf`): one ``random()``, then choice's
    ``searchsorted(..., side="right")``, which on the ascending ``cdf`` is
    ``bisect_right``. The same stream gives the same index as choice, without
    choice's checks and sum of ``p`` on every call."""
    return bisect_right(cdf, rng.random())


def _without(seq: list[int], x: int) -> list[int]:
    """``seq`` less its one ``x``."""
    i = seq.index(x)
    return seq[:i] + seq[i + 1:]


def generate(params: SynthParams) -> Dataset:
    """Generate a validated Dataset; byte-identical for identical params.
    Ids never repeat and every reference resolves, so
    :func:`~viewdiv.ingest.build_dataset` drops nothing."""
    p, cat_ids, seeds_per_cat = _resolve(params)
    n = p.n_categories
    h = p.homophily
    weights = np.asarray(p.category_weights, dtype=float)
    minority_cats = set(p.minority_categories or ())
    rng = np.random.default_rng(p.rng_seed)
    mixtures = [_mixture(ci, h, n) for ci in range(n)]  # by home category

    categories = tuple(
        PoliticalCategory(cid, Wing.LEFT if i % 2 == 0 else Wing.RIGHT)
        for i, cid in enumerate(cat_ids)
    )

    # seeds in category order, ids s0001..; regulars u000001..
    seed_ids: list[str] = []
    seed_cat_idx: list[int] = []
    for ci, count in enumerate(seeds_per_cat):
        for _ in range(count):
            seed_ids.append(f"s{len(seed_ids) + 1:04d}")
            seed_cat_idx.append(ci)
    is_minority_seed = [cat_ids[ci] in minority_cats for ci in seed_cat_idx]
    minority_user_ids = frozenset(
        sid for sid, m in zip(seed_ids, is_minority_seed) if m
    )

    # original volumes: one Poisson pool, the minority seeds at share 1
    # (_resolve makes every seed one) and the others below; then, at a
    # share strictly between, a total for the minority seeds that hits it,
    # split multinomially. A draw of size 0 takes nothing from the stream.
    volumes = np.zeros(len(seed_ids), dtype=int)
    nm_idx = [i for i, m in enumerate(is_minority_seed) if not m]
    m_idx = [i for i, m in enumerate(is_minority_seed) if m]
    share = p.minority_tweet_share
    pool = m_idx if share >= 1.0 else nm_idx
    volumes[pool] = rng.poisson(p.tweets_per_seed, size=len(pool))
    if 0.0 < share < 1.0:
        nm_total = int(volumes[nm_idx].sum())
        if nm_total == 0:
            raise ValueError(
                "non-minority seeds produced no originals; cannot target "
                f"minority share {share} (raise tweets_per_seed)"
            )
        target = round(share / (1.0 - share) * nm_total)
        volumes[m_idx] = rng.multinomial(target, np.full(len(m_idx), 1.0 / len(m_idx)))

    # One code map for every id, so a seed's code is its index and a
    # regular's n_seeds plus its index. Ids never repeat, and a retweet's
    # target, the seed it drew, is what ingest.resolve_tweets would set.
    regular_ids = [f"u{i + 1:06d}" for i in range(p.n_regulars)]
    codes = CodeMap(seed_ids + regular_ids)
    tweets = TweetTable(codes)
    ids = tweets.ids

    def post(kind: int, author: int, sources: Iterable[str | None], targets: list[int]) -> None:
        """Append one row per target, each a ``kind`` tweet by ``author``
        with its source from ``sources``; a row's id and timestamp both
        number it from 1."""
        start = len(ids) + 1
        stop = start + len(targets)
        ids.extend(map("t%08d".__mod__, range(start, stop)))
        tweets.kinds.extend(bytes([kind]) * len(targets))
        tweets.authors.extend(repeat(author, len(targets)))
        tweets.sources.extend(sources)
        tweets.targets.extend(targets)
        tweets.timestamps.extend(range(start, stop))

    # each seed's originals as one run of rows, from first_row[si]
    vol = volumes.tolist()
    first_row = []
    for si, v in enumerate(vol):
        first_row.append(len(ids))
        post(ORIGINAL, si, repeat(None, v), [-1] * v)

    # per category, the seeds in seed order, and those with originals to
    # retweet
    seeds_in_cat: list[list[int]] = [[] for _ in range(n)]
    for si, ci in enumerate(seed_cat_idx):
        seeds_in_cat[ci].append(si)
    cands_in_cat = [[si for si in seeds if vol[si] > 0] for seeds in seeds_in_cat]

    def volume_cdf(cands: list[int]) -> list[float]:
        return _choice_cdf(np.array([vol[si] for si in cands], dtype=float))

    # per category, the cdf over all its seeds with originals
    cat_cdfs = [volume_cdf(cands) if cands else None for cands in cands_in_cat]

    # the mixture shares restricted to the usable categories, by (home
    # category, bytes of the usable flags); None when none is usable
    shares_of: dict[tuple[int, bytes], np.ndarray | None] = {}

    def restricted_shares(home: int, lists: list[list[int]]) -> np.ndarray | None:
        """The home category's mixture restricted to the categories whose
        list is non-empty, uniform over them when the restricted mass is
        zero; None when none is."""
        key = (home, bytes(map(bool, lists)))
        if key not in shares_of:
            usable = np.frombuffer(key[1], dtype=bool)
            w = mixtures[home] * usable
            total = w.sum()
            if total <= 0.0 and usable.any():
                w = usable.astype(float)
                total = w.sum()
            shares_of[key] = w / total if total > 0.0 else None
        return shares_of[key]

    def split_by_mixture(k: int, home: int, lists: list[list[int]]) -> list[int]:
        """Split k draws over the categories by :func:`restricted_shares`,
        nothing when it is None. With k = 0 nothing is drawn:
        multinomial(0, p) takes nothing from the stream."""
        shares = restricted_shares(home, lists) if k else None
        return [0] * n if shares is None else rng.multinomial(k, shares).tolist()

    def act(
        author: int,
        home: int,
        reach: list[list[int]],
        cands_in: list[list[int]],
        factor: float,
    ) -> None:
        """Retweets and replies of the user coded ``author`` by the one
        activity rule; per category, ``reach`` holds the seed indexes it
        can act on and ``cands_in`` those with originals, in seed order: a
        sub-list of ``cands_in_cat``'s, so it is that whole list, and draws
        from the shared ``cat_cdfs`` entry, exactly when it is as long."""
        k = int(rng.poisson(factor * p.retweets_per_regular))
        sources: list[str] = []
        targets: list[int] = []
        for ci, cnt in enumerate(split_by_mixture(k, home, cands_in)):
            if not cnt:
                continue
            cands = cands_in[ci]
            cdf = cat_cdfs[ci] if len(cands) == len(cands_in_cat[ci]) else volume_cdf(cands)
            for _ in range(cnt):
                si = cands[_choice_draw(cdf, rng)]
                sources.append(ids[first_row[si] + int(rng.integers(0, vol[si]))])
                targets.append(si)
        post(RETWEET, author, sources, targets)
        k = int(rng.poisson(factor * p.replies_per_regular))
        targets = [
            seeds[int(rng.integers(0, len(seeds)))]
            for seeds, cnt in zip(reach, split_by_mixture(k, home, reach))
            for _ in range(cnt)
        ]
        post(REPLY, author, repeat(None, len(targets)), targets)

    # seeds act on every other seed: the category lists, less the seed
    # itself in its own category
    for si in range(len(seed_ids)):
        home = seed_cat_idx[si]
        reach = list(seeds_in_cat)
        reach[home] = _without(seeds_in_cat[home], si)
        cands_in = list(cands_in_cat)
        if vol[si]:
            cands_in[home] = _without(cands_in_cat[home], si)
        act(si, home, reach, cands_in, SEED_ACTIVITY_FACTOR)

    # regulars: home category, Bernoulli follows, then activity on the followed seeds
    home_draws = rng.choice(n, size=p.n_regulars, p=weights)
    # per home category, each seed's follow probability
    follow_p_of_seed = [
        np.minimum(1.0, FOLLOW_DENSITY * n * mix)[seed_cat_idx] for mix in mixtures
    ]
    followees_of: list[list[int]] = []
    for ri in range(p.n_regulars):
        home = int(home_draws[ri])
        follows = np.flatnonzero(rng.random(len(seed_ids)) < follow_p_of_seed[home]).tolist()
        if not follows:
            # guarantee at least one followee so direct exposure is defined
            ci = int(rng.choice(n, p=restricted_shares(home, seeds_in_cat)))
            follows = [seeds_in_cat[ci][int(rng.integers(0, len(seeds_in_cat[ci])))]]
        followees_of.append(follows)

    for ri, follows in enumerate(followees_of):
        reach = [[] for _ in range(n)]
        for si in follows:
            reach[seed_cat_idx[si]].append(si)
        cands_in = [[si for si in seeds if vol[si] > 0] for seeds in reach]
        act(len(seed_ids) + ri, int(home_draws[ri]), reach, cands_in, 1.0)

    # The users as table columns: each drawn follow list is the seeds'
    # codes (a seed's code is its index), a seed has a category, a regular None.
    users = UserTable(
        seed_ids + regular_ids,
        [cat_ids[ci] for ci in seed_cat_idx] + [None] * len(regular_ids),
        [[] for _ in seed_ids] + followees_of,
        codes,
    )
    config = CountryConfig(
        name="synthetic",
        categories=categories,
        minority_user_ids=minority_user_ids,
    )
    return build_dataset(config, users, tweets, b"\x01" * len(tweets))[0]


def presets() -> dict[str, SynthParams]:
    """Named parameter sets.

    ``uniform`` and ``segregated`` are the h = 0 / h = 1 extremes.
    ``pluralist`` models a low-polarization population (moderate homophily,
    well-connected minority); ``polarized`` a heavily polarized one (strong
    homophily, dominant majority category, marginal minority). Both
    calibrated presets share one five-category universe (so they can be
    compared directly), keep the minority share of published tweets at 15%,
    and differ sharply in how much of the minority output reaches users.
    """
    return {
        "uniform": SynthParams(
            rng_seed=7,
            n_categories=5,
            n_seeds=50,
            n_regulars=500,
            homophily=0.0,
            minority_tweet_share=0.15,
        ),
        "segregated": SynthParams(
            rng_seed=7,
            n_categories=5,
            n_seeds=50,
            n_regulars=500,
            homophily=1.0,
            minority_tweet_share=0.15,
        ),
        # calibrated so population mean minority reach lands near 0.17 with
        # few users under 0.05
        "pluralist": SynthParams(
            rng_seed=11,
            n_categories=5,
            category_weights=(0.28, 0.28, 0.29, 0.075, 0.075),
            n_seeds=200,
            n_regulars=2000,
            homophily=0.85,
            minority_categories=("cat4", "cat5"),
            minority_tweet_share=0.15,
            tweets_per_seed=30.0,
            retweets_per_regular=10.0,
            replies_per_regular=4.0,
        ),
        # calibrated so population mean minority reach lands near 0.04 with
        # most users under 0.05; shares the pluralist category universe so
        # the two presets are directly comparable
        "polarized": SynthParams(
            rng_seed=11,
            n_categories=5,
            category_weights=(0.56, 0.24, 0.16, 0.02, 0.02),
            n_seeds=90,
            n_regulars=2000,
            homophily=0.95,
            minority_categories=("cat4", "cat5"),
            minority_tweet_share=0.15,
            tweets_per_seed=30.0,
            retweets_per_regular=10.0,
            replies_per_regular=4.0,
        ),
    }
