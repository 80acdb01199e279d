"""Brute-force metric recomputation by exhaustive enumeration.

Ground truth for equivalence testing: every metric is recomputed directly
from its definition with plain loops over this module's own user and tweet
records, built from the rows of the dataset's tables (a follow list is a
set of seed ids, never the follow codes), sharing nothing with the metrics
module (its exposure index included) except the domain types, result
shapes and ``IO_MARGIN``. The set-level exposure view,
:func:`exposure_timeline`, lives here for the same reason. Deliberately
unoptimized; duplication with the fast path is the point. Guarded to small
datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap

from .metrics import IO_MARGIN, UserMetrics, WingMatrix
from .model import (
    LONE_SURROGATE, Dataset, TweetKind, UserKind, Wing, tweet_violation, user_violation,
)

MAX_ORACLE_TWEETS = 10_000


def _invalid_utf8(*fields) -> bool:
    """Whether a str among ``fields`` holds a lone surrogate, for which a
    line holding it gets "invalid UTF-8"."""
    # isascii() reads a flag CPython keeps on every str, so ASCII skips the
    # scan; a plain loop, since a generator for any() costs a frame per call
    for f in fields:
        if isinstance(f, str) and not f.isascii() and LONE_SURROGATE.search(f):
            return True
    return False


@dataclass(frozen=True)
class UserRecord:
    """A seed (categorized content source) or regular (analyzed follower) user.

    Seeds carry exactly one category; regulars carry none and their stance is
    only ever inferred from behavior. Followees are the ids the user follows,
    as read, seeds or not; a dataset's users follow seeds only, since
    :func:`~viewdiv.ingest.validate_config` names every other followed id.
    The fields are held to :func:`~viewdiv.model.user_violation`, and the
    followees must be a frozenset, so that a record hashes and round-trips
    through its line.
    """

    id: str
    kind: UserKind
    category: str | None = None
    followees: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        followees = self.followees if isinstance(self.followees, (list, frozenset)) else ()
        if _invalid_utf8(self.id, self.kind, self.category, *followees):
            raise ValueError("invalid UTF-8")
        problem = user_violation(self.id, self.kind, self.category, self.followees)
        if problem is None and not isinstance(self.followees, frozenset):
            problem = "a record's 'followees' must be a frozenset of ids"
        if problem is not None:
            raise ValueError(problem)


@dataclass(frozen=True)
class TweetRecord:
    """An original tweet, a retweet of an original, or a reply to a user.

    The fields are held to :func:`~viewdiv.model.tweet_violation`. A record
    also refuses a reference its kind does not keep, which a line may carry
    and its row drops: the record could not round-trip.
    """

    id: str
    author_id: str
    kind: TweetKind
    source_tweet_id: str | None = None
    target_user_id: str | None = None
    timestamp: int = 0

    def __post_init__(self) -> None:
        if _invalid_utf8(
            self.id, self.author_id, self.kind, self.source_tweet_id, self.target_user_id
        ):
            raise ValueError("invalid UTF-8")
        problem = tweet_violation(
            self.id, self.author_id, self.kind, self.source_tweet_id, self.target_user_id,
            self.timestamp,
        )
        if problem is None:
            kind = TweetKind(self.kind)
            if self.source_tweet_id is not None and kind is not TweetKind.RETWEET:
                problem = f"{kind.value} {self.id!r} must not carry source_tweet_id"
            elif self.target_user_id is not None and kind is not TweetKind.REPLY:
                problem = f"{kind.value} {self.id!r} must not carry target_user_id"
        if problem is not None:
            raise ValueError(problem)


def _records(dataset: Dataset) -> tuple[dict[str, UserRecord], list[TweetRecord]]:
    """The dataset's users as records by id, and its tweets as records in
    table order, built from the tables' rows."""
    users = {
        uid: UserRecord(uid, kind, category, frozenset(followees))
        for uid, kind, category, followees in dataset.users.rows()
    }
    return users, list(starmap(TweetRecord, dataset.tweets.rows()))


@dataclass(frozen=True)
class ExposureTimeline:
    """A user's potential exposure as tweet id sets: ``direct`` is always a
    subset of ``indirect``."""

    user_id: str
    direct: frozenset[str]
    indirect: frozenset[str]


def exposure_timeline(dataset: Dataset, user_id: str) -> ExposureTimeline:
    """The originals a user's followees wrote (direct), plus the ones they
    retweeted (indirect).

    An original reaching the user along several paths is one member. An
    unknown user raises KeyError.
    """
    users, tweets = _records(dataset)
    return _timeline(users[user_id], tweets)


def _timeline(user: UserRecord, tweets: list[TweetRecord]) -> ExposureTimeline:
    """:func:`exposure_timeline` by a scan of every tweet per followee."""
    direct: set[str] = set()
    surfaced: set[str] = set()
    for f in user.followees:
        for t in tweets:
            if t.author_id != f:
                continue
            if t.kind is TweetKind.ORIGINAL:
                direct.add(t.id)
            elif t.kind is TweetKind.RETWEET:
                surfaced.add(t.source_tweet_id)  # type: ignore[arg-type]
    return ExposureTimeline(user.id, frozenset(direct), frozenset(direct | surfaced))


def _entropy(counts: list[int], n: int) -> float | None:
    total = sum(counts)
    if total == 0:
        return None
    acc = 0.0
    for c in counts:
        if c > 0:
            share = c / total
            acc -= share * math.log(share)
    return acc / math.log(n)


def _argmax_unique(by_cat: dict[str, int]) -> str | None:
    best = None
    best_count = -1
    tied = False
    for cat, count in by_cat.items():
        if count > best_count:
            best, best_count, tied = cat, count, False
        elif count == best_count:
            tied = True
    return None if tied else best


def oracle_metrics(dataset: Dataset) -> tuple[list[UserMetrics], WingMatrix]:
    """Recompute everything ``metrics.compute_all`` produces, the slow way."""
    if len(dataset.tweets) > MAX_ORACLE_TWEETS:
        raise ValueError(
            f"oracle refuses datasets over {MAX_ORACLE_TWEETS} tweets "
            f"(got {len(dataset.tweets)})"
        )

    cfg = dataset.config
    n = cfg.n_categories
    # every scan below reads these records, built once from the tables
    users, tweets = _records(dataset)
    seeds = {uid: u for uid, u in users.items() if u.kind is UserKind.SEED}

    all_minority_originals = set()
    for t in tweets:
        if (
            t.kind is TweetKind.ORIGINAL
            and t.author_id in seeds
            and t.author_id in cfg.minority_user_ids
        ):
            all_minority_originals.add(t.id)

    def author_of_original(tweet_id: str) -> str:
        for t in tweets:
            if t.id == tweet_id:
                return t.author_id
        raise KeyError(tweet_id)

    def histogram(original_ids: set[str]) -> dict[str, int]:
        by_cat = {c.id: 0 for c in cfg.categories}
        for oid in original_ids:
            by_cat[seeds[author_of_original(oid)].category] += 1
        return by_cat

    results: list[UserMetrics] = []
    regulars = sorted(uid for uid, u in users.items() if u.kind is UserKind.REGULAR)
    for uid in regulars:
        timeline = _timeline(users[uid], tweets)
        direct = set(timeline.direct)
        indirect = set(timeline.indirect)

        direct_hist = histogram(direct)
        indirect_hist = histogram(indirect)

        rt_by_cat = {c.id: 0 for c in cfg.categories}
        reply_by_cat = {c.id: 0 for c in cfg.categories}
        for t in tweets:
            if t.author_id != uid:
                continue
            if t.kind is TweetKind.RETWEET:
                rt_by_cat[seeds[author_of_original(t.source_tweet_id)].category] += 1
            elif t.kind is TweetKind.REPLY and t.target_user_id in seeds:
                reply_by_cat[seeds[t.target_user_id].category] += 1

        minority_received = len(indirect & all_minority_originals)
        reach = (
            minority_received / len(all_minority_originals)
            if all_minority_originals
            else None
        )
        exposure = minority_received / len(indirect) if indirect else None

        def io(margin: float) -> bool | None:
            if not indirect or sum(rt_by_cat.values()) == 0:
                return None
            in_cat = _argmax_unique(indirect_hist)
            out_cat = _argmax_unique(rt_by_cat)
            if in_cat is None or out_cat is None or in_cat != out_cat:
                return False
            if margin > 0:
                in_share = indirect_hist[in_cat] / sum(indirect_hist.values())
                out_share = rt_by_cat[out_cat] / sum(rt_by_cat.values())
                if in_share < 1.0 / n + margin or out_share < 1.0 / n + margin:
                    return False
            return True

        results.append(
            UserMetrics(
                user_id=uid,
                direct_source_diversity=_entropy(list(direct_hist.values()), n),
                indirect_source_diversity=_entropy(list(indirect_hist.values()), n),
                retweet_diversity=_entropy(list(rt_by_cat.values()), n),
                reply_diversity=_entropy(list(reply_by_cat.values()), n),
                minority_reach=reach,
                minority_exposure=exposure,
                io_correlated=io(0.0),
                io_correlated_15=io(IO_MARGIN),
            )
        )

    cells = {
        (Wing.LEFT, Wing.LEFT): 0,
        (Wing.LEFT, Wing.RIGHT): 0,
        (Wing.RIGHT, Wing.LEFT): 0,
        (Wing.RIGHT, Wing.RIGHT): 0,
    }
    for t in tweets:
        actor = seeds.get(t.author_id)
        if actor is None:
            continue
        if t.kind is TweetKind.RETWEET:
            target_id = author_of_original(t.source_tweet_id)
        elif t.kind is TweetKind.REPLY:
            target_id = t.target_user_id
        else:
            continue
        target = seeds.get(target_id)
        if target is None:
            continue
        aw = cfg.wing_of(actor.category)
        tw = cfg.wing_of(target.category)
        if Wing.UNALIGNED in (aw, tw):
            continue
        cells[(aw, tw)] += 1

    lt = cells[(Wing.LEFT, Wing.LEFT)] + cells[(Wing.LEFT, Wing.RIGHT)]
    rt = cells[(Wing.RIGHT, Wing.LEFT)] + cells[(Wing.RIGHT, Wing.RIGHT)]
    matrix = WingMatrix(
        left_to_left=cells[(Wing.LEFT, Wing.LEFT)] / lt if lt else 0.0,
        left_to_right=cells[(Wing.LEFT, Wing.RIGHT)] / lt if lt else 0.0,
        right_to_left=cells[(Wing.RIGHT, Wing.LEFT)] / rt if rt else 0.0,
        right_to_right=cells[(Wing.RIGHT, Wing.RIGHT)] / rt if rt else 0.0,
        left_interactions=lt,
        right_interactions=rt,
    )
    return results, matrix
