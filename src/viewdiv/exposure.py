"""Direct and indirect exposure timelines and their category histograms.

Timelines are sets of tweet ids: an original reaching a user along several
paths counts once. Every timeline member is an original authored by a seed;
a surfaced tweet is attributed to the original author's category, never the
retweeter's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .model import Dataset, TweetKind, UserKind


@dataclass(frozen=True)
class ExposureTimeline:
    """A user's potential exposure: ``direct`` is always a subset of ``indirect``."""

    user_id: str
    direct: frozenset[str]
    indirect: frozenset[str]


@dataclass(frozen=True)
class CategoryHistogram:
    """Tweet counts per category id, normalized against the configured universe ``n``."""

    counts: dict[str, int]
    n: int

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def support(self) -> frozenset[str]:
        return frozenset(c for c, v in self.counts.items() if v > 0)


def _mask(positions) -> int:
    """Bitset with the given bit positions set."""
    bits = 0
    for i in positions:
        bits |= 1 << i
    return bits


class ExposureIndex:
    """Per-seed lookups shared across many timeline computations.

    Building the index costs one pass over the tweets; afterwards each
    user's timeline is assembled from the per-seed pieces. All analysis of a
    dataset of any size should go through one shared index (as
    ``metrics.compute_all`` does) rather than the per-call convenience
    functions below.

    Besides the id sets, the index holds the surfaced part of exposure as
    Python-int bitsets. Bit ``i`` stands for ``source_ids[i]``, the i-th
    retweeted original in id order. Per seed, ``surfaced_mask`` has the
    bits of the originals it retweeted and ``authored_mask`` the bits of
    the retweeted originals it wrote. ``category_masks`` (indexed by
    ``category_pos_of_seed``, the config category order) and
    ``minority_mask`` group the bits by original author. A
    user's surfaced-new originals are then the OR of its followees'
    ``surfaced_mask`` minus the OR of their ``authored_mask``.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        seed_ids = {u.id for u in dataset.users.values() if u.kind is UserKind.SEED}
        self.original_author: dict[str, str] = {}
        originals_by_seed: dict[str, set[str]] = {s: set() for s in seed_ids}
        retweeted_by_seed: dict[str, set[str]] = {s: set() for s in seed_ids}

        for t in dataset.tweets:
            if t.kind is TweetKind.ORIGINAL and t.author_id in seed_ids:
                self.original_author[t.id] = t.author_id
                originals_by_seed[t.author_id].add(t.id)
            elif t.kind is TweetKind.RETWEET and t.author_id in seed_ids:
                # build_dataset guarantees the source is a seed-authored original
                retweeted_by_seed[t.author_id].add(t.source_tweet_id)  # type: ignore[arg-type]

        self.originals_by_seed = {s: frozenset(v) for s, v in originals_by_seed.items()}
        self.retweeted_by_seed = {s: frozenset(v) for s, v in retweeted_by_seed.items()}
        self.category_of_seed = {
            u.id: u.category for u in dataset.users.values() if u.kind is UserKind.SEED
        }
        self.minority_original_ids = frozenset(
            t for t, a in self.original_author.items()
            if a in dataset.config.minority_user_ids
        )

        self.source_ids: tuple[str, ...] = tuple(
            sorted(set().union(*retweeted_by_seed.values()))
        )
        position = {t: i for i, t in enumerate(self.source_ids)}
        bits_by_author: dict[str, list[int]] = {s: [] for s in seed_ids}
        for i, t in enumerate(self.source_ids):
            bits_by_author[self.original_author[t]].append(i)
        self.surfaced_mask = {
            s: _mask(position[t] for t in v) for s, v in retweeted_by_seed.items()
        }
        self.authored_mask = {s: _mask(v) for s, v in bits_by_author.items()}
        category_pos = {c: i for i, c in enumerate(dataset.config.category_ids)}
        self.category_pos_of_seed = {
            s: category_pos[c] for s, c in self.category_of_seed.items()  # type: ignore[index]
        }
        category_masks = [0] * dataset.config.n_categories
        self.minority_mask = 0
        for s, m in self.authored_mask.items():
            category_masks[self.category_pos_of_seed[s]] |= m
            if s in dataset.config.minority_user_ids:
                self.minority_mask |= m
        self.category_masks = tuple(category_masks)

    def direct_ids(self, user_id: str) -> frozenset[str]:
        user = self.dataset.users[user_id]
        out: set[str] = set()
        for f in user.followees:
            out |= self.originals_by_seed.get(f, frozenset())
        return frozenset(out)

    def surfaced_ids(self, user_id: str) -> frozenset[str]:
        """Originals any followee retweeted (may overlap the direct part)."""
        user = self.dataset.users[user_id]
        out: set[str] = set()
        for f in user.followees:
            out |= self.retweeted_by_seed.get(f, frozenset())
        return frozenset(out)

    def timeline(self, user_id: str) -> ExposureTimeline:
        direct = self.direct_ids(user_id)
        return ExposureTimeline(
            user_id=user_id, direct=direct, indirect=direct | self.surfaced_ids(user_id)
        )


def direct_timeline(dataset: Dataset, user_id: str) -> ExposureTimeline:
    """Direct-only exposure: originals published by followed seeds.

    The returned timeline has no surfacing applied, so indirect == direct.
    Unknown user raises KeyError.
    """
    direct = ExposureIndex(dataset).direct_ids(user_id)
    return ExposureTimeline(user_id=user_id, direct=direct, indirect=direct)


def indirect_timeline(dataset: Dataset, user_id: str) -> ExposureTimeline:
    """Full exposure: direct plus originals surfaced by followees' retweets."""
    return ExposureIndex(dataset).timeline(user_id)


def category_histogram(dataset: Dataset, tweet_ids) -> CategoryHistogram:
    """Histogram a set of seed-authored originals by author category.

    Any member that is not a seed-authored original is a contract violation
    and raises ValueError.
    """
    counts: Counter[str] = Counter()
    for tid in tweet_ids:
        t = dataset.tweet(tid)
        author = dataset.users[t.author_id]
        if t.kind is not TweetKind.ORIGINAL or author.kind is not UserKind.SEED:
            raise ValueError(
                f"tweet {tid!r} is not a seed-authored original; "
                "timelines must contain only seed originals"
            )
        counts[author.category] += 1  # type: ignore[index]
    return CategoryHistogram(counts=dict(counts), n=dataset.config.n_categories)


def output_histograms(
    dataset: Dataset, user_id: str
) -> tuple[CategoryHistogram, CategoryHistogram]:
    """Histograms of a user's outgoing behavior: (retweets, replies).

    Retweets count the retweeted original's author category, one count per
    retweet record. Replies count the target seed's category; replies to
    non-seed users are excluded because they carry no category.
    """
    user = dataset.users[user_id]
    retweet_counts: Counter[str] = Counter()
    reply_counts: Counter[str] = Counter()
    for t in dataset.tweets:
        if t.author_id != user.id:
            continue
        if t.kind is TweetKind.RETWEET:
            src_author = dataset.users[dataset.tweet(t.source_tweet_id).author_id]  # type: ignore[arg-type]
            retweet_counts[src_author.category] += 1  # type: ignore[index]
        elif t.kind is TweetKind.REPLY:
            target = dataset.users.get(t.target_user_id or "")
            if target is not None and target.kind is UserKind.SEED:
                reply_counts[target.category] += 1  # type: ignore[index]
    n = dataset.config.n_categories
    return (
        CategoryHistogram(counts=dict(retweet_counts), n=n),
        CategoryHistogram(counts=dict(reply_counts), n=n),
    )
