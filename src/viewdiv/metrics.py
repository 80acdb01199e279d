"""Per-user viewpoint-diversity metrics and the seed interaction matrix.

A user's direct exposure is the originals its followees wrote; its indirect
exposure adds the originals its followees retweeted, each counted once
however many paths reach it, and attributed to the original author's
category, never the retweeter's. The set-level definition lives in
:mod:`viewdiv.oracle`; :class:`ExposureIndex` holds the counts and bitsets
the fast path needs, one row per user code, and the fast path reads each
follow list and each tweet's author and target as codes of the one code
map the user and tweet tables share.

All unit-interval metrics are ``None`` ("undefined") when the underlying
activity is empty; undefined values are excluded from population statistics
rather than coerced to 0, which would conflate inactivity with zero
diversity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from .model import REPLY, RETWEET, Dataset, Wing

IO_MARGIN = 0.15  # the "bias above 15%" of io_correlated_15


@dataclass(frozen=True)
class UserMetrics:
    user_id: str
    direct_source_diversity: float | None
    indirect_source_diversity: float | None
    retweet_diversity: float | None
    reply_diversity: float | None
    minority_reach: float | None
    minority_exposure: float | None
    io_correlated: bool | None
    io_correlated_15: bool | None


@dataclass(frozen=True)
class WingMatrix:
    """Row-normalized left/right interaction shares among seed users.

    Row = wing of the acting seed, column = wing of the retweeted/replied-to
    seed; unaligned actors and targets are excluded. A row with no
    interactions has zero cells.
    """

    left_to_left: float
    left_to_right: float
    right_to_left: float
    right_to_right: float
    left_interactions: int
    right_interactions: int


def normalized_entropy(counts: Sequence[int], n: int) -> float | None:
    """Shannon entropy of the category shares, normalized to [0, 1].

    ``counts`` holds one tweet count per category and ``n`` is the size of
    the configured category universe (n >= 2 required). Computed as
    -sum(p_i * ln(p_i)) / ln(n) over the positive counts, summed in the
    given order. All-zero counts are undefined. Exactly 1.0 iff all n
    categories have the same positive count; exactly 0.0 iff a single
    category holds everything. The log base cancels between numerator and
    denominator.
    """
    if n < 2:
        raise ValueError(f"normalized entropy needs n >= 2 categories, got {n}")
    positive = [c for c in counts if c > 0]
    if any(c < 0 for c in counts):
        raise ValueError("histogram counts must be non-negative")
    if not positive:
        return None
    if len(positive) == 1:
        return 0.0
    if len(positive) == n and len(set(positive)) == 1:
        return 1.0
    total = sum(positive)
    acc = 0.0
    for c in positive:
        p = c / total
        acc += p * math.log(p)
    return min(1.0, max(0.0, -acc / math.log(n)))


def _dominant(counts: list[int]) -> tuple[int | None, float]:
    """Position of the unique largest count and its share; (None, share) on a tie."""
    total = sum(counts)
    best = max(counts)
    winners = [i for i, v in enumerate(counts) if v == best]
    share = best / total
    return (winners[0] if len(winners) == 1 else None), share


def _io_correlation(
    input_counts: list[int], output_counts: list[int], n: int
) -> tuple[bool | None, bool | None]:
    """``(io_correlated, io_correlated_15)`` from one dominance pass.

    The first flag says whether the dominant received category equals the
    dominant retweeted one; the second also asks both dominant shares to be
    at least ``1/n +`` :data:`IO_MARGIN`. Both lists are per-category counts
    in config category order. Both flags are undefined when either list is
    all zero.
    """
    if not any(input_counts) or not any(output_counts):
        return None, None
    in_pos, in_share = _dominant(input_counts)
    out_pos, out_share = _dominant(output_counts)
    if in_pos is None or in_pos != out_pos:
        # no single dominant category on a tie, or two different ones
        return False, False
    floor = 1.0 / n + IO_MARGIN
    return True, in_share >= floor and out_share >= floor


def seed_interaction_matrix(dataset: Dataset) -> WingMatrix:
    """Left/right interaction shares over seed retweets and seed-to-seed replies.

    Interactions whose actor or target is unaligned are skipped.
    A retweet's target is the seed that wrote its source, as resolved in
    the tweet table.
    """
    side = {Wing.LEFT: 0, Wing.RIGHT: 1}
    side_of_category = {c.id: side.get(c.wing) for c in dataset.config.categories}
    tweets = dataset.tweets
    # a regular's category, None, has no side
    side_of = dataset.users.per_code(map(side_of_category.get, dataset.users.categories), None)
    cells = [[0, 0], [0, 0]]  # [actor side][target side], left = 0
    # an original's target, -1, has side None
    for author, target in zip(tweets.authors, tweets.targets):
        actor_side = side_of[author]
        target_side = side_of[target]
        if actor_side is not None and target_side is not None:
            cells[actor_side][target_side] += 1

    (ll, lr), (rl, rr) = cells
    left_total = ll + lr
    right_total = rl + rr
    return WingMatrix(
        left_to_left=ll / left_total if left_total else 0.0,
        left_to_right=lr / left_total if left_total else 0.0,
        right_to_left=rl / right_total if right_total else 0.0,
        right_to_right=rr / right_total if right_total else 0.0,
        left_interactions=left_total,
        right_interactions=right_total,
    )


class ExposureIndex:
    """Per-seed pieces of every user's exposure, from one read of the table.

    ``seeds`` holds, for each code of the dataset's code map (what a
    follow list and the tweet table hold), the row a user's followee loop
    adds up: ``(volume, category position, minority volume, surfaced bits,
    authored bits)``, all 0 for a code that names no seed. The volume is
    the number of originals the seed wrote, its whole direct contribution
    (followed seeds' originals never overlap); the minority volume is the
    same number for a minority seed and 0 otherwise. The bits are
    Python-int bitsets over the originals some seed retweeted, bit ``i``
    for the i-th distinct one in table order: the ones the seed retweeted,
    and the ones it wrote. Each retweet's source author is its target in
    the tweet table, the resolution ingest made once.

    ``category_of`` is each code's category position in config order,
    ``None`` for a non-seed and for code -1. ``category_masks`` (config
    category order) and ``minority_mask`` group the bits by original
    author.
    """

    def __init__(self, dataset: Dataset):
        config = dataset.config
        users = dataset.users
        tweets = dataset.tweets
        category_pos = {c: i for i, c in enumerate(config.category_ids)}
        # a regular's category, None, has no position
        category_of = users.per_code(map(category_pos.get, users.categories), None)
        self.category_of = category_of

        position: dict[str, int] = {}
        surfaced: dict[int, int] = {}
        authored: dict[int, int] = {}
        for author, source, source_author in compress(
            zip(tweets.authors, tweets.sources, tweets.targets), tweets.select(RETWEET)
        ):
            if category_of[author] is None:
                continue
            bit = position.get(source)  # type: ignore[arg-type]
            if bit is None:
                bit = position[source] = len(position)  # type: ignore[index]
                authored[source_author] = authored.get(source_author, 0) | 1 << bit
            surfaced[author] = surfaced.get(author, 0) | 1 << bit

        originals = tweets.original_counts()
        category_masks = [0] * config.n_categories
        self.minority_mask = 0
        self.seeds = [(0, 0, 0, 0, 0)] * len(users.codes)
        # a seed's category is a non-empty string, a regular's None
        for s, code in compress(zip(users.ids, users.user_codes), users.categories):
            pos = category_of[code]
            volume = originals[code]
            a_bits = authored.get(code, 0)
            category_masks[pos] |= a_bits
            minority = s in config.minority_user_ids
            if minority:
                self.minority_mask |= a_bits
            self.seeds[code] = (
                volume, pos, volume if minority else 0, surfaced.get(code, 0), a_bits,
            )
        self.category_masks = tuple(category_masks)


def compute_all(dataset: Dataset) -> tuple[list[UserMetrics], WingMatrix]:
    """All metrics for every regular user plus the seed interaction matrix.

    Output order is sorted by user id, so reruns on the same dataset are
    byte-identical.

    This is the batch path: it builds one :class:`ExposureIndex`, reads
    the regulars' retweets and replies once from the tweet table for the
    output histograms, and makes one pass over each regular's follow list,
    adding up the rows of the follow codes it holds. A user's
    surfaced-new originals are the OR of its followees' surfaced bits minus
    the OR of their authored bits (originals already received directly);
    its indirect counts per category and for the minority are the direct
    ones plus ``bit_count`` of that bitset under ``category_masks`` and
    ``minority_mask``. Every histogram reaches
    the entropy in config category order.
    """
    index = ExposureIndex(dataset)
    n = dataset.config.n_categories
    seeds = index.seeds
    total_minority = sum(row[2] for row in seeds)

    # the regulars' output histograms, from their retweets and replies
    tweets = dataset.tweets
    users = dataset.users
    # a regular is a user without a category
    regular = [c is None for c in users.categories]
    # (id, code, follow list) by id; ids are unique, so no two codes are compared
    regulars = sorted(compress(zip(users.ids, users.user_codes, users.follows), regular))
    is_regular = users.per_code(regular, False)
    category_of = index.category_of
    output_counts: list[dict[int, list[int]]] = []
    for kind in (RETWEET, REPLY):
        counts: dict[int, list[int]] = {}
        for author, target in compress(zip(tweets.authors, tweets.targets), tweets.select(kind)):
            pos = category_of[target]
            # a reply to a regular has no category
            if is_regular[author] and pos is not None:
                counts.setdefault(author, [0] * n)[pos] += 1
        output_counts.append(counts)
    retweet_counts, reply_counts = output_counts

    no_counts = [0] * n
    category_masks = index.category_masks
    minority_mask = index.minority_mask
    results: list[UserMetrics] = []
    for uid, code, follows in regulars:
        direct = [0] * n
        direct_minority = 0
        surfaced = 0
        authored = 0
        for f in follows:
            volume, pos, minority, s_bits, a_bits = seeds[f]
            direct[pos] += volume
            direct_minority += minority
            surfaced |= s_bits
            authored |= a_bits
        new = surfaced & ~authored
        indirect = [d + (new & m).bit_count() for d, m in zip(direct, category_masks)]
        indirect_total = sum(indirect)
        indirect_minority = direct_minority + (new & minority_mask).bit_count()
        rt = retweet_counts.get(code, no_counts)
        io_correlated, io_correlated_15 = _io_correlation(indirect, rt, n)
        results.append(
            UserMetrics(
                user_id=uid,
                direct_source_diversity=normalized_entropy(direct, n),
                indirect_source_diversity=normalized_entropy(indirect, n),
                retweet_diversity=normalized_entropy(rt, n),
                reply_diversity=normalized_entropy(reply_counts.get(code, no_counts), n),
                minority_reach=(
                    indirect_minority / total_minority if total_minority else None
                ),
                minority_exposure=(
                    indirect_minority / indirect_total if indirect_total else None
                ),
                io_correlated=io_correlated,
                io_correlated_15=io_correlated_15,
            )
        )

    return results, seed_interaction_matrix(dataset)
