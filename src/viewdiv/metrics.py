"""Per-user viewpoint-diversity metrics and the seed interaction matrix.

All unit-interval metrics are ``None`` ("undefined") when the underlying
activity is empty; undefined values are excluded from population statistics
rather than coerced to 0, which would conflate inactivity with zero
diversity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .exposure import ExposureIndex
from .model import Dataset, TweetKind, UserKind, Wing


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

    def row(self, wing: Wing) -> tuple[float, float]:
        if wing is Wing.LEFT:
            return (self.left_to_left, self.left_to_right)
        if wing is Wing.RIGHT:
            return (self.right_to_left, self.right_to_right)
        raise ValueError("wing matrix has no unaligned row")


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


def _io_correlated(
    input_counts: list[int],
    output_counts: list[int],
    n: int,
    margin: float,
) -> bool | None:
    """Whether the dominant received category equals the dominant retweeted one.

    Both lists are per-category counts in config category order. Undefined
    when either is all zero. With ``margin`` > 0, both dominant shares must
    additionally be at least ``1/n + margin``, the reading used for the
    "bias above 15%" variant.
    """
    if not any(input_counts) or not any(output_counts):
        return None
    in_pos, in_share = _dominant(input_counts)
    out_pos, out_share = _dominant(output_counts)
    if in_pos is None or out_pos is None:
        # no single dominant category on a tie
        return False
    if in_pos != out_pos:
        return False
    if margin > 0:
        floor = 1.0 / n + margin
        if in_share < floor or out_share < floor:
            return False
    return True


def seed_interaction_matrix(dataset: Dataset) -> WingMatrix:
    """Left/right interaction shares over seed retweets and seed-to-seed replies.

    Requires the wing mapping to cover at least one Left and one Right
    category. Interactions whose actor or target is unaligned are skipped.
    """
    wings = {c.wing for c in dataset.config.categories}
    if Wing.LEFT not in wings or Wing.RIGHT not in wings:
        raise ValueError("wing mapping must cover at least one Left and one Right category")

    seed_wing: dict[str, Wing] = {}
    for u in dataset.users.values():
        if u.kind is UserKind.SEED:
            seed_wing[u.id] = dataset.config.wing_of(u.category)  # type: ignore[arg-type]

    cells = {
        (Wing.LEFT, Wing.LEFT): 0,
        (Wing.LEFT, Wing.RIGHT): 0,
        (Wing.RIGHT, Wing.LEFT): 0,
        (Wing.RIGHT, Wing.RIGHT): 0,
    }
    original_author = {
        t.id: t.author_id for t in dataset.tweets if t.kind is TweetKind.ORIGINAL
    }
    for t in dataset.tweets:
        actor_wing = seed_wing.get(t.author_id)
        if actor_wing is None or actor_wing is Wing.UNALIGNED:
            continue
        if t.kind is TweetKind.RETWEET:
            target_id = original_author[t.source_tweet_id]  # type: ignore[index]
        elif t.kind is TweetKind.REPLY:
            target_id = t.target_user_id  # type: ignore[assignment]
        else:
            continue
        target_wing = seed_wing.get(target_id or "")
        if target_wing is None or target_wing is Wing.UNALIGNED:
            continue
        cells[(actor_wing, target_wing)] += 1

    left_total = cells[(Wing.LEFT, Wing.LEFT)] + cells[(Wing.LEFT, Wing.RIGHT)]
    right_total = cells[(Wing.RIGHT, Wing.LEFT)] + cells[(Wing.RIGHT, Wing.RIGHT)]
    return WingMatrix(
        left_to_left=cells[(Wing.LEFT, Wing.LEFT)] / left_total if left_total else 0.0,
        left_to_right=cells[(Wing.LEFT, Wing.RIGHT)] / left_total if left_total else 0.0,
        right_to_left=cells[(Wing.RIGHT, Wing.LEFT)] / right_total if right_total else 0.0,
        right_to_right=cells[(Wing.RIGHT, Wing.RIGHT)] / right_total if right_total else 0.0,
        left_interactions=left_total,
        right_interactions=right_total,
    )


def compute_all(
    dataset: Dataset, io_margin: float = 0.15
) -> tuple[list[UserMetrics], WingMatrix]:
    """All metrics for every regular user plus the seed interaction matrix.

    Output order is sorted by user id, so reruns on the same dataset are
    byte-identical. ``io_margin`` parametrizes the ``io_correlated_15``
    column (default 0.15).

    This is the batch path: it builds one :class:`ExposureIndex`, takes one
    pass over the tweets for output histograms, and makes one pass over
    each regular's followees. The direct parts of followed seeds never
    overlap, so direct counts are sums of per-seed volumes. The surfaced
    part is a bitset over the retweeted originals: the OR of the
    followees' ``surfaced_mask``, minus the OR of their ``authored_mask``
    (originals already received directly). Indirect counts per category
    and for the minority are the direct ones plus ``bit_count`` of that
    bitset under ``category_masks`` and ``minority_mask``. Every histogram
    reaches the entropy in config category order.
    """
    index = ExposureIndex(dataset)
    config = dataset.config
    n = config.n_categories
    minority_seed_ids = config.minority_user_ids
    total_minority = len(index.minority_original_ids)
    seed_pos = index.category_pos_of_seed

    # per seed: (original volume, category position, minority volume,
    # surfaced bits, authored bits)
    per_seed = {
        s: (
            len(ids),
            seed_pos[s],
            len(ids) if s in minority_seed_ids else 0,
            index.surfaced_mask[s],
            index.authored_mask[s],
        )
        for s, ids in index.originals_by_seed.items()
    }

    # one pass for every regular's output histograms
    retweet_counts: dict[str, list[int]] = {}
    reply_counts: dict[str, list[int]] = {}
    regular_ids = {
        u.id for u in dataset.users.values() if u.kind is UserKind.REGULAR
    }
    for t in dataset.tweets:
        if t.author_id not in regular_ids:
            continue
        if t.kind is TweetKind.RETWEET:
            by_cat = retweet_counts.setdefault(t.author_id, [0] * n)
            by_cat[seed_pos[index.original_author[t.source_tweet_id]]] += 1  # type: ignore[index]
        elif t.kind is TweetKind.REPLY:
            target = dataset.users.get(t.target_user_id or "")
            if target is not None and target.kind is UserKind.SEED:
                reply_counts.setdefault(t.author_id, [0] * n)[seed_pos[target.id]] += 1

    no_counts = [0] * n
    category_masks = index.category_masks
    minority_mask = index.minority_mask
    results: list[UserMetrics] = []
    for uid in sorted(regular_ids):
        direct = [0] * n
        direct_minority = 0
        surfaced = 0
        authored = 0
        for f in dataset.users[uid].followees:
            volume, pos, minority, s_bits, a_bits = per_seed[f]
            direct[pos] += volume
            direct_minority += minority
            surfaced |= s_bits
            authored |= a_bits
        new = surfaced & ~authored
        indirect = [d + (new & m).bit_count() for d, m in zip(direct, category_masks)]
        indirect_total = sum(indirect)
        indirect_minority = direct_minority + (new & minority_mask).bit_count()
        rt = retweet_counts.get(uid, no_counts)
        results.append(
            UserMetrics(
                user_id=uid,
                direct_source_diversity=normalized_entropy(direct, n),
                indirect_source_diversity=normalized_entropy(indirect, n),
                retweet_diversity=normalized_entropy(rt, n),
                reply_diversity=normalized_entropy(reply_counts.get(uid, no_counts), n),
                minority_reach=(
                    indirect_minority / total_minority if total_minority else None
                ),
                minority_exposure=(
                    indirect_minority / indirect_total if indirect_total else None
                ),
                io_correlated=_io_correlated(indirect, rt, n, 0.0),
                io_correlated_15=_io_correlated(indirect, rt, n, io_margin),
            )
        )

    return results, seed_interaction_matrix(dataset)
