"""Per-user viewpoint-diversity metrics and the seed interaction matrix.

A user's direct exposure is the originals its followees wrote; its indirect
exposure adds the originals its followees retweeted, each counted once
however many paths reach it, and attributed to the original author's
category, never the retweeter's. The set-level definition lives in
:mod:`viewdiv.oracle`. :class:`ExposureIndex` counts both for every regular
at once, with its retweets and replies, from codes of the one code map the
user and tweet tables share: one walk over the retweets and replies counts
the regulars' own and groups the seeds'; one byte write per follow edge
builds each seed's followers, an int with a lane per regular of ``width``
bytes, the fewest of 1, 2, 4 or 8 that hold the number of tweets (no count
exceeds it, so no lane carries into the next); then a few big-int
operations per seed and per seed retweet count each block of regulars
whose lanes fit in :data:`_LANE_BUDGET` bytes. :func:`compute_all` only
assembles rows from the lanes.

All unit-interval metrics are ``None`` ("undefined") when the underlying
activity is empty; undefined values are excluded from population statistics
rather than coerced to 0, which would conflate inactivity with zero
diversity.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import attrgetter, or_

from .model import RETWEET, Dataset, Wing

IO_MARGIN = 0.15  # the "bias above 15%" of io_correlated_15
# bytes of follower lanes per block of regulars; the 1M-tweet crawl fits one
_LANE_BUDGET = 1 << 23


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
    if len(positive) == n and len(set(positive)) == 1:
        return 1.0
    total = sum(positive)
    acc = 0.0
    for c in positive:
        p = c / total
        acc += p * math.log(p)
    return min(1.0, max(0.0, -acc / math.log(n)))


def _dominant(counts: Sequence[int]) -> tuple[int | None, float]:
    """Position of the unique largest count and its share; (None, share) on a tie."""
    total = sum(counts)
    best = max(counts)
    winners = [i for i, v in enumerate(counts) if v == best]
    share = best / total
    return (winners[0] if len(winners) == 1 else None), share


def _io_correlation(
    input_counts: Sequence[int], output_counts: Sequence[int], n: int
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
    # ORIGINAL is kind code 0, so the kinds select the retweets and replies
    for author, target in compress(zip(tweets.authors, tweets.targets), tweets.kinds):
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
    """Every regular's per-category counts, in columns with one lane per regular.

    Lane ``i`` is the ``i``-th regular of the user table. ``direct[c][i]``
    and ``indirect[c][i]`` count the originals in its direct and indirect
    timelines whose author is in category ``c`` (config order),
    ``indirect_minority[i]`` the indirect ones a minority seed wrote, and
    ``retweets[c][i]`` and ``replies[c][i]`` its retweets and replies that
    point at a seed of category ``c``. Each column is an ``array`` of
    ``width``-byte unsigned ints. ``total_minority`` is the number of
    originals the minority seeds wrote.

    One walk over the retweets and replies adds 1 to a regular's lane for
    each of its own, and groups the seeds' retweets by original. A seed
    adds its originals times its followers to its category's totals
    (followed seeds' originals never overlap). Each of its originals that
    seeds retweeted (the retweet's target in the tweet table is its author)
    reaches the OR of their followers; summed over its originals and masked
    to the lanes that do not follow it, these add to its indirect totals.
    A repeated follow edge writes its lane's byte twice, and the byte still reads 1.
    """

    def __init__(self, dataset: Dataset):
        config = dataset.config
        users = dataset.users
        tweets = dataset.tweets
        category_pos = {c.id: i for i, c in enumerate(config.categories)}
        # a regular's category, None, has no position
        category_of = users.per_code(map(category_pos.get, users.categories), None)
        is_minority = users.per_code([u in config.minority_user_ids for u in users.ids], False)
        originals = tweets.original_counts()
        # a seed's category is a non-empty string, a regular's None
        seeds = list(compress(users.user_codes, users.categories))
        self.total_minority = sum(originals[s] for s in seeds if is_minority[s])
        regulars = list(compress(users.follows, [c is None for c in users.categories]))
        lanes = count()  # a regular's lane; a seed has none
        lane_of = users.per_code([None if c else next(lanes) for c in users.categories], None)
        n = config.n_categories
        # no count exceeds the number of tweets, so no lane carries into the next
        width = next(w for w in (1, 2, 4, 8) if 8 * w >= len(tweets).bit_length())
        typecode = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
        self.retweets = [array(typecode, bytes(width * len(regulars))) for _ in range(n)]
        self.replies = [array(typecode, bytes(width * len(regulars))) for _ in range(n)]
        outputs = (None, self.retweets, self.replies)  # by kind code
        # per author, the seeds that retweeted each of its originals
        retweeted: dict[int, dict[str | None, list[int]]] = {}
        # ORIGINAL is kind code 0, so the kinds select the retweets and replies
        for author, kind, source, target in compress(
            zip(tweets.authors, tweets.kinds, tweets.sources, tweets.targets), tweets.kinds
        ):
            pos = category_of[target]
            if pos is None:
                continue  # a reply to a regular, or a retweet of no seed's original
            lane = lane_of[author]
            if lane is not None:
                outputs[kind][pos][lane] += 1
            elif kind == RETWEET:
                retweeted.setdefault(target, {}).setdefault(source, []).append(author)

        full_lane = (1 << 8 * width) - 1
        # width-byte unsigned ints: direct and indirect per category, then minority
        columns = [array(typecode) for _ in range(2 * n + 1)]
        self.direct, self.indirect = columns[:n], columns[n:-1]
        self.indirect_minority = columns[-1]
        block = max(1, _LANE_BUDGET // (width * len(seeds) or 1))
        for start in range(0, len(regulars), block):
            part = regulars[start:start + block]
            size = width * len(part)
            sink = bytearray(size)  # what a followed code that names no seed writes to
            buffers = users.per_code(
                [bytearray(size) if c else sink for c in users.categories], sink
            )
            for lane, follows in zip(range(0, size, width), part):
                for f in follows:
                    buffers[f][lane] = 1
            followers = [0] * len(buffers)
            for s in seeds:
                followers[s] = int.from_bytes(buffers[s], "little")
                buffers[s] = sink  # the seed's bytes are freed once read
            totals = [0] * len(columns)
            for s in seeds:
                followed = followers[s]
                direct = originals[s] * followed
                retweets = retweeted.get(s, {}).values()
                surfaced = sum(reduce(or_, map(followers.__getitem__, r)) for r in retweets)
                # a lane that follows the seed has its originals as direct already
                indirect = direct + (surfaced & ~(followed * full_lane))
                totals[category_of[s]] += direct
                totals[n + category_of[s]] += indirect
                if is_minority[s]:
                    totals[-1] += indirect
            for column, total in zip(columns, totals):
                column.frombytes(total.to_bytes(size, "little"))
        if sys.byteorder == "big":
            for column in columns:
                column.byteswap()


def compute_all(dataset: Dataset) -> tuple[list[UserMetrics], WingMatrix]:
    """All metrics for every regular user plus the seed interaction matrix.

    Output order is sorted by user id, so reruns on the same dataset are
    byte-identical.

    This is the batch path: it builds one :class:`ExposureIndex`, which
    counts every regular's exposure, retweets and replies at once, reads
    each regular's counts from its lane of the index's columns, in lane
    order, then sorts the rows by id. Every histogram reaches the entropy
    in config category order.
    """
    index = ExposureIndex(dataset)
    n = dataset.config.n_categories
    total_minority = index.total_minority
    users = dataset.users

    results: list[UserMetrics] = []
    # lane i of the index's columns is the i-th regular, a user without a category
    for uid, direct, indirect, indirect_minority, rt, replies in zip(
        compress(users.ids, [c is None for c in users.categories]),
        zip(*index.direct), zip(*index.indirect), index.indirect_minority,
        zip(*index.retweets), zip(*index.replies),
    ):
        indirect_total = sum(indirect)
        io_correlated, io_correlated_15 = _io_correlation(indirect, rt, n)
        results.append(
            UserMetrics(
                user_id=uid,
                direct_source_diversity=normalized_entropy(direct, n),
                indirect_source_diversity=normalized_entropy(indirect, n),
                retweet_diversity=normalized_entropy(rt, n),
                reply_diversity=normalized_entropy(replies, n),
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

    results.sort(key=attrgetter("user_id"))
    return results, seed_interaction_matrix(dataset)
