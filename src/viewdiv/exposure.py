"""Direct and indirect exposure: the per-seed index the metrics kernel reads.

A user's direct exposure is the originals its followees wrote; its indirect
exposure adds the originals its followees retweeted, each counted once
however many paths reach it, and attributed to the original author's
category, never the retweeter's. The set-level definition lives in
:mod:`viewdiv.oracle`; this module holds the counts and bitsets the fast
path needs.
"""

from __future__ import annotations

from itertools import compress

from .model import RETWEET, Dataset, UserKind


def _mask(positions) -> int:
    """Bitset with the given bit positions set."""
    bits = 0
    for i in positions:
        bits |= 1 << i
    return bits


class ExposureIndex:
    """Per-seed pieces of every user's exposure, from one read of the table.

    Build one index per dataset and share it (as ``metrics.compute_all``
    does). All maps are keyed by seed id:

    * ``volume`` - the number of originals the seed wrote, its whole direct
      contribution (followed seeds' originals never overlap);
    * ``category_pos_of_seed`` - its category's position in config order;
    * ``surfaced_mask`` / ``authored_mask`` - Python-int bitsets over the
      originals some seed retweeted, bit ``i`` for the i-th distinct one in
      table order: the ones the seed retweeted, and the ones it wrote.

    ``category_masks`` (config category order) and ``minority_mask`` group
    the bits by original author. A user's surfaced-new originals are the OR
    of its followees' ``surfaced_mask`` minus the OR of their
    ``authored_mask``. Each retweet's source author is its target in the
    tweet table, the resolution ingest made once.
    """

    def __init__(self, dataset: Dataset):
        config = dataset.config
        tweets = dataset.tweets
        seeds = [u for u in dataset.users.values() if u.kind is UserKind.SEED]
        category_pos = {c: i for i, c in enumerate(config.category_ids)}
        self.category_pos_of_seed = {
            u.id: category_pos[u.category] for u in seeds  # type: ignore[index]
        }
        originals = tweets.original_counts()
        self.volume = {u.id: originals[u.id] for u in seeds}

        is_seed = tweets.by_code(dict.fromkeys(self.volume, True), False)
        position: dict[str, int] = {}
        surfaced: dict[int, list[int]] = {}
        authored: dict[int, list[int]] = {}
        for author, source, source_author in compress(
            zip(tweets.authors, tweets.sources, tweets.targets), tweets.select(RETWEET)
        ):
            if not is_seed[author]:
                continue
            bit = position.get(source)  # type: ignore[arg-type]
            if bit is None:
                bit = position[source] = len(position)  # type: ignore[index]
                authored.setdefault(source_author, []).append(bit)
            surfaced.setdefault(author, []).append(bit)

        def bits(by_code: dict[int, list[int]], seed_id: str) -> int:
            return _mask(by_code.get(tweets.codes.get(seed_id), ()))  # type: ignore[arg-type]

        self.surfaced_mask = {u.id: bits(surfaced, u.id) for u in seeds}
        self.authored_mask = {u.id: bits(authored, u.id) for u in seeds}
        category_masks = [0] * config.n_categories
        self.minority_mask = 0
        for s, m in self.authored_mask.items():
            category_masks[self.category_pos_of_seed[s]] |= m
            if s in config.minority_user_ids:
                self.minority_mask |= m
        self.category_masks = tuple(category_masks)
