"""Direct and indirect exposure: the per-seed index and user timelines.

Timelines are sets of tweet ids: an original reaching a user along several
paths counts once. Every timeline member is an original authored by a seed;
a surfaced tweet is attributed to the original author's category, never the
retweeter's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Dataset, TweetKind, UserKind


@dataclass(frozen=True)
class ExposureTimeline:
    """A user's potential exposure: ``direct`` is always a subset of ``indirect``."""

    user_id: str
    direct: frozenset[str]
    indirect: frozenset[str]


def _mask(positions) -> int:
    """Bitset with the given bit positions set."""
    bits = 0
    for i in positions:
        bits |= 1 << i
    return bits


class ExposureIndex:
    """Per-seed lookups shared across many timeline computations.

    Building the index costs one pass over the tweets; afterwards each
    user's :meth:`timeline` is assembled from the per-seed pieces of its
    followees, so build one index per dataset and share it (as
    ``metrics.compute_all`` does).

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
                # load_dataset keeps a retweet only of a seed-authored original
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

    def timeline(self, user_id: str) -> ExposureTimeline:
        """The user's direct and indirect originals; one set union per followee.

        An unknown user raises KeyError.
        """
        direct: set[str] = set()
        surfaced: set[str] = set()
        for f in self.dataset.users[user_id].followees:
            direct |= self.originals_by_seed[f]
            surfaced |= self.retweeted_by_seed[f]
        return ExposureTimeline(
            user_id=user_id, direct=frozenset(direct), indirect=frozenset(direct | surfaced)
        )
