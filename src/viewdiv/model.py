"""Core domain model: categories, users, tweets, and the validated dataset."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Iterator


class Wing(str, Enum):
    """Coarse two-wing projection of a political category."""

    LEFT = "left"
    RIGHT = "right"
    UNALIGNED = "unaligned"


class UserKind(str, Enum):
    SEED = "seed"
    REGULAR = "regular"


class TweetKind(str, Enum):
    ORIGINAL = "original"
    RETWEET = "retweet"
    REPLY = "reply"


# Kind codes of TweetTable.kinds, in TweetKind order.
ORIGINAL, RETWEET, REPLY = 0, 1, 2
_KIND_CODES = {TweetKind.ORIGINAL: ORIGINAL, TweetKind.RETWEET: RETWEET, TweetKind.REPLY: REPLY}
_KINDS = tuple(_KIND_CODES)
# bytes.translate tables that turn the kinds column into a 0/1 selector.
_SELECT = tuple(bytes(int(k == kind) for k in range(256)) for kind in range(len(_KINDS)))


@dataclass(frozen=True)
class PoliticalCategory:
    """One category of the political spectrum, e.g. "left" or "kurdish"."""

    id: str
    wing: Wing


@dataclass(frozen=True)
class CountryConfig:
    """Category universe plus minority designation for one dataset.

    ``n_categories`` is the size of the configured universe, not the number
    of categories observed in any particular timeline: diversity of a user
    who only ever sees two of nine configured categories is still normalized
    against nine.
    """

    name: str
    categories: tuple[PoliticalCategory, ...]
    minority_user_ids: frozenset[str] = frozenset()

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    @property
    def category_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.categories)

    def wing_of(self, category_id: str) -> Wing:
        for c in self.categories:
            if c.id == category_id:
                return c.wing
        raise KeyError(f"unknown category id: {category_id!r}")


@dataclass(frozen=True)
class UserRecord:
    """A seed (categorized content source) or regular (analyzed follower) user.

    Seeds carry exactly one category; regulars carry none and their stance is
    only ever inferred from behavior. Followees reference seed ids only.
    """

    id: str
    kind: UserKind
    category: str | None = None
    followees: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.kind is UserKind.SEED and not self.category:
            raise ValueError(f"seed user {self.id!r} requires a category")
        if self.kind is UserKind.REGULAR and self.category is not None:
            raise ValueError(f"regular user {self.id!r} must not carry a category")


@dataclass(frozen=True)
class TweetRecord:
    """An original tweet, a retweet of an original, or a reply to a user."""

    id: str
    author_id: str
    kind: TweetKind
    source_tweet_id: str | None = None
    target_user_id: str | None = None
    timestamp: int = 0

    def __post_init__(self) -> None:
        problem = tweet_violation(
            self.id, _KIND_CODES[self.kind], self.source_tweet_id, self.target_user_id,
            self.timestamp,
        )
        if problem is not None:
            raise ValueError(problem)


def tweet_violation(
    tweet_id: str,
    kind: int,
    source_tweet_id: str | None,
    target_user_id: str | None,
    timestamp: int,
) -> str | None:
    """What makes a tweet with these fields invalid, or None if nothing
    does; ``kind`` is a kind code."""
    if kind == RETWEET and not source_tweet_id:
        return f"retweet {tweet_id!r} requires source_tweet_id"
    if kind == REPLY and not target_user_id:
        return f"reply {tweet_id!r} requires target_user_id"
    if timestamp < 0:
        return f"tweet {tweet_id!r} has negative timestamp"
    return None


class TweetTable:
    """Tweets as parallel columns, one row per tweet, in input order.

    ``kinds`` holds kind codes (:data:`ORIGINAL`, :data:`RETWEET`,
    :data:`REPLY`). ``authors`` and ``targets`` hold codes into ``names``,
    the user ids the rows name, interned in first-seen order (``codes`` maps
    them back). ``targets`` is the user a row points at: a reply's target,
    a retweet's source author once :meth:`resolve` has run, and -1
    otherwise (an original, or a retweet whose source is no seed's
    original). ``sources`` holds a retweet's source tweet id as read and
    None for the other kinds, and ``ids`` and ``timestamps`` complete the
    record. The analysis reads the columns; iterating the table gives
    :class:`TweetRecord` views.
    """

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.kinds = bytearray()
        self.authors = array("i")
        self.sources: list[str | None] = []
        self.targets = array("i")
        self.timestamps: list[int] = []
        self.names: list[str] = []
        self.codes: dict[str, int] = {}

    def code(self, user_id: str) -> int:
        """The code of a user id, interned on first sight."""
        code = self.codes.get(user_id)
        if code is None:
            code = self.codes[user_id] = len(self.names)
            self.names.append(user_id)
        return code

    def append(
        self,
        tweet_id: str,
        kind: int,
        author_id: str,
        source_tweet_id: str | None = None,
        target_user_id: str | None = None,
        timestamp: int = 0,
    ) -> None:
        """Add one row; ``kind`` is a kind code. Only a retweet keeps its
        ``source_tweet_id`` and only a reply its ``target_user_id``."""
        self.ids.append(tweet_id)
        self.kinds.append(kind)
        self.authors.append(self.code(author_id))
        self.sources.append(source_tweet_id if kind == RETWEET else None)
        target = self.code(target_user_id) if kind == REPLY else -1  # type: ignore[arg-type]
        self.targets.append(target)
        self.timestamps.append(timestamp)

    @classmethod
    def from_records(cls, records: Iterable[TweetRecord]) -> TweetTable:
        table = cls()
        for t in records:
            table.append(
                t.id, _KIND_CODES[t.kind], t.author_id, t.source_tweet_id,
                t.target_user_id, t.timestamp,
            )
        return table

    def take(self, rows: list[int]) -> TweetTable:
        """The given rows, in the given order, as a table sharing ``names``."""
        table = TweetTable()
        table.names, table.codes = self.names, self.codes
        table.ids = [self.ids[i] for i in rows]
        table.kinds = bytearray(self.kinds[i] for i in rows)
        table.authors = array("i", [self.authors[i] for i in rows])
        table.sources = [self.sources[i] for i in rows]
        table.targets = array("i", [self.targets[i] for i in rows])
        table.timestamps = [self.timestamps[i] for i in rows]
        return table

    def resolve(self, seed_ids) -> TweetTable:
        """The rows that hold the first occurrence of their id, each retweet
        pointing at the seed that wrote its source: the table itself,
        resolved in place, when no id repeats.

        A retweet whose source is the id of a kept original written by a
        user in ``seed_ids`` gets that author's code as its target; every
        other retweet gets -1. Other rows keep theirs.
        """
        ids = self.ids
        table = self
        if len(set(ids)) != len(ids):
            # Built back to front, so each id keeps its first row; the dict
            # is a temporary, freed before the resolution below peaks.
            table = self.take(sorted(
                dict(zip(reversed(ids), range(len(ids) - 1, -1, -1))).values()
            ))
        is_seed = [name in seed_ids for name in table.names]
        seed_author_of = {
            tid: author
            for tid, author in compress(zip(table.ids, table.authors), table.select(ORIGINAL))
            if is_seed[author]
        }
        author_of = seed_author_of.get
        table.targets = array("i", [
            author_of(source, -1) if kind == RETWEET else target  # type: ignore[arg-type]
            for kind, source, target in zip(table.kinds, table.sources, table.targets)
        ])
        return table

    def by_code(self, value_of: dict, default) -> list:
        """``value_of`` (keyed by user id) as a list indexed by user code:
        ``default`` for the other codes and for code -1, which indexes the
        extra last entry."""
        values = [default] * (len(self.names) + 1)
        for user_id, value in value_of.items():
            code = self.codes.get(user_id)
            if code is not None:
                values[code] = value
        return values

    def select(self, kind: int) -> bytes:
        """One byte per row, 1 where the row is of ``kind``: a selector
        for :func:`itertools.compress`."""
        return self.kinds.translate(_SELECT[kind])

    def original_counts(self) -> Counter[str]:
        """The number of originals per author id."""
        counts = Counter(compress(self.authors, self.select(ORIGINAL)))
        return Counter({self.names[a]: n for a, n in counts.items()})

    def rows(self) -> Iterator[tuple]:
        """Each row as a tuple in :class:`TweetRecord` field order."""
        names = self.names
        for tid, kind, author, source, target, timestamp in zip(
            self.ids, self.kinds, self.authors, self.sources, self.targets, self.timestamps
        ):
            yield (
                tid, names[author], _KINDS[kind], source,
                names[target] if kind == REPLY else None, timestamp,
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[TweetRecord]:
        return (TweetRecord(*row) for row in self.rows())

    def __eq__(self, other) -> bool:
        """Equal to a table or a list or tuple of the same records."""
        if not isinstance(other, (TweetTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TweetTable({len(self)} rows)"


@dataclass(frozen=True)
class Dataset:
    """Reference-checked container for one country's crawl; the analysis
    only reads it.

    ``tweets`` is the column table of the kept tweets, each id once and its
    retweets resolved: each points at the seed that wrote its source.
    :func:`viewdiv.ingest.build_dataset` builds every dataset, from lines
    through :func:`viewdiv.ingest.load_dataset` or from a table resolved by
    :meth:`TweetTable.resolve`. It validates the config and drops every
    tweet whose references dangle, so the analysis modules assume every
    reference resolves.
    """

    config: CountryConfig
    users: dict[str, UserRecord]
    tweets: TweetTable

    def seed_users(self) -> list[UserRecord]:
        return [u for u in self.users.values() if u.kind is UserKind.SEED]

    def regular_users(self) -> list[UserRecord]:
        return [u for u in self.users.values() if u.kind is UserKind.REGULAR]


def validate_config(config: CountryConfig, users: dict[str, UserRecord]) -> list[str]:
    """Check a config against a user collection.

    Returns a list of violation messages; an empty list means the config is
    valid. Violations are data, not faults: nothing raises here.
    """
    violations: list[str] = []

    if config.n_categories < 2:
        violations.append(
            f"n < 2: got {config.n_categories} categories; "
            "normalized entropy needs at least 2"
        )
    seen: set[str] = set()
    for c in config.categories:
        if not c.id:
            violations.append("empty category id")
        elif c.id in seen:
            violations.append(f"duplicate category id: {c.id!r}")
        seen.add(c.id)
    wings = {c.wing for c in config.categories}
    if Wing.LEFT not in wings or Wing.RIGHT not in wings:
        violations.append("wing mapping must cover at least one Left and one Right category")

    for mid in sorted(config.minority_user_ids):
        u = users.get(mid)
        if u is None:
            violations.append(f"minority id {mid!r} does not resolve to any user")
        elif u.kind is not UserKind.SEED:
            violations.append(f"minority id {mid!r} must be a seed user")

    seed_ids = {u.id for u in users.values() if u.kind is UserKind.SEED}
    for u in users.values():
        if u.kind is UserKind.SEED and u.category not in seen:
            violations.append(
                f"seed {u.id!r} references unknown category {u.category!r}"
            )
        if u.followees <= seed_ids:
            continue
        # only a user with a violation pays for the sort that orders its messages
        for f in sorted(u.followees - seed_ids):
            target = users.get(f)
            if target is None:
                violations.append(f"user {u.id!r} follows unknown id {f!r}")
            elif target.kind is not UserKind.SEED:
                violations.append(f"user {u.id!r} follows non-seed {f!r}")

    return violations
