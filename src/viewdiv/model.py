"""Core domain model: categories, users, tweets, and the validated dataset.

Users and tweets are each held as a column table (:class:`UserTable`,
:class:`TweetTable`) that the analysis reads; :class:`UserRecord` and
:class:`TweetRecord` are their record views, for the oracle, the generator,
the writer and the tests.

:func:`user_violation` and :func:`tweet_violation` are the one rule of a
user and a tweet, held to each line by the parsers and to each record by
the record itself, so a record refuses what a line refuses, with the same
message.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Container, Iterable, Iterator


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


# Kind codes of UserTable.kinds and TweetTable.kinds, in kind order. A kind
# is a str that equals and hashes as its value, so each table also looks up
# a line's "seed" or "retweet".
SEED, REGULAR = 0, 1
USER_KIND_CODES = {kind: code for code, kind in enumerate(UserKind)}
_USER_KINDS = tuple(UserKind)
ORIGINAL, RETWEET, REPLY = 0, 1, 2
TWEET_KIND_CODES = {kind: code for code, kind in enumerate(TweetKind)}
_KINDS = tuple(TweetKind)
# bytes.translate tables that turn a kinds column into a 0/1 selector.
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
    The fields are held to :func:`user_violation`.
    """

    id: str
    kind: UserKind
    category: str | None = None
    followees: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        problem = user_violation(self.id, self.kind, self.category, self.followees)
        if problem is not None:
            raise ValueError(problem)


def user_violation(user_id, kind, category, followees, seen: Container[str] = ()) -> str | None:
    """What makes a user with these fields invalid, or None if nothing
    does; a line's fields may be anything JSON decodes to. ``kind`` is a
    :class:`UserKind` or its value, ``followees`` a line's list or a
    record's frozenset, and ``seen`` the ids this one must not repeat."""
    if not isinstance(user_id, str) or not user_id:
        return "missing or invalid 'id'"
    code = USER_KIND_CODES.get(kind) if isinstance(kind, str) else None
    if code is None:
        return "missing or invalid 'kind'"
    # type(), not isinstance: JSON decodes a string to exactly str
    if not isinstance(followees, (list, frozenset)) or not set(map(type, followees)) <= {str}:
        return "'followees' must be a list of ids"
    if category is not None and not isinstance(category, str):
        return "'category' must be a string"
    if user_id in seen:
        return f"duplicate user id {user_id!r}"
    if code == SEED and not category:
        return f"seed user {user_id!r} requires a category"
    if code == REGULAR and category is not None:
        return f"regular user {user_id!r} must not carry a category"
    return None


@dataclass(frozen=True)
class TweetRecord:
    """An original tweet, a retweet of an original, or a reply to a user.

    The fields are held to :func:`tweet_violation`. A record also refuses a
    reference its kind does not keep, which a line may carry and its row
    drops: the record could not round-trip.
    """

    id: str
    author_id: str
    kind: TweetKind
    source_tweet_id: str | None = None
    target_user_id: str | None = None
    timestamp: int = 0

    def __post_init__(self) -> None:
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


def tweet_violation(
    tweet_id, author_id, kind, source_tweet_id, target_user_id, timestamp
) -> str | None:
    """What makes a tweet with these fields invalid, or None if nothing
    does; a line's fields may be anything JSON decodes to. ``kind`` is a
    :class:`TweetKind` or its value."""
    if not isinstance(tweet_id, str) or not tweet_id:
        return "missing or invalid 'id'"
    if not isinstance(author_id, str) or not author_id:
        return "missing or invalid 'author_id'"
    code = TWEET_KIND_CODES.get(kind) if isinstance(kind, str) else None
    if code is None:
        return "missing or invalid 'kind'"
    if not isinstance(timestamp, int) or isinstance(timestamp, bool):
        return "'timestamp' must be an integer"
    if source_tweet_id is not None and not isinstance(source_tweet_id, str):
        return "'source_tweet_id' must be a string"
    if target_user_id is not None and not isinstance(target_user_id, str):
        return "'target_user_id' must be a string"
    if code == RETWEET and not source_tweet_id:
        return f"retweet {tweet_id!r} requires source_tweet_id"
    if code == REPLY and not target_user_id:
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
                t.id, TWEET_KIND_CODES[t.kind], t.author_id, t.source_tweet_id,
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


def intern_follows(followees: Iterable[str], codes: dict[str, int]) -> array:
    """The distinct ids in ``followees`` as an ascending ``array("i")`` of
    their codes in ``codes``, which interns each id on first sight: its
    code is the number of ids interned before it. Input for
    :meth:`UserTable.from_codes`."""
    code = codes.__getitem__
    # most lists name only ids interned before, so look them up first
    try:
        return array("i", sorted(set(map(code, followees))))
    except KeyError:
        new = set(followees).difference(codes)
        codes.update(zip(new, range(len(codes), len(codes) + len(new))))
        return array("i", sorted(set(map(code, followees))))


class UserTable:
    """Users as parallel columns, one row per user id, in input order.

    ``ids``, ``kinds`` (kind codes :data:`SEED` and :data:`REGULAR`) and
    ``categories`` (a seed's category, None for a regular) describe each
    user. ``seed_ids`` holds the seeds' ids sorted; a seed's *position* is
    its index there, so the order of the user lines never reaches an
    output. ``follows`` holds each user's follow list as an ``array("i")``
    of the positions of the seeds it follows, each once, ascending. The
    followed ids that are no seed of the table (unknown ids and regulars)
    are kept apart in ``non_seed_follows``, row -> sorted ids, and only for
    the rows that have some, so that :func:`validate_config` can name them.
    ``row_of`` maps each id to its row.

    The analysis reads the columns. Iterating the table gives
    :class:`UserRecord` views; ``user_id in table`` and ``table[user_id]``
    look a user up by id.
    """

    def __init__(
        self,
        ids: list[str],
        kinds: bytearray,
        categories: list[str | None],
        follows: list[array],
        non_seed_follows: dict[int, tuple[str, ...]],
        seed_ids: list[str],
    ) -> None:
        self.ids = ids
        self.kinds = kinds
        self.categories = categories
        self.follows = follows
        self.non_seed_follows = non_seed_follows
        self.seed_ids = seed_ids
        self.row_of = dict(zip(ids, range(len(ids))))

    @classmethod
    def from_codes(
        cls,
        ids: list[str],
        kinds: bytearray,
        categories: list[str | None],
        follows: list[array],
        codes: dict[str, int],
    ) -> UserTable:
        """The table of these columns, where ``follows[row]`` holds the
        codes that :func:`intern_follows` gave the ids a user follows. Once
        every user is known, this turns the codes into seed positions, in
        place in ``follows``, so seeds need not come first. ``ids`` must
        name each user once.

        Every code gets a position: a seed its index in ``seed_ids``, any
        other id one past the seeds, in code order. When ``codes`` interned
        the seeds first and in sorted order, as
        :func:`~viewdiv.ingest.parse_users` does on a file that lists them
        so (:func:`~viewdiv.ingest.write_dataset` writes one), each code is
        its own position and the arrays are kept as they are.
        """
        seed_ids = sorted(compress(ids, kinds.translate(_SELECT[SEED])))
        n_seeds = len(seed_ids)
        position = [-1] * len(codes)
        for p, seed_id in enumerate(seed_ids):
            code = codes.get(seed_id)
            if code is not None:
                position[code] = p
        names = list(seed_ids)  # the id at each position
        for name, code in codes.items():
            if position[code] < 0:
                position[code] = len(names)
                names.append(name)
        remap = position != list(range(len(position)))
        position_of = position.__getitem__
        non_seed: dict[int, tuple[str, ...]] = {}
        for row, coded in enumerate(follows):
            if remap:
                coded = follows[row] = array("i", sorted(map(position_of, coded)))
            # ascending, so an id past the seeds ends the array
            if coded and coded[-1] >= n_seeds:
                split = bisect_left(coded, n_seeds)
                non_seed[row] = tuple(sorted(names[p] for p in coded[split:]))
                del coded[split:]
        return cls(ids, kinds, categories, follows, non_seed, seed_ids)

    @classmethod
    def from_records(cls, records: Iterable[UserRecord]) -> UserTable:
        """The table of these users, in the given order; an id given twice
        raises ValueError with the message a repeated user line gets."""
        ids: list[str] = []
        kinds = bytearray()
        categories: list[str | None] = []
        follows: list[array] = []
        codes: dict[str, int] = {}
        seen: set[str] = set()
        for u in records:
            problem = user_violation(u.id, u.kind, u.category, u.followees, seen)
            if problem is not None:
                raise ValueError(problem)
            seen.add(u.id)
            ids.append(u.id)
            kinds.append(USER_KIND_CODES[u.kind])
            categories.append(u.category)
            follows.append(intern_follows(u.followees, codes))
        return cls.from_codes(ids, kinds, categories, follows, codes)

    def take(self, rows: list[int]) -> UserTable:
        """The given rows, in the given order, as a table over the same seed
        positions; ``rows`` must hold the row of every seed."""
        non_seed = self.non_seed_follows
        return UserTable(
            [self.ids[r] for r in rows],
            bytearray(self.kinds[r] for r in rows),
            [self.categories[r] for r in rows],
            [self.follows[r] for r in rows],
            {new: non_seed[old] for new, old in enumerate(rows) if old in non_seed},
            self.seed_ids,
        )

    def select(self, kind: int) -> bytes:
        """One byte per row, 1 where the user is of ``kind``: a selector
        for :func:`itertools.compress`."""
        return self.kinds.translate(_SELECT[kind])

    def seeds(self) -> list[tuple[str, str]]:
        """Each seed's ``(id, category)``, in position order."""
        seeds = compress(zip(self.ids, self.categories), self.select(SEED))
        return sorted(seeds)  # type: ignore[arg-type]

    def _row(self, row: int) -> tuple:
        seed_ids = self.seed_ids
        # ascending positions over sorted ids, so already in id order
        followees = [seed_ids[p] for p in self.follows[row]]
        others = self.non_seed_follows.get(row)
        if others:
            followees = sorted(followees + list(others))
        return self.ids[row], _USER_KINDS[self.kinds[row]], self.categories[row], followees

    def rows(self) -> Iterator[tuple]:
        """Each user as a tuple in :class:`UserRecord` field order, its
        followees a sorted list of ids."""
        return map(self._row, range(len(self.ids)))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[UserRecord]:
        return (
            UserRecord(uid, kind, category, frozenset(followees))
            for uid, kind, category, followees in self.rows()
        )

    def __contains__(self, user_id) -> bool:
        return user_id in self.row_of

    def __getitem__(self, user_id: str) -> UserRecord:
        """The record view of the user with this id; KeyError if none."""
        uid, kind, category, followees = self._row(self.row_of[user_id])
        return UserRecord(uid, kind, category, frozenset(followees))

    def __eq__(self, other) -> bool:
        """Equal to a table or a list or tuple of the same records, in any
        order: ids are unique, so a table is a set of users."""
        if not isinstance(other, (UserTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and {u.id: u for u in self} == {u.id: u for u in other}

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"UserTable({len(self)} users)"


@dataclass(frozen=True)
class Dataset:
    """Reference-checked container for one country's crawl; the analysis
    only reads it.

    ``users`` is the table of the retained users and ``tweets`` the column
    table of the kept tweets, each id once and its retweets resolved: each
    points at the seed that wrote its source.
    :func:`viewdiv.ingest.build_dataset` builds every dataset, from lines
    through :func:`viewdiv.ingest.load_dataset` or from tables built by
    :meth:`UserTable.from_records` and resolved by
    :meth:`TweetTable.resolve`. It validates the config and drops every
    tweet whose references dangle, so the analysis modules assume every
    reference resolves.
    """

    config: CountryConfig
    users: UserTable
    tweets: TweetTable


def validate_config(config: CountryConfig, users: UserTable) -> list[str]:
    """Check a config against a user table.

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

    row_of = users.row_of
    for mid in sorted(config.minority_user_ids):
        row = row_of.get(mid)
        if row is None:
            violations.append(f"minority id {mid!r} does not resolve to any user")
        elif users.kinds[row] != SEED:
            violations.append(f"minority id {mid!r} must be a seed user")

    non_seed = users.non_seed_follows
    for row, (uid, category) in enumerate(zip(users.ids, users.categories)):
        # a seed's category is a string, a regular's None
        if category is not None and category not in seen:
            violations.append(f"seed {uid!r} references unknown category {category!r}")
        # a followed id that is no seed is a user of the table or no one
        for f in non_seed.get(row, ()):
            if f in row_of:
                violations.append(f"user {uid!r} follows non-seed {f!r}")
            else:
                violations.append(f"user {uid!r} follows unknown id {f!r}")

    return violations
