"""Core domain model: categories, users, tweets, and the validated dataset.

Users and tweets are each held as a column table (:class:`UserTable`,
:class:`TweetTable`) that the analysis reads. Tables come from lines, by
:func:`viewdiv.ingest.parse_users` and :func:`viewdiv.ingest.parse_tweets`,
or from the columns :func:`viewdiv.synth.generate` fills, and ``take``
selects rows of either. Each table has one record view: iterating it
gives :class:`UserRecord` or :class:`TweetRecord` values, for the oracle
and the tests, and ``rows()`` gives the same fields as tuples, for the
writer and for table equality. A table has no lookup by id: a caller that
needs one builds it once, such as ``set(users.ids)``, or works on codes
through :meth:`UserTable.per_code`. Both tables name users by the int codes
of one :class:`CodeMap`, which the user table owns and its tweet tables
share, so no stage translates a code through an id.

:func:`user_violation` and :func:`tweet_violation` are the one rule of a
user and a tweet, held to each line by the parsers and to each record by
the record itself, so a record refuses what a line refuses, with the same
message; a record also refuses a lone surrogate in a string field, which
no UTF-8 line holds, as "invalid UTF-8". That rule makes a seed exactly a
user with a category, so a :class:`UserTable` keeps no kind: its
``categories`` column says who is a seed, and its record view reads each
user's kind from there.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
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


# Kind codes of TweetTable.kinds, in kind order. A kind is a str that equals
# and hashes as its value, so the table also looks up a line's "retweet".
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

    def wing_of(self, category_id: str) -> Wing:
        for c in self.categories:
            if c.id == category_id:
                return c.wing
        raise KeyError(f"unknown category id: {category_id!r}")


# Readers decode with errors="surrogateescape", which turns each byte that is
# not valid UTF-8 into one lone surrogate in U+DC80..U+DCFF, and a JSON
# \u escape can decode to any lone surrogate. UTF-8 text holds neither.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


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
    :func:`validate_config` names every other followed id. The fields are
    held to :func:`user_violation`, and the followees must be a frozenset,
    so that a record hashes and round-trips through its line.
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


def user_violation(user_id, kind, category, followees, seen: Container[str] = ()) -> str | None:
    """What makes a user with these fields invalid, or None if nothing
    does; a line's fields may be anything JSON decodes to. ``kind`` is a
    :class:`UserKind` or its value, ``followees`` a line's list or a
    record's frozenset, and ``seen`` the ids this one must not repeat."""
    if not isinstance(user_id, str) or not user_id:
        return "missing or invalid 'id'"
    # a UserKind is a str that equals its value, so a line's "seed" matches
    if kind not in (UserKind.SEED, UserKind.REGULAR):
        return "missing or invalid 'kind'"
    # type(), not isinstance: JSON decodes a string to exactly str
    if not isinstance(followees, (list, frozenset)) or not set(map(type, followees)) <= {str}:
        return "'followees' must be a list of ids"
    if category is not None and not isinstance(category, str):
        return "'category' must be a string"
    if user_id in seen:
        return f"duplicate user id {user_id!r}"
    if kind == UserKind.SEED and not category:
        return f"seed user {user_id!r} requires a category"
    if kind == UserKind.REGULAR and category is not None:
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


class CodeMap(dict):
    """The one code space of a crawl: each user id to its *code*, the
    number of ids interned before it. Looking up an id the map lacks
    interns it, so ``codes[user_id]`` is always a code; ``names`` maps a
    code back to its id. A :class:`UserTable` owns one, and every
    :class:`TweetTable` over its users shares it, so a code names the same
    user in both. ``ids`` are interned in the given order."""

    def __init__(self, ids: Iterable[str] = ()) -> None:
        self.names: list[str] = list(dict.fromkeys(ids))
        super().__init__(zip(self.names, range(len(self.names))))

    def __missing__(self, user_id: str) -> int:
        code = self[user_id] = len(self.names)
        self.names.append(user_id)
        return code


class TweetTable:
    """Tweets as parallel columns, one row per tweet, in input order, over
    a :class:`CodeMap`.

    ``kinds`` holds kind codes (:data:`ORIGINAL`, :data:`RETWEET`,
    :data:`REPLY`). ``authors`` and ``targets`` hold user codes in
    ``codes``, the code map of the user table the tweets are read with; an
    id no user line names is interned into it on first sight, and
    ``codes.names`` maps every code back. ``targets`` is the
    user a row points at: a reply's target, a retweet's source author once
    :meth:`resolve` has run, and -1 otherwise (an original, or a retweet
    whose source is no seed's original). ``sources`` holds a retweet's
    source tweet id as read and None for the other kinds, and ``ids`` and
    ``timestamps`` complete the record. The analysis reads the columns;
    iterating the table gives :class:`TweetRecord` views.
    """

    def __init__(self, codes: CodeMap) -> None:
        self.ids: list[str] = []
        self.kinds = bytearray()
        self.authors = array("i")
        self.sources: list[str | None] = []
        self.targets = array("i")
        self.timestamps: list[int] = []
        self.codes = codes

    def take(self, rows: list[int]) -> TweetTable:
        """The given rows, in the given order, as a table over the same codes."""
        table = TweetTable(self.codes)
        table.ids = [self.ids[i] for i in rows]
        table.kinds = bytearray(self.kinds[i] for i in rows)
        table.authors = array("i", [self.authors[i] for i in rows])
        table.sources = [self.sources[i] for i in rows]
        table.targets = array("i", [self.targets[i] for i in rows])
        table.timestamps = [self.timestamps[i] for i in rows]
        return table

    def resolve(self, users: UserTable) -> TweetTable:
        """The rows that hold the first occurrence of their id, each retweet
        pointing at the seed that wrote its source: the table itself,
        resolved in place, when no id repeats.

        A retweet whose source is the id of a kept original written by a
        seed of ``users`` gets that author's code as its target; every
        other retweet gets -1. Other rows keep theirs. ``users`` must be
        the table over the same code map (else ValueError).
        """
        if users.codes is not self.codes:
            raise ValueError("the tweet table is not over the user table's code map")
        ids = self.ids
        table = self
        # a crawl that repeats no id, as every generated one, needs no copy
        if len(set(ids)) != len(ids):
            # Built back to front, so each id keeps its first row; the dict
            # is a temporary, freed before the resolution below peaks.
            table = self.take(sorted(
                dict(zip(reversed(ids), range(len(ids) - 1, -1, -1))).values()
            ))
        is_seed = users.seed_mask()
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

    def select(self, kind: int) -> bytes:
        """One byte per row, 1 where the row is of ``kind``: a selector
        for :func:`itertools.compress`."""
        return self.kinds.translate(_SELECT[kind])

    def original_counts(self) -> Counter[int]:
        """The number of originals per author code."""
        return Counter(compress(self.authors, self.select(ORIGINAL)))

    def rows(self) -> Iterator[tuple]:
        """Each row as a tuple in :class:`TweetRecord` field order."""
        names = self.codes.names
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
        """Equal to a table of the same rows, in the same order."""
        if not isinstance(other, TweetTable):
            return NotImplemented
        return list(self.rows()) == list(other.rows())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TweetTable({len(self)} rows)"


class UserTable:
    """Users as parallel columns, one row per user id, in input order.

    ``ids`` and ``categories`` describe each user. A seed is a user with a
    category, a non-empty string, and a regular one with None
    (:func:`user_violation`), so ``categories`` is the one record of who is
    a seed; :meth:`seed_mask` gives it by code. ``codes`` is the table's
    :class:`CodeMap`: every user's id has a code, held in ``user_codes`` by
    row, and so has every followed id and every id a tweet table over the
    same map names; ``codes.names`` maps a code back to its id.
    ``follows`` holds each user's follow list as an ``array("i")`` of the
    codes of the ids it follows, each once, ascending: seeds of the table,
    and any other id as read (:func:`validate_config` names those). The
    codes follow the order in which the lines name ids, so nothing that
    reaches an output may depend on them. An id in ``codes`` need not name
    a user of the table: :meth:`per_code` over the rows tells which codes
    do.

    The analysis reads the columns; iterating the table gives
    :class:`UserRecord` views, and nothing looks one up by id.
    """

    def __init__(
        self,
        ids: list[str],
        categories: list[str | None],
        follows: list[array],
        codes: CodeMap,
    ) -> None:
        self.ids = ids
        self.categories = categories
        self.follows = follows
        self.codes = codes
        self.user_codes = array("i", map(codes.__getitem__, ids))

    def append(self, user_id: str, category: str | None, followees) -> None:
        """Add one user, its fields held to :func:`user_violation` by the
        caller, so a seed's ``category`` is a string and a regular's None.
        Its id and each id it follows get a code, on first sight."""
        self.ids.append(user_id)
        self.categories.append(category)
        code = self.codes.__getitem__
        self.user_codes.append(code(user_id))
        self.follows.append(array("i", sorted(set(map(code, followees)))))

    def take(self, rows: list[int]) -> UserTable:
        """The given rows, in the given order, as a table over the same
        codes; ``rows`` must hold the row of every seed."""
        return UserTable(
            [self.ids[r] for r in rows],
            [self.categories[r] for r in rows],
            [self.follows[r] for r in rows],
            self.codes,
        )

    def per_code(self, values: Iterable, default) -> list:
        """``values``, one per row, as a list indexed by code: ``default``
        at the codes of no row, and at code -1, which indexes the extra last
        entry."""
        out = [default] * (len(self.codes) + 1)
        for code, value in zip(self.user_codes, values):
            out[code] = value
        return out

    def seed_mask(self) -> list[bool]:
        """One flag per code, True where the code names a seed of the
        table: a user with a category."""
        return self.per_code([c is not None for c in self.categories], False)

    def rows(self) -> Iterator[tuple]:
        """Each user as a tuple in :class:`UserRecord` field order, its
        followees a sorted list of ids; its kind is read from its category."""
        name = self.codes.names.__getitem__
        for uid, category, follows in zip(self.ids, self.categories, self.follows):
            kind = UserKind.REGULAR if category is None else UserKind.SEED
            yield uid, kind, category, sorted(map(name, follows))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[UserRecord]:
        return (
            UserRecord(uid, kind, category, frozenset(followees))
            for uid, kind, category, followees in self.rows()
        )

    def __eq__(self, other) -> bool:
        """Equal to a table of the same users, in any order: ids are unique,
        so a table is a set of users, and its rows sort by id."""
        if not isinstance(other, UserTable):
            return NotImplemented
        return sorted(self.rows()) == sorted(other.rows())

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
    :func:`viewdiv.ingest.build_dataset` builds every dataset: from the
    parsed lines, through :func:`viewdiv.ingest.load_dataset` or through
    ``parse_users``, ``parse_tweets`` and :meth:`TweetTable.resolve`, or
    from the tables :func:`viewdiv.synth.generate` fills, whose retweets
    get their targets as they are drawn. It validates the config and drops
    every tweet whose references dangle, so the analysis modules assume
    every reference resolves.
    """

    config: CountryConfig
    users: UserTable
    tweets: TweetTable


def validate_config(config: CountryConfig, users: UserTable) -> list[str]:
    """Check a config against a user table: its categories and wings, that
    every minority id names a seed (a user with a category), that every
    seed's category is in the config, and that every followed id is a seed.

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

    is_user = users.per_code(repeat(True), False)
    is_seed = users.seed_mask()
    for mid in sorted(config.minority_user_ids):
        # an id the code map lacks reads code -1, the default entry of both
        code = users.codes.get(mid, -1)
        if not is_user[code]:
            violations.append(f"minority id {mid!r} does not resolve to any user")
        elif not is_seed[code]:
            violations.append(f"minority id {mid!r} must be a seed user")

    non_seed = {c for c, seed in enumerate(is_seed) if not seed}
    names = users.codes.names
    for uid, category, follows in zip(users.ids, users.categories, users.follows):
        # a seed's category is a string, a regular's None
        if category is not None and category not in seen:
            violations.append(f"seed {uid!r} references unknown category {category!r}")
        # a followed code that is no seed is a user of the table or no one
        for c in sorted(non_seed.intersection(follows), key=names.__getitem__):
            what = "non-seed" if is_user[c] else "unknown id"
            violations.append(f"user {uid!r} follows {what} {names[c]!r}")

    return violations
