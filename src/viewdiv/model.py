"""Core domain model: categories, users, tweets, and the validated dataset.

Users and tweets are each held as a column table (:class:`UserTable`,
:class:`TweetTable`) that the analysis reads. Tables come from lines, by
:func:`viewdiv.ingest.parse_users` and :func:`viewdiv.ingest.parse_tweets`,
or from the columns :func:`viewdiv.synth.generate` fills, and ``take``
copies the rows a selector keeps, one byte per row, out of either.
``rows()`` gives each row's fields as a tuple, for the writer, for table
equality and for the oracle, which builds its own records from them. A
table has no lookup by id: a caller that needs one builds it once, such as
``set(users.ids)``, or works on codes through :meth:`UserTable.per_code`.
Both tables name users by the int codes of one :class:`CodeMap`, which the
user table owns and its tweet tables share, so no stage translates a code
through an id.

:func:`user_violation` and :func:`tweet_violation` are the one rule of a
user and a tweet, held to each line by the parsers and to each of
:mod:`viewdiv.oracle`'s records by the record itself, so a record refuses
what a line refuses, with the same message. That rule makes a seed exactly
a user with a category, so a :class:`UserTable` keeps no kind: its
``categories`` column says who is a seed, and ``rows()`` reads each user's
kind from there. The module holds only types, line rules and column
operations; :mod:`viewdiv.ingest` owns every rule of which rows a dataset keeps.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
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


# Kind codes of TweetTable.kinds, in kind order. A kind is a str that equals
# and hashes as its value, so the table also looks up a line's "retweet".
ORIGINAL, RETWEET, REPLY = 0, 1, 2
TWEET_KIND_CODES = {kind: code for code, kind in enumerate(TweetKind)}
_KINDS = tuple(TweetKind)
# bytes.translate tables that turn a kinds column into a 0/1 selector.
_SELECT = tuple(bytes(int(k == kind) for k in range(256)) for kind in range(len(_KINDS)))


class Record:
    """An immutable record whose fields are its class's ``__slots__``, in
    order; ``_defaults`` gives the last fields' defaults.

    A record is built by position or keyword, and a missing or unknown
    argument is a :class:`TypeError`. Assigning or deleting a field is an
    :class:`AttributeError`. A record equals a record of its own class with
    equal fields, hashes as the tuple of its fields, and shows as
    ``Name(field=value, ...)``, as a frozen dataclass does. Defining a
    subclass generates no code, unlike a dataclass, so it costs next to
    nothing at import. Each record type derives from this class directly,
    so that its ``__slots__`` name all of its fields.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} arguments, got {len(args)}")
        first_default = len(names) - len(self._defaults)
        for i, name in enumerate(names):
            if i < len(args):
                value = args[i]
            elif name in kwargs:
                value = kwargs.pop(name)
            elif i >= first_default:
                value = self._defaults[i - first_default]
            else:
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{type(self).__qualname__}() got an unexpected or repeated argument {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class PoliticalCategory(Record):
    """One category of the political spectrum, e.g. "left" or "kurdish":
    its ``id`` and its :class:`Wing`."""

    __slots__ = ("id", "wing")


class CountryConfig(Record):
    """Category universe plus minority designation for one dataset: its
    ``name``, its ``categories``, a tuple of :class:`PoliticalCategory`, and
    ``minority_user_ids``, a frozenset of seed ids, empty by default.

    ``n_categories`` is the size of the configured universe, not the number
    of categories observed in any particular timeline: diversity of a user
    who only ever sees two of nine configured categories is still normalized
    against nine.
    """

    __slots__ = ("name", "categories", "minority_user_ids")
    _defaults = (frozenset(),)

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


def user_violation(user_id, kind, category, followees, seen: Container[str] = ()) -> str | None:
    """What makes a user with these fields invalid, or None if nothing
    does; a line's fields may be anything JSON decodes to. ``kind`` is a
    :class:`UserKind` or its value, ``followees`` a line's list or an
    oracle record's frozenset, and ``seen`` the ids this one must not repeat."""
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
    ``codes.names`` maps every code back. ``targets`` is the user a row
    points at: a reply's target, a first-row retweet's source author once
    :func:`viewdiv.ingest.resolve_tweets` has run, and -1 otherwise (an
    original, or a retweet in a later row or of no seed's original). ``sources``
    holds a retweet's source tweet id as read and None for the other kinds,
    and ``ids`` and ``timestamps`` complete the row. The analysis reads the
    columns, and :meth:`rows` gives each row as a tuple.
    """

    def __init__(self, codes: CodeMap) -> None:
        self.ids: list[str] = []
        self.kinds = bytearray()
        self.authors = array("i")
        self.sources: list[str | None] = []
        self.targets = array("i")
        self.timestamps: list[int] = []
        self.codes = codes

    def take(self, keep: bytes) -> TweetTable:
        """The rows ``keep`` selects, one byte per row and nonzero where the
        row stays, in table order, as a table over the same codes: one copy
        of each column, made by :func:`itertools.compress`."""
        table = TweetTable(self.codes)
        table.ids = list(compress(self.ids, keep))
        table.kinds = bytearray(compress(self.kinds, keep))
        table.authors = array("i", compress(self.authors, keep))
        table.sources = list(compress(self.sources, keep))
        table.targets = array("i", compress(self.targets, keep))
        table.timestamps = list(compress(self.timestamps, keep))
        return table

    def select(self, kind: int) -> bytes:
        """One byte per row, 1 where the row is of ``kind``: a selector
        for :func:`itertools.compress`."""
        return self.kinds.translate(_SELECT[kind])

    def select_first(self, first: bytes, kind: int) -> bytes:
        """One byte per row, 1 where the row is of ``kind`` and ``first``,
        a 0/1 selector over the rows, holds 1."""
        # two 0/1 selectors AND byte by byte as two little-endian ints do
        both = int.from_bytes(first, "little") & int.from_bytes(self.select(kind), "little")
        return both.to_bytes(len(self.kinds), "little")

    def original_counts(self) -> Counter[int]:
        """The number of originals per author code."""
        return Counter(compress(self.authors, self.select(ORIGINAL)))

    def rows(self) -> Iterator[tuple]:
        """Each row as a tuple ``(id, author_id, kind, source_tweet_id,
        target_user_id, timestamp)``: ids as read, the kind a
        :class:`TweetKind`, and a target for a reply alone."""
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
    ``follows`` holds each user's follow list as a list of the codes of the
    ids it follows as read, in order and with repeats, seeds of the table
    and any other id alike: every metric counts only the seeds' codes, each
    once, and :func:`viewdiv.ingest.load_dataset` counts the other entries
    of the retained lists as ``followees_ignored``. The codes follow the
    order in which the lines name ids, so nothing that reaches an output
    may depend on them. An id in ``codes`` need not name a user of the
    table: :meth:`per_code` over the rows tells which codes do.

    The analysis reads the columns, :meth:`rows` gives each user as a
    tuple, and nothing looks one up by id.
    """

    def __init__(
        self,
        ids: list[str],
        categories: list[str | None],
        follows: list[list[int]],
        codes: CodeMap,
    ) -> None:
        self.ids = ids
        self.categories = categories
        self.follows = follows
        self.codes = codes
        self.user_codes = array("i", map(codes.__getitem__, ids))

    def take(self, keep: bytes) -> UserTable:
        """The rows ``keep`` selects, one byte per row and nonzero where the
        row stays, in table order, as a table over the same codes, each
        column copied once by :func:`itertools.compress`; ``keep`` must
        select every seed."""
        return UserTable(
            list(compress(self.ids, keep)),
            list(compress(self.categories, keep)),
            list(compress(self.follows, keep)),
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
        """Each user as a tuple ``(id, kind, category, followees)``, its
        followees sorted ids, each once: deduplicated in the list's order, which
        sorts in linear time where the list is in id order, as written lists are."""
        name = self.codes.names.__getitem__
        for uid, category, follows in zip(self.ids, self.categories, self.follows):
            kind = UserKind.REGULAR if category is None else UserKind.SEED
            yield uid, kind, category, sorted(map(name, dict.fromkeys(follows)))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        """Equal to a table of the same users, in any order: ids are unique,
        so a table is a set of users, and its rows sort by id."""
        if not isinstance(other, UserTable):
            return NotImplemented
        return sorted(self.rows()) == sorted(other.rows())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"UserTable({len(self)} users)"


class Dataset(Record):
    """Reference-checked container for one country's crawl; the analysis
    only reads it.

    ``config`` is its :class:`CountryConfig`, ``users`` the table of the
    retained users and ``tweets`` the column
    table of the kept tweets, each id once and its retweets resolved: each
    points at the seed that wrote its source.
    :func:`viewdiv.ingest.build_dataset` builds every dataset: from the
    parsed lines, through :func:`viewdiv.ingest.load_dataset` or through
    ``parse_users``, ``parse_tweets`` and ``resolve_tweets``, or from the
    tables :func:`viewdiv.synth.generate` fills, whose retweets get their
    targets as they are drawn. It validates the config and drops
    every tweet whose references dangle, so the analysis modules assume
    every reference resolves.
    """

    __slots__ = ("config", "users", "tweets")
