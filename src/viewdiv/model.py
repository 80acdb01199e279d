"""Core domain model: categories, users, tweets, and the validated dataset."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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
        if self.kind is TweetKind.RETWEET and not self.source_tweet_id:
            raise ValueError(f"retweet {self.id!r} requires source_tweet_id")
        if self.kind is TweetKind.REPLY and not self.target_user_id:
            raise ValueError(f"reply {self.id!r} requires target_user_id")
        if self.timestamp < 0:
            raise ValueError(f"tweet {self.id!r} has negative timestamp")


@dataclass(frozen=True)
class Dataset:
    """Immutable, reference-checked container for one country's crawl.

    Construct through :func:`viewdiv.ingest.load_dataset`, which
    deduplicates tweet ids, drops dangling references and validates the
    config; the analysis modules assume every reference resolves.
    """

    config: CountryConfig
    users: dict[str, UserRecord]
    tweets: tuple[TweetRecord, ...]

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

    for mid in sorted(config.minority_user_ids):
        u = users.get(mid)
        if u is None:
            violations.append(f"minority id {mid!r} does not resolve to any user")
        elif u.kind is not UserKind.SEED:
            violations.append(f"minority id {mid!r} must be a seed user")

    for u in users.values():
        if u.kind is UserKind.SEED and u.category not in seen:
            violations.append(
                f"seed {u.id!r} references unknown category {u.category!r}"
            )
        for f in sorted(u.followees):
            target = users.get(f)
            if target is None:
                violations.append(f"user {u.id!r} follows unknown id {f!r}")
            elif target.kind is not UserKind.SEED:
                violations.append(f"user {u.id!r} follows non-seed {f!r}")

    return violations
