"""Line-delimited ingest: parsing, activity filtering, and dataset assembly.

File formats (one JSON object per line, UTF-8, LF endings; lines are read
with ``errors="surrogateescape"``, so a line holding bytes that are not
valid UTF-8 becomes one "invalid UTF-8" diagnostic):

* users file:  ``{"id": ..., "kind": "seed"|"regular", "category": ...,
  "followees": [...]}`` -- ``category`` only for seeds.
* tweets file: ``{"id": ..., "author_id": ..., "kind":
  "original"|"retweet"|"reply", "source_tweet_id": ..., "target_user_id":
  ..., "timestamp": ...}``.
* spam list:   one user id per line.

Unknown keys are ignored. Malformed lines yield diagnostics, never aborts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .model import (
    CountryConfig,
    Dataset,
    PoliticalCategory,
    TweetKind,
    TweetRecord,
    UserKind,
    UserRecord,
    Wing,
    validate_config,
)


class IngestError(Exception):
    """Fatal ingest failure (config validation), carrying the violations."""

    def __init__(self, violations: list[str]):
        super().__init__("config validation failed: " + "; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class ParseDiagnostic:
    """One skipped input line: 1-based line number plus reason."""

    line_no: int
    message: str


@dataclass(frozen=True)
class IngestReport:
    users_read: int = 0
    users_dropped_spam: int = 0
    users_dropped_threshold: int = 0
    tweets_read: int = 0
    tweets_dropped_dangling: int = 0


# Readers decode with errors="surrogateescape", which turns each byte that is
# not valid UTF-8 into one lone surrogate in U+DC80..U+DCFF.
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")


def _parse_line(line: str, line_no: int) -> tuple[dict | None, ParseDiagnostic | None]:
    # isascii() reads a flag CPython keeps on every str, so valid ASCII lines
    # never reach the scan.
    if not line.isascii() and _UNDECODED_BYTE.search(line):
        return None, ParseDiagnostic(line_no, "invalid UTF-8")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, ParseDiagnostic(line_no, f"invalid JSON: {exc.msg}")
    if not isinstance(obj, dict):
        return None, ParseDiagnostic(line_no, "record is not an object")
    return obj, None


def parse_users(lines: Iterable[str]) -> tuple[list[UserRecord], list[ParseDiagnostic]]:
    """Parse user records; malformed lines become diagnostics, not failures.

    Duplicate user ids keep the first occurrence and flag the later line.
    Blank lines are skipped silently.
    """
    records: list[UserRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    seen_ids: set[str] = set()

    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj, diag = _parse_line(line, line_no)
        if diag is not None:
            diagnostics.append(diag)
            continue
        assert obj is not None

        uid = obj.get("id")
        kind_raw = obj.get("kind")
        if not isinstance(uid, str) or not uid:
            diagnostics.append(ParseDiagnostic(line_no, "missing or invalid 'id'"))
            continue
        if kind_raw not in ("seed", "regular"):
            diagnostics.append(ParseDiagnostic(line_no, "missing or invalid 'kind'"))
            continue
        followees_raw = obj.get("followees", [])
        if not isinstance(followees_raw, list) or not all(
            isinstance(f, str) for f in followees_raw
        ):
            diagnostics.append(ParseDiagnostic(line_no, "'followees' must be a list of ids"))
            continue
        category = obj.get("category")
        if category is not None and not isinstance(category, str):
            diagnostics.append(ParseDiagnostic(line_no, "'category' must be a string"))
            continue
        if uid in seen_ids:
            diagnostics.append(ParseDiagnostic(line_no, f"duplicate user id {uid!r}"))
            continue

        try:
            record = UserRecord(
                id=uid,
                kind=UserKind(kind_raw),
                category=category,
                followees=frozenset(followees_raw),
            )
        except (ValueError, TypeError) as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
            continue
        seen_ids.add(uid)
        records.append(record)

    return records, diagnostics


def parse_tweets(lines: Iterable[str]) -> tuple[list[TweetRecord], list[ParseDiagnostic]]:
    """Parse tweet records; analogous to :func:`parse_users`."""
    records: list[TweetRecord] = []
    diagnostics: list[ParseDiagnostic] = []

    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj, diag = _parse_line(line, line_no)
        if diag is not None:
            diagnostics.append(diag)
            continue
        assert obj is not None

        tid = obj.get("id")
        author = obj.get("author_id")
        kind_raw = obj.get("kind")
        if not isinstance(tid, str) or not tid:
            diagnostics.append(ParseDiagnostic(line_no, "missing or invalid 'id'"))
            continue
        if not isinstance(author, str) or not author:
            diagnostics.append(ParseDiagnostic(line_no, "missing or invalid 'author_id'"))
            continue
        if kind_raw not in ("original", "retweet", "reply"):
            diagnostics.append(ParseDiagnostic(line_no, "missing or invalid 'kind'"))
            continue
        timestamp = obj.get("timestamp", 0)
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            diagnostics.append(ParseDiagnostic(line_no, "'timestamp' must be an integer"))
            continue
        source = obj.get("source_tweet_id")
        if source is not None and not isinstance(source, str):
            diagnostics.append(ParseDiagnostic(line_no, "'source_tweet_id' must be a string"))
            continue
        target = obj.get("target_user_id")
        if target is not None and not isinstance(target, str):
            diagnostics.append(ParseDiagnostic(line_no, "'target_user_id' must be a string"))
            continue

        try:
            record = TweetRecord(
                id=tid,
                author_id=author,
                kind=TweetKind(kind_raw),
                source_tweet_id=source,
                target_user_id=target,
                timestamp=timestamp,
            )
        except (ValueError, TypeError) as exc:
            diagnostics.append(ParseDiagnostic(line_no, str(exc)))
            continue
        records.append(record)

    return records, diagnostics


def parse_spam(lines: Iterable[str]) -> set[str]:
    """Parse a spam exclusion list: one user id per line, blanks skipped."""
    return {line.strip() for line in lines if line.strip()}


def _first_by_id(tweets: list[TweetRecord]) -> list[TweetRecord]:
    """Tweets in input order, keeping only the first occurrence of each id."""
    kept: list[TweetRecord] = []
    seen: set[str] = set()
    for t in tweets:
        if t.id not in seen:
            seen.add(t.id)
            kept.append(t)
    return kept


def filter_active_regulars(
    users: list[UserRecord],
    tweets: list[TweetRecord],
    spam_ids: frozenset[str] | set[str] = frozenset(),
    min_retweets: int = 5,
) -> tuple[list[UserRecord], int, int]:
    """Apply the activity inclusion filter to regular users.

    Seeds always pass. A regular passes iff it is not spam-listed, it
    retweeted at least ``min_retweets`` distinct seed-authored originals, and
    it follows at least one seed. Spam takes precedence over the threshold in
    the drop counts. Returns ``(retained, dropped_spam, dropped_threshold)``.
    """
    seed_ids = {u.id for u in users if u.kind is UserKind.SEED}
    original_author = {
        t.id: t.author_id for t in tweets if t.kind is TweetKind.ORIGINAL
    }

    distinct_seed_retweets: dict[str, set[str]] = {}
    for t in tweets:
        if t.kind is not TweetKind.RETWEET:
            continue
        src_author = original_author.get(t.source_tweet_id or "")
        if src_author in seed_ids:
            distinct_seed_retweets.setdefault(t.author_id, set()).add(t.source_tweet_id)  # type: ignore[arg-type]

    retained: list[UserRecord] = []
    dropped_spam = 0
    dropped_threshold = 0
    for u in users:
        if u.kind is UserKind.SEED:
            retained.append(u)
            continue
        if u.id in spam_ids:
            dropped_spam += 1
            continue
        follows_seed = any(f in seed_ids for f in u.followees)
        active = len(distinct_seed_retweets.get(u.id, ())) >= min_retweets
        if follows_seed and active:
            retained.append(u)
        else:
            dropped_threshold += 1
    return retained, dropped_spam, dropped_threshold


def build_dataset(
    config: CountryConfig,
    users: list[UserRecord],
    tweets: list[TweetRecord],
    *,
    users_read: int | None = None,
    users_dropped_spam: int = 0,
    users_dropped_threshold: int = 0,
    tweets_read: int | None = None,
) -> tuple[Dataset, IngestReport]:
    """Assemble and validate an immutable Dataset from filtered collections.

    Tweet ids deduplicate keeping the first occurrence. Tweets with dangling
    references are dropped and counted: unknown author, retweet source that
    is not a kept seed-authored original, or unknown reply target. Config
    validation failure raises :class:`IngestError`. The optional keyword
    counters let a pipeline thread parse/filter tallies into the report.
    """
    user_map: dict[str, UserRecord] = {}
    for u in users:
        user_map.setdefault(u.id, u)

    violations = validate_config(config, user_map)
    if violations:
        raise IngestError(violations)

    deduped = _first_by_id(tweets)

    # Originals kept iff their author resolves; retweets must then point at a
    # kept original authored by a seed (cascaded drops count as dangling too).
    kept_original_author: dict[str, str] = {}
    for t in deduped:
        if t.kind is TweetKind.ORIGINAL and t.author_id in user_map:
            kept_original_author[t.id] = t.author_id

    kept: list[TweetRecord] = []
    dropped_dangling = 0
    for t in deduped:
        ok = t.author_id in user_map
        if ok and t.kind is TweetKind.RETWEET:
            src_author = kept_original_author.get(t.source_tweet_id or "")
            ok = src_author is not None and user_map[src_author].kind is UserKind.SEED
        elif ok and t.kind is TweetKind.REPLY:
            ok = t.target_user_id in user_map
        if ok:
            kept.append(t)
        else:
            dropped_dangling += 1

    dataset = Dataset(config=config, users=user_map, tweets=tuple(kept))
    report = IngestReport(
        users_read=len(users) if users_read is None else users_read,
        users_dropped_spam=users_dropped_spam,
        users_dropped_threshold=users_dropped_threshold,
        tweets_read=len(tweets) if tweets_read is None else tweets_read,
        tweets_dropped_dangling=dropped_dangling,
    )
    return dataset, report


def load_dataset(
    config: CountryConfig,
    user_lines: Iterable[str],
    tweet_lines: Iterable[str],
    spam_ids: frozenset[str] | set[str] = frozenset(),
    min_retweets: int = 5,
) -> tuple[Dataset, IngestReport, list[ParseDiagnostic]]:
    """Full ingest pipeline: parse, dedupe tweet ids, filter, build.

    Tweet ids are deduplicated once, keeping the first occurrence, before
    the activity filter, so the filter and the built dataset see the same
    tweets. ``users_read``/``tweets_read`` count every attempted record
    line, so users_read = retained + dropped_spam + dropped_threshold +
    malformed, and tweets_read = kept + dropped_dangling + malformed +
    duplicate ids.
    """
    users, user_diags = parse_users(user_lines)
    parsed, tweet_diags = parse_tweets(tweet_lines)
    tweets = _first_by_id(parsed)
    retained, dropped_spam, dropped_threshold = filter_active_regulars(
        users, tweets, spam_ids, min_retweets
    )
    dataset, report = build_dataset(
        config,
        retained,
        tweets,
        users_read=len(users) + len(user_diags),
        users_dropped_spam=dropped_spam,
        users_dropped_threshold=dropped_threshold,
        tweets_read=len(parsed) + len(tweet_diags),
    )
    diagnostics = [*user_diags, *tweet_diags]
    return dataset, report, diagnostics


# -- country config and dataset serialization --------------------------------

def load_country_config(path: str | Path) -> CountryConfig:
    """Read a country config JSON file.

    Shape: ``{"name": str, "categories": [{"id": str, "wing":
    "left"|"right"|"unaligned"}, ...], "minority_user_ids": [str, ...]}``.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    try:
        categories = tuple(
            PoliticalCategory(id=c["id"], wing=Wing(c["wing"]))
            for c in raw["categories"]
        )
        minority_ids = raw.get("minority_user_ids", [])
        if not isinstance(minority_ids, list) or not all(
            isinstance(m, str) for m in minority_ids
        ):
            raise ValueError("'minority_user_ids' must be a list of ids")
        return CountryConfig(
            name=raw.get("name", ""),
            categories=categories,
            minority_user_ids=frozenset(minority_ids),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed country config ({exc})") from exc


def config_to_json(config: CountryConfig) -> str:
    obj = {
        "name": config.name,
        "categories": [{"id": c.id, "wing": c.wing.value} for c in config.categories],
        "minority_user_ids": sorted(config.minority_user_ids),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def user_to_line(user: UserRecord) -> str:
    obj: dict = {"id": user.id, "kind": user.kind.value}
    if user.category is not None:
        obj["category"] = user.category
    obj["followees"] = sorted(user.followees)
    return json.dumps(obj, separators=(",", ":"))


def tweet_to_line(tweet: TweetRecord) -> str:
    obj: dict = {"id": tweet.id, "author_id": tweet.author_id, "kind": tweet.kind.value}
    if tweet.source_tweet_id is not None:
        obj["source_tweet_id"] = tweet.source_tweet_id
    if tweet.target_user_id is not None:
        obj["target_user_id"] = tweet.target_user_id
    obj["timestamp"] = tweet.timestamp
    return json.dumps(obj, separators=(",", ":"))


def write_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write config.json, users.jsonl, tweets.jsonl; returns the paths.

    Users are written in sorted id order; tweets keep dataset order. Output
    round-trips through :func:`load_dataset` byte-for-byte deterministically.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "config": out / "config.json",
        "users": out / "users.jsonl",
        "tweets": out / "tweets.jsonl",
    }
    with open(paths["config"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_json(dataset.config))
    with open(paths["users"], "w", encoding="utf-8", newline="\n") as fh:
        for uid in sorted(dataset.users):
            fh.write(user_to_line(dataset.users[uid]) + "\n")
    with open(paths["tweets"], "w", encoding="utf-8", newline="\n") as fh:
        for t in dataset.tweets:
            fh.write(tweet_to_line(t) + "\n")
    return paths
