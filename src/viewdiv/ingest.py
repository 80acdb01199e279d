"""Line-delimited ingest: parsing, activity filtering, and dataset assembly.

Every rule of which rows a dataset keeps is here: the first row per tweet
id, retweet resolution, the activity filter, dangling drops, config checks.

File formats (one JSON object per line, UTF-8, LF endings; lines are read
with ``errors="surrogateescape"``, so a line holding bytes that are not
valid UTF-8, or a ``\\u`` escape of a lone surrogate, becomes one "invalid
UTF-8" diagnostic):

* users file:  ``{"id": ..., "kind": "seed"|"regular", "category": ...,
  "followees": [...]}`` -- ``category`` only for seeds; ``followees`` may
  name any id, and only the seeds among them count.
* tweets file: ``{"id": ..., "author_id": ..., "kind":
  "original"|"retweet"|"reply", "source_tweet_id": ..., "target_user_id":
  ..., "timestamp": ...}`` -- ``source_tweet_id`` kept for retweets only,
  ``target_user_id`` for replies only.
* spam list:   one user id per line; a line that is not valid UTF-8
  refuses the whole list (:func:`parse_spam`).

Unknown keys are ignored. Malformed lines yield diagnostics, never aborts:
a line is held to :func:`~viewdiv.model.user_violation` or
:func:`~viewdiv.model.tweet_violation`, the one rule the oracle's records are
held to as well, and its diagnostic is the rule's message. Lines are parsed
as they are read, so any iterable of lines works, an open file included.
The users go into the columns of a :class:`~viewdiv.model.UserTable`, each
id and each follow list as the int codes of its
:class:`~viewdiv.model.CodeMap`, and the tweets straight into the columns
of a :class:`~viewdiv.model.TweetTable` over the same map: one code per
user id, from parse to kernel.

Both readers read a line by its shape. A line in exactly the compact form
that :func:`write_dataset` writes (printable-ASCII strings without escapes,
keys in the written order, no spaces) takes a compact path. A tweet line
(``{"id":"t1","author_id":"u1","kind":"retweet","source_tweet_id":"t0",
"timestamp":5}``, an integer timestamp of at most 18 digits without a
leading zero) is read from one compiled pattern, ``_CANONICAL_TWEET``. A
user line (``{"id":"u1","kind":"regular","followees":["s1","s2"]}``, a
seed's ``"category"`` after its kind) has its head, up to the followee
list, matched by ``_CANONICAL_USER``, and the rest of the line checked and
split as one string by C calls (``_compact_followees``), so no Python loop
or pattern walks the followees. Every other line, and a compact user line
whose id is already read, is decoded as JSON and held to the rule. Both
paths give the same row, and only the second can give a diagnostic.
"""

from __future__ import annotations

import json
import re
from array import array
from itertools import compress, islice, repeat, starmap
from pathlib import Path
from typing import Iterable, Iterator

from .model import (
    LONE_SURROGATE,
    ORIGINAL,
    REPLY,
    RETWEET,
    TWEET_KIND_CODES,
    CodeMap,
    CountryConfig,
    Dataset,
    PoliticalCategory,
    Record,
    TweetKind,
    TweetTable,
    UserKind,
    UserTable,
    Wing,
    tweet_violation,
    user_violation,
)


class IngestError(ValueError):
    """Config validation failure, carrying the violations."""

    def __init__(self, violations: list[str]):
        super().__init__("config validation failed: " + "; ".join(violations))
        self.violations = violations


class ParseDiagnostic(Record):
    """One skipped input line: its 1-based ``line_no``, the reason
    ``message``, and the ``file`` it is in, ``"users"`` from
    :func:`parse_users` or ``"tweets"`` from :func:`parse_tweets`."""

    __slots__ = ("line_no", "message", "file")


class IngestReport(Record):
    """What :func:`load_dataset` read, dropped and ignored, each an int
    count, 0 by default. ``followees_ignored`` counts the entries of the
    retained users' follow lists that name no seed, as read, repeats
    included; ``tweets_dropped_duplicate`` the tweet rows after the first
    of their id."""

    __slots__ = (
        "users_read",
        "users_dropped_spam",
        "users_dropped_threshold",
        "followees_ignored",
        "tweets_read",
        "tweets_dropped_dangling",
        "tweets_dropped_duplicate",
    )
    _defaults = (0, 0, 0, 0, 0, 0, 0)


_raw_decode = json.JSONDecoder().raw_decode
# What json.loads allows around a value: JSON's whitespace, not str.strip's.
_JSON_WHITESPACE = " \t\n\r"
# What json.loads looks at before it decodes a value: a BOM, which it
# refuses, and the whitespace it skips. (An empty line's line[:1] is "", which
# every str holds.)
_LOADS_SKIPS = _JSON_WHITESPACE + "\ufeff"

# Exactly the compact line _tweet_line writes, followed by JSON whitespace.
# A string is printable ASCII without '"' or '\', so it holds no escape and
# decodes to itself, and it is never empty; a timestamp has no leading zero
# and at most 18 digits. Any line this matches decodes, as JSON, to the
# groups and passes tweet_violation, so parse_tweets reads it from the
# groups. Groups: id, author, source (retweets only), target (replies only),
# timestamp.
_STR = r'"([ !#-\[\]-~]+)"'
_CANONICAL_TWEET = re.compile(
    rf'\{{"id":{_STR},"author_id":{_STR},"kind":'
    rf'(?:"original"|"retweet","source_tweet_id":{_STR}|"reply","target_user_id":{_STR})'
    r',"timestamp":(0|[1-9][0-9]{0,17})\}[ \t\r\n]*'
)
# The head of the compact line _user_line writes, up to the opening bracket
# of its followee list; strings as above. Groups: id, category (seeds only).
_CANONICAL_USER = re.compile(
    rf'\{{"id":{_STR},"kind":(?:"seed","category":{_STR}|"regular"),"followees":\['
)


def _decode(line: str) -> tuple[dict | None, str | None]:
    """One line as (object, None) or (None, reason); a blank line fails as
    invalid JSON, and the line readers skip it instead."""
    # isascii() reads a flag CPython keeps on every str, so valid ASCII lines
    # never reach the scan.
    if not line.isascii() and LONE_SURROGATE.search(line):
        return None, "invalid UTF-8"
    try:
        # raw_decode is json.loads without its checks on the text around the
        # value; a line that starts with a value and ends in JSON whitespace
        # decodes the same either way. json.loads first refuses a leading BOM
        # and skips leading whitespace, then decodes as raw_decode does, so
        # raw_decode's error on a line that starts with neither is its error.
        # Any other line goes to json.loads, so that an error carries
        # json.loads's own message.
        try:
            obj, end = _raw_decode(line)
            exact = end == len(line) or not line[end:].strip(_JSON_WHITESPACE)
        except json.JSONDecodeError:
            if line[:1] not in _LOADS_SKIPS:
                raise
            exact = False
        if not exact:
            obj = json.loads(line)
        # Only a line with a backslash can hold a \u escape. json.loads joins
        # an escaped surrogate pair into one character, so any surrogate left
        # in the decoded record was escaped alone.
        if "\\" in line and LONE_SURROGATE.search(json.dumps(obj, ensure_ascii=False)):
            return None, "invalid UTF-8"
    except json.JSONDecodeError as exc:
        return None, f"invalid JSON: {exc.msg}"
    except RecursionError:
        # Nesting deeper than the interpreter's recursion limit, hit while
        # decoding or while encoding the record again for the surrogate check.
        return None, "invalid JSON: nested too deeply"
    except ValueError:
        # The one other ValueError decoding raises: int() refuses a literal
        # longer than sys.get_int_max_str_digits().
        return None, "invalid JSON: integer too long"
    if not isinstance(obj, dict):
        return None, "record is not an object"
    return obj, None


def _compact_followees(line: str, start: int) -> list[str] | None:
    """The followee list of a line whose followees start at ``start``, just
    after ``"followees":[``, when the rest of the line is exactly
    ``"f1","f2",...]}`` (no followee, or any number, repeats included) and
    then JSON whitespace, each followee printable ASCII without '"' or '\\';
    else None. Each check is one C call over the whole list."""
    body = line.rstrip(_JSON_WHITESPACE)
    if not body.endswith("]}"):
        return None
    segment = body[start:-2]
    if not segment:
        return []
    if not (
        segment[0] == segment[-1] == '"'
        and segment.isascii()
        and "\\" not in segment
        and segment.isprintable()
    ):
        return None
    parts = segment[1:-1].split('","')
    # the quotes are the separators' and the two outer ones iff no part
    # holds a quote of its own
    return parts if segment.count('"') == 2 * len(parts) else None


def parse_users(lines: Iterable[str]) -> tuple[UserTable, list[ParseDiagnostic]]:
    """Parse user lines into one :class:`UserTable`; malformed lines become
    diagnostics, not failures, each naming its input as ``"users"``.

    Duplicate user ids keep the first occurrence and flag the later line.
    Blank lines, empty or JSON whitespace only, are skipped silently; a
    line of other whitespace (a form feed, say) is invalid JSON, as
    ``json.loads`` finds it. A follow list may name an id more
    than once, or before that id's own line: each user's id and then each
    followed id gets an int code in the table's code map as it is read, and
    the follow list holds those codes, repeats too, whatever order the lines come in.

    A line whose head ``_CANONICAL_USER`` matches, whose id is not yet read
    and whose rest ``_compact_followees`` accepts, the compact form
    :func:`write_dataset` writes, is read from the head's groups and the
    split followee list; any other line is decoded as JSON and held to
    :func:`~viewdiv.model.user_violation`. A line the compact path takes
    decodes to the same fields and passes that rule, so the path a line
    takes never changes its row or its diagnostic.
    """
    users = UserTable([], [], [], CodeMap())
    code = users.codes.__getitem__
    diagnostics: list[ParseDiagnostic] = []
    seen: set[str] = set()

    canonical = _CANONICAL_USER.match

    for line_no, line in enumerate(lines, start=1):
        m = canonical(line)
        # a repeated id takes the JSON path, which names it
        followees = None if m is None or m[1] in seen else _compact_followees(line, m.end())
        if followees is not None:
            uid, category = m.groups()  # type: ignore[union-attr]
        else:
            obj, problem = _decode(line)
            if obj is not None:
                get = obj.get
                uid, kind, category = get("id"), get("kind"), get("category")
                followees = get("followees", [])
                problem = user_violation(uid, kind, category, followees, seen)
            if problem is not None:
                # a blank line fails to decode and is skipped, not diagnosed
                if line.strip(_JSON_WHITESPACE):
                    diagnostics.append(ParseDiagnostic(line_no, problem, "users"))
                continue
        seen.add(uid)
        users.ids.append(uid)
        users.categories.append(category)
        users.user_codes.append(code(uid))
        users.follows.append(list(map(code, followees)))

    return users, diagnostics


def parse_tweets(lines: Iterable[str], codes: CodeMap) -> tuple[TweetTable, list[ParseDiagnostic]]:
    """Parse tweet lines into one :class:`TweetTable` over ``codes``, the
    code map of the users they are read with (``users.codes``); analogous
    to :func:`parse_users`, each diagnostic naming its input as
    ``"tweets"``. An author or reply target that no user line names is
    interned into ``codes`` as it is read.

    Every well-formed line becomes a row, repeated ids included, so that
    ``len(table)`` counts the parsed lines; :func:`load_dataset` keeps the
    first row of each id. ``source_tweet_id`` and ``target_user_id`` are
    type-checked on every line, but a row keeps the source only for a
    retweet and the target only for a reply: on other kinds they are
    dropped like unknown keys.

    A line that ``_CANONICAL_TWEET`` matches in full, the compact form
    :func:`write_dataset` writes, is read from the match groups; any other
    line is decoded as JSON and held to
    :func:`~viewdiv.model.tweet_violation`. A line the pattern matches
    passes that rule and decodes to its groups, so the path a line takes
    never changes its row or its diagnostic.
    """
    table = TweetTable(codes)
    diagnostics: list[ParseDiagnostic] = []
    code = codes.__getitem__
    add_id = table.ids.append
    add_kind = table.kinds.append
    add_author = table.authors.append
    add_source = table.sources.append
    add_target = table.targets.append
    add_timestamp = table.timestamps.append

    canonical = _CANONICAL_TWEET.fullmatch

    for line_no, line in enumerate(lines, start=1):
        m = canonical(line)
        if m is not None:
            # the pattern gives a source only on a retweet and a target only
            # on a reply, so the groups are the row's references as they come
            tid, author, source, target, timestamp = m.groups()
            kind = RETWEET if source is not None else REPLY if target is not None else ORIGINAL
            timestamp = int(timestamp)
        else:
            obj, problem = _decode(line)
            if obj is not None:
                get = obj.get
                tid, author, kind = get("id"), get("author_id"), get("kind")
                source, target = get("source_tweet_id"), get("target_user_id")
                timestamp = get("timestamp", 0)
                problem = tweet_violation(tid, author, kind, source, target, timestamp)
            if problem is not None:
                # a blank line fails to decode and is skipped, not diagnosed
                if line.strip(_JSON_WHITESPACE):
                    diagnostics.append(ParseDiagnostic(line_no, problem, "tweets"))
                continue
            kind = TWEET_KIND_CODES[kind]
            if kind != RETWEET:
                source = None
            if kind != REPLY:
                target = None
        add_id(tid)
        add_kind(kind)
        add_author(code(author))
        add_source(source)
        add_target(-1 if target is None else code(target))
        add_timestamp(timestamp)

    return table, diagnostics


def parse_spam(lines: Iterable[str]) -> set[str]:
    """Parse a spam exclusion list: one user id per line, surrounding
    whitespace stripped and blank lines skipped. A line holding a lone
    surrogate, which is what reading bytes that are not valid UTF-8 with
    ``errors="surrogateescape"`` makes, raises ``ValueError("line <n>:
    invalid UTF-8")``: no user id can hold one."""
    spam: set[str] = set()
    for line_no, line in enumerate(lines, start=1):
        uid = line.strip()
        if not uid:
            continue
        if not uid.isascii() and LONE_SURROGATE.search(uid):
            raise ValueError(f"line {line_no}: invalid UTF-8")
        spam.add(uid)
    return spam


def _check_codes(users: UserTable, tweets: TweetTable) -> None:
    """Raise ValueError unless ``tweets`` is over ``users``'s code map."""
    if tweets.codes is not users.codes:
        raise ValueError("the tweet table is not over the user table's code map")


def resolve_tweets(users: UserTable, tweets: TweetTable) -> bytes:
    """Resolve each retweet of ``tweets`` to the seed that wrote its source,
    in place, and return the first-row selector: one byte per row, 1 where
    the row holds the first occurrence of its id.

    A retweet in a first row whose source is the id of an original in a
    first row, written by a seed of ``users``, gets that author's code as
    its target; every other retweet gets -1 or keeps the -1 that parsing
    gave it. Other rows keep theirs, and nothing is copied here.
    ``tweets`` must be a table over ``users.codes`` (else ValueError).
    """
    _check_codes(users, tweets)
    ids = tweets.ids
    n = len(ids)
    # a crawl that repeats no id, as every generated one, keeps every row
    if len(set(ids)) == n:
        first = b"\x01" * n
    else:
        # a row is first iff its id is not yet seen; add() returns None
        seen: set[str] = set()
        add = seen.add
        first = bytes([tid not in seen and not add(tid) for tid in ids])
    is_seed = users.seed_mask()
    author_of = {
        tid: author
        for tid, author in compress(zip(ids, tweets.authors), tweets.select_first(first, ORIGINAL))
        if is_seed[author]
    }.get
    targets = tweets.targets
    for row, source in compress(enumerate(tweets.sources), tweets.select_first(first, RETWEET)):
        targets[row] = author_of(source, -1)  # type: ignore[arg-type]
    return first


def filter_active_regulars(
    users: UserTable,
    tweets: TweetTable,
    spam_ids: frozenset[str] | set[str] = frozenset(),
    min_retweets: int = 5,
) -> tuple[UserTable, int, int]:
    """Apply the activity inclusion filter to regular users.

    Seeds always pass. A regular passes iff it is not spam-listed, it
    retweeted at least ``min_retweets`` distinct originals written by a
    seed, and it follows at least one seed. ``tweets`` has its retweets
    resolved by :func:`resolve_tweets`: a retweet counts iff it points at a
    seed, which only a retweet in its id's first row can. Spam takes
    precedence over the threshold in the drop counts. Returns ``(retained,
    dropped_spam, dropped_threshold)``, the retained users one copy of the
    rows that pass, a table over the same seeds.
    """
    distinct_seed_retweets: dict[int, set[str]] = {}
    for author, source, target in compress(
        zip(tweets.authors, tweets.sources, tweets.targets), tweets.select(RETWEET)
    ):
        if target >= 0:
            distinct_seed_retweets.setdefault(author, set()).add(source)  # type: ignore[arg-type]

    is_seed = users.seed_mask()
    keep = bytearray(len(users))
    dropped_spam = 0
    dropped_threshold = 0
    for row, (uid, code, category, follows) in enumerate(
        zip(users.ids, users.user_codes, users.categories, users.follows)
    ):
        if category is not None:  # only a seed has a category
            keep[row] = 1
            continue
        if uid in spam_ids:
            dropped_spam += 1
            continue
        active = len(distinct_seed_retweets.get(code, ())) >= min_retweets
        if active and any(map(is_seed.__getitem__, follows)):
            keep[row] = 1
        else:
            dropped_threshold += 1
    return users.take(keep), dropped_spam, dropped_threshold


def validate_config(config: CountryConfig, users: UserTable) -> list[str]:
    """Check a config against a user table: its categories and wings, that
    every minority id names a seed (a user with a category), and that every
    seed's category is in the config. Follow lists are not read: a follow
    list may name anyone, and every metric counts only the seeds it names.

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

    for uid, category in zip(users.ids, users.categories):
        # a seed's category is a string, a regular's None
        if category is not None and category not in seen:
            violations.append(f"seed {uid!r} references unknown category {category!r}")

    return violations


def build_dataset(
    config: CountryConfig,
    users: UserTable,
    tweets: TweetTable,
    first: bytes,
) -> tuple[Dataset, int]:
    """Assemble and validate an immutable Dataset: the one constructor of
    a :class:`~viewdiv.model.Dataset`.

    ``users`` is a table as :func:`parse_users` builds it or
    :func:`~viewdiv.synth.generate` fills it. ``tweets`` must be a table
    over the same code map, ``users.codes`` (else ValueError), with its
    retweets resolved against ``users``, and ``first`` its first-row
    selector (:func:`resolve_tweets`). A first row is kept iff it does not
    dangle: an original iff its author is in ``users``, a retweet or reply
    iff its author and the user it points at are in ``users``. The two
    rules make one selector, applied in one copy of the table, and no copy
    when it keeps every row.
    Config validation failure raises :class:`IngestError`. Returns
    ``(dataset, tweets_dropped_dangling)``: the first rows not kept.
    """
    _check_codes(users, tweets)
    violations = validate_config(config, users)
    if violations:
        raise IngestError(violations)

    retained = users.per_code(repeat(True), False)
    keep = bytes([
        is_first and retained[author] and (kind == ORIGINAL or retained[target])
        for is_first, author, kind, target
        in zip(first, tweets.authors, tweets.kinds, tweets.targets)
    ])
    kept = keep.count(1)
    # a crawl with nothing repeated or dangling, as every generated one, needs no copy
    if kept != len(tweets):
        tweets = tweets.take(keep)
    return Dataset(config, users, tweets), first.count(1) - kept


def load_dataset(
    config: CountryConfig,
    user_lines: Iterable[str],
    tweet_lines: Iterable[str],
    spam_ids: frozenset[str] | set[str] = frozenset(),
    min_retweets: int = 5,
) -> tuple[Dataset, IngestReport, list[ParseDiagnostic]]:
    """Full ingest pipeline: parse, resolve tweets once, filter, build.

    The lines may be any iterables, read once each, users first. The first
    row of each tweet id is marked once, in a selector, and each retweet in
    a first row is resolved once, in the parsed table, to the seed that
    wrote its source; the activity filter counts the retweets that point at
    a seed, and the build copies the first rows it keeps once, so a retweet
    counts toward a regular's activity iff the dataset keeps it.
    ``users_read`` and ``tweets_read`` count every attempted record line,
    so users_read = retained + dropped_spam + dropped_threshold +
    malformed, and tweets_read = kept + dropped_dangling +
    dropped_duplicate + malformed. Follow lists are kept as read, and
    ``followees_ignored`` counts the retained users' entries that name no
    seed, which no metric reads. The diagnostics are the users' and then
    the tweets', each in line order and named by the reader that built it.
    """
    users, user_diags = parse_users(user_lines)
    tweets, tweet_diags = parse_tweets(tweet_lines, users.codes)
    first = resolve_tweets(users, tweets)
    retained, dropped_spam, dropped_threshold = filter_active_regulars(
        users, tweets, spam_ids, min_retweets
    )
    dataset, dropped_dangling = build_dataset(config, retained, tweets, first)
    seeds = set(compress(retained.user_codes, retained.categories))
    report = IngestReport(
        users_read=len(users) + len(user_diags),
        users_dropped_spam=dropped_spam,
        users_dropped_threshold=dropped_threshold,
        # a list of seeds alone, as every generated one, is one C-level test
        followees_ignored=sum(
            len(follows) - sum(map(seeds.__contains__, follows))
            for follows in retained.follows
            if not seeds.issuperset(follows)
        ),
        tweets_read=len(tweets) + len(tweet_diags),
        tweets_dropped_dangling=dropped_dangling,
        tweets_dropped_duplicate=len(tweets) - first.count(1),
    )
    return dataset, report, user_diags + tweet_diags


# -- country config and dataset serialization --------------------------------

def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object a file holds, held to the same rules as one input
    line: text that is not valid UTF-8 (raw bytes or an escaped lone
    surrogate), invalid JSON or a non-object raise ``ValueError("<path>:
    malformed <what> (<reason>)")``."""
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    raw, reason = _decode(text)
    if raw is None:
        raise ValueError(f"{path}: malformed {what} ({reason})")
    return raw


def load_country_config(path: str | Path) -> CountryConfig:
    """Read a country config JSON file.

    Shape: ``{"name": str, "categories": [{"id": str, "wing":
    "left"|"right"|"unaligned"}, ...], "minority_user_ids": [str, ...]}``.
    The file is read by :func:`read_json_object`.
    """
    raw = read_json_object(path, "country config")
    try:
        categories = tuple(
            PoliticalCategory(id=c["id"], wing=Wing(c["wing"]))
            for c in raw["categories"]
        )
        if not all(isinstance(c.id, str) for c in categories):
            raise ValueError("category ids must be strings")
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise ValueError("'name' must be a string")
        minority_ids = raw.get("minority_user_ids", [])
        if not isinstance(minority_ids, list) or not all(
            isinstance(m, str) for m in minority_ids
        ):
            raise ValueError("'minority_user_ids' must be a list of ids")
        return CountryConfig(
            name=name,
            categories=categories,
            minority_user_ids=frozenset(minority_ids),
        )
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: malformed country config ({reason})") from exc


def config_to_json(config: CountryConfig) -> str:
    obj = {
        "name": config.name,
        "categories": [{"id": c.id, "wing": c.wing.value} for c in config.categories],
        "minority_user_ids": sorted(config.minority_user_ids),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# json.dumps(obj, separators=(",", ":")) spells a string with this function
# (ensure_ascii is its default) and an int with int.__repr__, so the lines
# below are byte for byte what dumping each record as a dict would give.
_quote = json.encoder.encode_basestring_ascii
# A kind's value as json.dumps spells it; Enum.value is slow to look up.
_KIND_TEXT = {kind: _quote(kind.value) for kind in (*UserKind, *TweetKind)}


def _user_line(uid, kind, category, followees) -> str:
    category_text = "" if category is None else ',"category":' + _quote(category)
    return (
        f'{{"id":{_quote(uid)},"kind":{_KIND_TEXT[kind]}{category_text}'
        f',"followees":[{",".join(map(_quote, followees))}]}}'
    )


def _tweet_line(tid, author_id, kind, source_tweet_id, target_user_id, timestamp) -> str:
    reference = ""
    if source_tweet_id is not None:
        reference = ',"source_tweet_id":' + _quote(source_tweet_id)
    if target_user_id is not None:
        reference += ',"target_user_id":' + _quote(target_user_id)
    return (
        f'{{"id":{_quote(tid)},"author_id":{_quote(author_id)},"kind":{_KIND_TEXT[kind]}'
        f'{reference},"timestamp":{int.__repr__(timestamp)}}}'
    )


# Lines per write. One write call per line took about a tenth longer to
# write the tweet_log benchmark crawl's tweets; 8,192 of its tweet lines
# are under 1 MB of text.
_WRITE_ROWS = 8192


def _write_lines(fh, lines: Iterator[str]) -> None:
    """Write each line with a newline after it, ``_WRITE_ROWS`` at a time."""
    while chunk := list(islice(lines, _WRITE_ROWS)):
        fh.write("\n".join(chunk))
        fh.write("\n")


def write_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write config.json, users.jsonl, tweets.jsonl; returns the paths.

    Users are written in sorted id order, each follow list sorted; tweets
    keep dataset order. Output
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
        # ids are unique, so the sort never compares two follow lists
        _write_lines(fh, starmap(_user_line, sorted(dataset.users.rows())))
    with open(paths["tweets"], "w", encoding="utf-8", newline="\n") as fh:
        _write_lines(fh, starmap(_tweet_line, dataset.tweets.rows()))
    return paths

