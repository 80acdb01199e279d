"""Small constructors for in-memory test datasets, written as lines from the
oracle's records, and lookups into one; a CLI runner, a child interpreter's
environment, and a loader for the benchmark's and the tools' scripts."""

from __future__ import annotations

import importlib.util
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

from hypothesis import Phase

from viewdiv import (
    CountryConfig,
    Dataset,
    PoliticalCategory,
    TweetKind,
    TweetTable,
    UserKind,
    UserMetrics,
    UserTable,
    Wing,
    compute_all,
)
from viewdiv.cli import main
from viewdiv.ingest import (
    _tweet_line, _user_line, build_dataset, parse_tweets, parse_users, resolve_tweets,
)
from viewdiv.oracle import TweetRecord, UserRecord

ROOT = Path(__file__).resolve().parent.parent
# The phases of a property that runs load_dataset or analyze per example:
# every one but shrinking, so that a failure reports its first failing
# example and a red run stays short. With derandomize=True the generated
# examples, and so which runs pass, are the same as with shrinking.
UNSHRUNK = tuple(phase for phase in Phase if phase is not Phase.shrink)
WINGS = {"left": Wing.LEFT, "right": Wing.RIGHT, "unaligned": Wing.UNALIGNED}


def config(categories: dict[str, str], minorities=(), name="test") -> CountryConfig:
    """categories: {category_id: wing_name}."""
    return CountryConfig(
        name=name,
        categories=tuple(PoliticalCategory(cid, WINGS[w]) for cid, w in categories.items()),
        minority_user_ids=frozenset(minorities),
    )


def seed(uid: str, category: str, followees=()) -> UserRecord:
    return UserRecord(uid, UserKind.SEED, category=category, followees=frozenset(followees))


def regular(uid: str, followees=()) -> UserRecord:
    return UserRecord(uid, UserKind.REGULAR, followees=frozenset(followees))


def regular_followees(ds: Dataset) -> dict[str, list[str]]:
    """Each regular of a dataset, in table order, to the sorted ids it
    follows."""
    return {
        uid: followees
        for uid, kind, _, followees in ds.users.rows()
        if kind is UserKind.REGULAR
    }


def original_authors(ds: Dataset) -> dict[str, str]:
    """Each original of a dataset, in table order, to its author's id."""
    return {tid: author for tid, author, kind, *_ in ds.tweets.rows() if kind is TweetKind.ORIGINAL}


def by_user(ds: Dataset) -> dict[str, UserMetrics]:
    """compute_all's per-user rows keyed by user id."""
    per_user, _ = compute_all(ds)
    return {m.user_id: m for m in per_user}


def original(tid: str, author: str, ts: int = 0) -> TweetRecord:
    return TweetRecord(tid, author, TweetKind.ORIGINAL, timestamp=ts)


def retweet(tid: str, author: str, source: str, ts: int = 0) -> TweetRecord:
    return TweetRecord(tid, author, TweetKind.RETWEET, source_tweet_id=source, timestamp=ts)


def reply(tid: str, author: str, target: str, ts: int = 0) -> TweetRecord:
    return TweetRecord(tid, author, TweetKind.REPLY, target_user_id=target, timestamp=ts)


def user_to_line(user: UserRecord) -> str:
    """The line write_dataset writes for this user."""
    return _user_line(user.id, user.kind, user.category, sorted(user.followees))


def tweet_to_line(tweet: TweetRecord) -> str:
    """The line write_dataset writes for this tweet."""
    return _tweet_line(
        tweet.id, tweet.author_id, tweet.kind, tweet.source_tweet_id,
        tweet.target_user_id, tweet.timestamp,
    )


def _refuse(diagnostics) -> None:
    if diagnostics:
        raise ValueError("; ".join(f"line {d.line_no}: {d.message}" for d in diagnostics))


def user_table(users) -> UserTable:
    """The table of these user records, parsed from their lines as input
    arrives; a line's diagnostic raises ValueError."""
    table, diagnostics = parse_users(map(user_to_line, users))
    _refuse(diagnostics)
    return table


def tables(users, tweets) -> tuple[UserTable, TweetTable, bytes]:
    """The table of ``users``, the tweets parsed from their lines as a
    table over its codes, each retweet pointing at the seed in ``users``
    that wrote its source, and the tweets' first-row selector: what
    load_dataset hands both the filter and the build. A line's diagnostic
    raises ValueError."""
    table = user_table(users)
    parsed, diagnostics = parse_tweets(map(tweet_to_line, tweets), table.codes)
    _refuse(diagnostics)
    return table, parsed, resolve_tweets(table, parsed)


def dataset(cfg: CountryConfig, users, tweets) -> Dataset:
    """Assemble a Dataset as load_dataset does without its activity filter:
    parse the lines, resolve the tweets against the seeds, then build,
    which validates the config and drops dangling tweets."""
    return build_dataset(cfg, *tables(users, tweets))[0]


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written


def run_cli(argv) -> CliResult:
    """``main(argv)`` in this process, with a usage error's SystemExit
    caught as its exit code."""
    output = io.StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, output.getvalue())


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``: a child interpreter then imports this viewdiv, whether
    or not one is installed."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}


def load_script(directory: str, name: str):
    """The module ``<directory>/<name>.py`` of the repository, such as a
    benchmark script; neither directory is a package."""
    path = ROOT / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
