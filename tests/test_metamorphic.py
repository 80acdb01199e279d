"""Metamorphic properties of ``analyze``: reorder or relabel the input, and
no report byte may move.

Each example takes a small crawl (the toy fixture or a generated one), adds
crawl noise (re-delivered lines, re-used tweet ids with other content,
truncated lines, spam-listed regulars), runs ``analyze`` on it, and runs it
again on one transformed copy per property:

* the user lines shuffled;
* the tweet lines whose id occurs once shuffled among themselves (lines
  that share an id keep their order, since the first one wins);
* the tweet ids renamed by an order-preserving bijection;
* the user ids renamed by an order-preserving bijection, everywhere they
  occur, with the ``user_id`` column mapped back before comparing;
* every decodable tweet line written again with ``json.dumps``'s default
  separators, a spelling that ingest's canonical-line pattern never
  matches, so every tweet line is decoded as JSON (truncated lines stay
  as they are);
* every follow list reversed, with one of its entries repeated.

So the order in which ingest meets ids, the way a line is spelled, and the
order and repeats within a follow list never reach a report.

A second property swaps the left and right wings in the config, on every
crawl source, the toy fixture (the one with an unaligned category) among
them. No per-user value reads a wing, so ``compute_all`` gives each user
exactly the values it gave before, and the seed matrix is reflected
through its centre: left-to-left trades places with right-to-right,
left-to-right with right-to-left, and the two row totals swap.

A third property permutes the config's category list and renames every
category, in the config and in every seed line, by one bijection. No
metric reads a category's name and no tie is broken by category order, so
every per-user value stays within 1e-12 (an entropy sums its terms in the
new order), and every io flag and the seed matrix stay equal.

A fourth property adds input that a drop policy must discard, one kind at a
time: a spam-listed regular with its tweets, a regular under the retweet
threshold with its tweets, and tweets by authors that are no user. Each
moves the ingest counts of ``summary.json`` by exactly what it added, and
no other report byte.

A fifth property repeats every seed original k times under fresh ids, with
no retweet of a copy. Each regular's direct counts scale by exactly k, so
its direct source diversity stays within 1e-12. Surfaced originals are not
copied, so a direct histogram that counted them would not scale.

A sixth property adds one regular who passes the activity filter. Its row
joins ``users_metrics.csv``, and every other row, and all of
``seed_matrix.csv``, stay byte-identical: a user's metrics read its own
follows and tweets, and the total minority volume the seeds alone.
"""

import functools
import json
import tempfile
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from viewdiv import (
    SynthParams,
    TweetKind,
    WingMatrix,
    compute_all,
    generate,
    load_country_config,
    load_dataset,
    write_dataset,
)
from viewdiv.metrics import ExposureIndex

from helpers import run_cli
from test_acceptance import _assert_metrics_match

TOY = Path(__file__).resolve().parent / "data" / "toy"


@functools.lru_cache(maxsize=None)
def _base(source) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """(config text, user lines, tweet lines) of a clean crawl."""
    if source == "toy":
        directory = TOY
        return (
            (directory / "config.json").read_text(),
            tuple((directory / "users.jsonl").read_text().splitlines()),
            tuple((directory / "tweets.jsonl").read_text().splitlines()),
        )
    params = SynthParams(
        rng_seed=source, n_categories=4, n_seeds=8, n_regulars=20, homophily=0.5,
        tweets_per_seed=6, retweets_per_regular=7, replies_per_regular=2,
    )
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_dataset(generate(params), tmp)
        return (
            paths["config"].read_text(),
            tuple(paths["users"].read_text().splitlines()),
            tuple(paths["tweets"].read_text().splitlines()),
        )


def _record(line: str) -> dict | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


_SOURCES = ("toy", 0, 1, 2)


@st.composite
def _crawl(draw, sources=_SOURCES) -> tuple[str, list[str], list[str], list[str]]:
    """A noisy crawl of one of ``sources``: (config text, user lines, tweet
    lines, spam ids)."""
    config_text, user_lines, tweet_lines = _base(draw(st.sampled_from(sources)))
    users = list(user_lines)
    tweets = list(tweet_lines)
    user_ids = [json.loads(line)["id"] for line in users]
    regulars = [u for line, u in zip(users, user_ids) if '"regular"' in line]

    n = len(tweets)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        # re-delivered verbatim, somewhere after the first delivery
        tweets.insert(draw(st.integers(i + 1, len(tweets))), tweets[i])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        # the same id again with another author, later in the file
        variant = json.loads(tweets[i])
        variant["author_id"] = draw(st.sampled_from(user_ids + ["ghost"]))
        tweets.insert(draw(st.integers(i + 1, len(tweets))), _dumps(variant))
    for i in draw(st.lists(st.integers(0, len(tweets) - 1), max_size=3, unique=True)):
        tweets[i] = tweets[i][: draw(st.integers(1, len(tweets[i]) - 1))]
    for i in draw(st.lists(st.integers(0, len(users) - 1), max_size=1)):
        if '"regular"' in users[i]:
            users[i] = users[i][: draw(st.integers(1, len(users[i]) - 1))]
    spam = draw(st.lists(st.sampled_from(regulars), max_size=2, unique=True))
    return config_text, users, tweets, spam


def _analyze(config_text: str, users: list[str], tweets: list[str], spam: list[str]) -> dict:
    """The report files of one ``analyze`` run, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "config.json").write_text(config_text)
        (d / "users.jsonl").write_text("".join(line + "\n" for line in users))
        (d / "tweets.jsonl").write_text("".join(line + "\n" for line in tweets))
        (d / "spam.txt").write_text("".join(u + "\n" for u in spam))
        result = run_cli([
            "analyze", "--config", str(d / "config.json"),
            "--users", str(d / "users.jsonl"), "--tweets", str(d / "tweets.jsonl"),
            "--spam", str(d / "spam.txt"), "--out", str(d / "rep"),
        ])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in sorted((d / "rep").iterdir())}


def _order_preserving(old: set[str], prefix: str, gaps: list[int]) -> dict[str, str]:
    """A bijection from ``old`` onto new ids that keeps their sorted order:
    the k-th smallest id becomes ``prefix`` plus a zero-padded counter that
    grows by a drawn gap at each step."""
    mapping = {}
    counter = 0
    for k, name in enumerate(sorted(old)):
        counter += gaps[k % len(gaps)]
        mapping[name] = f"{prefix}{counter:09d}"
    return mapping


def _rename_tweet_ids(tweets: list[str], gaps: list[int]) -> list[str]:
    records = [_record(line) for line in tweets]
    ids = set()
    for r in records:
        if r is not None:
            ids.update(r[k] for k in ("id", "source_tweet_id") if isinstance(r.get(k), str))
    mapping = _order_preserving(ids, "T", gaps)
    out = []
    for line, r in zip(tweets, records):
        if r is None:
            out.append(line)
            continue
        for k in ("id", "source_tweet_id"):
            if isinstance(r.get(k), str):
                r[k] = mapping[r[k]]
        out.append(_dumps(r))
    return out


def _rename_user_ids(config_text, users, tweets, spam, gaps):
    """Every user id renamed; returns the renamed crawl and the inverse map."""
    config = json.loads(config_text)
    user_records = [_record(line) for line in users]
    tweet_records = [_record(line) for line in tweets]
    ids = set(config["minority_user_ids"]) | set(spam)
    for r in user_records:
        if r is not None:
            ids.add(r["id"])
            ids.update(r.get("followees", []))
    for r in tweet_records:
        if r is not None:
            ids.update(r[k] for k in ("author_id", "target_user_id") if isinstance(r.get(k), str))
    mapping = _order_preserving(ids, "U", gaps)

    config["minority_user_ids"] = [mapping[m] for m in config["minority_user_ids"]]
    new_users = []
    for line, r in zip(users, user_records):
        if r is None:
            new_users.append(line)
            continue
        r["id"] = mapping[r["id"]]
        if "followees" in r:
            r["followees"] = [mapping[f] for f in r["followees"]]
        new_users.append(_dumps(r))
    new_tweets = []
    for line, r in zip(tweets, tweet_records):
        if r is None:
            new_tweets.append(line)
            continue
        for k in ("author_id", "target_user_id"):
            if isinstance(r.get(k), str):
                r[k] = mapping[r[k]]
        new_tweets.append(_dumps(r))
    inverse = {v: k for k, v in mapping.items()}
    return json.dumps(config), new_users, new_tweets, [mapping[s] for s in spam], inverse


def _map_user_column(reports: dict, inverse: dict[str, str]) -> dict:
    lines = reports["users_metrics.csv"].decode().splitlines()
    mapped = [lines[0]]
    for line in lines[1:]:
        uid, rest = line.split(",", 1)
        mapped.append(f"{inverse[uid]},{rest}")
    return {**reports, "users_metrics.csv": ("\n".join(mapped) + "\n").encode()}


def _spaced(tweets: list[str]) -> list[str]:
    out = []
    for line in tweets:
        r = _record(line)
        out.append(line if r is None else json.dumps(r))
    return out


def _reversed_follows(users: list[str], rnd) -> list[str]:
    """Each follow list reversed, one entry of it (drawn) written twice."""
    out = []
    for line in users:
        r = _record(line)
        followees = r.get("followees") if r is not None else None
        if not followees:
            out.append(line)
            continue
        followees = followees[::-1]
        followees.insert(rnd.randrange(len(followees) + 1), rnd.choice(followees))
        out.append(_dumps({**r, "followees": followees}))
    return out


def _shuffle_unique_tweet_lines(tweets: list[str], rnd) -> list[str]:
    records = [_record(line) for line in tweets]
    counts: dict = {}
    for r in records:
        if r is not None:
            counts[r.get("id")] = counts.get(r.get("id"), 0) + 1
    movable = [
        i for i, r in enumerate(records)
        if r is not None and isinstance(r.get("id"), str) and counts[r["id"]] == 1
    ]
    moved = [tweets[i] for i in movable]
    rnd.shuffle(moved)
    out = list(tweets)
    for i, line in zip(movable, moved):
        out[i] = line
    return out


@settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    crawl=_crawl(),
    rnd=st.randoms(use_true_random=False),
    gaps=st.lists(st.integers(1, 1000), min_size=1, max_size=8),
)
def test_reports_do_not_depend_on_input_order_or_id_spelling(crawl, rnd, gaps):
    config_text, users, tweets, spam = crawl
    base = _analyze(config_text, users, tweets, spam)

    shuffled_users = list(users)
    rnd.shuffle(shuffled_users)
    assert _analyze(config_text, shuffled_users, tweets, spam) == base, "user lines shuffled"

    shuffled_tweets = _shuffle_unique_tweet_lines(tweets, rnd)
    assert _analyze(config_text, users, shuffled_tweets, spam) == base, "tweet lines shuffled"

    renamed_tweets = _rename_tweet_ids(tweets, gaps)
    assert _analyze(config_text, users, renamed_tweets, spam) == base, "tweet ids renamed"

    *renamed, inverse = _rename_user_ids(config_text, users, tweets, spam, gaps)
    assert _map_user_column(_analyze(*renamed), inverse) == base, "user ids renamed"

    assert _analyze(config_text, users, _spaced(tweets), spam) == base, "tweet lines spaced"

    reversed_follows = _reversed_follows(users, rnd)
    assert _analyze(config_text, reversed_follows, tweets, spam) == base, "follow lists reversed"


def _load(config_text: str, users: list[str], tweets: list[str], spam: list[str]):
    """The dataset of the crawl, loaded as ``analyze`` loads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(config_text)
        config = load_country_config(path)
    return load_dataset(config, users, tweets, frozenset(spam))[0]


def _compute_all(config_text: str, users: list[str], tweets: list[str], spam: list[str]):
    """``compute_all`` of the crawl, loaded as ``analyze`` loads it."""
    return compute_all(_load(config_text, users, tweets, spam))


@pytest.mark.parametrize("source", _SOURCES)
@settings(
    max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_swapping_the_wings_reflects_the_seed_matrix(source, data):
    config_text, users, tweets, spam = data.draw(_crawl([source]))
    config = json.loads(config_text)
    swap = {"left": "right", "right": "left", "unaligned": "unaligned"}
    for category in config["categories"]:
        category["wing"] = swap[category["wing"]]
    per_user, m = _compute_all(config_text, users, tweets, spam)
    swapped_per_user, swapped = _compute_all(json.dumps(config), users, tweets, spam)
    assert swapped_per_user == per_user
    assert swapped == WingMatrix(
        left_to_left=m.right_to_right, left_to_right=m.right_to_left,
        right_to_left=m.left_to_right, right_to_right=m.left_to_left,
        left_interactions=m.right_interactions, right_interactions=m.left_interactions,
    )


@pytest.mark.parametrize("source", _SOURCES)
@settings(
    max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_relabeling_the_categories_moves_no_metric(source, data):
    config_text, users, tweets, spam = data.draw(_crawl([source]))
    config = json.loads(config_text)
    old_ids = [c["id"] for c in config["categories"]]
    new_ids = data.draw(st.permutations([f"category-{i}" for i in range(len(old_ids))]))
    rename = dict(zip(old_ids, new_ids))
    categories = data.draw(st.permutations(config["categories"]))
    config["categories"] = [{**c, "id": rename[c["id"]]} for c in categories]
    relabeled_users = []
    for line in users:
        r = _record(line)
        if r is not None and r.get("category") in rename:
            line = _dumps({**r, "category": rename[r["category"]]})
        relabeled_users.append(line)
    per_user, matrix = _compute_all(config_text, users, tweets, spam)
    relabeled_per_user, relabeled_matrix = _compute_all(
        json.dumps(config), relabeled_users, tweets, spam
    )
    _assert_metrics_match(relabeled_per_user, per_user, "categories relabeled")
    assert relabeled_matrix == matrix


# A prefix no crawl above uses, so every id made with it is fresh.
_NEW = "zz-added-"


def _insert(data, lines: list[str], added: list[str]) -> list[str]:
    """``lines`` with each of ``added`` inserted at a drawn place."""
    out = list(lines)
    for line in added:
        out.insert(data.draw(st.integers(0, len(out))), line)
    return out


def _new_tweets(data, label, authors, sources, targets, max_retweets) -> list[str]:
    """Lines of tweets with fresh ids by ``authors``: one to three originals,
    at most ``max_retweets`` retweets of ``sources`` and up to three replies
    to ``targets``."""
    counts = {
        "original": data.draw(st.integers(1, 3)),
        "retweet": data.draw(st.integers(0, max_retweets)),
        "reply": data.draw(st.integers(0, 3)),
    }
    lines = []
    for kind, count in counts.items():
        for _ in range(count):
            record = {
                "id": f"{_NEW}{label}-{len(lines)}",
                "author_id": data.draw(st.sampled_from(authors)),
                "kind": kind,
            }
            if kind == "retweet":
                record["source_tweet_id"] = data.draw(st.sampled_from(sources))
            elif kind == "reply":
                record["target_user_id"] = data.draw(st.sampled_from(targets))
            record["timestamp"] = data.draw(st.integers(0, 100))
            lines.append(_dumps(record))
    return lines


def _with_counts(reports: dict, **deltas: int) -> dict:
    """``reports`` with the ingest counts of ``summary.json`` moved by
    ``deltas``, spelled as ``analyze`` writes the file."""
    summary = json.loads(reports["summary.json"])
    ingest = summary["dataset"]["ingest"]
    for key, delta in deltas.items():
        ingest[key] += delta
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return {**reports, "summary.json": text.encode()}


@settings(
    max_examples=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(crawl=_crawl(), data=st.data())
def test_dropped_input_moves_only_the_ingest_counts(crawl, data):
    config_text, users, tweets, spam = crawl
    base = _analyze(config_text, users, tweets, spam)
    assert _with_counts(base) == base, "summary.json spelled as analyze writes it"

    user_records = [r for r in map(_record, users) if r is not None]
    user_ids = [r["id"] for r in user_records]
    seeds = [r["id"] for r in user_records if r["kind"] == "seed"]
    sources = sorted({r["id"] for r in map(_record, tweets) if r is not None})
    sources.append(f"{_NEW}never-crawled")
    followees = st.lists(st.sampled_from(user_ids + ["ghost"]), max_size=4)

    spammer = _NEW + "spammer"
    line = _dumps({"id": spammer, "kind": "regular", "followees": data.draw(followees)})
    added = _new_tweets(data, "spam", [spammer], sources, user_ids, max_retweets=8)
    after = _analyze(
        config_text, _insert(data, users, [line]), _insert(data, tweets, added),
        spam + [spammer],
    )
    assert after == _with_counts(
        base, users_read=1, users_dropped_spam=1,
        tweets_read=len(added), tweets_dropped_dangling=len(added),
    ), "spam-listed regular"

    # it follows a seed and retweets at most 4 originals, under the threshold of 5
    quiet = _NEW + "quiet"
    line = _dumps({
        "id": quiet, "kind": "regular",
        "followees": [data.draw(st.sampled_from(seeds))] + data.draw(followees),
    })
    added = _new_tweets(data, "quiet", [quiet], sources, user_ids, max_retweets=4)
    after = _analyze(
        config_text, _insert(data, users, [line]), _insert(data, tweets, added), spam
    )
    assert after == _with_counts(
        base, users_read=1, users_dropped_threshold=1,
        tweets_read=len(added), tweets_dropped_dangling=len(added),
    ), "regular under the threshold"

    strangers = [_NEW + "stranger-1", _NEW + "stranger-2"]
    added = _new_tweets(data, "stranger", strangers, sources, user_ids, max_retweets=8)
    after = _analyze(config_text, users, _insert(data, tweets, added), spam)
    assert after == _with_counts(
        base, tweets_read=len(added), tweets_dropped_dangling=len(added)
    ), "tweets by unknown authors"


def _seed_originals(ds) -> list[tuple]:
    """The rows of a dataset's originals written by a seed, in table order."""
    seeds = set(compress(ds.users.ids, ds.users.categories))
    return [
        row for row in ds.tweets.rows()
        if row[2] is TweetKind.ORIGINAL and row[1] in seeds
    ]


def _direct_counts(ds) -> dict[str, list[int]]:
    """Each regular's direct counts per category, by user id."""
    index = ExposureIndex(ds)
    users = ds.users
    return {
        uid: index.exposure(follows)[0]
        for uid, category, follows in zip(users.ids, users.categories, users.follows)
        if category is None
    }


@pytest.mark.parametrize("source", _SOURCES)
@settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_repeating_every_seed_original_scales_the_direct_counts(source, data):
    config_text, users, tweets, spam = data.draw(_crawl([source]))
    k = data.draw(st.integers(2, 4))
    ds = _load(config_text, users, tweets, spam)
    copies = [
        _dumps({
            "id": f"{_NEW}copy-{j}-{tid}", "author_id": author,
            "kind": "original", "timestamp": timestamp,
        })
        for tid, author, _, _, _, timestamp in _seed_originals(ds)
        for j in range(1, k)
    ]
    scaled = _load(config_text, users, tweets + copies, spam)
    assert len(scaled.tweets) == len(ds.tweets) + len(copies)
    assert _direct_counts(scaled) == {
        uid: [k * c for c in counts] for uid, counts in _direct_counts(ds).items()
    }
    per_user, _ = compute_all(ds)
    scaled_per_user, _ = compute_all(scaled)
    assert [m.user_id for m in scaled_per_user] == [m.user_id for m in per_user]
    for before, after in zip(per_user, scaled_per_user):
        b, a = before.direct_source_diversity, after.direct_source_diversity
        assert (a is None) == (b is None), before.user_id
        if b is not None:
            assert abs(a - b) <= 1e-12, before.user_id


@pytest.mark.parametrize("source", _SOURCES)
@settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_an_added_regular_moves_no_other_row(source, data):
    config_text, users, tweets, spam = data.draw(_crawl([source]))
    base = _analyze(config_text, users, tweets, spam)
    ds = _load(config_text, users, tweets, spam)
    seeds = sorted(compress(ds.users.ids, ds.users.categories))
    originals = [row[0] for row in _seed_originals(ds)]

    # not spam-listed, follows a seed and retweets at least 5 distinct seed
    # originals (the default threshold), so the filter keeps it; it follows
    # any non-empty set of seeds, so it may reach originals no one else does
    added_id = _NEW + "active"
    followees = [s for s in seeds if data.draw(st.booleans())]
    line = _dumps({
        "id": added_id, "kind": "regular",
        "followees": followees or [data.draw(st.sampled_from(seeds))],
    })
    sources = data.draw(st.lists(st.sampled_from(originals), min_size=5, max_size=8, unique=True))
    replies = data.draw(st.lists(st.sampled_from(seeds), max_size=2))
    added = [
        _dumps({
            "id": f"{added_id}-{i}", "author_id": added_id, "kind": "retweet",
            "source_tweet_id": source, "timestamp": i,
        })
        for i, source in enumerate(sources)
    ] + [
        _dumps({
            "id": f"{added_id}-reply-{i}", "author_id": added_id, "kind": "reply",
            "target_user_id": target, "timestamp": i,
        })
        for i, target in enumerate(replies)
    ]
    after = _analyze(
        config_text, _insert(data, users, [line]), _insert(data, tweets, added), spam
    )

    rows = after["users_metrics.csv"].decode().splitlines()
    own = [row for row in rows if row.startswith(added_id + ",")]
    assert len(own) == 1, "the added regular passes the filter"
    others = [row for row in rows if not row.startswith(added_id + ",")]
    assert others == base["users_metrics.csv"].decode().splitlines()
    assert after["seed_matrix.csv"] == base["seed_matrix.csv"]
