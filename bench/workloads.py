"""Seeded synthetic crawls for the benchmark, one per workload.

Each workload is a ``SynthParams`` shape plus optional crawl noise. The run
seed becomes the generator's ``rng_seed`` and seeds the noise injector, so
the same seed gives byte-identical input files. The program under test only
ever sees the written files.

Sizes are scaled from the shapes that motivated each workload so that one
``analyze`` takes one to two seconds on a 2-core VM; the layer mix of each
shape (tweets per user, follow density, drop rate) is kept.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from viewdiv.ingest import write_dataset
from viewdiv.synth import SynthParams, generate

# Second seed word for the noise injector's stream, so that it never shares
# draws with the generator seeded by the same run seed.
NOISE_STREAM = 0x5EED


@dataclass(frozen=True)
class Noise:
    """Crawl defects, each a share of the lines it applies to."""

    spam: float = 0.0            # regulars listed in the --spam file
    truncated: float = 0.0       # tweet and regular-user lines cut short
    redelivered: float = 0.0     # tweet lines delivered twice, verbatim
    conflicting: float = 0.0     # tweet ids delivered again with other content
    unknown_source: float = 0.0  # added retweets whose source was never crawled


@dataclass(frozen=True)
class NoiseCounts:
    spam: int = 0
    truncated_tweets: int = 0
    truncated_users: int = 0
    redelivered: int = 0
    conflicting: int = 0
    unknown_source: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: SynthParams
    # Same shape and noise, small enough (<= 10k tweets) for the brute-force
    # oracle to finish in about a second.
    oracle_params: SynthParams
    noise: Noise = Noise()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tweet_log",
            why=(
                "A long tweet log over few users, so ingest (parse_tweets) does "
                "most of the work; a parse or columnar-ingest change shows here."
            ),
            # ~1,000 originals per seed and 28 retweets per regular: about
            # 100k tweet lines for 430 users. The per-user union is small;
            # the index, the output histograms and the seed matrix scale
            # with tweets.
            params=SynthParams(
                n_categories=5, n_seeds=100, n_regulars=330, homophily=0.6,
                tweets_per_seed=1000, retweets_per_regular=28,
                replies_per_regular=3,
            ),
            oracle_params=SynthParams(
                n_categories=5, n_seeds=20, n_regulars=30, homophily=0.6,
                tweets_per_seed=40, retweets_per_regular=28,
                replies_per_regular=3,
            ),
        ),
        Workload(
            name="dense_follow",
            why=(
                "~500 followees per regular, so the per-user surfaced-retweet "
                "union and follow-list handling dominate; tweet parsing is small."
            ),
            # 1,000 seeds at h = 0 give every regular about 500 followees;
            # 5 originals per seed keep the tweet log short (~16k lines).
            params=SynthParams(
                n_categories=5, n_seeds=1000, n_regulars=400, homophily=0.0,
                tweets_per_seed=5, retweets_per_regular=10,
                replies_per_regular=2,
            ),
            oracle_params=SynthParams(
                n_categories=5, n_seeds=60, n_regulars=40, homophily=0.0,
                tweets_per_seed=3, retweets_per_regular=10,
                replies_per_regular=2,
            ),
        ),
        Workload(
            name="dirty_crawl",
            why=(
                "A noisy crawl where most input is discarded: spam, truncated, "
                "re-delivered and conflicting lines, and ~80% of regulars under "
                "the 5-retweet threshold."
            ),
            # 3 retweets per regular on average leaves ~80% of non-spam
            # regulars below the 5 distinct seed-retweet threshold, and their
            # tweets then dangle. Re-delivered lines and re-used ids with other
            # content exercise dedupe order (filter runs before dedupe, and
            # the two disagree on which occurrence wins).
            params=SynthParams(
                n_categories=9, n_seeds=150, n_regulars=4000, homophily=0.85,
                minority_tweet_share=0.10, tweets_per_seed=40,
                retweets_per_regular=3, replies_per_regular=3,
            ),
            oracle_params=SynthParams(
                n_categories=9, n_seeds=30, n_regulars=400, homophily=0.85,
                minority_tweet_share=0.10, tweets_per_seed=15,
                retweets_per_regular=3, replies_per_regular=3,
            ),
            noise=Noise(
                spam=0.05, truncated=0.01, redelivered=0.02, conflicting=0.005,
                unknown_source=0.01,
            ),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The files one ``analyze`` reads, plus what it took to make them."""

    config: Path
    users: Path
    tweets: Path
    spam: Path | None
    tweet_lines: int
    generate_s: float
    noise_s: float
    write_s: float

    def to_json(self) -> str:
        return json.dumps(
            {k: str(v) if isinstance(v, Path) else v for k, v in asdict(self).items()}
        )


def make_inputs(workload: Workload, seed: int, out_dir: Path, *, small: bool = False) -> Inputs:
    """Generate, write and (if the workload has noise) corrupt one crawl."""
    params = replace(workload.oracle_params if small else workload.params, rng_seed=seed)
    t0 = time.perf_counter()
    dataset = generate(params)
    t1 = time.perf_counter()
    paths = write_dataset(dataset, out_dir)
    t2 = time.perf_counter()
    spam_path = None
    if workload.noise != Noise():
        spam_path = out_dir / "spam.txt"
        inject_noise(workload.noise, seed, paths["users"], paths["tweets"], spam_path)
    t3 = time.perf_counter()
    with open(paths["tweets"], encoding="utf-8") as fh:
        tweet_lines = sum(1 for line in fh if line.strip())
    return Inputs(
        config=paths["config"], users=paths["users"], tweets=paths["tweets"],
        spam=spam_path, tweet_lines=tweet_lines, generate_s=t1 - t0,
        noise_s=t3 - t2, write_s=t2 - t1,
    )


def _pick(rng: np.random.Generator, pool: list[int], k: int) -> list[int]:
    """``k`` distinct members of ``pool``, sorted."""
    return sorted(int(i) for i in rng.choice(pool, size=k, replace=False)) if k else []


def _truncate(rng: np.random.Generator, line: str) -> str:
    # A strict prefix of a JSON object never parses, so each cut line is
    # exactly one malformed-line diagnostic.
    return line[: int(rng.integers(1, len(line)))]


def inject_noise(
    noise: Noise, seed: int, users_path: Path, tweets_path: Path, spam_path: Path
) -> NoiseCounts:
    """Rewrite a written crawl in place with ``noise``; writes the spam list.

    Shares are taken of the clean file: regular users for spam and user
    truncation, tweet lines for everything else. Copies and added lines go
    after their source line, as a re-delivery would. Truncation only hits
    lines no other defect touched, so each count can be checked on its own.
    Seed lines are never damaged: a missing seed fails config validation,
    which is a different workload.
    """
    rng = np.random.default_rng([seed, NOISE_STREAM])
    users = users_path.read_text(encoding="utf-8").splitlines()
    tweets = tweets_path.read_text(encoding="utf-8").splitlines()
    user_objs = [json.loads(line) for line in users]
    tweet_objs = [json.loads(line) for line in tweets]

    regular_rows = [i for i, u in enumerate(user_objs) if u["kind"] == "regular"]
    seed_ids = [u["id"] for u in user_objs if u["kind"] == "seed"]
    original_ids = [t["id"] for t in tweet_objs if t["kind"] == "original"]
    n = len(tweets)

    spam_rows = _pick(rng, regular_rows, round(noise.spam * len(regular_rows)))
    spam_path.write_text(
        "".join(user_objs[i]["id"] + "\n" for i in spam_rows), encoding="utf-8"
    )

    # (position key, line): originals sit at their index, copies somewhere
    # after their source.
    rows: list[tuple[float, str]] = [(float(i), line) for i, line in enumerate(tweets)]
    touched: set[int] = set()

    redelivered = _pick(rng, list(range(n)), round(noise.redelivered * n))
    for i in redelivered:
        rows.append((float(rng.uniform(i, n)), tweets[i]))
    touched.update(redelivered)

    conflicting = _pick(
        rng, [i for i in range(n) if i not in touched], round(noise.conflicting * n)
    )
    for i in conflicting:
        variant = dict(tweet_objs[i])
        if variant["kind"] == "original":
            variant["author_id"] = _other(rng, seed_ids, variant["author_id"])
        elif variant["kind"] == "retweet":
            variant["source_tweet_id"] = _other(rng, original_ids, variant["source_tweet_id"])
        else:
            variant["target_user_id"] = _other(rng, seed_ids, variant["target_user_id"])
        rows.append((float(rng.uniform(i, n)), json.dumps(variant, separators=(",", ":"))))
    touched.update(conflicting)

    regular_ids = [user_objs[i]["id"] for i in regular_rows]
    n_unknown = round(noise.unknown_source * n)
    for j in range(n_unknown):
        author = regular_ids[int(rng.integers(0, len(regular_ids)))]
        line = json.dumps(
            {"id": f"x{j + 1:08d}", "author_id": author, "kind": "retweet",
             "source_tweet_id": f"missing{j + 1:08d}", "timestamp": 0},
            separators=(",", ":"),
        )
        rows.append((float(rng.uniform(0, n)), line))

    order = sorted(range(len(rows)), key=lambda r: (rows[r][0], r))
    out_tweets = [rows[r][1] for r in order]
    untouched = [pos for pos, r in enumerate(order) if r < n and r not in touched]
    cut_tweets = _pick(rng, untouched, round(noise.truncated * n))
    for pos in cut_tweets:
        out_tweets[pos] = _truncate(rng, out_tweets[pos])

    spammed = set(spam_rows)
    unspammed = [i for i in regular_rows if i not in spammed]
    cut_users = _pick(rng, unspammed, round(noise.truncated * len(regular_rows)))
    for i in cut_users:
        users[i] = _truncate(rng, users[i])

    users_path.write_text("".join(line + "\n" for line in users), encoding="utf-8")
    tweets_path.write_text("".join(line + "\n" for line in out_tweets), encoding="utf-8")
    return NoiseCounts(
        spam=len(spam_rows), truncated_tweets=len(cut_tweets),
        truncated_users=len(cut_users), redelivered=len(redelivered),
        conflicting=len(conflicting), unknown_source=n_unknown,
    )


def _other(rng: np.random.Generator, pool: list[str], current: str) -> str:
    """A member of ``pool`` other than ``current`` (pool has at least two)."""
    while True:
        pick = pool[int(rng.integers(0, len(pool)))]
        if pick != current:
            return pick


def main(argv: list[str]) -> int:
    """Set-up child: ``workloads.py WORKLOAD SEED OUT_DIR``; prints the inputs as JSON."""
    name, seed, out_dir = argv
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(make_inputs(WORKLOADS[name], int(seed), Path(out_dir)).to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
