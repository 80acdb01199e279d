"""Correctness gate for every benchmark run.

A run of ``analyze`` passes when it exits 0, writes exactly the expected
report files, and writes the same bytes as the first run of the same
invocation. Report digests are never pinned across commits, so a change
that alters outputs on purpose needs no edit here. Separately, the fast
path must equal the brute-force oracle on a small instance of the
workload's shape, noise included, loaded through the same file path; that
check runs as a child (``gate.py WORKLOAD SEED OUT_DIR``) so ``run.py``
never imports the program.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

METRICS = (
    "direct_source_diversity",
    "indirect_source_diversity",
    "retweet_diversity",
    "reply_diversity",
    "minority_reach",
    "minority_exposure",
)
EXPECTED_REPORTS = frozenset(
    {"users_metrics.csv", "seed_matrix.csv", "summary.json"}
    | {f"dist_{m}.csv" for m in METRICS}
)
# Same tolerance as the repository's oracle-equivalence test: entropy sums
# in a different order on the two paths.
TOLERANCE = 1e-12


def report_digest(out_dir: Path) -> str:
    """sha256 over the sorted file names and contents of a report directory."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_run(returncode: int, out_dir: Path, reference: str | None) -> tuple[str | None, list[str]]:
    """Gate one analyze run; returns (digest, problems).

    ``reference`` is the first run's digest, or None for the first run.
    """
    if returncode != 0:
        return None, [f"exit code {returncode}"]
    if not out_dir.is_dir():
        return None, ["no report directory"]
    names = {p.name for p in out_dir.iterdir()}
    problems = []
    if names != EXPECTED_REPORTS:
        missing = sorted(EXPECTED_REPORTS - names)
        extra = sorted(names - EXPECTED_REPORTS)
        problems.append(f"report set differs: missing {missing}, unexpected {extra}")
    digest = report_digest(out_dir)
    if reference is not None and digest != reference:
        problems.append("report bytes differ from the first run")
    return digest, problems


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= TOLERANCE
    return a == b


def oracle_check(config: Path, users: Path, tweets: Path, spam: Path | None) -> tuple[int, list[str]]:
    """compute_all vs oracle_metrics on files; returns (tweets kept, problems)."""
    from viewdiv.ingest import load_country_config, load_dataset, parse_spam
    from viewdiv.metrics import compute_all
    from viewdiv.oracle import oracle_metrics

    with open(users, encoding="utf-8") as fh:
        user_lines = fh.readlines()
    with open(tweets, encoding="utf-8") as fh:
        tweet_lines = fh.readlines()
    spam_ids = frozenset()
    if spam is not None:
        with open(spam, encoding="utf-8") as fh:
            spam_ids = parse_spam(fh)
    dataset, _, _ = load_dataset(load_country_config(config), user_lines, tweet_lines, spam_ids)
    fast, fast_matrix = compute_all(dataset)
    slow, slow_matrix = oracle_metrics(dataset)
    problems = []
    if [m.user_id for m in fast] != [m.user_id for m in slow]:
        problems.append("oracle: user lists differ")
    for a, b in zip(fast, slow):
        for f in fields(a):
            if not _close(getattr(a, f.name), getattr(b, f.name)):
                problems.append(f"oracle: {a.user_id} {f.name} {getattr(a, f.name)} != {getattr(b, f.name)}")
    for f in fields(fast_matrix):
        if not _close(getattr(fast_matrix, f.name), getattr(slow_matrix, f.name)):
            problems.append(f"oracle: seed matrix {f.name} differs")
    return len(dataset.tweets), problems


def main(argv: list[str]) -> int:
    """Oracle child: checks a small instance of WORKLOAD and prints the verdict."""
    from workloads import WORKLOADS, make_inputs

    name, seed, out_dir = argv
    small = make_inputs(WORKLOADS[name], int(seed), Path(out_dir), small=True)
    kept, problems = oracle_check(small.config, small.users, small.tweets, small.spam)
    print(json.dumps({"tweets": kept, "problems": problems[:5]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
