"""Spans around the calls into each viewdiv layer, recorded from outside.

The traced child (``python bench/tracing.py SPANS_JSON RUN CONFIG USERS
TWEETS SPAM|- OUT``) replaces module attributes with timing wrappers, calls
``cli.cmd_analyze`` once, and writes its spans and counts as JSON when the
run ends. Nothing in the package is edited: a target a refactor removes, or
a count whose source it changes, is reported as absent, not as a failure.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name). ``cli`` imports some names directly, so
# those are wrapped where ``cmd_analyze`` looks them up.
TARGETS = (
    ("viewdiv.ingest", "load_dataset", "ingest.load_dataset"),
    ("viewdiv.ingest", "parse_users", "ingest.parse_users"),
    ("viewdiv.ingest", "parse_tweets", "ingest.parse_tweets"),
    ("viewdiv.ingest", "filter_active_regulars", "ingest.filter"),
    ("viewdiv.ingest", "build_dataset", "ingest.build_dataset"),
    ("viewdiv.ingest", "validate_config", "model.validate_config"),
    ("viewdiv.cli", "load_country_config", "ingest.load_country_config"),
    ("viewdiv.cli", "compute_all", "metrics.compute_all"),
    ("viewdiv.cli", "distribution", "stats.distribution"),
    ("viewdiv.cli", "fraction_below", "stats.fraction_below"),
    ("viewdiv.metrics", "ExposureIndex", "exposure.index"),
    ("viewdiv.metrics", "seed_interaction_matrix", "metrics.seed_matrix"),
    ("viewdiv.metrics", "normalized_entropy", "metrics.entropy"),
)
ROOT = "cli.cmd_analyze"
# Spans that also record ru_maxrss on entry and exit.
RSS_SPANS = frozenset({"ingest.load_dataset", "metrics.compute_all"})
# What a span's return value is reduced to for the counts taken after the
# run. Other spans keep nothing, so tracing holds alive no record list that
# the run itself would have freed.
KEEP = {
    "ingest.load_dataset": lambda out: out,          # dataset, report, diagnostics
    "ingest.parse_tweets": lambda out: len(out[1]),  # malformed tweet lines
    "exposure.index": lambda out: out,
    "metrics.compute_all": lambda out: len(out[0]),  # users with metrics
    "stats.distribution": lambda out: out.count,     # samples binned
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@dataclass(frozen=True)
class LayerTimes:
    total: dict[str, float]
    self: dict[str, float]
    calls: dict[str, int]


def layer_times(spans: list[Span]) -> LayerTimes:
    """Summed total and self seconds and call counts per span name."""
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_[s.name] = self_.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
    return LayerTimes(total, self_, calls)


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Keeps spans in memory; ``results`` holds the reduced return values of
    the spans named in ``keep``, so counts can be taken after the run,
    outside every span."""

    def __init__(self, run: int = 0, keep=KEEP):
        self.run = run
        self.keep = keep
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self.rss: dict[str, tuple[float, float]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss_before = _rss_mib() if name in RSS_SPANS else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name in RSS_SPANS:
                self.rss[name] = (rss_before, _rss_mib())
            if name in self.keep:
                self.results.setdefault(name, []).append(self.keep[name](result))
            return result

        return timed

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; returns the absent ones."""
        absent = []
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(name)
            else:
                setattr(module, attr, self.wrap(name, fn))
        return absent


def _counts(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Counts taken from what the layers returned, after the run."""
    r = tracer.results
    counts: dict[str, float] = {}
    absent: list[str] = []

    def ingest():
        dataset, report, diagnostics = r["ingest.load_dataset"][-1]
        malformed_tweets = r["ingest.parse_tweets"][-1]
        kept = len(dataset.tweets)
        return {
            "ingest.users_read": report.users_read,
            "ingest.tweets_read": report.tweets_read,
            "ingest.malformed_lines": len(diagnostics),
            "ingest.users_dropped_spam": report.users_dropped_spam,
            "ingest.users_dropped_threshold": report.users_dropped_threshold,
            "ingest.tweets_dropped_dangling": report.tweets_dropped_dangling,
            "ingest.tweets_kept": kept,
            "ingest.tweets_unaccounted": report.tweets_read - kept
            - report.tweets_dropped_dangling - malformed_tweets,
            "ingest.rss_mib": tracer.rss["ingest.load_dataset"][1],
        }

    def exposure():
        index = r["exposure.index"][-1]
        dataset = r["ingest.load_dataset"][-1][0]
        attempts = new = 0
        for user in dataset.users.values():
            if user.kind.value != "regular":
                continue
            surfaced: set[str] = set()
            for f in user.followees:
                sources = index.retweeted_by_seed.get(f, frozenset())
                attempts += len(sources)
                surfaced |= sources
            new += sum(1 for t in surfaced if index.original_author[t] not in user.followees)
        return {
            "exposure.seed_originals": len(index.original_author),
            "exposure.seed_retweet_sources": sum(len(v) for v in index.retweeted_by_seed.values()),
            "metrics.surfaced_attempts": attempts,
            "metrics.surfaced_new": new,
        }

    def metrics():
        before, after = tracer.rss["metrics.compute_all"]
        return {
            "metrics.users": r["metrics.compute_all"][-1],
            "metrics.rss_delta_mib": after - before,
            "stats.samples": sum(r["stats.distribution"]),
        }

    def follows():
        dataset = r["ingest.load_dataset"][-1][0]
        return {"model.follow_edges": sum(len(u.followees) for u in dataset.users.values())}

    for group in (ingest, exposure, metrics, follows):
        try:
            counts.update(group())
        except (KeyError, AttributeError, TypeError, ValueError):
            absent.append(f"{group.__name__} counts")
    return counts, absent


def main(argv: list[str]) -> int:
    """Traced child: ``tracing.py SPANS_JSON RUN CONFIG USERS TWEETS SPAM|- OUT``."""
    spans_path, run, config, users, tweets, spam, out = argv
    from viewdiv import cli

    tracer = Tracer(int(run))
    absent = tracer.install()
    rc = cli.RunConfig(
        config_path=Path(config), users_path=Path(users), tweets_path=Path(tweets),
        spam_path=None if spam == "-" else Path(spam), out_dir=Path(out),
    )
    tracer.wrap(ROOT, cli.cmd_analyze)(rc)
    post_start = time.perf_counter()
    counts, absent_counts = _counts(tracer)
    doc = {
        "spans": [[s.name, s.start, s.end, s.parent, s.run] for s in tracer.spans],
        "counts": counts,
        "absent": absent + absent_counts,
    }
    # Time spent after cmd_analyze returned, so the caller can take it out
    # of the child's wall time.
    doc["post_s"] = time.perf_counter() - post_start
    Path(spans_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


def load(path: Path) -> tuple[list[Span], dict[str, float], list[str], float]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    spans = [Span(*row) for row in doc["spans"]]
    return spans, doc["counts"], doc["absent"], doc["post_s"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
