"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from helpers import original_authors, regular_followees
from viewdiv import (
    SynthParams,
    TweetKind,
    compute_all,
    fraction_below,
    generate,
    normalized_entropy,
    oracle_metrics,
    presets,
    welch_t_test,
    write_dataset,
)
from viewdiv.cli import RunConfig, cmd_analyze, cmd_compare
from viewdiv.oracle import MAX_ORACLE_TWEETS, exposure_timeline

TOY = Path(__file__).resolve().parent / "data" / "toy"

METRIC_FIELDS = (
    "direct_source_diversity",
    "indirect_source_diversity",
    "retweet_diversity",
    "reply_diversity",
    "minority_reach",
    "minority_exposure",
)
BOOL_FIELDS = ("io_correlated", "io_correlated_15")


def _passed(line: str) -> None:
    print(f"PASS: {line}")


def test_entropy_suite():
    """1,000 random histograms: range, exact extremes, invariances, < 1 s."""
    rng = random.Random(424242)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 9)
        style = rng.random()
        if style < 0.1:
            counts = [rng.randint(1, 500)] * n  # uniform positive
        elif style < 0.2:
            counts = [0] * n
            counts[rng.randrange(n)] = rng.randint(1, 500)  # single support
        else:
            counts = [rng.randint(0, 500) for _ in range(n)]
        value = normalized_entropy(counts, n)
        positive = [c for c in counts if c > 0]
        if not positive:
            assert value is None
            continue
        checked += 1
        assert 0.0 <= value <= 1.0
        if len(positive) == n and len(set(positive)) == 1:
            assert value == 1.0
        else:
            assert value != 1.0 or max(positive) == min(positive)
        if len(positive) == 1:
            assert value == 0.0

        permuted = counts[:]
        rng.shuffle(permuted)
        assert abs(normalized_entropy(permuted, n) - value) <= 1e-12
        k = rng.randint(2, 100)
        assert abs(normalized_entropy([c * k for c in counts], n) - value) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"entropy suite took {elapsed:.2f}s"
    _passed(f"entropy suite: 1000 histograms, invariants to 1e-12, {elapsed:.2f}s < 1s")


def test_entropy_worked_value():
    """counts (10, 10, 20), n=3 -> 0.9464 within 1e-4."""
    value = normalized_entropy([10, 10, 20], 3)
    assert value == pytest.approx(0.9464, abs=1e-4)
    _passed(f"worked entropy value: {value:.6f} within 1e-4 of 0.9464")


def _random_small_params(rng: random.Random, seed_value: int) -> SynthParams:
    n_cat = rng.randint(2, 5)
    n_seeds = rng.randint(2, 5)
    n_regulars = rng.randint(0, 10 - n_seeds)
    want_minority = rng.random() < 0.7
    return SynthParams(
        rng_seed=seed_value,
        n_categories=n_cat,
        n_seeds=n_seeds,
        n_regulars=n_regulars,
        homophily=rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()]),
        minority_categories=("cat1",) if want_minority else (),
        minority_tweet_share=0.15 if want_minority else 0.0,
        tweets_per_seed=rng.choice([2, 4, 6]),
        retweets_per_regular=rng.choice([0, 3, 6]),
        replies_per_regular=rng.choice([0, 2, 3]),
    )


def _assert_metrics_match(fast, slow, context: str) -> None:
    assert len(fast) == len(slow), context
    for a, b in zip(fast, slow):
        assert a.user_id == b.user_id, context
        for field in METRIC_FIELDS:
            va, vb = getattr(a, field), getattr(b, field)
            assert (va is None) == (vb is None), f"{context} {a.user_id} {field}"
            if va is not None:
                assert abs(va - vb) <= 1e-12, f"{context} {a.user_id} {field}"
        for field in BOOL_FIELDS:
            assert getattr(a, field) is getattr(b, field), f"{context} {a.user_id} {field}"


def _small_oracle_datasets():
    """The 50 small random datasets used by the oracle criteria."""
    rng = random.Random(777)
    out = []
    attempt = 0
    while len(out) < 50:
        attempt += 1
        params = _random_small_params(rng, seed_value=1000 + attempt)
        try:
            ds = generate(params)
        except ValueError:
            continue  # infeasible random draw (e.g. no minority seed)
        assert len(ds.users) <= 10 and len(ds.tweets) <= 200
        out.append((params.rng_seed, ds))
    return out


def _dense_follow_oracle_dataset():
    """300 category-blind seeds that retweet each other: each regular follows
    ~150 of them, whose retweets surface ~1.3k distinct originals, many of
    them several times or by an author the regular already follows."""
    params = SynthParams(
        rng_seed=4242, n_categories=5, n_seeds=300, n_regulars=6, homophily=0.0,
        tweets_per_seed=6, retweets_per_regular=16, replies_per_regular=2,
    )
    ds = generate(params)
    seeds = len(ds.users) - ds.users.categories.count(None)
    assert seeds >= 100 and len(ds.tweets) <= MAX_ORACLE_TWEETS
    retweeted_by_seed = {}
    for _, author, kind, source, _, _ in ds.tweets.rows():
        if kind is TweetKind.RETWEET:
            retweeted_by_seed.setdefault(author, set()).add(source)
    author = original_authors(ds)
    for followees in regular_followees(ds).values():
        assert len(followees) >= 100
        surfaced = [t for f in followees for t in retweeted_by_seed.get(f, ())]
        assert len(surfaced) > len(set(surfaced))  # cross-followee duplicates
        assert any(author[t] in followees for t in surfaced)
    return params.rng_seed, ds


def test_oracle_equivalence():
    """50 random small datasets and one dense-follow dataset: fast path ==
    oracle exactly, within 1e-12."""
    start = time.perf_counter()
    seeds_used = []
    for rng_seed, ds in [*_small_oracle_datasets(), _dense_follow_oracle_dataset()]:
        seeds_used.append(rng_seed)
        fast_metrics, fast_matrix = compute_all(ds)
        slow_metrics, slow_matrix = oracle_metrics(ds)
        _assert_metrics_match(fast_metrics, slow_metrics, f"rng_seed={rng_seed}")
        for field in ("left_to_left", "left_to_right", "right_to_left", "right_to_right"):
            assert abs(getattr(fast_matrix, field) - getattr(slow_matrix, field)) <= 1e-12
        assert fast_matrix.left_interactions == slow_matrix.left_interactions
        assert fast_matrix.right_interactions == slow_matrix.right_interactions
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"oracle dataset rng seeds: {seeds_used}")
    _passed(
        "oracle equivalence: 50 small datasets and one dense-follow dataset "
        "match in definedness and to 1e-12 "
        f"(io margins 0/0.15, wing matrix), {elapsed:.1f}s < 30s"
    )


def test_exposure_invariants_on_generated_datasets():
    """direct <= indirect and support(direct) <= support(indirect) everywhere."""
    checked_users = 0
    for _, ds in _small_oracle_datasets():
        author = original_authors(ds)
        category = dict(zip(ds.users.ids, ds.users.categories))
        for uid in regular_followees(ds):
            tl = exposure_timeline(ds, uid)
            assert tl.direct <= tl.indirect
            direct_support = {category[author[t]] for t in tl.direct}
            indirect_support = {category[author[t]] for t in tl.indirect}
            assert direct_support <= indirect_support
            checked_users += 1
    assert checked_users > 0
    _passed(
        "exposure invariants: direct within indirect and support nesting on "
        f"every generated dataset ({checked_users} user timelines)"
    )


def test_homophily_monotonicity():
    """Mean direct diversity non-increasing over h; >= 0.95 at h=0; 0 at h=1."""
    base = presets()["uniform"]
    assert base.n_regulars == 500
    means = []
    for h in (0.0, 0.25, 0.5, 0.75, 1.0):
        per_user, _ = compute_all(generate(replace(base, homophily=h)))
        values = [m.direct_source_diversity for m in per_user
                  if m.direct_source_diversity is not None]
        means.append(sum(values) / len(values))
    assert all(a >= b for a, b in zip(means, means[1:])), means
    assert means[0] >= 0.95, means
    assert means[-1] == 0.0, means
    _passed(
        "homophily monotonicity: means "
        + " >= ".join(f"{m:.4f}" for m in means)
        + " (h=0 mean >= 0.95, h=1 mean == 0)"
    )


def test_qualitative_minority_reach_reproduction(tmp_path):
    """Polarized/pluralist presets split around the 0.05 reach threshold and
    the cross-population difference tests significant at alpha = 0.01."""
    start = time.perf_counter()
    all_presets = presets()
    fractions = {}
    inputs = {}
    for name in ("pluralist", "polarized"):
        params = all_presets[name]
        assert params.n_regulars == 2000
        ds = generate(params)
        per_user, _ = compute_all(ds)
        reach = [m.minority_reach for m in per_user if m.minority_reach is not None]
        fractions[name] = fraction_below(reach, 0.05)
        data_dir = tmp_path / name
        write_dataset(ds, data_dir)
        inputs[name] = (
            data_dir / "config.json", data_dir / "users.jsonl", data_dir / "tweets.jsonl", None,
        )
    assert fractions["polarized"] > 0.50, fractions
    assert fractions["pluralist"] < 0.25, fractions

    rows = cmd_compare(inputs["pluralist"], inputs["polarized"], tmp_path / "cmp", alpha=0.01)
    reach_row = next(r for r in rows if r["metric"] == "minority_reach")
    assert reach_row["significant"], reach_row
    assert reach_row["p"] < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"qualitative reproduction took {elapsed:.1f}s"
    _passed(
        f"qualitative reproduction: polarized fb05={fractions['polarized']:.3f} > 0.5, "
        f"pluralist fb05={fractions['pluralist']:.3f} < 0.25, "
        f"minority_reach difference significant at alpha=0.01, {elapsed:.1f}s < 60s"
    )


def test_welch_reference_and_antisymmetry():
    """20 fixed sample pairs: |dt| and |dp| < 1e-9 vs scipy; antisymmetry exact."""
    rng = random.Random(20240915)
    worst_t = worst_p = 0.0
    for _ in range(20):
        na, nb = rng.randint(3, 60), rng.randint(3, 60)
        a = [rng.gauss(rng.uniform(0, 1), rng.uniform(0.02, 0.5)) for _ in range(na)]
        b = [rng.gauss(rng.uniform(0, 1), rng.uniform(0.02, 0.5)) for _ in range(nb)]
        mine = welch_t_test(a, b)
        ref_t, ref_p = scipy_stats.ttest_ind(a, b, equal_var=False)
        worst_t = max(worst_t, abs(mine.t - float(ref_t)))
        worst_p = max(worst_p, abs(mine.p - float(ref_p)))
        rev = welch_t_test(b, a)
        assert mine.t == -rev.t and mine.p == rev.p
    assert worst_t < 1e-9, worst_t
    assert worst_p < 1e-9, worst_p
    _passed(
        f"welch t-test: 20 pairs vs reference, max |dt|={worst_t:.2e}, "
        f"max |dp|={worst_p:.2e} (< 1e-9); antisymmetry exact"
    )


def test_pipeline_determinism_and_throughput(tmp_path):
    """2,000 regulars / >= 100k tweets: analyze twice < 10 s each, same bytes."""
    params = SynthParams(
        rng_seed=90210, n_categories=5, n_seeds=100, n_regulars=2000,
        homophily=0.6, minority_tweet_share=0.15,
        tweets_per_seed=400.0, retweets_per_regular=28.0, replies_per_regular=3.0,
    )
    ds = generate(params)
    assert len(ds.tweets) >= 100_000 and len(regular_followees(ds)) == 2000
    data_dir = tmp_path / "data"
    write_dataset(ds, data_dir)

    timings = []
    outputs = []
    for run in ("one", "two"):
        rc = RunConfig(
            config_path=data_dir / "config.json",
            users_path=data_dir / "users.jsonl",
            tweets_path=data_dir / "tweets.jsonl",
            spam_path=None,
            out_dir=tmp_path / run,
        )
        start = time.perf_counter()
        cmd_analyze(rc)
        timings.append(time.perf_counter() - start)
        outputs.append(
            {p.name: p.read_bytes() for p in sorted((tmp_path / run).iterdir())}
        )
    assert outputs[0] == outputs[1]
    assert max(timings) < 10.0, timings
    _passed(
        f"pipeline determinism: {len(ds.tweets)} tweets analyzed twice "
        f"({timings[0]:.1f}s, {timings[1]:.1f}s < 10s), byte-identical reports"
    )


def test_golden_toy_fixture(tmp_path):
    """The shipped 6-user fixture reproduces the hand-computed reports exactly."""
    rc = RunConfig(
        config_path=TOY / "config.json",
        users_path=TOY / "users.jsonl",
        tweets_path=TOY / "tweets.jsonl",
        spam_path=None,
        out_dir=tmp_path,
    )
    cmd_analyze(rc)
    expected_dir = TOY / "expected"
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    actual = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    assert set(expected) == set(actual), (set(expected) ^ set(actual))
    for name in expected:
        assert actual[name] == expected[name], f"report {name} differs from golden"
    _passed(f"golden toy fixture: {len(expected)} report files byte-identical")
