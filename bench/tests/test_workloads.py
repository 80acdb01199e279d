"""The workload generator: determinism and the noise injector's proportions."""

import json
import shutil
from dataclasses import replace

import pytest

from workloads import WORKLOADS, Noise, inject_noise, make_inputs


def _bytes(inputs):
    files = [inputs.config, inputs.users, inputs.tweets]
    if inputs.spam is not None:
        files.append(inputs.spam)
    return [f.read_bytes() for f in files]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    w = WORKLOADS[name]
    a = make_inputs(w, 3, tmp_path / "a", small=True)
    b = make_inputs(w, 3, tmp_path / "b", small=True)
    c = make_inputs(w, 4, tmp_path / "c", small=True)
    assert _bytes(a) == _bytes(b)
    assert _bytes(a) != _bytes(c)
    assert (a.spam is not None) == (w.noise != Noise())


def test_noise_proportions(tmp_path):
    w = WORKLOADS["dirty_crawl"]
    clean = make_inputs(replace(w, noise=Noise()), 5, tmp_path / "clean", small=True)
    dirty = make_inputs(w, 5, tmp_path / "dirty", small=True)
    n = clean.tweet_lines
    clean_users = clean.users.read_text().splitlines()
    n_regulars = sum(1 for line in clean_users if json.loads(line)["kind"] == "regular")
    noise = w.noise

    # Injecting into a copy of the clean crawl reproduces the dirty files.
    copy = tmp_path / "copy"
    shutil.copytree(tmp_path / "clean", copy)
    counts = inject_noise(noise, 5, copy / "users.jsonl", copy / "tweets.jsonl", copy / "spam.txt")
    assert _bytes(dirty)[1:] == [
        (copy / name).read_bytes() for name in ("users.jsonl", "tweets.jsonl", "spam.txt")
    ]
    assert counts.spam == round(noise.spam * n_regulars)
    assert counts.truncated_users == round(noise.truncated * n_regulars)
    assert counts.truncated_tweets == round(noise.truncated * n)
    assert counts.redelivered == round(noise.redelivered * n)
    assert counts.conflicting == round(noise.conflicting * n)
    assert counts.unknown_source == round(noise.unknown_source * n)
    assert min(counts.spam, counts.truncated_tweets, counts.redelivered,
               counts.conflicting, counts.unknown_source) > 0

    # The files show each defect exactly as often as counted.
    lines = dirty.tweets.read_text().splitlines()
    assert len(lines) == n + counts.redelivered + counts.conflicting + counts.unknown_source
    parsed = []
    for line in lines:
        try:
            parsed.append((line, json.loads(line)))
        except json.JSONDecodeError:
            pass
    assert len(lines) - len(parsed) == counts.truncated_tweets
    users = dirty.users.read_text().splitlines()
    bad_users = [u for u in users if not _parses(u)]
    assert len(bad_users) == counts.truncated_users
    assert len(dirty.spam.read_text().splitlines()) == counts.spam

    by_id: dict[str, list[str]] = {}
    for line, obj in parsed:
        by_id.setdefault(obj["id"], []).append(line)
    repeats = [v for v in by_id.values() if len(v) > 1]
    assert sum(1 for v in repeats if v[0] == v[1]) == counts.redelivered
    assert sum(1 for v in repeats if v[0] != v[1]) == counts.conflicting
    crawled = {json.loads(line)["id"] for line in clean.tweets.read_text().splitlines()}
    unknown = [o for _, o in parsed if o["kind"] == "retweet" and o["source_tweet_id"] not in crawled]
    assert len(unknown) == counts.unknown_source


def _parses(line: str) -> bool:
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


def test_seed_lines_are_never_damaged(tmp_path):
    w = WORKLOADS["dirty_crawl"]
    clean = make_inputs(replace(w, noise=Noise()), 6, tmp_path / "clean", small=True)
    dirty = make_inputs(w, 6, tmp_path / "dirty", small=True)
    seeds = [u for u in clean.users.read_text().splitlines() if json.loads(u)["kind"] == "seed"]
    assert seeds
    assert set(seeds) <= set(dirty.users.read_text().splitlines())


def test_inputs_serialize_to_json(tmp_path):
    inputs = make_inputs(WORKLOADS["dirty_crawl"], 1, tmp_path, small=True)
    doc = json.loads(inputs.to_json())
    assert doc["spam"] == str(inputs.spam)
    assert doc["tweet_lines"] == inputs.tweet_lines
