"""tools/ab.py's summary arithmetic, pair order and tree comparison, on
fixed numbers and files; nothing here runs or times a benchmark."""

from __future__ import annotations

import pytest

from helpers import load_script

ab = load_script("tools", "ab")

# BENCH_30.json's dense_follow@1 analyze_s, parent and change per pair; the
# summary below is the file's, but for two values rounded in the last place
PARENT = [0.250425, 0.265128, 0.261484, 0.266293, 0.268904,
          0.271177, 0.262759, 0.264718, 0.257538, 0.265695]
CHANGE = [0.232419, 0.22728, 0.233203, 0.23083, 0.229993,
          0.236931, 0.231647, 0.231036, 0.239566, 0.24524]


def test_summary_of_a_recorded_bench_file():
    s = ab.summarize(PARENT, CHANGE, "lower")
    assert s["parent_median"] == 0.264923
    assert s["change_median"] == 0.232033
    assert s["change_pct"] == -12.41
    assert s["parent_q1_q3"] == [0.261803, 0.266143]
    # q1 is 0.2308815; the file holds it rounded down, as 0.230881
    assert s["change_q1_q3"] == [0.230882, 0.235999]
    # 0.00434075 from the unrounded quartiles; the file's 0.00434 is the
    # difference of the rounded ones
    assert s["parent_iqr"] == 0.004341
    assert s["change_wins"] == 10
    assert s["parent"] == PARENT and s["change"] == CHANGE
    assert ab.verdict(s, "lower") == "better"


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 3.5, 4.0]  # lower, tie, higher, tie
    assert ab.summarize(parent, change, "lower")["change_wins"] == 1
    assert ab.summarize(parent, change, "higher")["change_wins"] == 1
    assert ab.summarize(parent, [5.0] * 4, "higher")["change_wins"] == 4


@pytest.mark.parametrize("change, better, expected", [
    ([0.5] * 5, "lower", "better"),
    ([0.5] * 5, "higher", "worse"),
    ([5.5] * 5, "lower", "worse"),
    ([5.5] * 5, "higher", "better"),
    # a median difference of exactly the parent's IQR claims nothing
    ([1.0] * 5, "lower", "inside the parent's IQR"),
    ([3.5] * 5, "higher", "inside the parent's IQR"),
])
def test_verdict_claims_nothing_inside_the_parents_iqr(change, better, expected):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # median 3, inclusive quartiles 2 and 4
    s = ab.summarize(parent, change, better)
    assert s["parent_q1_q3"] == [2.0, 4.0] and s["parent_iqr"] == 2.0
    assert ab.verdict(s, better) == expected


def test_the_base_runs_first_in_odd_pairs():
    assert [ab.side_order(p) for p in (1, 2, 3, 4)] == [
        ("base", "head"), ("head", "base"), ("base", "head"), ("head", "base"),
    ]


def test_tree_differences_name_every_file_that_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.csv").write_bytes(b"x,y\n")
        (root / "sub" / "same.json").write_bytes(b"{}\n")
    assert ab.tree_differences(a, b) == []
    (b / "sub" / "same.json").write_bytes(b"{} \n")
    (a / "only_a.csv").write_bytes(b"")
    (b / "only_b.csv").write_bytes(b"")
    assert ab.tree_differences(a, b) == ["only_a.csv", "only_b.csv", "sub/same.json"]


def test_max_rss_counts_kib():
    assert ab.max_rss_mib(241 * 1024) == 241.0
    assert ab.max_rss_mib(240_538) == pytest.approx(234.900390625)


def test_file_digests_are_the_sha256_of_each_file_by_name(tmp_path):
    (tmp_path / "tweets.jsonl").write_bytes(b"")
    (tmp_path / "users.jsonl").write_bytes(b"abc")
    (tmp_path / "nested").mkdir()
    (tmp_path / "nested" / "skipped.txt").write_bytes(b"x")
    assert ab.file_digests(tmp_path) == {
        "tweets.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "users.jsonl": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    }
