"""tools/ab.py's summary arithmetic, pair order, tree comparison, head copy
and arguments, on fixed numbers and files; nothing here runs or times a
benchmark."""

from __future__ import annotations

import subprocess

import pytest

from helpers import ROOT, load_script

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


def test_the_head_copy_holds_exactly_the_listed_files_as_they_stand(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "head"
    (repo / "src" / "pkg" / "__pycache__").mkdir(parents=True)

    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_bytes((ROOT / ".gitignore").read_bytes())
    (repo / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "edited.txt").write_text("as staged\n")
    (repo / "deleted.txt").write_text("staged, then deleted\n")
    git("add", "-A")
    (repo / "edited.txt").write_text("as edited, not staged\n")
    (repo / "deleted.txt").unlink()
    (repo / "untracked.txt").write_text("never staged\n")
    (repo / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"ignored")
    (repo / ".bench_work" / "ab-1" / "head").mkdir(parents=True)
    (repo / ".bench_work" / "ab-1" / "head" / "edited.txt").write_text("an earlier copy\n")

    ab.copy_worktree(repo, dest)
    listed = set(git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0")) - {""}
    copied = {p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file()}
    # a tracked file deleted from the working tree has no bytes to copy
    assert copied == listed - {"deleted.txt"} == {
        ".gitignore", "edited.txt", "src/pkg/mod.py", "untracked.txt"}
    assert all((dest / name).read_bytes() == (repo / name).read_bytes() for name in copied)
    assert (dest / "edited.txt").read_text() == "as edited, not staged\n"
    assert not (dest / ".git").exists() and not (dest / ".bench_work").exists()


@pytest.mark.parametrize("option", [["--pairs", "0"], ["--pairs", "-1"], ["--seed", "-1"]])
def test_bad_counts_are_usage_errors_before_anything_is_exported(option, monkeypatch, capsys):
    def must_not_run(*_):
        raise AssertionError("ran past the argument checks")

    monkeypatch.setattr(ab, "_git", must_not_run)
    monkeypatch.setattr(ab, "place", must_not_run)
    with pytest.raises(SystemExit) as exit_:
        ab.main(["--base", "HEAD", *option])
    assert exit_.value.code == 2
    assert option[0] in capsys.readouterr().err


def test_scale_is_a_usage_error_and_1m_is_a_workload(capsys):
    with pytest.raises(SystemExit) as exit_:
        ab.parse_args(["--base", "HEAD", "--scale", "1m"])
    assert exit_.value.code == 2
    assert "--scale" in capsys.readouterr().err
    args = ab.parse_args(["--base", "HEAD", "--workload", "dense_follow", "--workload", "1m"])
    assert args.workload == ["dense_follow", "1m"]
    assert (args.pairs, args.seed) == (10, 1)
    assert ab.parse_args(["--base", "HEAD"]).workload == list(ab.WORKLOADS)
