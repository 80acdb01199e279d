"""Paired benchmark of this checkout against an earlier revision.

    python3 tools/ab.py --base REV [--pairs 10] [--seed 1] [--workload W ...] [--json FILE]

Both sides run from ``.bench_work/ab-PID/``, at paths of one length: the
*base* is REV's tree written out with ``git archive``, the *head* a copy of
this checkout's working tree, uncommitted edits included. Nothing is written
into the repository's git metadata, and the directory is removed when the
run ends, on SIGTERM too.

A workload is one of ``BENCHMARK.json``'s (all three by default) or ``1m``,
the 1M-tweet point ``POINT_1M``, which carries its own seed. Each pair runs
every chosen workload once per side, the base first in odd pairs. A bench
workload runs each side's own ``bench/run.py`` for ``BENCHMARK.json``'s
``run_seconds``; ``1m`` runs each side's ``analyze`` as a direct child on
the inputs the head's ``synth`` writes once, timed with :func:`os.wait4`
(wall time and max RSS). For each workload and metric it prints every
pair's values, both medians, the base's interquartile range and the pairs
the head won (ties count for neither side). A difference of medians inside
the base's IQR is reported as no change either way: a report, not a gate.

It then checks the outputs on each input set: the toy fixture and each
chosen workload's inputs. Each side runs ``analyze`` once per set (on
``1m`` the timed runs serve) and ``validate`` once. Every ``analyze`` run
must exit 0 and match the base's first run on its set in every report file
(as ``diff -r`` compares them), exit status, stdout and stderr; the two
sides' ``validate`` must exit 0 and match in the last three.

It exits 2 on a usage error, 1 when a run failed or an output differs, else
0. Only the standard library and the repository's own scripts are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
WORK = HEAD / ".bench_work"
WORKLOADS = ("tweet_log", "dense_follow", "dirty_crawl")
TOY = Path("tests/data/toy")
STREAMS = ("status", "stdout", "stderr")
# The 1M-tweet point, as a synth params object: 20,100 users and 997,929
# tweets. tests/test_synth.py checks that it is within synth's size bounds.
POINT_1M = {
    "rng_seed": 90210, "n_categories": 5, "n_seeds": 100, "n_regulars": 20000,
    "homophily": 0.6, "minority_tweet_share": 0.15,
    "tweets_per_seed": 4000.0, "retweets_per_regular": 28.0, "replies_per_regular": 3.0,
}
POINT_1M_METRICS = {"wall_s": "lower", "max_rss_mib": "lower"}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs as ``BENCH_*.json`` records them: ``parent[i]``
    and ``change[i]`` are pair i's values, and ``better`` is ``"lower"`` or
    ``"higher"``. Quartiles are the inclusive ones."""
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    parent_q = _quartiles(parent)
    sign = -1 if better == "lower" else 1
    return {
        "parent_median": round(parent_median, 6),
        "change_median": round(change_median, 6),
        "change_pct": round(100 * (change_median - parent_median) / parent_median, 2)
        if parent_median else None,
        "parent_q1_q3": [round(q, 6) for q in parent_q],
        "change_q1_q3": [round(q, 6) for q in _quartiles(change)],
        "parent_iqr": round(parent_q[1] - parent_q[0], 6),
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "parent": parent,
        "change": change,
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(summary: dict, better: str) -> str:
    """``"better"`` or ``"worse"`` for the head when the medians differ by
    more than the base's IQR, else ``"inside the parent's IQR"``."""
    diff = summary["change_median"] - summary["parent_median"]
    if abs(diff) <= summary["parent_iqr"]:
        return "inside the parent's IQR"
    return "better" if (diff < 0) == (better == "lower") else "worse"


def side_order(pair: int) -> tuple[str, str]:
    """Which side runs first in 1-based pair ``pair``: the base in odd pairs."""
    return ("base", "head") if pair % 2 else ("head", "base")


def tree_differences(a: Path, b: Path) -> list[str]:
    """The relative paths that differ between two directory trees: present
    on one side only, or with other bytes. Empty when they are identical."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = sorted(files_a ^ files_b)
    differ += sorted(
        p for p in files_a & files_b if (a / p).read_bytes() != (b / p).read_bytes()
    )
    return [str(p) for p in differ]


def max_rss_mib(ru_maxrss: int) -> float:
    """A Linux ``ru_maxrss``, which counts KiB, in MiB."""
    return ru_maxrss / 1024


def file_digests(directory: Path) -> dict[str, str]:
    """The sha256 of each file directly in ``directory``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def copy_worktree(repo: Path, dest: Path) -> None:
    """Copy into ``dest`` the files of ``repo``'s working tree that ``git
    ls-files -co --exclude-standard`` lists, with their working-tree bytes.
    A tracked file deleted from the working tree is not copied."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=repo,
                           capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if (repo / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, dest / name)


def place(sha: str, work: Path) -> dict[str, Path]:
    """Both sides' trees under ``work``: commit ``sha``'s as the base, and
    this checkout's working tree as the head."""
    roots = {"base": work / "base", "head": work / "head"}
    roots["base"].mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=HEAD, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(roots["base"])], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    copy_worktree(HEAD, roots["head"])
    return roots


def run_child(root: Path, argv: list[str], stem: Path) -> dict:
    """One child process of the tree at ``root``, from that directory with
    its ``src`` on the path, its streams in the files ``stem.stdout`` and
    ``stem.stderr``: wall seconds from start to reap, max RSS from
    :func:`os.wait4`, exit status and both streams. In stdout ``stem`` reads
    ``OUT``, since an ``analyze`` child writes to ``--out stem`` and names
    it there."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    streams = {name: Path(f"{stem}.{name}") for name in ("stdout", "stderr")}
    with open(streams["stdout"], "wb") as stdout, open(streams["stderr"], "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=root,
                                env={**os.environ, "PYTHONPATH": str(root / "src")})
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM: stop the child before its tree is removed
            proc.terminate()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    return {
        "wall_s": round(wall, 6), "max_rss_mib": round(max_rss_mib(usage.ru_maxrss), 3),
        "status": proc.returncode,
        "stdout": streams["stdout"].read_bytes().replace(str(stem).encode(), b"OUT"),
        "stderr": streams["stderr"].read_bytes(),
    }


def _cli(command: str, inputs: dict, out: Path | None = None) -> list[str]:
    argv = [sys.executable, "-m", "viewdiv.cli", command,
            "--config", inputs["config"], "--users", inputs["users"], "--tweets", inputs["tweets"]]
    if inputs.get("spam"):
        argv += ["--spam", inputs["spam"]]
    return argv + ["--out", str(out)] if out is not None else argv


def _files(directory: Path) -> dict[str, str]:
    return {k: str(directory / f"{k}.{ext}") for k, ext in
            (("config", "json"), ("users", "jsonl"), ("tweets", "jsonl"))}


def _key(workload: str, seed: int) -> str:
    return workload if workload == "1m" else f"{workload}@{seed}"


def write_inputs(head: Path, work: Path, workloads: list[str], seed: int) -> dict[str, dict]:
    """Each input set's files by name: the toy fixture's, and each
    workload's, written by the head's ``synth`` or ``bench/workloads.py``."""
    sets = {"toy": _files(head / TOY)}
    for workload in workloads:
        directory = work / "inputs" / workload
        if workload == "1m":
            params = work / "point_1m.json"
            params.write_text(json.dumps(POINT_1M))
            argv = [sys.executable, "-m", "viewdiv.cli", "synth", "--params", str(params),
                    "--out", str(directory)]
        else:
            argv = [sys.executable, str(head / "bench" / "workloads.py"), workload, str(seed),
                    str(directory)]
        run = run_child(head, argv, work / "streams" / f"inputs-{workload}")
        if run["status"] != 0:
            raise RuntimeError(f"writing {workload}'s inputs failed:\n{run['stderr'].decode()}")
        sets[_key(workload, seed)] = (_files(directory) if workload == "1m"
                                      else json.loads(run["stdout"]))
    return sets


def check_outputs(roots: dict[str, Path], work: Path, sets: dict[str, dict],
                  analyzed: dict[str, dict[str, list]]) -> dict:
    """For each input set, what differs between the two sides' ``analyze``
    and ``validate``. ``analyzed[name][side]`` lists a side's ``analyze``
    runs on set ``name`` so far, each a child record and its ``--out``; a
    side without one runs it here and adds it."""
    result = {}
    for name, inputs in sets.items():
        runs = analyzed[name]
        validate = {}
        for side, root in roots.items():
            if not runs[side]:
                out = work / "reports" / name / side
                runs[side].append((run_child(root, _cli("analyze", inputs, out), out), out))
            validate[side] = run_child(root, _cli("validate", inputs),
                                       work / "streams" / name / f"validate-{side}")
        reference, reference_out = runs["base"][0]
        differ = []
        for side in roots:
            for i, (run, out) in enumerate(runs[side], start=1):
                what = tree_differences(reference_out, out)
                what += [k for k in STREAMS if run[k] != reference[k]]
                what += [f"status {run['status']}"] if run["status"] != 0 else []
                differ += [f"analyze {side} {i}: " + ", ".join(what)] if what else []
        what = [k for k in STREAMS if validate["base"][k] != validate["head"][k]]
        what += [f"{side} status {v['status']}" for side, v in validate.items() if v["status"] != 0]
        differ += ["validate: " + ", ".join(what)] if what else []
        result[name] = {"identical": not differ, "differ": differ,
                        "analyze_status": runs["head"][0][0]["status"],
                        "validate_status": validate["head"]["status"]}
    return result


def run_pairs(roots: dict[str, Path], work: Path, workloads: list[str], seed: int,
              pairs: int) -> tuple[dict, bool]:
    """``pairs`` alternating pairs of every workload, then the output
    checks. Returns the JSON record and whether a run failed or an output
    differs."""
    sets = write_inputs(roots["head"], work, workloads, seed)
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    runs = {(w, side): [] for w in workloads for side in roots}
    analyzed = {name: {side: [] for side in roots} for name in sets}
    for pair in range(1, pairs + 1):
        for workload in workloads:
            for side in side_order(pair):
                root, stem = roots[side], work / "runs" / workload / f"{side}-{pair}"
                if workload == "1m":
                    child = run_child(root, _cli("analyze", sets["1m"], stem), stem)
                    analyzed["1m"][side].append((child, stem))
                    ok = child["status"] == 0
                    # the record in the shape bench/run.py prints
                    record = {"correct": ok, "attempted": 1, "failed": int(not ok),
                              "metrics": {k: {"value": child[k]} for k in POINT_1M_METRICS}}
                else:
                    child = run_child(root, [
                        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(spec["run_seconds"])], stem)
                    record = json.loads(child["stdout"].splitlines()[-1]) if child["status"] == 0 \
                        else {"correct": False, "error": child["stderr"].decode()[-2000:]}
                runs[workload, side].append(record)
                values = [f"{k} {m['value']:.6g}" for k, m in record.get("metrics", {}).items()]
                print(f"pair {pair} {workload} {side}: {', '.join(values)}, "
                      f"correct {record.get('correct')}", flush=True)
    reports = check_outputs(roots, work, sets, analyzed)

    doc = {
        "benchmark": f"python3 bench/run.py --workload W --seed {seed} --seconds "
                     f"{spec['run_seconds']:g}, or for 1m python3 -m viewdiv.cli analyze on "
                     "POINT_1M as a direct child; each side from its tree under .bench_work/",
        "method": f"tools/ab.py: {pairs} pairs, every workload once per side per pair, the base "
                  "first in odd pairs; for 1m wall seconds and max RSS from os.wait4; medians "
                  "and inclusive quartiles; a win is the change better in its pair",
        "workloads": {},
        "reports": reports,
    }
    failed = False
    for workload in workloads:
        key = _key(workload, seed)
        base_runs, head_runs = runs[workload, "base"], runs[workload, "head"]
        ok = all(r.get("correct") is True for r in base_runs + head_runs)
        failed |= not ok
        entry: dict = {"pairs": pairs}
        if workload == "1m":
            entry |= {"params": POINT_1M, "inputs": file_digests(work / "inputs" / "1m")}
        metrics = POINT_1M_METRICS if workload == "1m" else {
            m["name"]: m["better"] for m in spec["end_to_end"]}
        print(f"{key}:")
        for name, better in metrics.items():
            if not ok:
                break
            values = [[r["metrics"][name]["value"] for r in rs] for rs in (base_runs, head_runs)]
            entry[name] = summarize(*values, better)
            _print_summary(name, entry[name], better, pairs)
        entry["all_correct"] = ok
        entry["attempted"] = [sum(r.get("attempted", 0) for r in rs) for rs in (base_runs, head_runs)]
        entry["failed"] = [sum(r.get("failed", 0) for r in rs) for rs in (base_runs, head_runs)]
        doc["workloads"][key] = entry
    for name, result in reports.items():
        failed |= not result["identical"]
        print(f"outputs {name}: " + ("identical" if result["identical"]
                                     else "DIFFER: " + "; ".join(result["differ"])))
    return doc, failed


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=HEAD, capture_output=True, text=True,
                          check=True).stdout.strip()


def _print_summary(name: str, s: dict, better: str, pairs: int) -> None:
    print(f"  {name:14s} parent {s['parent_median']:.6g} change {s['change_median']:.6g} "
          f"({s['change_pct']}%), parent IQR {s['parent_iqr']:.6g}, change won "
          f"{s['change_wins']}/{pairs}: {verdict(s, better)}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="Revision to compare against.")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="The bench workloads' seed.")
    parser.add_argument("--workload", action="append", choices=(*WORKLOADS, "1m"),
                        help="Repeat for several (default: the three bench workloads).")
    parser.add_argument("--json", type=Path, help="Write the results as JSON here.")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")

    # so that a terminated run still removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"ab-{os.getpid()}"
    try:
        roots = place(base_sha, work)
        doc, failed = run_pairs(roots, work, args.workload, args.seed, args.pairs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    if args.json:
        doc = {"parent": base_sha, "change": f"working tree of {_git('rev-parse', 'HEAD')}", **doc}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
