"""Paired benchmark of this checkout against an earlier revision.

    python3 tools/ab.py --base REV [--pairs 10] [--seed 1] [--workload W ...]
                        [--scale bench|1m] [--json FILE]

The *base* is REV, written out with ``git archive`` under ``.bench_work/``
and removed when the run ends; the *head* is this checkout as it stands,
uncommitted edits included. Nothing is written into the repository's own
git metadata, so a run that is killed leaves no checkout registered there.

``--scale bench`` (the default): each side's ``bench/run.py`` measures the
``src`` of its own tree, so both sides run their own benchmark code
unchanged, for the ``run_seconds`` that ``BENCHMARK.json`` sets. Each pair
runs every workload once per side; the base runs first in odd pairs and
the head first in even ones. For each workload and end-to-end metric
(``BENCHMARK.json``) it prints every pair's values, both medians, the
base's interquartile range and the number of pairs the head won (ties
count for neither side). A difference of medians inside the base's IQR is
reported as no change either way. This is a report, not a gate. It then
writes each workload's inputs once (the head's ``bench/workloads.py``),
runs each side's ``analyze`` and ``validate`` on them and on the toy
fixture as direct children, and compares the report directories file by
file, as ``diff -r`` does, and the commands' exit codes, stdout and stderr.

``--scale 1m``: the head's ``synth`` writes the 1M-tweet point,
``POINT_1M``, once, and each pair runs each side's ``analyze`` on it once,
as a direct child timed with :func:`os.wait4`: its wall time and its max
RSS. The head's ``src`` runs from a copy beside the base's tree. The
summary is the bench's, and each run's reports and streams are compared
with the base's first run. ``--seed`` and ``--workload`` do not apply; the
JSON records the sha256 of each input file.

It exits 1 when a run failed or an output differs, else 0. Only the
standard library and the repository's own scripts are used.
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
# The 1M-tweet point, as a synth params object: 20,100 users and 997,929
# tweets. tests/test_synth.py checks that it is within synth's size bounds.
POINT_1M = {
    "rng_seed": 90210, "n_categories": 5, "n_seeds": 100, "n_regulars": 20000,
    "homophily": 0.6, "minority_tweet_share": 0.15,
    "tweets_per_seed": 4000.0, "retweets_per_regular": 28.0, "replies_per_regular": 3.0,
}


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


def _bench_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` of the tree at ``root``: its last output line."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=root,
    )
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def _argv(command: str, inputs: dict, out: Path | None) -> list[str]:
    argv = [sys.executable, "-m", "viewdiv.cli", command,
            "--config", inputs["config"], "--users", inputs["users"], "--tweets", inputs["tweets"]]
    if inputs.get("spam"):
        argv += ["--spam", inputs["spam"]]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def _cli(root: Path, command: str, inputs: dict, out: Path | None) -> dict:
    argv = _argv(command, inputs, out)
    proc = subprocess.run(argv, capture_output=True, cwd=HEAD, env=_child_env(root))
    # analyze names --out in its last line, which differs by side
    stdout = proc.stdout.replace(str(out).encode(), b"OUT") if out is not None else proc.stdout
    return {"status": proc.returncode, "stdout": stdout, "stderr": proc.stderr}


def compare_outputs(base: Path, work: Path, workloads: list[str], seed: int) -> dict:
    """For each input set, the files and streams in which the two sides'
    ``analyze`` and ``validate`` differ."""
    input_sets = {"toy": {k: str(TOY / f"{k}.{ext}") for k, ext in
                          (("config", "json"), ("users", "jsonl"), ("tweets", "jsonl"))}}
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, str(HEAD / "bench" / "workloads.py"), workload, str(seed),
             str(work / "inputs" / workload)],
            capture_output=True, text=True, cwd=HEAD, env=_child_env(HEAD), check=True,
        )
        input_sets[f"{workload}@{seed}"] = json.loads(proc.stdout)
    result = {}
    for name, inputs in input_sets.items():
        runs = {}
        for side, root in (("base", base), ("head", HEAD)):
            out = work / "reports" / side / name
            runs[side] = (_cli(root, "analyze", inputs, out), _cli(root, "validate", inputs, None), out)
        (analyze_a, validate_a, out_a), (analyze_b, validate_b, out_b) = runs["base"], runs["head"]
        differ = tree_differences(out_a, out_b)
        differ += [f"analyze {k}" for k in analyze_a if analyze_a[k] != analyze_b[k]]
        differ += [f"validate {k}" for k in validate_a if validate_a[k] != validate_b[k]]
        result[name] = {"identical": not differ, "differ": differ,
                        "analyze_status": analyze_b["status"], "validate_status": validate_b["status"]}
    return result


def max_rss_mib(ru_maxrss: int) -> float:
    """A Linux ``ru_maxrss``, which counts KiB, in MiB."""
    return ru_maxrss / 1024


def file_digests(directory: Path) -> dict[str, str]:
    """The sha256 of each file directly in ``directory``, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def _timed_analyze(root: Path, inputs: dict, out: Path) -> dict:
    """One ``analyze`` of the tree at ``root`` as a direct child, its
    streams in files beside ``out``: wall seconds from start to reap, max
    RSS from :func:`os.wait4`, exit status and both streams."""
    out.parent.mkdir(parents=True, exist_ok=True)
    streams = {name: out.with_name(f"{out.name}.{name}") for name in ("stdout", "stderr")}
    with open(streams["stdout"], "wb") as stdout, open(streams["stderr"], "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(_argv("analyze", inputs, out), stdout=stdout, stderr=stderr,
                                cwd=HEAD, env=_child_env(root))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": round(wall, 6), "max_rss_mib": round(max_rss_mib(usage.ru_maxrss), 3),
        "status": proc.returncode,
        "stdout": streams["stdout"].read_bytes().replace(str(out).encode(), b"OUT"),
        "stderr": streams["stderr"].read_bytes(),
    }


def _run_1m(roots: dict[str, Path], work: Path, pairs: int) -> tuple[dict, bool]:
    """The ``--scale 1m`` runs: ``POINT_1M`` written once by the head's
    ``synth``, then ``pairs`` alternating pairs of timed ``analyze`` runs.
    Returns the JSON record and whether a run failed or an output differs.

    The head's ``src`` is timed from a copy beside the base's, so that
    both sides import from paths of one length: the same code's max RSS
    at this point moved by about 3 MiB with the directory it ran from."""
    head = work / "head"
    shutil.copytree(roots["head"] / "src", head / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    roots = {**roots, "head": head}
    params = work / "point_1m.json"
    params.write_text(json.dumps(POINT_1M))
    directory = work / "inputs" / "1m"
    subprocess.run(
        [sys.executable, "-m", "viewdiv.cli", "synth", "--params", str(params),
         "--out", str(directory)],
        capture_output=True, cwd=HEAD, env=_child_env(HEAD), check=True,
    )
    inputs = {k: str(directory / f"{k}.{ext}") for k, ext in
              (("config", "json"), ("users", "jsonl"), ("tweets", "jsonl"))}
    reports = work / "reports"
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for pair in range(1, pairs + 1):
        for side in side_order(pair):
            run = _timed_analyze(roots[side], inputs, reports / f"{side}-{pair}")
            runs[side].append(run)
            print(f"pair {pair} 1m {side}: wall {run['wall_s']} s, max RSS "
                  f"{run['max_rss_mib']} MiB, status {run['status']}", flush=True)

    doc = {
        "benchmark": "python3 -m viewdiv.cli analyze on tools/ab.py's POINT_1M as a direct "
                     "child of tools/ab.py, the base from its tree's src and the head from a "
                     "copy of its src beside it",
        "method": f"tools/ab.py --scale 1m: {pairs} pairs, each side once per pair, the "
                  "base first in odd pairs; wall seconds from start to reap and max RSS from "
                  "os.wait4; medians and inclusive quartiles; a win is the change lower in its "
                  "pair",
        "params": POINT_1M,
        "inputs": file_digests(directory),
    }
    print("1m:")
    for name in ("wall_s", "max_rss_mib"):
        values = ([r[name] for r in runs[side]] for side in ("base", "head"))
        doc[name] = summarize(*values, "lower")
        _print_summary(name, doc[name], "lower", pairs)
    # every run's reports and streams against the base's first run's
    reference = runs["base"][0]
    differ = []
    for side, side_runs in runs.items():
        for pair, run in enumerate(side_runs, start=1):
            what = tree_differences(reports / "base-1", reports / f"{side}-{pair}")
            what += [k for k in ("status", "stdout", "stderr") if run[k] != reference[k]]
            if what or run["status"] != 0:
                differ.append(f"{side} {pair}: " + ", ".join(what or [f"status {run['status']}"]))
    doc["reports"] = {"identical": not differ, "differ": differ}
    print("outputs 1m: " + ("identical" if not differ else "DIFFER: " + "; ".join(differ)))
    return doc, bool(differ)


def _run_bench(roots: dict[str, Path], work: Path, workloads: list[str], seed: int,
               pairs: int) -> tuple[dict, bool]:
    """The ``--scale bench`` runs: ``pairs`` alternating pairs of each
    workload's ``bench/run.py``, then the output comparisons. Returns the
    JSON record and whether a run failed or an output differs."""
    metrics, seconds = _benchmark()
    runs = {(w, side): [] for w in workloads for side in roots}
    for pair in range(1, pairs + 1):
        for workload in workloads:
            for side in side_order(pair):
                out = _bench_once(roots[side], workload, seed, seconds)
                runs[workload, side].append(out)
                value = out.get("metrics", {}).get("analyze_s", {}).get("value")
                print(f"pair {pair} {workload} {side}: analyze_s {value} "
                      f"correct {out.get('correct')}", flush=True)
    outputs = compare_outputs(roots["base"], work, workloads, seed)

    doc = {
        "benchmark": f"python3 bench/run.py --workload W --seed {seed} "
                     f"--seconds {seconds:g}, each side from its own tree",
        "method": f"tools/ab.py: {pairs} pairs, every workload once per side per pair, "
                  "the base first in odd pairs; medians and inclusive quartiles of the values "
                  "bench/run.py prints; a win is the change better in its pair",
        "workloads": {},
        "reports": outputs,
    }
    failed = False
    for workload in workloads:
        base_runs, head_runs = runs[workload, "base"], runs[workload, "head"]
        ok = all(r.get("correct") is True for r in base_runs + head_runs)
        failed |= not ok
        entry: dict = {"pairs": pairs}
        print(f"{workload}@{seed}:")
        for name, better in metrics.items():
            if not ok:
                break
            values = [[r["metrics"][name]["value"] for r in rs] for rs in (base_runs, head_runs)]
            entry[name] = summarize(*values, better)
            _print_summary(name, entry[name], better, pairs)
        entry["all_correct"] = ok
        entry["attempted"] = [sum(r.get("attempted", 0) for r in rs) for rs in (base_runs, head_runs)]
        entry["failed"] = [sum(r.get("failed", 0) for r in rs) for rs in (base_runs, head_runs)]
        doc["workloads"][f"{workload}@{seed}"] = entry
    for name, result in outputs.items():
        failed |= not result["identical"]
        print(f"outputs {name}: " + ("identical" if result["identical"]
                                     else "DIFFER: " + ", ".join(result["differ"])))
    return doc, failed


def _benchmark() -> tuple[dict[str, str], float]:
    """Each end-to-end metric's better direction, and the seconds per run,
    from ``BENCHMARK.json``."""
    spec = json.loads((HEAD / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}, spec["run_seconds"]


def _git(*args: str, check: bool = True) -> str:
    return subprocess.run(["git", *args], cwd=HEAD, capture_output=True, text=True,
                          check=check).stdout.strip()


def _export(sha: str, directory: Path) -> None:
    """The tree of commit ``sha``, written out into ``directory``."""
    directory.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=HEAD, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(directory)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")


def _print_summary(name: str, s: dict, better: str, pairs: int) -> None:
    print(f"  {name:14s} parent {s['parent_median']:.6g} change {s['change_median']:.6g} "
          f"({s['change_pct']}%), parent IQR {s['parent_iqr']:.6g}, change won "
          f"{s['change_wins']}/{pairs}: {verdict(s, better)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="Revision to compare against.")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="Repeat for several (default: all).")
    parser.add_argument("--scale", choices=("bench", "1m"), default="bench",
                        help="The bench workloads (default) or the 1M-tweet point.")
    parser.add_argument("--json", type=Path, help="Write the results as JSON here.")
    args = parser.parse_args(argv)
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")

    # so that a terminated run still removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"ab-{os.getpid()}"
    try:
        _export(base_sha, work / "base")
        roots = {"base": work / "base", "head": HEAD}
        if args.scale == "1m":
            doc, failed = _run_1m(roots, work, args.pairs)
        else:
            doc, failed = _run_bench(roots, work, args.workload or list(WORKLOADS),
                                     args.seed, args.pairs)
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
