"""Benchmark of ``viewdiv analyze`` on seeded synthetic crawls.

    python3 bench/run.py --workload tweet_log --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that has ``src/viewdiv``. This script
imports nothing from the program: it starts every step as a child process,
one at a time, and waits for each. It makes the workload's input files from
``--seed`` (``workloads.py``), checks the fast path against the oracle on a
small instance of the same shape (``gate.py``), then runs ``python -m
viewdiv.cli analyze`` on the inputs for ``--seconds`` seconds (closed loop,
one client). Every analyze run passes the correctness gate in ``gate.py``.

``--trace 0`` reports the end-to-end metrics. Times are in reference
seconds: each wall time is divided by the wall time of the fixed job in
``reference.py``, run right after it, because this host's speed drifts by
tens of percent over minutes. The raw wall times are printed too.
``--trace 1`` alternates untraced and traced runs (``tracing.py``) and
reports the per-layer metrics, in raw seconds. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib.metadata import version
from pathlib import Path

from gate import check_run, report_digest
from tracing import ROOT as ROOT_SPAN, layer_times, load

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-ups per invocation; setup_s is their median.
SETUP_REPEATS = 3
# A child still running after this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0
MIB = 1024.0  # ru_maxrss is in KiB on Linux


class Child:
    """Runs one subprocess to completion and measures it.

    This process stays small on purpose: a child's ru_maxrss also counts the
    memory of the process it was spawned from, up to its exec.
    """

    def __init__(self, log: Path):
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Returns (exit code, wall seconds, peak RSS MiB)."""
        with open(self.log, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / MIB

    def output(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark invocation: its children, the gate's state and tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.child = Child(work / "child.log")
        self.out = work / "out"
        self.first_digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def helper(self, script: str, *args: str) -> tuple[float, str]:
        """Runs a benchmark script that must succeed; returns (wall, last line)."""
        code, wall, _ = self.child.run([sys.executable, str(BENCH / script), *args])
        output = self.child.output()
        if code != 0:
            sys.exit(f"error: {script} exited {code}:\n{output[-1000:]}")
        return wall, (output.strip().splitlines() or [""])[-1]

    def reference_job(self) -> float:
        return self.helper("reference.py")[0]

    def setup(self) -> list[tuple[dict, float]]:
        """Makes the inputs SETUP_REPEATS times, each followed by a reference
        job; all must be byte-identical. Returns (inputs, reference s) pairs."""
        made, digests = [], set()
        input_dir = self.work / "input"
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(input_dir, ignore_errors=True)
            _, line = self.helper("workloads.py", self.workload, str(self.seed), str(input_dir))
            made.append((json.loads(line), self.reference_job()))
            digests.add(report_digest(input_dir))
        if len(digests) != 1:
            self.problems.append("set-up: the same seed gave different input bytes")
        self.inputs = made[-1][0]
        return made

    def oracle(self) -> int:
        """Oracle check on a small instance; returns its kept tweet count."""
        _, line = self.helper("gate.py", self.workload, str(self.seed), str(self.work / "small"))
        verdict = json.loads(line)
        self.problems += verdict["problems"]
        return verdict["tweets"]

    def analyze(self, argv: list[str]) -> tuple[float, float]:
        """One gated run of a program that writes reports to ``self.out``;
        returns (wall seconds, peak RSS MiB)."""
        shutil.rmtree(self.out, ignore_errors=True)
        code, wall, rss = self.child.run(argv)
        digest, problems = check_run(code, self.out, self.first_digest)
        self.attempted += 1
        if self.first_digest is None:
            self.first_digest = digest
        if problems:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: " + "; ".join(problems))
            if code != 0:
                self.problems.append(self.child.output()[-400:].strip())
        return wall, rss

    def input_args(self) -> list[str]:
        i = self.inputs
        return [i["config"], i["users"], i["tweets"], i["spam"] or "-", str(self.out)]

    def analyze_untraced(self) -> tuple[float, float]:
        config, users, tweets, spam, out = self.input_args()
        argv = [sys.executable, "-m", "viewdiv.cli", "analyze", "--config", config,
                "--users", users, "--tweets", tweets, "--out", out]
        if spam != "-":
            argv += ["--spam", spam]
        return self.analyze(argv)

    def analyze_traced(self, run_id: int, spans: Path) -> float:
        argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), str(run_id)]
        return self.analyze(argv + self.input_args())[0]


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    made = run.setup()
    oracle_tweets = run.oracle()
    walls, refs, rsss = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, rss = run.analyze_untraced()
        walls.append(wall)
        rsss.append(rss)
        refs.append(run.reference_job())
    n = len(walls)
    analyze = [w / r for w, r in zip(walls, refs)]
    lines = run.inputs["tweet_lines"]
    setup_walls = [m["generate_s"] + m["write_s"] + m["noise_s"] for m, _ in made]
    metrics = {
        "analyze_s": (_median(analyze), "s"),
        "tweets_per_s": (_median([lines / a for a in analyze]), "1/s"),
        "peak_rss_mib": (_median(rsss), "MiB"),
        "setup_s": (_median([w / ref for w, (_, ref) in zip(setup_walls, made)]), "s"),
        "success_rate": ((n - run.failed) / n, "ratio"),
    }
    notes = [
        f"analyze_s, tweets_per_s, peak_rss_mib: median of {n} runs on {lines} tweet lines",
        f"setup_s: median of {len(made)} set-ups",
        "times are in reference seconds; raw wall medians: "
        f"analyze {_median(walls):.4f} s (min {min(walls):.4f}, max {max(walls):.4f}), "
        f"set-up {_median(setup_walls):.4f} s, reference job {_median(refs):.4f} s",
        f"error_rate: {run.failed / n:.4f} ({run.failed} of {n} runs failed)",
        f"oracle: compute_all == oracle_metrics on a {oracle_tweets}-tweet instance",
    ]
    return metrics, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    made = run.setup()
    run.oracle()
    samples: dict[str, list[float]] = {}
    absent: set[str] = set()
    spans_path = run.work / "spans.json"
    start = time.perf_counter()
    iteration = 0
    while not iteration or time.perf_counter() - start < seconds:
        iteration += 1
        failed = run.failed
        wall, _ = run.analyze_untraced()
        report_bytes = sum(p.stat().st_size for p in run.out.iterdir()) if run.out.is_dir() else 0
        traced_wall = run.analyze_traced(iteration, spans_path)
        _, import_s, _ = run.child.run([sys.executable, "-c", "import viewdiv.cli"])
        if run.failed > failed:
            continue
        spans, counts, missing, post_s = load(spans_path)
        absent.update(missing)
        values = _layer_values(layer_times(spans), counts)
        values["cli.analyze_wall_s"] = wall
        values["cli.import_s"] = import_s
        values["cli.report_bytes"] = report_bytes
        values["trace.overhead_s"] = traced_wall - post_s - wall
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    samples["synth.generate_s"] = [m["generate_s"] for m, _ in made]
    samples["synth.write_s"] = [m["write_s"] for m, _ in made]
    samples["synth.tweets"] = [run.inputs["tweet_lines"]]
    samples["host.reference_s"] = [ref for _, ref in made]
    metrics = {name: (_median(samples.get(name, [])), unit) for name, unit in LAYER_UNITS.items()}
    notes = [f"per-layer: median of {iteration} traced runs, each after an untraced run"]
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(sorted(absent)))
    return metrics, notes


LAYER_UNITS = {
    "cli.analyze_wall_s": "s",
    "cli.import_s": "s",
    "cli.cmd_analyze_s": "s",
    "cli.analyze_self_s": "s",
    "cli.report_bytes": "bytes",
    "ingest.load_dataset_s": "s",
    "ingest.parse_tweets_s": "s",
    "ingest.parse_tweets_per_s": "1/s",
    "ingest.parse_users_s": "s",
    "ingest.filter_s": "s",
    "ingest.build_self_s": "s",
    "ingest.tweet_keep_ratio": "ratio",
    "ingest.threshold_drop_ratio": "ratio",
    "ingest.users_read": "count",
    "ingest.tweets_read": "count",
    "ingest.malformed_lines": "count",
    "ingest.users_dropped_spam": "count",
    "ingest.users_dropped_threshold": "count",
    "ingest.tweets_dropped_dangling": "count",
    "ingest.tweets_kept": "count",
    "ingest.tweets_unaccounted": "count",
    "ingest.rss_mib": "MiB",
    "model.validate_config_s": "s",
    "model.follow_edges": "count",
    "exposure.index_s": "s",
    "exposure.seed_originals": "count",
    "exposure.seed_retweet_sources": "count",
    "metrics.compute_all_s": "s",
    "metrics.kernel_self_s": "s",
    "metrics.surfaced_attempts": "count",
    "metrics.surfaced_new": "count",
    "metrics.surfaced_useful_ratio": "ratio",
    "metrics.seed_matrix_s": "s",
    "metrics.entropy_s": "s",
    "metrics.entropy_calls": "count",
    "metrics.users": "count",
    "metrics.rss_delta_mib": "MiB",
    "stats.distribution_s": "s",
    "stats.fraction_below_s": "s",
    "stats.samples": "count",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "synth.tweets": "count",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}


def _layer_values(lt, counts: dict) -> dict[str, float]:
    total = lt.total.get
    own = lt.self.get
    values = {
        "cli.cmd_analyze_s": total(ROOT_SPAN, 0.0),
        "cli.analyze_self_s": own(ROOT_SPAN, 0.0),
        "ingest.load_dataset_s": total("ingest.load_dataset", 0.0),
        "ingest.parse_tweets_s": total("ingest.parse_tweets", 0.0),
        "ingest.parse_users_s": total("ingest.parse_users", 0.0),
        "ingest.filter_s": total("ingest.filter", 0.0),
        "ingest.build_self_s": own("ingest.build_dataset", 0.0),
        "model.validate_config_s": total("model.validate_config", 0.0),
        "exposure.index_s": total("exposure.index", 0.0),
        "metrics.compute_all_s": total("metrics.compute_all", 0.0),
        "metrics.kernel_self_s": own("metrics.compute_all", 0.0),
        "metrics.seed_matrix_s": total("metrics.seed_matrix", 0.0),
        "metrics.entropy_s": total("metrics.entropy", 0.0),
        "metrics.entropy_calls": lt.calls.get("metrics.entropy", 0),
        "stats.distribution_s": total("stats.distribution", 0.0),
        "stats.fraction_below_s": total("stats.fraction_below", 0.0),
    }
    values.update(counts)
    c = counts.get
    kept_regulars = c("metrics.users", 0)
    dropped = c("ingest.users_dropped_threshold", 0)
    values["ingest.parse_tweets_per_s"] = _ratio(c("ingest.tweets_read", 0), values["ingest.parse_tweets_s"])
    values["ingest.tweet_keep_ratio"] = _ratio(c("ingest.tweets_kept", 0), c("ingest.tweets_read", 0))
    values["ingest.threshold_drop_ratio"] = _ratio(dropped, dropped + kept_regulars)
    values["metrics.surfaced_useful_ratio"] = _ratio(
        c("metrics.surfaced_new", 0), c("metrics.surfaced_attempts", 0)
    )
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "viewdiv" / "cli.py").is_file():
        sys.exit(f"error: no viewdiv package under {SRC}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"python {platform.python_version()} numpy {version('numpy')} "
        f"scipy {version('scipy')} nproc {os.cpu_count()}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    correct = not run.problems
    print("  correct: " + ("yes" if correct else "NO"))
    for problem in run.problems:
        print(f"    {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
