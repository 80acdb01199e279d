"""Command-line pipeline: ingest -> metrics -> stats -> reports.

``main(argv)`` parses with argparse and returns the exit code: 0 success,
1 internal error, 2 input/configuration or usage error.
All numeric report fields use fixed 4-decimal formatting (CSV) or values
rounded to 4 decimals (summary.json) so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import compress
from pathlib import Path

from . import ingest as ingest_mod
from .ingest import IngestError, IngestReport, ParseDiagnostic, load_country_config
from .metrics import IO_MARGIN, UserMetrics, WingMatrix, compute_all
from .model import ORIGINAL, Dataset, Record
from .stats import check_bin_width, distribution, fraction_below, welch_t_test

METRIC_FIELDS = (
    "direct_source_diversity",
    "indirect_source_diversity",
    "retweet_diversity",
    "reply_diversity",
    "minority_reach",
    "minority_exposure",
)


class RunConfig(Record):
    """One analysis run: input paths as typed (``config_path``,
    ``users_path``, ``tweets_path``, ``spam_path``, None for no spam list,
    and ``out_dir``), plus statistics knobs: ``bin_width``, 0.05 by default,
    and ``thresholds``, a tuple of floats, (0.5, 0.05, 0.01) by default.
    Refuses a bin width or threshold out of range with a ValueError."""

    __slots__ = (
        "config_path",
        "users_path",
        "tweets_path",
        "spam_path",
        "out_dir",
        "bin_width",
        "thresholds",
    )
    _defaults = (0.05, (0.5, 0.05, 0.01))

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        check_bin_width(self.bin_width)
        for t in self.thresholds:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"threshold {t} outside (0, 1]")
        # summary.json keys each threshold's fraction by this format
        keys = [format(t, "g") for t in self.thresholds]
        if len(set(keys)) < len(keys):
            raise ValueError(f"repeated threshold in {','.join(keys)}")


def _fmt(x: float | None) -> str:
    return "NA" if x is None else f"{x:.4f}"


def _fmt_bool(b: bool | None) -> str:
    return "NA" if b is None else ("true" if b else "false")


def _round4(x: float | None) -> float | None:
    return None if x is None else round(x, 4)


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with inner quotes doubled,
    only when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _open_lines(path: str | Path):
    return open(path, encoding="utf-8", errors="surrogateescape")


def _load(
    config_path: str | Path,
    users_path: str | Path,
    tweets_path: str | Path,
    spam_path: str | Path | None,
) -> tuple[Dataset, IngestReport, list[ParseDiagnostic]]:
    """Ingest one dataset's inputs, parsing each file as it is read. An
    empty or absent ``spam_path`` means no spam list; a spam list that
    ``parse_spam`` refuses is a ValueError naming its path."""
    config = load_country_config(config_path)
    spam: frozenset[str] | set[str] = frozenset()
    if spam_path:
        with _open_lines(spam_path) as fh:
            try:
                spam = ingest_mod.parse_spam(fh)
            except ValueError as exc:
                raise ValueError(f"{spam_path}: malformed spam list ({exc})") from exc
    # Both opened before either is read, so a bad path fails before parsing.
    with _open_lines(users_path) as users, _open_lines(tweets_path) as tweets:
        return ingest_mod.load_dataset(config, users, tweets, spam)


def _defined(per_user: list[UserMetrics], field: str) -> list[float]:
    return [v for m in per_user if (v := getattr(m, field)) is not None]


def _mean(values) -> float | None:
    """The mean of ``values``; None when there are none."""
    return sum(values) / len(values) if values else None


def _user_counts(dataset: Dataset) -> tuple[int, int]:
    """The dataset's seeds and regulars: a regular is a user without a category."""
    regulars = dataset.users.categories.count(None)
    return len(dataset.users) - regulars, regulars


def _summary_object(
    rc: RunConfig,
    dataset: Dataset,
    report: IngestReport,
    diagnostics: list[ParseDiagnostic],
    per_user: list[UserMetrics],
    matrix: WingMatrix,
) -> dict:
    users, tweets = dataset.users, dataset.tweets
    minority = dataset.config.minority_user_ids
    is_minority = users.per_code(map(minority.__contains__, users.ids), False)
    minority_originals = sum(
        map(is_minority.__getitem__, compress(tweets.authors, tweets.select(ORIGINAL)))
    )
    seeds, regulars = _user_counts(dataset)
    metrics_obj = {}
    for field in METRIC_FIELDS:
        samples = _defined(per_user, field)
        metrics_obj[field] = {
            "count": len(samples),
            "mean": _round4(_mean(samples)),
            "fraction_below": {
                format(t, "g"): _round4(fraction_below(samples, t))
                for t in rc.thresholds
            },
        }
    io_defined = _defined(per_user, "io_correlated")
    io_15_defined = _defined(per_user, "io_correlated_15")
    return {
        "bin_width": rc.bin_width,
        "io_margin": IO_MARGIN,
        "thresholds": list(rc.thresholds),
        "dataset": {
            "name": dataset.config.name,
            "n_categories": dataset.config.n_categories,
            "seed_users": seeds,
            "regular_users": regulars,
            "tweets": len(dataset.tweets),
            "minority_originals": minority_originals,
            "ingest": {
                **{name: getattr(report, name) for name in IngestReport.__slots__},
                "malformed_lines": len(diagnostics),
            },
        },
        "metrics": metrics_obj,
        "io_correlation": {
            "defined": len(io_defined),
            "share_correlated": _round4(_mean(io_defined)),
            "share_correlated_margin": _round4(_mean(io_15_defined)),
        },
        "seed_matrix": {
            "left": {
                "left": _round4(matrix.left_to_left),
                "right": _round4(matrix.left_to_right),
            },
            "right": {
                "left": _round4(matrix.right_to_left),
                "right": _round4(matrix.right_to_right),
            },
            "left_interactions": matrix.left_interactions,
            "right_interactions": matrix.right_interactions,
        },
    }


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_reports(
    rc: RunConfig,
    dataset: Dataset,
    report: IngestReport,
    diagnostics: list[ParseDiagnostic],
    per_user: list[UserMetrics],
    matrix: WingMatrix,
) -> dict:
    """Write every report file to ``rc.out_dir``; returns the summary object."""
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    header = "user_id," + ",".join(METRIC_FIELDS) + ",io_correlated,io_correlated_15"
    lines = [header]
    for m in per_user:
        lines.append(
            ",".join(
                [_csv_field(m.user_id)]
                + [_fmt(getattr(m, f)) for f in METRIC_FIELDS]
                + [_fmt_bool(m.io_correlated), _fmt_bool(m.io_correlated_15)]
            )
        )
    _write_text(out / "users_metrics.csv", "\n".join(lines) + "\n")

    matrix_lines = [
        "wing,left,right",
        f"left,{matrix.left_to_left:.4f},{matrix.left_to_right:.4f}",
        f"right,{matrix.right_to_left:.4f},{matrix.right_to_right:.4f}",
    ]
    _write_text(out / "seed_matrix.csv", "\n".join(matrix_lines) + "\n")

    for field in METRIC_FIELDS:
        dist = distribution(_defined(per_user, field), rc.bin_width)
        rows = ["bin_start,bin_end,count"]
        for (lo, hi), count in zip(dist.bin_edges(), dist.bin_counts):
            rows.append(f"{lo:.4f},{hi:.4f},{count}")
        _write_text(out / f"dist_{field}.csv", "\n".join(rows) + "\n")

    summary = _summary_object(rc, dataset, report, diagnostics, per_user, matrix)
    _write_text(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def cmd_analyze(rc: RunConfig) -> dict:
    """Run the full pipeline and emit all report files; returns the summary."""
    dataset, report, diagnostics = _load(
        rc.config_path, rc.users_path, rc.tweets_path, rc.spam_path
    )
    per_user, matrix = compute_all(dataset)
    return _write_reports(rc, dataset, report, diagnostics, per_user, matrix)


Inputs = tuple[str | Path, str | Path, str | Path, str | Path | None]


def cmd_compare(
    inputs_a: Inputs, inputs_b: Inputs, out_dir: str | Path, alpha: float = 0.01
) -> list[dict]:
    """Side-by-side means plus Welch t-tests at ``alpha``; writes
    comparison.csv to ``out_dir``.

    Each side's inputs are its ``(config, users, tweets, spam)`` paths, as
    :func:`cmd_analyze` reads them; spam may be None. Metrics where the
    test precondition fails (e.g. both sides constant) get NA statistics
    and are never flagged significant.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    dataset_a, dataset_b = (_load(*inputs)[0] for inputs in (inputs_a, inputs_b))
    universe_a = [(c.id, c.wing) for c in dataset_a.config.categories]
    universe_b = [(c.id, c.wing) for c in dataset_b.config.categories]
    if universe_a != universe_b:
        raise IngestError(
            ["datasets have different category universes; comparison is undefined"]
        )
    per_a, _ = compute_all(dataset_a)
    per_b, _ = compute_all(dataset_b)

    rows: list[dict] = []
    for field in METRIC_FIELDS:
        samples_a = _defined(per_a, field)
        samples_b = _defined(per_b, field)
        row: dict = {
            "metric": field,
            "count_a": len(samples_a),
            "mean_a": _mean(samples_a),
            "count_b": len(samples_b),
            "mean_b": _mean(samples_b),
            "t": None,
            "df": None,
            "p": None,
            "significant": False,
        }
        try:
            result = welch_t_test(samples_a, samples_b, alpha=alpha)
            row.update(t=result.t, df=result.df, p=result.p, significant=result.significant)
        except ValueError:
            pass
        rows.append(row)

    Path(out_dir).mkdir(parents=True, exist_ok=True)
    lines = ["metric,count_a,mean_a,count_b,mean_b,t,df,p,significant"]
    for r in rows:
        lines.append(
            f"{r['metric']},{r['count_a']},{_fmt(r['mean_a'])},{r['count_b']},"
            f"{_fmt(r['mean_b'])},{_fmt(r['t'])},{_fmt(r['df'])},{_fmt(r['p'])},"
            f"{'true' if r['significant'] else 'false'}"
        )
    _write_text(Path(out_dir) / "comparison.csv", "\n".join(lines) + "\n")
    return rows


def _parse_thresholds(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse thresholds {raw!r}") from exc


def _analyze(args: argparse.Namespace) -> None:
    """Compute per-user metrics, population summary, and distributions."""
    rc = RunConfig(
        config_path=args.config,
        users_path=args.users,
        tweets_path=args.tweets,
        spam_path=args.spam,
        out_dir=args.out,
        bin_width=args.bin_width,
        thresholds=_parse_thresholds(args.thresholds),
    )
    summary = cmd_analyze(rc)
    ds = summary["dataset"]
    print(
        f"analyzed {ds['regular_users']} regular users "
        f"({ds['seed_users']} seeds, {ds['tweets']} tweets) -> {rc.out_dir}"
    )


def _compare(args: argparse.Namespace) -> None:
    """Compare two datasets (give --config/--users/--tweets twice: A then B)."""
    if not (len(args.config) == len(args.users) == len(args.tweets) == 2):
        raise ValueError("compare needs --config, --users and --tweets exactly twice")
    if args.spam and len(args.spam) != 2:
        raise ValueError("give --spam either zero or two times")

    inputs_a, inputs_b = (
        (args.config[i], args.users[i], args.tweets[i], args.spam[i] if args.spam else None)
        for i in (0, 1)
    )
    rows = cmd_compare(inputs_a, inputs_b, args.out, args.alpha)
    for r in rows:
        flag = "significant" if r["significant"] else "not significant"
        print(
            f"{r['metric']}: mean_a={_fmt(r['mean_a'])} mean_b={_fmt(r['mean_b'])} "
            f"t={_fmt(r['t'])} p={_fmt(r['p'])} ({flag} at alpha={args.alpha:g})"
        )


def _synth(args: argparse.Namespace) -> None:
    """Generate a synthetic dataset as ingest-compatible files."""
    from dataclasses import replace

    from . import synth as synth_mod  # numpy; only this command needs it

    if (args.preset is None) == (args.params is None):
        raise ValueError("give exactly one of --preset or --params")
    if args.preset is not None:
        try:
            params = synth_mod.presets()[args.preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(synth_mod.presets()))
            ) from None
    else:
        path = Path(args.params)
        raw = ingest_mod.read_json_object(path, "synth params")
        params = synth_mod.params_from_object(raw, path)
    if args.rng_seed is not None:
        params = replace(params, rng_seed=args.rng_seed)

    dataset = synth_mod.generate(params)
    paths = ingest_mod.write_dataset(dataset, Path(args.out))
    print(
        f"wrote {len(dataset.users)} users, {len(dataset.tweets)} tweets "
        f"to {paths['users'].parent}"
    )


def _validate(args: argparse.Namespace) -> None:
    """Ingest and validate without computing metrics; prints the report."""
    # paths as given, so that every message names a file as the user did
    dataset, report, diagnostics = _load(args.config, args.users, args.tweets, args.spam)
    seeds, regulars = _user_counts(dataset)
    print(f"ok: {seeds} seeds, {regulars} regulars, {len(dataset.tweets)} tweets")
    print(
        f"users_read={report.users_read} dropped_spam={report.users_dropped_spam} "
        f"dropped_threshold={report.users_dropped_threshold} "
        f"followees_ignored={report.followees_ignored} "
        f"tweets_read={report.tweets_read} "
        f"tweets_dropped_dangling={report.tweets_dropped_dangling} "
        f"tweets_dropped_duplicate={report.tweets_dropped_duplicate}"
    )
    paths = {"users": args.users, "tweets": args.tweets}
    for d in diagnostics:
        print(f"{paths[d.file]}:{d.line_no}: {d.message}", file=sys.stderr)


def _parser() -> argparse.ArgumentParser:
    """``viewdiv COMMAND --option VALUE ...``; a parsed line runs ``args.run``.
    No parser takes an abbreviated option, nor ``-h`` for ``--help``."""
    parser = argparse.ArgumentParser(
        "viewdiv", description="Viewpoint-diversity analytics over seed/follower tweet datasets.",
        allow_abbrev=False, add_help=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(run, name: str, inputs: str | None = "store") -> argparse.ArgumentParser:
        """A subcommand; ``inputs`` is its input paths' action, None for none."""
        sub = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, allow_abbrev=False, add_help=False
        )
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run)
        if inputs:
            sub.add_argument("--config", required=True, action=inputs, help="Country config JSON.")
            sub.add_argument("--users", required=True, action=inputs, help="Users JSONL file.")
            sub.add_argument("--tweets", required=True, action=inputs, help="Tweets JSONL file.")
            sub.add_argument("--spam", action=inputs, help="Spam id list, one per line.")
        return sub

    analyze = command(_analyze, "analyze")
    analyze.add_argument("--out", required=True, help="Report output directory.")
    analyze.add_argument("--bin-width", type=float, default=0.05, help="(default: %(default)s)")
    analyze.add_argument("--thresholds", default="0.5,0.05,0.01", help="(default: %(default)s)")

    compare = command(_compare, "compare", inputs="append")
    compare.add_argument("--out", required=True)
    compare.add_argument("--alpha", type=float, default=0.01, help="(default: %(default)s)")

    synth = command(_synth, "synth", inputs=None)
    synth.add_argument("--preset", help="Named preset (see `presets`).")
    synth.add_argument("--params", help="SynthParams JSON file.")
    synth.add_argument("--rng-seed", type=int, help="Override the RNG seed.")
    synth.add_argument("--out", required=True)

    command(_validate, "validate")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its
    exit code. Input and configuration problems exit 2, anything else 1; a
    usage error exits 2 from the parser, before any input is read."""
    args = _parser().parse_args(argv)
    try:
        args.run(args)
        return 0
    except ValueError as exc:
        problem, code = str(exc), 2
    except OSError as exc:
        # One that names a file comes from a path on the command line.
        if exc.filename is None:
            problem, code = f"internal: {exc!r}", 1
        else:
            problem, code = f"cannot open {exc.filename}: {exc.strerror or exc}", 2
    except Exception as exc:  # internal error
        problem, code = f"internal: {exc!r}", 1
    print(f"error: {problem}", file=sys.stderr)
    return code


def run() -> None:
    """The console entry point: :func:`main`, exiting with its code.

    The cyclic collector is off for the one command a process runs. The
    tables a command builds live until it exits, and it leaves a few
    hundred objects in reference cycles whatever its input, so the
    collector's passes over the tables would only cost time."""
    gc.disable()
    code = main()
    gc.freeze()  # so that the interpreter's collection at exit skips every object
    sys.exit(code)


if __name__ == "__main__":
    run()
