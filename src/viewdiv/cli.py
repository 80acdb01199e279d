"""Command-line pipeline: ingest -> exposure -> metrics -> stats -> reports.

Exit codes: 0 success, 1 internal error, 2 input/configuration error.
All numeric report fields use fixed 4-decimal formatting (CSV) or values
rounded to 4 decimals (summary.json) so reruns are byte-identical.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import click

from . import ingest as ingest_mod
from .ingest import IngestError, IngestReport, ParseDiagnostic, load_country_config
from .metrics import UserMetrics, WingMatrix, compute_all
from .model import Dataset
from .stats import distribution, fraction_below, welch_t_test

METRIC_FIELDS = (
    "direct_source_diversity",
    "indirect_source_diversity",
    "retweet_diversity",
    "reply_diversity",
    "minority_reach",
    "minority_exposure",
)


@dataclass(frozen=True)
class RunConfig:
    """One analysis run: input paths plus statistics knobs."""

    config_path: Path
    users_path: Path
    tweets_path: Path
    spam_path: Path | None
    out_dir: Path
    bin_width: float = 0.05
    thresholds: tuple[float, ...] = (0.5, 0.05, 0.01)
    io_margin: float = 0.15
    alpha: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.bin_width <= 1.0:
            raise ValueError(f"bin width must be in (0, 1], got {self.bin_width}")
        for t in self.thresholds:
            if not 0.0 < t <= 1.0:
                raise ValueError(f"threshold {t} outside (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 <= self.io_margin < 1.0:
            raise ValueError(f"io margin must be in [0, 1), got {self.io_margin}")


def _fmt(x: float | None) -> str:
    return "NA" if x is None else f"{x:.4f}"


def _fmt_bool(b: bool | None) -> str:
    return "NA" if b is None else ("true" if b else "false")


def _round4(x: float | None) -> float | None:
    return None if x is None else round(x, 4)


def _read_lines(path: Path) -> list[str]:
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            return fh.readlines()
    except OSError as exc:
        raise IngestError([f"cannot open {path}: {exc.strerror or exc}"]) from exc


def _load(rc: RunConfig) -> tuple[Dataset, IngestReport, list[ParseDiagnostic]]:
    config = load_country_config(rc.config_path)
    spam = (
        ingest_mod.parse_spam(_read_lines(rc.spam_path))
        if rc.spam_path is not None
        else frozenset()
    )
    return ingest_mod.load_dataset(
        config, _read_lines(rc.users_path), _read_lines(rc.tweets_path), spam
    )


def _defined(per_user: list[UserMetrics], field: str) -> list[float]:
    return [v for m in per_user if (v := getattr(m, field)) is not None]


def _summary_object(
    rc: RunConfig,
    dataset: Dataset,
    report: IngestReport,
    diagnostics: list[ParseDiagnostic],
    per_user: list[UserMetrics],
    matrix: WingMatrix,
) -> dict:
    minority_originals = sum(
        1
        for t in dataset.tweets
        if t.kind.value == "original" and t.author_id in dataset.config.minority_user_ids
    )
    metrics_obj = {}
    for field in METRIC_FIELDS:
        samples = _defined(per_user, field)
        metrics_obj[field] = {
            "count": len(samples),
            "mean": _round4(sum(samples) / len(samples)) if samples else None,
            "fraction_below": {
                format(t, "g"): _round4(fraction_below(samples, t))
                for t in rc.thresholds
            },
        }
    io_defined = [m.io_correlated for m in per_user if m.io_correlated is not None]
    io_margin_defined = [
        m.io_correlated_15 for m in per_user if m.io_correlated_15 is not None
    ]
    return {
        "alpha": rc.alpha,
        "bin_width": rc.bin_width,
        "io_margin": rc.io_margin,
        "thresholds": list(rc.thresholds),
        "dataset": {
            "name": dataset.config.name,
            "n_categories": dataset.config.n_categories,
            "seed_users": len(dataset.seed_users()),
            "regular_users": len(dataset.regular_users()),
            "tweets": len(dataset.tweets),
            "minority_originals": minority_originals,
            "ingest": {
                "users_read": report.users_read,
                "users_dropped_spam": report.users_dropped_spam,
                "users_dropped_threshold": report.users_dropped_threshold,
                "tweets_read": report.tweets_read,
                "tweets_dropped_dangling": report.tweets_dropped_dangling,
                "malformed_lines": len(diagnostics),
            },
        },
        "metrics": metrics_obj,
        "io_correlation": {
            "defined": len(io_defined),
            "share_correlated": (
                _round4(sum(io_defined) / len(io_defined)) if io_defined else None
            ),
            "share_correlated_margin": (
                _round4(sum(io_margin_defined) / len(io_margin_defined))
                if io_margin_defined
                else None
            ),
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
    out = rc.out_dir
    out.mkdir(parents=True, exist_ok=True)

    header = "user_id," + ",".join(METRIC_FIELDS) + ",io_correlated,io_correlated_15"
    lines = [header]
    for m in per_user:
        lines.append(
            ",".join(
                [m.user_id]
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
        dist = distribution(_defined(per_user, field), rc.bin_width, name=field)
        rows = ["bin_start,bin_end,count"]
        for (lo, hi), count in zip(dist.bin_edges(), dist.bin_counts):
            rows.append(f"{lo:.4f},{hi:.4f},{count}")
        _write_text(out / f"dist_{field}.csv", "\n".join(rows) + "\n")

    summary = _summary_object(rc, dataset, report, diagnostics, per_user, matrix)
    _write_text(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def cmd_analyze(rc: RunConfig) -> dict:
    """Run the full pipeline and emit all report files; returns the summary."""
    dataset, report, diagnostics = _load(rc)
    per_user, matrix = compute_all(dataset, io_margin=rc.io_margin)
    return _write_reports(rc, dataset, report, diagnostics, per_user, matrix)


def cmd_compare(rc_a: RunConfig, rc_b: RunConfig, out_dir: Path) -> list[dict]:
    """Side-by-side means plus Welch t-tests; writes comparison.csv.

    Metrics where the test precondition fails (e.g. both sides constant)
    get NA statistics and are never flagged significant.
    """
    dataset_a, _, _ = _load(rc_a)
    dataset_b, _, _ = _load(rc_b)
    universe_a = [(c.id, c.wing) for c in dataset_a.config.categories]
    universe_b = [(c.id, c.wing) for c in dataset_b.config.categories]
    if universe_a != universe_b:
        raise IngestError(
            ["datasets have different category universes; comparison is undefined"]
        )
    per_a, _ = compute_all(dataset_a, io_margin=rc_a.io_margin)
    per_b, _ = compute_all(dataset_b, io_margin=rc_b.io_margin)

    rows: list[dict] = []
    for field in METRIC_FIELDS:
        samples_a = _defined(per_a, field)
        samples_b = _defined(per_b, field)
        row: dict = {
            "metric": field,
            "count_a": len(samples_a),
            "mean_a": sum(samples_a) / len(samples_a) if samples_a else None,
            "count_b": len(samples_b),
            "mean_b": sum(samples_b) / len(samples_b) if samples_b else None,
            "t": None,
            "df": None,
            "p": None,
            "significant": False,
        }
        try:
            result = welch_t_test(samples_a, samples_b, alpha=rc_a.alpha)
            row.update(t=result.t, df=result.df, p=result.p, significant=result.significant)
        except ValueError:
            pass
        rows.append(row)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["metric,count_a,mean_a,count_b,mean_b,t,df,p,significant"]
    for r in rows:
        lines.append(
            f"{r['metric']},{r['count_a']},{_fmt(r['mean_a'])},{r['count_b']},"
            f"{_fmt(r['mean_b'])},{_fmt(r['t'])},{_fmt(r['df'])},{_fmt(r['p'])},"
            f"{'true' if r['significant'] else 'false'}"
        )
    _write_text(out_dir / "comparison.csv", "\n".join(lines) + "\n")
    return rows


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _input_errors(func):
    """Map input/configuration problems to exit 2, anything else to exit 1."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except IngestError as exc:
            _fail(str(exc), 2)
        except (FileNotFoundError, NotADirectoryError) as exc:
            _fail(f"cannot open {exc.filename}", 2)
        except (ValueError, json.JSONDecodeError) as exc:
            _fail(str(exc), 2)
        except (click.ClickException, SystemExit):
            raise
        except Exception as exc:  # internal error
            _fail(f"internal: {exc!r}", 1)

    return wrapper


def _parse_thresholds(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse thresholds {raw!r}") from exc


@click.group()
def main() -> None:
    """Viewpoint-diversity analytics over seed/follower tweet datasets."""


@main.command("analyze")
@click.option("--config", "config_path", required=True, help="Country config JSON.")
@click.option("--users", "users_path", required=True, help="Users JSONL file.")
@click.option("--tweets", "tweets_path", required=True, help="Tweets JSONL file.")
@click.option("--spam", "spam_path", default=None, help="Spam id list, one per line.")
@click.option("--out", "out_dir", required=True, help="Report output directory.")
@click.option("--bin-width", default=0.05, show_default=True)
@click.option("--thresholds", default="0.5,0.05,0.01", show_default=True)
@click.option("--io-margin", default=0.15, show_default=True)
@click.option("--alpha", default=0.01, show_default=True)
@_input_errors
def analyze_command(
    config_path, users_path, tweets_path, spam_path, out_dir, bin_width,
    thresholds, io_margin, alpha,
) -> None:
    """Compute per-user metrics, population summary, and distributions."""
    rc = RunConfig(
        config_path=Path(config_path),
        users_path=Path(users_path),
        tweets_path=Path(tweets_path),
        spam_path=Path(spam_path) if spam_path else None,
        out_dir=Path(out_dir),
        bin_width=bin_width,
        thresholds=_parse_thresholds(thresholds),
        io_margin=io_margin,
        alpha=alpha,
    )
    summary = cmd_analyze(rc)
    ds = summary["dataset"]
    click.echo(
        f"analyzed {ds['regular_users']} regular users "
        f"({ds['seed_users']} seeds, {ds['tweets']} tweets) -> {rc.out_dir}"
    )


@main.command("compare")
@click.option("--config", "config_paths", required=True, multiple=True)
@click.option("--users", "users_paths", required=True, multiple=True)
@click.option("--tweets", "tweets_paths", required=True, multiple=True)
@click.option("--spam", "spam_paths", multiple=True)
@click.option("--out", "out_dir", required=True)
@click.option("--io-margin", default=0.15, show_default=True)
@click.option("--alpha", default=0.01, show_default=True)
@_input_errors
def compare_command(
    config_paths, users_paths, tweets_paths, spam_paths, out_dir, io_margin, alpha
) -> None:
    """Compare two datasets (give --config/--users/--tweets twice: A then B)."""
    if not (len(config_paths) == len(users_paths) == len(tweets_paths) == 2):
        raise ValueError("compare needs --config, --users and --tweets exactly twice")
    if spam_paths and len(spam_paths) != 2:
        raise ValueError("give --spam either zero or two times")

    def rc_for(i: int) -> RunConfig:
        return RunConfig(
            config_path=Path(config_paths[i]),
            users_path=Path(users_paths[i]),
            tweets_path=Path(tweets_paths[i]),
            spam_path=Path(spam_paths[i]) if spam_paths else None,
            out_dir=Path(out_dir),
            io_margin=io_margin,
            alpha=alpha,
        )

    rows = cmd_compare(rc_for(0), rc_for(1), Path(out_dir))
    for r in rows:
        flag = "significant" if r["significant"] else "not significant"
        click.echo(
            f"{r['metric']}: mean_a={_fmt(r['mean_a'])} mean_b={_fmt(r['mean_b'])} "
            f"t={_fmt(r['t'])} p={_fmt(r['p'])} ({flag} at alpha={alpha:g})"
        )


@main.command("synth")
@click.option("--preset", default=None, help="Named preset (see `presets`).")
@click.option("--params", "params_path", default=None, help="SynthParams JSON file.")
@click.option("--rng-seed", default=None, type=int, help="Override the RNG seed.")
@click.option("--out", "out_dir", required=True)
@_input_errors
def synth_command(preset, params_path, rng_seed, out_dir) -> None:
    """Generate a synthetic dataset as ingest-compatible files."""
    from . import synth as synth_mod  # numpy; only this command needs it

    if (preset is None) == (params_path is None):
        raise ValueError("give exactly one of --preset or --params")
    if preset is not None:
        try:
            params = synth_mod.presets()[preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {preset!r}; available: "
                + ", ".join(sorted(synth_mod.presets()))
            ) from None
    else:
        raw = json.loads(Path(params_path).read_text(encoding="utf-8"))
        known = {f.name for f in fields(synth_mod.SynthParams)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown synth params: {sorted(unknown)}")
        for key in ("category_weights", "minority_categories"):
            if isinstance(raw.get(key), list):
                raw[key] = tuple(raw[key])
        params = synth_mod.SynthParams(**raw)
    if rng_seed is not None:
        params = replace(params, rng_seed=rng_seed)

    dataset = synth_mod.generate(params)
    paths = ingest_mod.write_dataset(dataset, Path(out_dir))
    click.echo(
        f"wrote {len(dataset.users)} users, {len(dataset.tweets)} tweets "
        f"to {paths['users'].parent}"
    )


@main.command("validate")
@click.option("--config", "config_path", required=True)
@click.option("--users", "users_path", required=True)
@click.option("--tweets", "tweets_path", required=True)
@click.option("--spam", "spam_path", default=None)
@_input_errors
def validate_command(config_path, users_path, tweets_path, spam_path) -> None:
    """Ingest and validate without computing metrics; prints the report."""
    rc = RunConfig(
        config_path=Path(config_path),
        users_path=Path(users_path),
        tweets_path=Path(tweets_path),
        spam_path=Path(spam_path) if spam_path else None,
        out_dir=Path("."),
    )
    dataset, report, diagnostics = _load(rc)
    click.echo(
        f"ok: {len(dataset.seed_users())} seeds, "
        f"{len(dataset.regular_users())} regulars, {len(dataset.tweets)} tweets"
    )
    click.echo(
        f"users_read={report.users_read} dropped_spam={report.users_dropped_spam} "
        f"dropped_threshold={report.users_dropped_threshold} "
        f"tweets_read={report.tweets_read} "
        f"tweets_dropped_dangling={report.tweets_dropped_dangling}"
    )
    for d in diagnostics:
        click.echo(f"line {d.line_no}: {d.message}", err=True)


if __name__ == "__main__":
    main()
