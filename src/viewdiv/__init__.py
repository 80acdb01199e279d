"""Viewpoint-diversity metrics for seed/follower social graphs."""

from .ingest import (
    IngestError,
    IngestReport,
    ParseDiagnostic,
    load_country_config,
    load_dataset,
    parse_spam,
    parse_tweets,
    parse_users,
    write_dataset,
)
from .metrics import (
    UserMetrics,
    WingMatrix,
    compute_all,
    normalized_entropy,
    seed_interaction_matrix,
)
from .model import (
    CountryConfig,
    Dataset,
    PoliticalCategory,
    TweetKind,
    TweetTable,
    UserKind,
    UserTable,
    Wing,
    validate_config,
)
from .stats import (
    MetricDistribution,
    TTestResult,
    distribution,
    fraction_below,
    welch_t_test,
)

__version__ = "0.1.0"

# Names whose module analyze never imports, loaded on first use: the
# generator needs numpy, and the oracle only checks the fast path.
_LAZY_MODULES = {
    "SynthParams": "synth",
    "generate": "synth",
    "presets": "synth",
    "oracle_metrics": "oracle",
}


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_MODULES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CountryConfig",
    "Dataset",
    "IngestError",
    "IngestReport",
    "MetricDistribution",
    "ParseDiagnostic",
    "PoliticalCategory",
    "SynthParams",
    "TTestResult",
    "TweetKind",
    "TweetTable",
    "UserKind",
    "UserMetrics",
    "UserTable",
    "Wing",
    "WingMatrix",
    "compute_all",
    "distribution",
    "fraction_below",
    "generate",
    "load_country_config",
    "load_dataset",
    "normalized_entropy",
    "oracle_metrics",
    "parse_spam",
    "parse_tweets",
    "parse_users",
    "presets",
    "seed_interaction_matrix",
    "validate_config",
    "welch_t_test",
    "write_dataset",
]
