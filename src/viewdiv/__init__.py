"""Viewpoint-diversity metrics for seed/follower social graphs."""

from .exposure import (
    CategoryHistogram,
    ExposureIndex,
    ExposureTimeline,
    category_histogram,
    direct_timeline,
    indirect_timeline,
    output_histograms,
)
from .ingest import (
    IngestError,
    IngestReport,
    ParseDiagnostic,
    build_dataset,
    filter_active_regulars,
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
    io_correlation,
    minority_exposure,
    minority_reach,
    normalized_entropy,
    output_diversity,
    seed_interaction_matrix,
    source_diversity,
)
from .model import (
    CountryConfig,
    Dataset,
    PoliticalCategory,
    TweetKind,
    TweetRecord,
    UserKind,
    UserRecord,
    Wing,
    classify_wing,
    validate_config,
)
from .oracle import oracle_metrics
from .stats import (
    MetricDistribution,
    TTestResult,
    distribution,
    fraction_below,
    welch_t_test,
)

__version__ = "0.1.0"

# The generator needs numpy, which analyze never uses; load it on first use.
_SYNTH_NAMES = frozenset({"SynthParams", "generate", "presets"})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CategoryHistogram",
    "CountryConfig",
    "Dataset",
    "ExposureIndex",
    "ExposureTimeline",
    "IngestError",
    "IngestReport",
    "MetricDistribution",
    "ParseDiagnostic",
    "PoliticalCategory",
    "SynthParams",
    "TTestResult",
    "TweetKind",
    "TweetRecord",
    "UserKind",
    "UserMetrics",
    "UserRecord",
    "Wing",
    "WingMatrix",
    "build_dataset",
    "category_histogram",
    "classify_wing",
    "compute_all",
    "direct_timeline",
    "distribution",
    "filter_active_regulars",
    "fraction_below",
    "generate",
    "indirect_timeline",
    "io_correlation",
    "load_country_config",
    "load_dataset",
    "minority_exposure",
    "minority_reach",
    "normalized_entropy",
    "oracle_metrics",
    "output_diversity",
    "output_histograms",
    "parse_spam",
    "parse_tweets",
    "parse_users",
    "presets",
    "seed_interaction_matrix",
    "source_diversity",
    "validate_config",
    "welch_t_test",
    "write_dataset",
]
