"""Population statistics: distributions, threshold fractions, Welch's t-test.

Samples are the *defined* per-user metric values only; undefined users are
excluded upstream, never imputed.
"""

from __future__ import annotations

import math

from .model import Record


class MetricDistribution(Record):
    """Bin counts of one metric's defined values: the ``bin_width``, a
    float, the ``bin_counts``, a tuple of ints, and ``count``, their number."""

    __slots__ = ("bin_width", "bin_counts", "count")

    def bin_edges(self) -> list[tuple[float, float]]:
        edges = []
        for k in range(len(self.bin_counts)):
            lo = k * self.bin_width
            hi = min((k + 1) * self.bin_width, 1.0)
            edges.append((lo, hi))
        return edges


class TTestResult(Record):
    """One Welch's t-test: floats ``t``, ``df`` and ``p``, and whether
    ``p`` is below the test's alpha, ``significant``."""

    __slots__ = ("t", "df", "p", "significant")


# The narrowest bin a distribution takes: at most 10,000 bins, so that no
# width allocates in proportion to how small it is.
MIN_BIN_WIDTH = 1e-4


def check_bin_width(bin_width: float) -> None:
    """Refuse a bin width outside [MIN_BIN_WIDTH, 1] with a ValueError."""
    if not MIN_BIN_WIDTH <= bin_width <= 1.0:
        raise ValueError(f"bin width must be in [{MIN_BIN_WIDTH:g}, 1], got {bin_width}")


def distribution(samples, bin_width: float = 0.05) -> MetricDistribution:
    """Histogram unit-interval samples into right-open bins [k*w, (k+1)*w).

    The last bin is closed at 1.0. Bin membership is floor(x / width) on
    IEEE doubles, so values exactly on a representable boundary go to the
    upper bin. Out-of-range samples are a contract violation.
    """
    check_bin_width(bin_width)
    values = tuple(float(x) for x in samples)
    for x in values:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"sample {x} outside [0, 1]")
    n_bins = math.ceil(1.0 / bin_width - 1e-9)
    counts = [0] * n_bins
    for x in values:
        idx = min(int(x // bin_width), n_bins - 1)
        counts[idx] += 1
    return MetricDistribution(
        bin_width=bin_width,
        bin_counts=tuple(counts),
        count=len(values),
    )


def fraction_below(samples, threshold: float) -> float | None:
    """Share of samples strictly below the threshold; None on empty input."""
    values = list(samples)
    if not values:
        return None
    return sum(1 for x in values if x < threshold) / len(values)


def welch_t_test(samples_a, samples_b, alpha: float = 0.01) -> TTestResult:
    """Two-tailed Welch's unequal-variance t-test on two independent samples.

    t = (mean_a - mean_b) / sqrt(va/na + vb/nb) with sample variances, df by
    Welch-Satterthwaite, and the two-tailed p-value through the regularized
    incomplete beta function I_x(df/2, 1/2) at x = df / (df + t^2).

    Requires at least two observations per side and nonzero variance in at
    least one sample, and refuses samples that leave t or df not finite: a
    NaN or inf, or a variance whose value or square leaves a double's range.
    """
    a = [float(x) for x in samples_a]
    b = [float(x) for x in samples_b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError(f"need >= 2 samples per side, got {na} and {nb}")
    try:
        mean_a = math.fsum(a) / na
        mean_b = math.fsum(b) / nb
        var_a = math.fsum((x - mean_a) ** 2 for x in a) / (na - 1)
        var_b = math.fsum((x - mean_b) ** 2 for x in b) / (nb - 1)
        if var_a == 0.0 and var_b == 0.0:
            raise ValueError("both samples have zero variance; t is undefined")

        se_a = var_a / na
        se_b = var_b / nb
        pooled = se_a + se_b
        t = (mean_a - mean_b) / math.sqrt(pooled)
        df = pooled**2 / (se_a**2 / (na - 1) + se_b**2 / (nb - 1))
    except (OverflowError, ZeroDivisionError):
        t = df = math.nan
    if not (math.isfinite(t) and math.isfinite(df)):
        raise ValueError("t or df is not finite for these samples")
    # Imported here so that importing viewdiv does not load scipy. At t = 0,
    # x = df / df = 1, where betainc is exactly 1, so p is 1.
    from scipy.special import betainc

    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(t=t, df=df, p=p, significant=p < alpha)
