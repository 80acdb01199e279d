"""Distribution, threshold fraction, and Welch t-test behavior."""

import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy import stats as scipy_stats

from viewdiv import distribution, fraction_below, welch_t_test


def test_distribution_boundary_semantics():
    dist = distribution([0.0, 0.049, 0.05], bin_width=0.05)
    assert dist.bin_counts[0] == 2 and dist.bin_counts[1] == 1
    assert sum(dist.bin_counts) == dist.count == 3


def test_distribution_last_bin_closed_at_one():
    dist = distribution([1.0, 0.999], bin_width=0.05)
    assert len(dist.bin_counts) == 20
    assert dist.bin_counts[-1] == 2
    assert dist.bin_edges()[-1] == (pytest.approx(0.95), 1.0)


def test_distribution_empty():
    dist = distribution([], bin_width=0.05)
    assert dist.count == 0 and dist.bin_counts == (0,) * 20


def test_distribution_rejects_out_of_range():
    with pytest.raises(ValueError):
        distribution([0.5, 1.2])
    with pytest.raises(ValueError):
        distribution([-0.1])
    with pytest.raises(ValueError):
        distribution([0.5], bin_width=0.0)


def test_distribution_uniform_chi_square_sanity():
    rng = random.Random(12345)
    samples = [rng.random() for _ in range(1000)]
    dist = distribution(samples, bin_width=0.05)
    assert sum(dist.bin_counts) == 1000
    chi2, p = scipy_stats.chisquare(dist.bin_counts)
    assert p > 0.001  # uniform samples should not wildly contradict uniformity
    assert all(20 <= c <= 90 for c in dist.bin_counts)


@given(st.lists(st.floats(0.0, 1.0), max_size=50), st.randoms(use_true_random=False))
def test_distribution_permutation_invariant(samples, rnd):
    base = distribution(samples).bin_counts
    shuffled = samples[:]
    rnd.shuffle(shuffled)
    assert distribution(shuffled).bin_counts == base


def test_fraction_below_examples():
    assert fraction_below([0.2, 0.6, 0.7], 0.5) == pytest.approx(1 / 3)
    assert fraction_below([0.5, 0.6], 0.5) == 0.0  # strict inequality
    assert fraction_below([], 0.5) is None


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_fraction_below_monotone_in_threshold(samples, t1, t2):
    lo, hi = sorted((t1, t2))
    assert fraction_below(samples, lo) <= fraction_below(samples, hi)


def test_welch_identical_samples():
    """Equal means give t = 0 and p = 1 exactly, also when the variances
    differ."""
    for b in ([1.0, 2.0, 3.0], [0.0, 2.0, 4.0]):
        result = welch_t_test([1.0, 2.0, 3.0], b)
        assert result.t == 0.0 and result.p == 1.0 and not result.significant


def test_welch_worked_example():
    result = welch_t_test([1, 2, 3, 4, 5], [3, 4, 5, 6, 7])
    assert result.t == pytest.approx(-2.0, abs=1e-12)
    assert result.df == pytest.approx(8.0, abs=1e-12)
    assert result.p == pytest.approx(0.0805, abs=5e-4)
    ref_t, ref_p = scipy_stats.ttest_ind([1, 2, 3, 4, 5], [3, 4, 5, 6, 7], equal_var=False)
    assert result.p == pytest.approx(float(ref_p), abs=1e-12)


def test_welch_extreme_separation_significant():
    result = welch_t_test([0.01, 0.02, 0.015, 0.012], [0.9, 0.91, 0.92, 0.93], alpha=0.01)
    assert result.p < 0.001 and result.significant


def test_welch_antisymmetry_exact():
    rng = random.Random(7)
    a = [rng.gauss(0.4, 0.1) for _ in range(15)]
    b = [rng.gauss(0.5, 0.2) for _ in range(9)]
    fwd = welch_t_test(a, b)
    rev = welch_t_test(b, a)
    assert fwd.t == -rev.t and fwd.p == rev.p and fwd.df == rev.df


def test_welch_contract_violations():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        welch_t_test([2.0, 2.0], [3.0, 3.0])  # zero variance on both sides


@pytest.mark.parametrize("a, b", [
    # the squared variances underflow to 0 in the Welch-Satterthwaite df
    ([0, 1e-160, 2e-160], [0, 1e-160, 3e-160]),
    # the squared deviations overflow
    ([1e160, 2e160, 3e160], [1e160, 2e160, 4e160]),
    ([0.1, math.nan, 0.3], [0.2, 0.4, 0.6]),
    ([0.1, 0.2, 0.3], [0.2, -math.inf, 0.6]),
], ids=["underflow", "overflow", "nan", "inf"])
def test_welch_refuses_what_a_double_cannot_hold(a, b):
    """Each raised ZeroDivisionError or OverflowError, or returned t = df =
    p = nan, before the t-test refused it."""
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="^t or df is not finite for these samples$"):
            welch_t_test(first, second)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's own constant-data advisory
def test_welch_one_constant_side_is_allowed():
    result = welch_t_test([2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    ref_t, ref_p = scipy_stats.ttest_ind(
        [2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], equal_var=False
    )
    assert result.t == pytest.approx(float(ref_t), abs=1e-12)
    assert result.p == pytest.approx(float(ref_p), abs=1e-12)


def test_welch_against_reference_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(10):
        a = [rng.gauss(rng.uniform(0, 1), rng.uniform(0.05, 0.4)) for _ in range(rng.randint(3, 40))]
        b = [rng.gauss(rng.uniform(0, 1), rng.uniform(0.05, 0.4)) for _ in range(rng.randint(3, 40))]
        mine = welch_t_test(a, b)
        ref_t, ref_p = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert mine.t == pytest.approx(float(ref_t), abs=1e-9)
        assert mine.p == pytest.approx(float(ref_p), abs=1e-9)
