"""Duration cells: outlier rule, summary statistics, histograms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc

from vlcontrast.durations import (
    HISTOGRAM_BINS_MAX,
    DurationSampleSet,
    build_histogram,
    collect_cells,
    filter_outliers,
)
from vlcontrast.alignment import CELLS, TokenTable
from vlcontrast.features import contrast_report
from vlcontrast.synthgen import sample_gamma


def cell(samples, vowel="a", length="short", corpus="t"):
    return DurationSampleSet(vowel, length, corpus, tuple(samples))


def test_sample_set_stats():
    c = cell([70.0, 130.0])
    assert c.n == 2
    assert contrast_report("a", "t", c.samples, ()).mean_short_ms == pytest.approx(100.0)


def test_filter_bounds_use_the_n_minus_1_sd():
    # mean 54, sd 6*sqrt(3) = 10.39 (n - 1 denominator): 84 < 54 + 3 sd is
    # kept; the n-denominator sd 9.91 would put it past the bound
    c = cell([50.0] * 9 + [60.0, 84.0])
    assert float(np.std(c.samples, ddof=1)) == pytest.approx(6.0 * np.sqrt(3.0))
    assert filter_outliers(c) is c
    shifted = cell([50.0] * 9 + [60.0, 84.0, 50.0])  # bound 53.67 + 3 * 9.98 = 83.59
    assert filter_outliers(shifted).samples.tolist() == [50.0] * 10 + [60.0]


def test_sample_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        cell([70.0, 0.0])
    with pytest.raises(ValueError):
        cell([-3.0])


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_sample_set_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        cell([1.0, bad])


def test_sample_set_is_a_read_only_1d_copy():
    source = np.array([70.0, 130.0])
    c = DurationSampleSet("a", "short", "t", source)
    source[0] = 1.0
    assert c.samples.dtype == np.float64 and c.samples.tolist() == [70.0, 130.0]
    with pytest.raises(ValueError):
        c.samples[0] = 1.0
    with pytest.raises(ValueError):
        DurationSampleSet("a", "short", "t", [[70.0, 80.0]])


def test_sample_set_holds_its_samples_sorted():
    source = np.array([130.0, 70.0, 100.0, 70.0])
    c = DurationSampleSet("a", "short", "t", source)
    assert c.samples.tolist() == [70.0, 70.0, 100.0, 130.0]
    assert source.tolist() == [130.0, 70.0, 100.0, 70.0]
    with pytest.raises(ValueError, match="1-d"):  # checked before the sort
        DurationSampleSet("a", "short", "t", 70.0)


def test_summary_empty_and_singleton():
    empty, single = cell([]), cell([81.0])
    assert (empty.n, single.n) == (0, 1)
    rep = contrast_report("a", "t", empty.samples, single.samples)
    assert ((rep.n_short, rep.mean_short_ms, rep.n_long, rep.mean_long_ms)
            == (0, None, 1, 81.0))


def test_summary_seeded_gamma_mean():
    draws = sample_gamma(4.0, 20.0, 10_000, seed=424242)
    assert abs(contrast_report("a", "t", draws, draws).mean_short_ms - 80.0) < 1.0


def test_filter_outliers_trivial_cases():
    empty = cell([])
    assert filter_outliers(empty) is empty
    constant = cell([80.0] * 100)
    assert filter_outliers(constant) is constant  # sigma = 0 branch
    single = cell([80.0])
    assert filter_outliers(single) is single


def test_filter_outliers_removes_planted_value():
    # plant one value at mu + 5 sd of the drawn base sample; with this seed
    # every base sample survives the 3-sigma keep rule of the padded set
    base = sample_gamma(100.0, 1.0, 999, seed=3)
    arr = np.asarray(base)
    plant = float(arr.mean() + 5.0 * arr.std(ddof=1))
    c = cell(list(base) + [plant])
    filtered = filter_outliers(c)
    assert filtered.n == 999
    assert plant not in filtered.samples
    assert sorted(filtered.samples) == sorted(base)


def test_filter_outliers_single_pass_not_iterated():
    # after one pass the survivors would define tighter bounds; the rule
    # must not be re-applied
    data = [50.0] * 96 + [10.0, 10.5, 95.0, 96.0]
    c = cell(data)
    filtered = filter_outliers(c)
    refiltered = filter_outliers(filtered)
    assert filtered.n >= refiltered.n or filtered.samples == refiltered.samples


def test_filter_outliers_is_submultiset_within_bounds():
    rng = np.random.default_rng(21)
    for _ in range(25):
        data = rng.gamma(rng.uniform(1.0, 12.0), rng.uniform(5.0, 30.0),
                         int(rng.integers(2, 300)))
        c = cell(data)
        out = filter_outliers(c)
        mean, sd = c.samples.mean(), c.samples.std(ddof=1)
        remaining = list(c.samples)
        for x in out.samples:
            remaining.remove(x)  # raises if not a sub-multiset
            assert mean - 3 * sd < x < mean + 3 * sd


# Cells whose 3-sigma bound, computed exactly in any summation order, is
# one of their samples: mean 12, sd 7, upper bound 33; and its mirror
# 40 - x, with mean 28, sd 7, lower bound 7.  The rule drops the sample.
ON_THE_BOUND = ([6.0] * 4 + [12.0] * 5 + [13.0] * 3 + [33.0],
                [34.0] * 4 + [28.0] * 5 + [27.0] * 3 + [7.0])


def _mask_rule(samples):
    """The 3-sigma keep rule as a boolean mask over `samples`."""
    if samples.size < 2:
        return samples
    mean, sd = float(samples.mean()), float(samples.std(ddof=1))
    if sd == 0.0:
        return samples
    return samples[(mean - 3.0 * sd < samples) & (samples < mean + 3.0 * sd)]


@pytest.mark.parametrize("data", ON_THE_BOUND)
def test_a_sample_on_the_bound_is_dropped_in_any_input_order(data):
    samples = np.array(data)
    assert samples.std(ddof=1) == 7.0
    (bound,) = {samples.mean() - 21.0, samples.mean() + 21.0} & set(data)
    kept = sorted(x for x in data if x != bound)
    for order in (data, data[::-1], np.random.default_rng(2).permutation(data)):
        assert filter_outliers(cell(order)).samples.tolist() == kept


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
           # ties: few distinct values, some far out
           st.lists(st.sampled_from([0.5, 3.0, 40.0, 41.0, 55.25, 90.0, 1e4]),
                    max_size=60),
           st.lists(st.floats(0.01, 1e4), max_size=60),
           st.tuples(st.sampled_from(ON_THE_BOUND),
                     st.integers(-3, 3)).map(lambda t: [x * 2.0 ** t[1]
                                                        for x in t[0]])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_slice_filter_keeps_what_the_mask_rule_keeps(data, seed):
    shuffled = np.random.default_rng(seed).permutation(np.array(data, dtype=float))
    c = cell(shuffled)
    kept = filter_outliers(c).samples
    # the mask over the cell, whose arithmetic (the sorted sums) it shares
    assert kept.tolist() == sorted(_mask_rule(c.samples).tolist())
    # and the cell, so the kept set, does not depend on the input's order
    assert kept.tolist() == filter_outliers(cell(data)).samples.tolist()


def test_histogram_two_points():
    indexes, counts = build_histogram(np.array([70.0, 130.0]), 10.0)
    # only the bins [70, 80) and [130, 140) hold a sample
    assert indexes.tolist() == [7, 13] and counts.tolist() == [1, 1]
    assert (counts / 2 / 10.0).tolist() == [0.05, 0.05]


def test_histogram_normalization():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = np.sort(rng.gamma(4.0, 20.0, int(rng.integers(1, 500))))
        width = rng.uniform(0.5, 25.0)
        indexes, counts = build_histogram(data, width)
        # the dense counts with their zeros dropped
        dense = np.bincount(np.floor(data / width).astype(int))
        assert indexes.tolist() == np.flatnonzero(dense).tolist()
        assert counts.tolist() == dense[dense > 0].tolist()
        assert sum((counts / data.size / width) * width) == pytest.approx(1.0, abs=1e-9)


def test_histogram_empty():
    indexes, counts = build_histogram(np.empty(0), 10.0)
    assert indexes.size == counts.size == 0


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        build_histogram(np.array([1.0]), 0.0)


def test_histogram_bin_count_is_capped_before_it_allocates():
    top = np.array([1.0, HISTOGRAM_BINS_MAX - 0.5])  # in the last bin allowed
    assert build_histogram(top, 1.0)[0].tolist() == [1, HISTOGRAM_BINS_MAX - 1]
    for samples, width in ((np.array([1.0, float(HISTOGRAM_BINS_MAX)]), 1.0),
                           (np.array([300.0]), 1e-9),
                           (np.array([300.0]), 1e-300)):
        with pytest.raises(ValueError, match="'bin_width_ms'"):
            build_histogram(samples, width)


def test_histogram_matches_analytic_bin_probabilities():
    # oracle: gamma bin mass from the regularized incomplete gamma function
    k, theta, width = 4.0, 20.0, 10.0
    draws = np.sort(sample_gamma(k, theta, 10_000, seed=424242))
    for i, count in zip(*build_histogram(draws, width)):
        lo, hi = i * width, (i + 1) * width
        p = gammainc(k, hi / theta) - gammainc(k, lo / theta)
        assert abs(count / (len(draws) * width) - p / width) < 0.002


def test_collect_cells_groups_by_vowel_and_length():
    codes = [CELLS.index(key) for key in (
        ("a", "short"), ("a", "long"), ("a", "short"), ("i", "short"))]
    toks = TokenTable(np.array(codes), np.array([70.0, 130.0, 75.0, 60.0]),
                      ("u1", "u2"), np.array([0, 0, 1, 1]))
    cells = collect_cells(toks, "c")
    assert set(cells) == {("a", "short"), ("a", "long"), ("i", "short")}
    assert cells[("a", "short")].samples.tolist() == [70.0, 75.0]
    assert cells[("a", "long")].n == 1
    assert {c.corpus_id for c in cells.values()} == {"c"}


def test_collect_cells_do_not_depend_on_the_token_order():
    rng = np.random.default_rng(5)
    keys = (("u", "long"), ("i", "short"), ("a", "long"), ("a", "short"))
    codes = np.repeat([CELLS.index(key) for key in keys], 50)
    durations = rng.gamma(6.0, 12.0, codes.size)
    runs = []
    for order in (np.arange(codes.size), rng.permutation(codes.size),
                  np.arange(codes.size)[::-1]):
        toks = TokenTable(codes[order], durations[order], ("u1",),
                          np.zeros(codes.size, dtype=np.intp))
        cells = collect_cells(toks, "c")
        assert list(cells) == [key for key in CELLS if key in keys]
        runs.append({key: c.samples.tolist() for key, c in cells.items()})
    assert runs[0] == runs[1] == runs[2]
    assert all(samples == sorted(samples) for samples in runs[0].values())
