"""Duration cells: outlier rule, summary statistics, histograms."""

import numpy as np
import pytest
from scipy.special import gammainc

from vlcontrast.durations import (
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
    assert filter_outliers(shifted).samples.tolist() == [50.0] * 9 + [60.0, 50.0]


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


def test_histogram_two_points():
    counts = build_histogram(np.array([70.0, 130.0]), 10.0)
    assert counts.size == 14  # bins [0,10) .. [130,140)
    assert counts[7] == 1 and counts[13] == 1
    assert counts.sum() == 2
    densities = counts / (counts.sum() * 10.0)
    assert densities[7] == pytest.approx(0.05)
    assert densities[13] == pytest.approx(0.05)
    assert not counts.flags.writeable


def test_histogram_normalization():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = rng.gamma(4.0, 20.0, int(rng.integers(1, 500)))
        width = rng.uniform(1.0, 25.0)
        counts = build_histogram(data, width)
        assert counts.sum() == len(data)
        densities = counts / (len(data) * width)
        assert sum(d * width for d in densities) == pytest.approx(1.0, abs=1e-9)


def test_histogram_empty():
    counts = build_histogram(np.empty(0), 10.0)
    assert counts.size == 0


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        build_histogram(np.array([1.0]), 0.0)


def test_histogram_matches_analytic_bin_probabilities():
    # oracle: gamma bin mass from the regularized incomplete gamma function
    k, theta, width = 4.0, 20.0, 10.0
    draws = sample_gamma(k, theta, 10_000, seed=424242)
    counts = build_histogram(np.asarray(draws), width)
    for i, density in enumerate(counts / (len(draws) * width)):
        lo, hi = i * width, (i + 1) * width
        p = gammainc(k, hi / theta) - gammainc(k, lo / theta)
        assert abs(density - p / width) < 0.002


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
