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
from vlcontrast.alignment import VowelToken
from vlcontrast.synthgen import sample_gamma


def cell(samples, vowel="a", length="short", corpus="t"):
    return DurationSampleSet(vowel, length, corpus, tuple(samples))


def test_sample_set_stats():
    c = cell([70.0, 130.0])
    assert c.n == 2
    assert c.mean_ms == pytest.approx(100.0)
    assert c.sd_ms == pytest.approx(42.42640687119285)


def test_sample_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        cell([70.0, 0.0])
    with pytest.raises(ValueError):
        cell([-3.0])


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
    empty = cell([])
    assert (empty.n, empty.mean_ms, empty.sd_ms) == (0, None, None)
    single = cell([81.0])
    assert (single.n, single.mean_ms, single.sd_ms) == (1, 81.0, None)


def test_summary_seeded_gamma_mean():
    draws = sample_gamma(4.0, 20.0, 10_000, seed=424242)
    assert abs(cell(draws).mean_ms - 80.0) < 1.0


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
        remaining = list(c.samples)
        for x in out.samples:
            remaining.remove(x)  # raises if not a sub-multiset
            assert c.mean_ms - 3 * c.sd_ms < x < c.mean_ms + 3 * c.sd_ms


def test_histogram_two_points():
    h = build_histogram(cell([70.0, 130.0]), 10.0)
    assert h.nbins == 14  # bins [0,10) .. [130,140)
    assert h.counts[7] == 1 and h.counts[13] == 1
    assert sum(h.counts) == 2
    assert h.densities[7] == pytest.approx(0.05)
    assert h.densities[13] == pytest.approx(0.05)
    assert h.density_at(70.0) == pytest.approx(0.05)
    assert h.density_at(69.999) == 0.0
    assert h.density_at(1e6) == 0.0


def test_histogram_normalization():
    rng = np.random.default_rng(31)
    for _ in range(10):
        data = rng.gamma(4.0, 20.0, int(rng.integers(1, 500)))
        h = build_histogram(cell(data), rng.uniform(1.0, 25.0))
        assert sum(h.counts) == len(data)
        assert sum(d * h.bin_width_ms for d in h.densities) == pytest.approx(
            1.0, abs=1e-9)


def test_histogram_empty():
    h = build_histogram(cell([]), 10.0)
    assert h.nbins == 0
    assert h.counts == () and h.densities == ()


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        build_histogram(cell([1.0]), 0.0)


def test_histogram_matches_analytic_bin_probabilities():
    # oracle: gamma bin mass from the regularized incomplete gamma function
    k, theta, width = 4.0, 20.0, 10.0
    draws = sample_gamma(k, theta, 10_000, seed=424242)
    h = build_histogram(cell(draws), width)
    for i in range(h.nbins):
        lo, hi = i * width, (i + 1) * width
        p = gammainc(k, hi / theta) - gammainc(k, lo / theta)
        assert abs(h.densities[i] - p / width) < 0.002


def test_collect_cells_groups_by_vowel_and_length():
    toks = [
        VowelToken("a", "short", 70.0, "u1", None),
        VowelToken("a", "long", 130.0, "u1", None),
        VowelToken("a", "short", 75.0, "u2", None),
        VowelToken("i", "short", 60.0, "u2", None),
    ]
    cells = collect_cells(toks, "c")
    assert set(cells) == {("a", "short"), ("a", "long"), ("i", "short")}
    assert cells[("a", "short")].samples.tolist() == [70.0, 75.0]
    assert cells[("a", "long")].n == 1
    assert {c.corpus_id for c in cells.values()} == {"c"}
