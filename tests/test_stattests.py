"""KS two-sample test and dip statistic against independent oracles."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from oracles import dip_exhaustive, dip_pointwise, ks_d_exhaustive
from vlcontrast.stattests import (
    dip_statistic,
    dip_test,
    kolmogorov_sf,
    ks_two_sample,
)


def test_ks_identical_samples():
    res = ks_two_sample([3.0, 1.0, 2.0, 2.0], [3.0, 1.0, 2.0, 2.0])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_ks_disjoint_supports():
    res = ks_two_sample([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
    assert res.statistic == 1.0
    assert res.p_value < 1e-2


def test_ks_small_case_against_hand_count():
    res = ks_two_sample([1, 2, 3, 4], [2, 3, 4, 5])
    assert res.statistic == 0.25  # |F_x - F_y| peaks at every shared point


def test_ks_matches_exhaustive_threshold_oracle():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n1 = int(rng.integers(1, 31))
        n2 = int(rng.integers(1, 31))
        x = rng.normal(size=n1)
        y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n2)
        if rng.random() < 0.3:  # force ties across samples
            x = np.round(x, 1)
            y = np.round(y, 1)
        res = ks_two_sample(x, y)
        assert res.statistic == ks_d_exhaustive(x, y)


def test_ks_symmetry_and_bounds():
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = rng.gamma(4.0, 20.0, int(rng.integers(2, 40)))
        y = rng.gamma(5.0, 18.0, int(rng.integers(2, 40)))
        d_xy = ks_two_sample(x, y).statistic
        d_yx = ks_two_sample(y, x).statistic
        assert d_xy == d_yx
        assert 0.0 <= d_xy <= 1.0


def test_ks_rejects_empty():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [])


NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_ks_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample([1.0, 2.0, bad], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


def test_ks_rejects_non_1d():
    with pytest.raises(ValueError, match="1-d"):
        ks_two_sample(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(ValueError, match="1-d"):
        ks_two_sample([1.0, 2.0], np.ones((2, 3)))
    with pytest.raises(ValueError, match="1-d"):
        ks_two_sample(1.0, [1.0, 2.0])


def test_kolmogorov_series_matches_scipy():
    for lam in (0.02, 0.1, 0.3, 0.5, 0.8, 1.0, 1.36, 1.63, 2.5, 4.0):
        assert abs(kolmogorov_sf(lam)
                   - scipy.special.kolmogorov(lam)) < 1e-6
    assert kolmogorov_sf(0.0) == 1.0


def test_ks_p_value_uses_corrected_lambda():
    rng = np.random.default_rng(47)
    x = rng.normal(size=25)
    y = rng.normal(0.5, 1.0, size=40)
    res = ks_two_sample(x, y)
    n_eff = 25 * 40 / 65
    lam = (np.sqrt(n_eff) + 0.12 + 0.11 / np.sqrt(n_eff)) * res.statistic
    assert res.p_value == pytest.approx(
        float(scipy.special.kolmogorov(lam)), abs=1e-6)


def test_dip_equally_spaced_is_half_over_n():
    for n in (4, 8, 25):
        assert dip_statistic(np.arange(1.0, n + 1.0)) == pytest.approx(
            1.0 / (2 * n), abs=1e-12)


def test_dip_two_clusters_near_quarter():
    rng = np.random.default_rng(53)
    data = np.concatenate([rng.normal(0.0, 0.01, 100),
                           rng.normal(1.0, 0.01, 100)])
    assert abs(dip_statistic(data) - 0.25) <= 0.02


def test_dip_requires_four_points():
    with pytest.raises(ValueError):
        dip_statistic([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", NON_FINITE)
def test_dip_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        dip_statistic([1.0, 2.0, bad, 4.0, 5.0])
    with pytest.raises(ValueError, match="finite"):
        dip_test([bad] * 5)


def test_dip_rejects_non_1d():
    with pytest.raises(ValueError, match="1-d"):
        dip_statistic(np.arange(12.0).reshape(3, 4))
    with pytest.raises(ValueError, match="1-d"):
        dip_statistic(5.0)


def test_dip_all_equal_is_zero():
    assert dip_statistic([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_dip_bounds_property():
    rng = np.random.default_rng(59)
    for _ in range(30):
        n = int(rng.integers(4, 200))
        data = rng.gamma(rng.uniform(1.0, 10.0), 10.0, n)
        d = dip_statistic(data)
        assert 0.0 < d <= 0.25
        assert d >= 1.0 / (2 * n) - 1e-12


def test_dip_matches_exhaustive_modal_interval_oracle():
    rng = np.random.default_rng(61)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        if trial % 4 == 0:
            data = rng.integers(0, 4, size=n).astype(float)  # heavy ties
            if np.all(data == data[0]):
                data[0] += 1.0
        elif trial % 4 == 1:
            data = np.concatenate([rng.normal(0, 0.05, n // 2),
                                   rng.normal(1, 0.05, n - n // 2)])
        else:
            data = rng.normal(size=n)
        assert dip_statistic(data) == pytest.approx(
            dip_exhaustive(data), abs=1e-7)


def test_dip_test_wrapper():
    res = dip_test(np.arange(1.0, 9.0))
    assert res.kind == "dip"
    assert res.statistic == pytest.approx(1.0 / 16.0)
    assert res.p_value is None
    assert res.n1 == 8


# Samples for holding the tie-run dip to the per-point AS 217 loop.  Large
# samples come from a numpy generator seeded by hypothesis, so that n can
# reach a few thousand cheaply.
QUANTA_MS = (1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def quantised_durations(draw):
    """Gamma durations in ms rounded to a quantum of 1e-4 to 10 ms."""
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(4, 3000))
    quantum = draw(st.sampled_from(QUANTA_MS))
    shape = draw(st.floats(0.5, 20.0))
    x = np.round(rng.gamma(shape, 80.0 / shape, n) / quantum) * quantum
    return x + quantum  # no zero durations


untied = st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=300,
                  unique=True).map(np.array)


@st.composite
def all_equal_but_one(draw):
    n = draw(st.integers(4, 500))
    x = np.full(n, draw(st.floats(-1e3, 1e3)))
    x[draw(st.integers(0, n - 1))] = draw(st.floats(-1e3, 1e3))
    return x


@st.composite
def two_rounded_clusters(draw):
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(4, 2000))
    split = draw(st.integers(1, n - 1))
    gap = draw(st.floats(0.0, 50.0))
    x = np.concatenate([rng.normal(0.0, 3.0, split),
                        rng.normal(gap, 3.0, n - split)])
    return np.round(x, draw(st.integers(-1, 2)))


@st.composite
def repeated_extremes(draw):
    """Any of the samples above with its minimum and maximum repeated."""
    x = draw(st.one_of(quantised_durations(), untied, two_rounded_clusters()))
    lo_copies = draw(st.integers(1, 20))
    hi_copies = draw(st.integers(1, 20))
    return np.concatenate([x, np.full(lo_copies, x.min()),
                           np.full(hi_copies, x.max())])


DIP_SAMPLES = {
    "quantised": quantised_durations(),
    "untied": untied,
    "all_equal_but_one": all_equal_but_one(),
    "two_rounded_clusters": two_rounded_clusters(),
    "repeated_extremes": repeated_extremes(),
}


@pytest.mark.parametrize("family", sorted(DIP_SAMPLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dip_equals_pointwise_bit_for_bit(family, data):
    x = data.draw(DIP_SAMPLES[family])
    assert dip_statistic(x) == dip_pointwise(x)


def test_dip_equals_pointwise_on_rounded_grid_ties():
    # Steps of 0.1 ms that rounding makes slightly unequal, with ties: a
    # chord can end at the first index of a tie run and score 1 + ulp there,
    # so the scan must include chord ends that are not run ends.
    rng = np.random.default_rng(67)
    for _ in range(3000):
        n = int(rng.integers(4, 30))
        x = 1.7 + rng.integers(0, int(rng.integers(2, 12)), n) * 1e-4
        assert dip_statistic(x) == dip_pointwise(x)
