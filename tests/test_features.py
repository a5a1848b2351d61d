"""Contrast features: ratios, separated area, mode delta, report assembly."""

import numpy as np
import pytest

from oracles import area_quad, area_trapezoid
from vlcontrast.durations import DurationSampleSet, collect_cells, filter_outliers
from vlcontrast.features import (
    AREA_SIGNIFICANCE_THRESHOLD,
    compare_corpora,
    compute_area,
    compute_delta,
    compute_r1,
    compute_r2,
    contrast_report,
    density_crossings,
)
from vlcontrast.gamma import GammaFit, NoInteriorModeError, gamma_pdf
from vlcontrast.alignment import CELLS, TokenTable
from vlcontrast.synthgen import sample_gamma

FIT_S = GammaFit(4.0, 20.0)   # mode 60
FIT_L = GammaFit(9.0, 15.0)   # mode 120


def test_identity_ratios_and_area():
    assert compute_r1(FIT_S, FIT_S) == pytest.approx(1.0, abs=1e-9)
    assert compute_r2(FIT_S, FIT_S) == pytest.approx(1.0, abs=1e-9)
    assert compute_area(FIT_S, FIT_S) <= 1e-6
    assert compute_delta(FIT_S, FIT_S) == 0.0


def test_r1_r2_against_grid_oracle():
    # frozen: direct closed-form pdf evaluation at the probing modes
    assert compute_r1(FIT_S, FIT_L) == pytest.approx(
        5.6442839235947755, abs=1e-9)
    assert compute_r2(FIT_S, FIT_L) == pytest.approx(
        2.085675043432011, abs=1e-9)


def test_delta_closed_form():
    assert compute_delta(FIT_S, FIT_L) == pytest.approx(60.0)


def test_area_against_trapezoid_oracle_frozen():
    # frozen from the 0.01 ms trapezoid oracle
    assert compute_area(FIT_S, FIT_L) == pytest.approx(
        0.509125364438712, abs=1e-5)


def test_area_matches_trapezoid_oracle_random_pairs():
    rng = np.random.default_rng(67)
    for _ in range(8):
        a = GammaFit(float(rng.uniform(1.1, 20.0)), float(rng.uniform(5, 40)))
        b = GammaFit(float(rng.uniform(1.1, 20.0)), float(rng.uniform(5, 40)))
        assert compute_area(a, b) == pytest.approx(
            area_trapezoid(a, b), abs=1e-5)


def test_area_symmetric_total_variation():
    rng = np.random.default_rng(71)
    for _ in range(20):
        a = GammaFit(float(rng.uniform(1.1, 30.0)), float(rng.uniform(5, 50)))
        b = GammaFit(float(rng.uniform(1.1, 30.0)), float(rng.uniform(5, 50)))
        assert abs(compute_area(a, b) - compute_area(b, a)) < 1e-6


# Short fits against a long fit of shape < 1 (density unbounded at 0): the
# first pair crosses twice, the second once.
SUB_EXPONENTIAL_PAIRS = (
    (GammaFit(25.6487, 21.3562), GammaFit(0.39732, 39.7744)),
    (GammaFit(9.21494, 43.9306), GammaFit(0.45638, 41.4190)),
)


def test_area_matches_quad_oracle_when_long_shape_below_one():
    for fit_s, fit_l in SUB_EXPONENTIAL_PAIRS:
        assert abs(compute_area(fit_s, fit_l) - area_quad(fit_s, fit_l)) < 1e-9
        assert abs(compute_area(fit_s, fit_l) - compute_area(fit_l, fit_s)) < 1e-12


def test_density_crossings():
    (two_s, two_l), (one_s, one_l) = SUB_EXPONENTIAL_PAIRS
    cases = [
        (two_s, two_l, 2),
        (one_s, one_l, 1),
        (FIT_S, FIT_L, 2),                               # far tail
        (GammaFit(4.0, 20.0), GammaFit(4.0, 30.0), 1),   # equal shapes
        (GammaFit(4.0, 20.0), GammaFit(6.0, 20.0), 1),   # equal scales
    ]
    for fit_s, fit_l, count in cases:
        crossings = density_crossings(fit_s, fit_l)
        assert len(crossings) == count
        assert list(crossings) == sorted(crossings)
        assert density_crossings(fit_l, fit_s) == crossings
        for x in crossings:
            assert gamma_pdf(fit_l, x) == pytest.approx(gamma_pdf(fit_s, x), rel=1e-9)
    assert density_crossings(FIT_S, FIT_S) == ()
    assert compute_area(FIT_S, FIT_S) == 0.0


def test_area_in_unit_interval():
    rng = np.random.default_rng(73)
    for _ in range(20):
        a = GammaFit(float(rng.uniform(1.1, 30.0)), float(rng.uniform(5, 50)))
        b = GammaFit(float(rng.uniform(1.1, 30.0)), float(rng.uniform(5, 50)))
        area = compute_area(a, b)
        assert 0.0 <= area < 1.0


def test_monotone_separation():
    # fixed shape 6; pushing the long mode right must not shrink area/delta
    fit_s = GammaFit(6.0, 12.0)  # mode 60
    prev_area, prev_delta = -1.0, -1.0
    for gap in (0, 10, 20, 40, 80):
        fit_l = GammaFit(6.0, (60.0 + gap) / 5.0)
        area = compute_area(fit_s, fit_l)
        delta = compute_delta(fit_s, fit_l)
        assert area >= prev_area
        assert delta >= prev_delta
        if gap:
            assert area > prev_area or gap == 0
        prev_area, prev_delta = area, delta


def test_ratio_undefined_when_opposite_mass_vanishes():
    far_right = GammaFit(9.0, 1500.0)  # mode 12000 ms, no mass near 60
    assert compute_r1(FIT_S, far_right) is None
    assert compute_r2(far_right, FIT_S) is None


def test_mode_error_propagates():
    sub_exponential = GammaFit(0.5, 20.0)
    with pytest.raises(NoInteriorModeError):
        compute_r1(sub_exponential, FIT_L)
    with pytest.raises(NoInteriorModeError):
        compute_delta(FIT_S, sub_exponential)


def _filtered(samples):
    """The samples the outlier rule keeps, as run_analysis passes them on."""
    return filter_outliers(DurationSampleSet("a", "short", "t", samples)).samples


def test_contrast_report_identical_cells():
    draws = sample_gamma(6.0, 11.5, 400, seed=83)
    rep = contrast_report("a", "t", _filtered(draws), _filtered(draws))
    assert rep.r1 == pytest.approx(1.0, abs=1e-9)
    assert rep.r2 == pytest.approx(1.0, abs=1e-9)
    assert rep.area <= 1e-6
    assert rep.delta_ms == 0.0
    assert rep.significant is False
    assert rep.error is None


def test_contrast_report_significant_synthetic_a_cell():
    # engineered strong-contrast cell: generator means 69/125 ms with
    # modes 50 ms apart; true-parameter area is 0.5517
    short = sample_gamma(6.0, 11.5, 4673, seed=91)
    long_ = sample_gamma(125.0 / 17.5, 17.5, 880, seed=92)
    rep = contrast_report("a", "t", _filtered(short), _filtered(long_))
    assert rep.significant is True
    assert rep.area > AREA_SIGNIFICANCE_THRESHOLD
    assert rep.flags == frozenset()
    assert rep.n_short <= 4673 and rep.n_long <= 880  # outliers removed


def test_contrast_report_weak_synthetic_o_cell():
    short = sample_gamma(4.5625, 16.0, 881, seed=93)
    long_ = sample_gamma(102.0 / 21.0, 21.0, 710, seed=94)
    rep = contrast_report("ɔ", "t", _filtered(short), _filtered(long_))
    assert rep.significant is False
    assert rep.area < AREA_SIGNIFICANCE_THRESHOLD


def test_contrast_report_degenerate_side_carries_error():
    short = sample_gamma(6.0, 11.5, 50, seed=95)
    rep = contrast_report("a", "t", _filtered(short), _filtered([120.0]))
    assert rep.error is not None and "long" in rep.error
    assert rep.r1 is None and rep.area is None
    assert rep.significant is False
    assert "low_n_long" in rep.flags
    assert rep.n_long == 1


def test_contrast_report_low_n_flags():
    short = sample_gamma(6.0, 11.5, 15, seed=96)
    long_ = sample_gamma(7.0, 17.5, 120, seed=97)
    rep = contrast_report("a", "t", _filtered(short), _filtered(long_))
    assert "low_n_short" in rep.flags
    assert "low_n_long" not in rep.flags
    assert rep.error is None


def test_contrast_report_negative_delta_flagged():
    # long cell centred left of the short cell
    short = sample_gamma(9.0, 15.0, 300, seed=98)   # mode ~120
    long_ = sample_gamma(4.0, 20.0, 300, seed=99)   # mode ~60
    rep = contrast_report("a", "t", _filtered(short), _filtered(long_))
    assert rep.delta_ms < 0
    assert "negative_delta" in rep.flags


def test_contrast_report_names_a_non_finite_sample():
    long_ = sample_gamma(7.0, 17.5, 120, seed=97)
    rep = contrast_report("a", "t", np.array([70.0, 80.0, np.inf]), long_)
    assert rep.error == "short: gamma fitting requires finite samples, got NaN or infinity"
    assert rep.fit_short is None and rep.fit_long is not None
    assert rep.area is None and rep.significant is False
    assert (rep.n_short, rep.n_long) == (3, 120)
    # a non-finite sample leaves no mean; a finite n = 1 cell keeps its mean
    assert rep.mean_short_ms is None and rep.mean_long_ms == float(np.mean(long_))
    one = contrast_report("a", "t", long_, np.array([120.0]))
    assert one.error == "long: need at least 2 samples, got 1"
    assert one.mean_long_ms == 120.0


def test_contrast_report_outlier_filter_toggle():
    base = sample_gamma(100.0, 1.0, 999, seed=3)
    arr = np.asarray(base)
    plant = float(arr.mean() + 5.0 * arr.std(ddof=1))
    spiked = list(base) + [plant]
    long_ = sample_gamma(8.0, 16.0, 200, seed=7)
    filtered = contrast_report("a", "t", _filtered(spiked), _filtered(long_))
    raw = contrast_report("a", "t", spiked, long_)
    assert filtered.n_short == 999
    assert raw.n_short == 1000


def test_time_unit_equivariance():
    short = sample_gamma(6.0, 11.5, 500, seed=101)
    long_ = sample_gamma(7.0, 17.5, 300, seed=102)
    base = contrast_report("a", "t", _filtered(short), _filtered(long_))
    for c in (0.5, 2.0, 10.0):
        scaled = contrast_report("a", "t", _filtered([c * x for x in short]),
                                 _filtered([c * x for x in long_]))
        assert scaled.r1 == pytest.approx(base.r1, rel=1e-6)
        assert scaled.r2 == pytest.approx(base.r2, rel=1e-6)
        assert scaled.area == pytest.approx(base.area, abs=1e-6)
        assert scaled.delta_ms == pytest.approx(c * base.delta_ms, rel=1e-6)


def _tokens(vowel, length, durations):
    n = len(durations)
    return TokenTable(np.full(n, CELLS.index((vowel, length))),
                      np.array(durations, dtype=np.float64),
                      tuple(f"u{i}" for i in range(n)), np.arange(n))


def _cells(tokens, corpus):
    return {key: filter_outliers(cell).samples
            for key, cell in collect_cells(tokens, corpus).items()}


def test_compare_corpora_self_is_zero():
    toks = _tokens("a", "short", sample_gamma(6.0, 11.5, 200, seed=103))
    res = compare_corpora("a", "c1", _cells(toks, "c1"), "c1", _cells(toks, "c1"),
                          "short")
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.corpus_a == res.corpus_b == "c1"


def test_compare_corpora_null_case_fixed_seeds():
    a = _tokens("a", "short", sample_gamma(4.0, 20.0, 1000, seed=101))
    b = _tokens("a", "short", sample_gamma(4.0, 20.0, 1000, seed=202))
    res = compare_corpora("a", "A", _cells(a, "A"), "B", _cells(b, "B"), "short")
    assert res.p_value > 0.05
    assert res.vowel_class == "a"
    assert res.length_class == "short"


def test_compare_corpora_shifted_means_detected():
    a = _tokens("a", "short", sample_gamma(6.0, 69.0 / 6.0, 500, seed=301))
    b = _tokens("a", "short", sample_gamma(6.0, 94.0 / 6.0, 500, seed=302))
    res = compare_corpora("a", "A", _cells(a, "A"), "B", _cells(b, "B"), "short")
    assert res.p_value < 0.01


def _short_and_long(vowel, short, long):
    """One table of a vowel's short tokens, then its long ones."""
    n, m = len(short), len(long)
    return TokenTable(np.array([CELLS.index((vowel, "short"))] * n
                               + [CELLS.index((vowel, "long"))] * m),
                      np.concatenate([short, long]),
                      tuple(f"u{i}" for i in range(n + m)), np.arange(n + m))


def test_compare_corpora_pooled_and_errors():
    a = _short_and_long("a", sample_gamma(6.0, 11.5, 60, seed=104),
                        sample_gamma(7.0, 17.5, 40, seed=105))
    b = _short_and_long("a", sample_gamma(6.0, 11.5, 50, seed=106),
                        sample_gamma(7.0, 17.5, 30, seed=107))
    pooled = compare_corpora("a", "A", _cells(a, "A"), "B", _cells(b, "B"), "pooled")
    assert pooled.n1 <= 100 and pooled.n2 <= 80  # post filtering

    with pytest.raises(ValueError) as err:
        compare_corpora("u", "A", _cells(a, "A"), "B", _cells(b, "B"), "short")
    assert "u" in str(err.value)
    with pytest.raises(ValueError):
        compare_corpora("a", "A", _cells(a, "A"), "B", _cells(b, "B"), "sideways")
