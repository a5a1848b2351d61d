"""Gamma special functions, MLE fitting, density and mode."""

import math
import time

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from vlcontrast.gamma import (
    DegenerateDataError,
    GammaFit,
    NoInteriorModeError,
    digamma,
    fit_gamma,
    gamma_cdf,
    gamma_log_likelihood,
    gamma_mode,
    gamma_pdf,
    log_gamma,
    moment_estimate,
    trigamma,
)
from vlcontrast.synthgen import sample_gamma


def test_log_gamma_matches_libm():
    for x in (0.05, 0.1, 0.37, 0.5, 0.99, 1.0, 1.5, 2.0, 3.7, 8.0, 17.3,
              123.4, 1234.5):
        ref = math.lgamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_digamma_trigamma_match_scipy():
    rng = np.random.default_rng(1)
    for x in np.concatenate([[0.01, 0.1, 0.5, 1.0, 2.0, 9.99, 10.0, 10.01],
                             rng.uniform(0.02, 200.0, 50)]):
        assert abs(digamma(x) - sp.digamma(x)) < 1e-10
        assert abs(trigamma(x) - sp.polygamma(1, x)) < 1e-10


def test_special_functions_reject_nonpositive():
    for fn in (log_gamma, digamma, trigamma):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(-1.0)


def test_moment_initializer_closed_form():
    # sample mean 80, sample variance 1600 -> k0 = 4, theta0 = 20 exactly
    k0, theta0 = moment_estimate([40.0, 80.0, 120.0])
    assert k0 == pytest.approx(4.0, abs=1e-12)
    assert theta0 == pytest.approx(20.0, abs=1e-12)


def test_fit_recovers_seeded_gamma():
    draws = sample_gamma(4.0, 20.0, 10_000, seed=424242)
    fit = fit_gamma(draws)
    assert 3.8 <= fit.shape <= 4.2
    assert 18.5 <= fit.scale <= 21.5
    assert fit.converged
    assert fit.n_used == 10_000


def test_fit_degenerate_data():
    with pytest.raises(DegenerateDataError):
        fit_gamma([50.0] * 50)  # zero spread
    with pytest.raises(DegenerateDataError):
        fit_gamma([50.0])
    with pytest.raises(DegenerateDataError):
        fit_gamma([])
    with pytest.raises(ValueError):
        fit_gamma([1.0, -2.0, 3.0])


@pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
def test_fit_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError) as err:
        fit_gamma([70.0, 80.0, bad])
    assert str(err.value) == "gamma fitting requires finite samples, got NaN or infinity"


def test_fit_low_n_flagged_but_returned():
    draws = sample_gamma(4.0, 20.0, 12, seed=5)
    fit = fit_gamma(draws)
    assert fit.shape > 0 and fit.scale > 0


def test_mle_beats_moment_initializer():
    rng = np.random.default_rng(7)
    for trial in range(30):
        k = rng.uniform(0.8, 25.0)
        theta = rng.uniform(2.0, 60.0)
        n = int(rng.integers(25, 400))
        if trial % 3 == 2:
            data = rng.uniform(1.0, 100.0, n)  # not gamma at all
        else:
            data = rng.gamma(k, theta, n)
        fit = fit_gamma(data)
        k0, theta0 = moment_estimate(data)
        ll_init = gamma_log_likelihood(k0, theta0, data)
        assert fit.log_likelihood >= ll_init - 1e-9


def test_fit_scale_equivariance():
    draws = sample_gamma(6.0, 11.5, 800, seed=99)
    base = fit_gamma(draws)
    for c in (0.5, 2.0, 10.0):
        scaled = fit_gamma([c * x for x in draws])
        assert scaled.shape == pytest.approx(base.shape, rel=1e-6)
        assert scaled.scale == pytest.approx(c * base.scale, rel=1e-6)


def test_fit_runtime_under_50ms():
    draws = sample_gamma(4.0, 20.0, 10_000, seed=424242)
    start = time.perf_counter()
    fit_gamma(draws)
    assert time.perf_counter() - start < 0.050


def test_gamma_cdf_matches_scipy_gammainc():
    rng = np.random.default_rng(5)
    shapes = np.concatenate([[0.05, 0.3, 0.5, 1.0, 1.5, 4.0, 17.3, 60.0],
                             rng.uniform(0.05, 60.0, 40)])
    for k in shapes:
        k = float(k)
        # x on both sides of the series / continued-fraction switch at k + 1
        for x in (0.0, 1e-8, 0.1 * k, 0.5 * k, k, k + 0.999, k + 1.0, k + 1.001,
                  1.5 * k + 2.0, 3.0 * k + 10.0, 10.0 * k + 50.0):
            assert abs(gamma_cdf(k, x) - sp.gammainc(k, x)) <= 1e-12, (k, x)


def test_pdf_exponential_at_zero():
    assert gamma_pdf(GammaFit(1.0, 50.0), 0.0) == pytest.approx(0.02, abs=1e-15)
    assert gamma_pdf(GammaFit(4.0, 20.0), 0.0) == 0.0
    assert gamma_pdf(GammaFit(0.5, 20.0), 0.0) == math.inf


def test_pdf_matches_quadrature_normalized_kernel():
    # oracle: numerically normalized kernel x^(k-1) exp(-x/theta)
    # (frozen from a 0.01-step trapezoid normalization; scipy agrees)
    assert gamma_pdf(GammaFit(4.0, 20.0), 60.0) == pytest.approx(
        0.011202090382769387, abs=1e-9)


def test_pdf_monotone_beyond_mode():
    fit = GammaFit(4.0, 20.0)
    xs = np.arange(60.0, 400.0, 1.0)
    vals = [gamma_pdf(fit, float(x)) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_pdf_domain_error():
    with pytest.raises(ValueError):
        gamma_pdf(GammaFit(4.0, 20.0), -1.0)


def test_mode_closed_form():
    assert gamma_mode(GammaFit(1.0, 37.0)) == 0.0
    assert gamma_mode(GammaFit(4.0, 20.0)) == 60.0
    with pytest.raises(NoInteriorModeError):
        gamma_mode(GammaFit(0.5, 20.0))


def test_pdf_normalizes_for_returned_fits():
    rng = np.random.default_rng(11)
    fits = [fit_gamma(rng.gamma(rng.uniform(1.5, 20.0),
                                rng.uniform(5.0, 40.0), 200))
            for _ in range(5)]
    fits.append(GammaFit(1.1, 5.0))
    fits.append(GammaFit(30.0, 50.0))
    for fit in fits:
        upper = fit.shape * fit.scale + 40.0 * math.sqrt(fit.shape) * fit.scale
        mass, _ = quad(lambda x: gamma_pdf(fit, x), 0.0, upper,
                       epsabs=1e-10, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_mode_is_grid_argmax():
    rng = np.random.default_rng(13)
    step = 0.01
    for _ in range(100):
        fit = GammaFit(float(rng.uniform(1.1, 30.0)),
                       float(rng.uniform(5.0, 50.0)))
        mode = gamma_mode(fit)
        xs = np.arange(max(0.0, mode - 1.0), mode + 1.0 + step, step)
        vals = [gamma_pdf(fit, float(x)) for x in xs]
        assert abs(float(xs[int(np.argmax(vals))]) - mode) <= step + 1e-12
