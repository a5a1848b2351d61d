"""Gamma density fitting and evaluation for vowel duration samples.

Shape/scale parametrization throughout:

    pdf(x) = x**(k-1) * exp(-x/theta) / (Gamma(k) * theta**k),  x >= 0

with shape k > 0 (dimensionless) and scale theta > 0 (milliseconds).
For k >= 1 the density has its mode at (k-1)*theta.

Fitting is maximum likelihood: method-of-moments initialization followed
by Newton iterations on log(k) against the profile log-likelihood, with
theta = mean/k substituted at every step.  Log-gamma is the standard
library's `math.lgamma`; digamma, trigamma and the incomplete gamma are
computed locally, so that results do not depend on a SciPy install.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateDataError",
    "NoInteriorModeError",
    "GammaFit",
    "log_gamma",
    "digamma",
    "trigamma",
    "gamma_cdf",
    "moment_estimate",
    "fit_gamma",
    "gamma_log_likelihood",
    "gamma_pdf",
    "gamma_mode",
]

LOW_N_THRESHOLD = 20


class DegenerateDataError(ValueError):
    """Sample too small or with zero spread; no gamma fit exists."""


class NoInteriorModeError(ValueError):
    """Shape < 1: the density is unbounded at 0 and has no interior mode."""


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (`math.lgamma`)."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Psi(x) = d/dx log Gamma(x), by recurrence + asymptotic series.

    Absolute accuracy better than 1e-12 for x > 0.
    """
    if x <= 0.0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # Bernoulli tail: 1/(12x^2) - 1/(120x^4) + 1/(252x^6) - ...
    tail = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0
                  - inv2 * (1.0 / 252.0
                            - inv2 * (1.0 / 240.0
                                      - inv2 * (1.0 / 132.0
                                                - inv2 * (691.0 / 32760.0)))))
    )
    return acc + math.log(x) - 0.5 * inv - tail


def trigamma(x: float) -> float:
    """Psi'(x), by recurrence + asymptotic series; accuracy ~1e-12."""
    if x <= 0.0:
        raise ValueError(f"trigamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7) - 1/(30x^9) + 5/(66x^11)
    tail = inv * (
        1.0
        + inv * (0.5
                 + inv * (1.0 / 6.0
                          - inv2 * (1.0 / 30.0
                                    - inv2 * (1.0 / 42.0
                                              - inv2 * (1.0 / 30.0
                                                        - inv2 * (5.0 / 66.0))))))
    )
    return acc + tail


def gamma_cdf(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma P(shape, x), x >= 0; a fit's CDF
    at t ms is gamma_cdf(fit.shape, t / fit.scale).

    Numerical Recipes `gammp`: a series for x < shape + 1, else 1 - Q by
    Lentz's continued fraction (its denominators stay >= 2 there).  Error
    below 1e-13 for shapes up to 100; beyond, the rounding of the prefactor's
    exponent makes it grow with the shape.
    """
    if x == 0.0:
        return 0.0
    prefactor = math.exp(shape * math.log(x) - x - log_gamma(shape))
    if x < shape + 1.0:
        term = total = 1.0 / shape
        denom = shape
        while term >= total * 1e-16:
            denom += 1.0
            term *= x / denom
            total += term
        return total * prefactor
    b = x + 1.0 - shape
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - shape)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return 1.0 - prefactor * h


@dataclass(frozen=True)
class GammaFit:
    """Fitted gamma density: shape k, scale theta (ms), plus diagnostics."""

    shape: float
    scale: float
    n_used: int = 0
    log_likelihood: float = math.nan
    converged: bool = True

    def __post_init__(self) -> None:
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError(
                f"gamma parameters must be positive, got shape={self.shape!r} "
                f"scale={self.scale!r}"
            )


def _as_positive_array(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("gamma fitting requires finite samples, got NaN or infinity")
    if x.size and not np.all(x > 0.0):
        raise ValueError("gamma fitting requires strictly positive samples")
    return x


def moment_estimate(samples) -> tuple[float, float]:
    """Method-of-moments (k0, theta0) = ((mean/sd)^2, sd^2/mean)."""
    x = _as_positive_array(samples)
    if x.size < 2:
        raise DegenerateDataError(f"need at least 2 samples, got {x.size}")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DegenerateDataError("zero variance sample")
    return (mean / sd) ** 2, sd * sd / mean


def gamma_log_likelihood(shape: float, scale: float, samples) -> float:
    """Sum of log pdf over the samples."""
    x = _as_positive_array(samples)
    n = x.size
    return float(
        (shape - 1.0) * np.log(x).sum()
        - x.sum() / scale
        - n * (log_gamma(shape) + shape * math.log(scale))
    )


def fit_gamma(samples) -> GammaFit:
    """Maximum-likelihood gamma fit of a positive sample.

    Accepts any 1-d sequence of positive reals, such as a duration
    cell's `samples`.  Raises DegenerateDataError for n < 2 or zero
    spread.  Fits with 2 <= n < 20 succeed but are reported low_n by the
    caller.
    """
    x = _as_positive_array(samples)
    k0, theta0 = moment_estimate(x)  # validates n and spread
    mean = float(x.mean())
    mean_log = float(np.log(x).mean())
    s = math.log(mean) - mean_log  # > 0 unless degenerate (AM-GM)
    if s <= 0.0:
        raise DegenerateDataError("zero spread sample (log-moment collapse)")

    # Newton on log k for f(k) = log k - psi(k) - s, theta = mean/k.
    k = k0
    converged = False
    for _ in range(100):
        f = math.log(k) - digamma(k) - s
        fprime = 1.0 / k - trigamma(k)  # < 0 for all k > 0
        step = -f / (k * fprime)  # step in log k
        step = max(-2.0, min(2.0, step))
        k *= math.exp(step)
        if abs(step) < 1e-10:
            converged = True
            break
    theta = mean / k

    ll = gamma_log_likelihood(k, theta, x)
    ll0 = gamma_log_likelihood(k0, theta0, x)
    if not math.isfinite(ll) or ll < ll0:
        # Newton should never lose to the initializer; keep the better point.
        k, theta, ll, converged = k0, theta0, ll0, False
    return GammaFit(shape=k, scale=theta, n_used=int(x.size),
                    log_likelihood=ll, converged=converged)


def gamma_pdf(fit: GammaFit, x: float) -> float:
    """Density of the fitted gamma at x (1/ms); domain x >= 0."""
    if x < 0.0:
        raise ValueError(f"gamma density is defined on x >= 0, got {x!r}")
    k, theta = fit.shape, fit.scale
    if x == 0.0:
        if k > 1.0:
            return 0.0
        if k == 1.0:
            return 1.0 / theta
        return math.inf
    logp = (k - 1.0) * math.log(x) - x / theta - log_gamma(k) - k * math.log(theta)
    if logp > 700.0:  # only reachable for k < 1 near the origin
        return math.inf
    if logp < -745.0:
        return 0.0
    return math.exp(logp)


def gamma_mode(fit: GammaFit) -> float:
    """Mode (k-1)*theta in ms; requires shape >= 1."""
    if fit.shape < 1.0:
        raise NoInteriorModeError(
            f"shape {fit.shape!r} < 1: density has no interior mode"
        )
    return (fit.shape - 1.0) * fit.scale
