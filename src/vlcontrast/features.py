"""Bimodality features of a short/long pair of gamma duration densities.

Given the fitted densities d_S and d_L of one vowel:

  r1    = d_S(a) / d_L(a)    with a the mode of d_S
  r2    = d_L(b) / d_S(b)    with b the mode of d_L
  area  = integral of max(0, d_L(x) - d_S(x)) over the support
  delta = mode(d_L) - mode(d_S)        (ms)

The area is exact: log d_L - log d_S = a*ln(x) - b*x + c, so the
densities cross at most twice, and the area sums F_L - F_S over the
intervals between 0, the crossings and infinity where d_L > d_S.  With
one crossing that is the mass past the crossing point, as the paper
reads it.  A contrast counts as significant when area > 0.40.

Ratios are UNDEFINED (None, flagged) when the opposite density carries no
mass at the probing mode, mirroring corpora where a cell is empty in
practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .alignment import CONTRASTED_VOWELS
from .durations import DurationSampleSet, pooled_samples
from .gamma import (
    LOW_N_THRESHOLD,
    DegenerateDataError,
    GammaFit,
    NoInteriorModeError,
    fit_gamma,
    gamma_cdf,
    gamma_mode,
    gamma_pdf,
    log_gamma,
)
from .stattests import TestResult, ks_two_sample

__all__ = [
    "AREA_SIGNIFICANCE_THRESHOLD",
    "UNDEFINED_DENSITY_FLOOR",
    "VOWEL_ORDER",
    "ContrastReport",
    "compute_r1",
    "compute_r2",
    "compute_area",
    "compute_delta",
    "contrast_report",
    "density_crossings",
    "compare_corpora",
]

# A significant contrast requires area > 0.40 of separated probability mass.
AREA_SIGNIFICANCE_THRESHOLD = 0.40

# Below this density (1/ms) the opposite curve is treated as massless and
# the ratio is UNDEFINED rather than a float-noise artifact.
UNDEFINED_DENSITY_FLOOR = 1e-12

# Fixed reporting order: vowels sorted by height, front before back.
VOWEL_ORDER = CONTRASTED_VOWELS


@dataclass(frozen=True)
class ContrastReport:
    """One vowel's row of the contrast feature table."""

    vowel_class: str
    corpus_id: str
    n_short: int
    n_long: int
    mean_short_ms: float | None
    mean_long_ms: float | None
    fit_short: GammaFit | None
    fit_long: GammaFit | None
    r1: float | None
    r2: float | None
    area: float | None
    delta_ms: float | None
    significant: bool
    flags: frozenset[str]
    error: str | None = None


def compute_r1(fit_short: GammaFit, fit_long: GammaFit) -> float | None:
    """Short/long density ratio at the short mode; None when undefined."""
    a = gamma_mode(fit_short)
    gamma_mode(fit_long)  # both fits need interior modes
    num = gamma_pdf(fit_short, a)
    den = gamma_pdf(fit_long, a)
    if den < UNDEFINED_DENSITY_FLOOR:
        return None
    return num / den


def compute_r2(fit_short: GammaFit, fit_long: GammaFit) -> float | None:
    """Long/short density ratio at the long mode; None when undefined."""
    b = gamma_mode(fit_long)
    gamma_mode(fit_short)
    num = gamma_pdf(fit_long, b)
    den = gamma_pdf(fit_short, b)
    if den < UNDEFINED_DENSITY_FLOOR:
        return None
    return num / den


def density_crossings(fit_short: GammaFit,
                      fit_long: GammaFit) -> tuple[float, ...]:
    """Points x (ms) where d_L and d_S cross, ascending; none if identical.

    In u = ln x, log d_L - log d_S = a*u - b*e^u + c is monotone on each
    side of its one extremum (x = a/b, when a/b > 0), so each side holds
    at most one root, found by bisection in u over |u| < 700.  A crossing
    beyond moves the area by a CDF at 1e-304 ms: < 1e-15 for shapes > 0.05.
    """
    a = fit_long.shape - fit_short.shape
    b = 1.0 / fit_long.scale - 1.0 / fit_short.scale
    c = ((log_gamma(fit_short.shape) + fit_short.shape * math.log(fit_short.scale))
         - (log_gamma(fit_long.shape) + fit_long.shape * math.log(fit_long.scale)))

    def log_ratio(u: float) -> float:
        return a * u - b * math.exp(u) + c

    knots = [-700.0, 700.0]
    if a * b > 0.0 and -700.0 < math.log(a / b) < 700.0:
        knots.insert(1, math.log(a / b))
    crossings = []
    for lo, hi in zip(knots, knots[1:]):
        lo_positive = log_ratio(lo) > 0.0
        if lo_positive == (log_ratio(hi) > 0.0):
            continue
        for _ in range(100):  # halves the bracket to below 1e-27
            mid = 0.5 * (lo + hi)
            value = log_ratio(mid)
            # an exact root moves lo either way, so swapped fits stay symmetric
            if value == 0.0 or (value > 0.0) == lo_positive:
                lo = mid
            else:
                hi = mid
        crossings.append(math.exp(0.5 * (lo + hi)))
    return tuple(crossings)


def compute_area(fit_short: GammaFit, fit_long: GammaFit) -> float:
    """Mass where d_L exceeds d_S, in [0, 1]: the sum of the rises of
    F_L - F_S over the intervals between 0, the crossings and infinity."""
    gaps = [0.0] + [gamma_cdf(fit_long.shape, x / fit_long.scale)
                    - gamma_cdf(fit_short.shape, x / fit_short.scale)
                    for x in density_crossings(fit_short, fit_long)] + [0.0]
    return sum(max(0.0, right - left) for left, right in zip(gaps, gaps[1:]))


def compute_delta(fit_short: GammaFit, fit_long: GammaFit) -> float:
    """Mode difference mode(d_L) - mode(d_S) in ms; may be negative."""
    return gamma_mode(fit_long) - gamma_mode(fit_short)


def contrast_report(
    set_short: DurationSampleSet,
    set_long: DurationSampleSet,
) -> ContrastReport:
    """Fit both cells of one vowel and derive its features.

    The cells are used as given; apply `filter_outliers` to each first
    for the 3-sigma rule.  Degenerate cells produce a report carrying an
    error marker instead of features; callers decide whether that aborts
    anything (the CLI does not).
    """
    if set_short.vowel_class != set_long.vowel_class:
        raise ValueError("short/long cells must describe the same vowel")
    if set_short.corpus_id != set_long.corpus_id:
        raise ValueError("short/long cells must come from the same corpus")

    flags: set[str] = set()
    base = dict(
        vowel_class=set_short.vowel_class,
        corpus_id=set_short.corpus_id,
        n_short=set_short.n,
        n_long=set_long.n,
        mean_short_ms=set_short.mean_ms,
        mean_long_ms=set_long.mean_ms,
    )

    fits: dict[str, GammaFit | None] = {"short": None, "long": None}
    errors = []
    for side, cell in (("short", set_short), ("long", set_long)):
        try:
            fits[side] = fit_gamma(cell.samples)
        except (DegenerateDataError, ValueError) as exc:
            errors.append(f"{side}: {exc}")
    if set_short.n and set_short.n < LOW_N_THRESHOLD:
        flags.add("low_n_short")
    if set_long.n and set_long.n < LOW_N_THRESHOLD:
        flags.add("low_n_long")

    if errors:
        return ContrastReport(
            **base, fit_short=fits["short"], fit_long=fits["long"],
            r1=None, r2=None, area=None, delta_ms=None,
            significant=False, flags=frozenset(flags),
            error="; ".join(errors),
        )

    fit_s, fit_l = fits["short"], fits["long"]
    area = compute_area(fit_s, fit_l)
    r1 = r2 = delta = None
    try:
        r1 = compute_r1(fit_s, fit_l)
        r2 = compute_r2(fit_s, fit_l)
        delta = compute_delta(fit_s, fit_l)
    except NoInteriorModeError:
        flags.add("no_interior_mode")
    if r1 is None and "no_interior_mode" not in flags:
        flags.add("r1_undefined")
    if r2 is None and "no_interior_mode" not in flags:
        flags.add("r2_undefined")
    if delta is not None and delta < 0.0:
        flags.add("negative_delta")

    return ContrastReport(
        **base, fit_short=fit_s, fit_long=fit_l,
        r1=r1, r2=r2, area=area, delta_ms=delta,
        significant=area > AREA_SIGNIFICANCE_THRESHOLD,
        flags=frozenset(flags),
    )


def compare_corpora(
    vowel_class: str,
    cells_a,
    cells_b,
    length_class: str = "pooled",
) -> TestResult:
    """KS two-sample test between the duration distributions of one vowel
    in two corpora.

    `cells_a` and `cells_b` map (vowel, length) to each corpus's
    DurationSampleSet, already filtered if the outlier rule applies.
    `length_class` is "short", "long", or "pooled" (both cells together).
    """
    if length_class not in ("short", "long", "pooled"):
        raise ValueError(f"length_class must be short/long/pooled, got {length_class!r}")
    lengths = ("short", "long") if length_class == "pooled" else (length_class,)

    sides = []
    for name, cells in (("A", cells_a), ("B", cells_b)):
        corpus_id = next((c.corpus_id for c in cells.values()), name)
        durations = pooled_samples(cells, vowel_class, lengths)
        if not durations.size:
            raise ValueError(
                f"corpus {corpus_id!r} has no tokens for cell "
                f"({vowel_class}, {length_class})")
        sides.append((corpus_id, durations))

    (corpus_a, dur_a), (corpus_b, dur_b) = sides
    result = ks_two_sample(dur_a, dur_b)
    return replace(result, vowel_class=vowel_class, length_class=length_class,
                   corpus_a=corpus_a, corpus_b=corpus_b)
