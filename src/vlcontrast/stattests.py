"""Two-sample Kolmogorov-Smirnov test and Hartigan's dip statistic.

The KS statistic is the exact sup-distance between the two right-continuous
empirical CDFs evaluated at every pooled sample point; its p-value uses the
asymptotic Kolmogorov series with the usual small-sample correction of the
effective sample size.

The dip statistic follows the greatest-convex-minorant / least-concave-
majorant algorithm of Hartigan's AS 217 (as in Maechler's C implementation
for R): half the sup-norm distance from the empirical CDF to the nearest
unimodal CDF.  No p-value is attached; the dip is reported as a diagnostic
only.  Durations are quantised, so a sorted sample is mostly tie runs
(maximal runs of equal values): the hull pointers are built over the
distinct values and each chord scan evaluates one index per run.  The hulls
only touch run ends and the scanned distance is monotone within a run, so
the result equals the per-point algorithm's bit for bit while the Python
loops run over distinct values instead of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TestResult", "ks_two_sample", "kolmogorov_sf", "dip_statistic", "dip_test"]


@dataclass(frozen=True)
class TestResult:
    """Outcome of a KS or dip test, with optional provenance labels."""

    kind: str  # "ks_two_sample" | "dip"
    statistic: float
    p_value: float | None = None
    n1: int | None = None
    n2: int | None = None
    vowel_class: str | None = None
    length_class: str | None = None
    corpus_a: str | None = None
    corpus_b: str | None = None


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lam) = 2 sum (-1)^(j-1) exp(-2 j^2 lam^2).

    Terms are added until one falls below 1e-10; if the series has not
    converged by 100 terms (tiny lam), the limit value 1.0 is returned.
    The result is clamped to [0, 1].
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-10:
            return min(1.0, max(0.0, total))
    return 1.0


def _finite_1d(values, name: str) -> np.ndarray:
    """`values` as a float array; ValueError unless it is finite and 1-d."""
    xs = np.asarray(values, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"{name} requires a 1-d sample, got {xs.ndim} dimensions")
    if not np.isfinite(xs).all():
        raise ValueError(f"{name} requires finite values, got NaN or infinity")
    return xs


def ks_two_sample(x, y) -> TestResult:
    """Two-sample KS test; D = sup |F_x - F_y| over all pooled points.

    Raises ValueError for an empty sample, NaN, infinity or input that is
    not 1-d.
    """
    xs = np.sort(_finite_1d(x, "ks_two_sample"))
    ys = np.sort(_finite_1d(y, "ks_two_sample"))
    n1, n2 = xs.size, ys.size
    if n1 == 0 or n2 == 0:
        raise ValueError("ks_two_sample requires non-empty samples")
    pooled = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, pooled, side="right") / n1
    fy = np.searchsorted(ys, pooled, side="right") / n2
    d = float(np.abs(fx - fy).max())
    n_eff = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * d
    return TestResult(kind="ks_two_sample", statistic=d,
                      p_value=kolmogorov_sf(lam), n1=n1, n2=n2)


def _chord_points(xs: np.ndarray, touch: np.ndarray, ends: np.ndarray):
    """Candidate points of the chords between ascending hull touch points.

    Returns (jj, jb, c): each jj lies in the chord (jb, je] that follows
    touch point jb, and c = (je - jb) / (xs[je] - xs[jb]).  The candidates
    are the run ends `ends` inside the touch range plus every chord end;
    chords spanning fewer than two steps or no change in x are skipped,
    as AS 217 skips them.  A chord's start jb scores exactly 1 on either
    side, which the scans' floor of 1 already covers.
    """
    lo, hi = np.searchsorted(ends, touch[[0, -1]], side="right")
    jj = np.concatenate((ends[lo:hi], touch[1:]))
    s = np.searchsorted(touch, jj) - 1
    jb, je = touch[s], touch[s + 1]
    keep = (je - jb > 1) & (xs[je] != xs[jb])
    jj, jb, je = jj[keep], jb[keep], je[keep]
    return jj, jb, (je - jb) / (xs[je] - xs[jb])


def dip_statistic(values) -> float:
    """Hartigan-Hartigan dip of a finite 1-d sample (n >= 4).

    Returns the sup-norm distance from the empirical CDF to the nearest
    unimodal CDF.  At least 1/(2n) for samples with distinct extremes;
    0.0 for an all-equal sample (a point mass is itself unimodal).

    This is AS 217 with its loops run over tie runs (maximal runs of equal
    sorted values) instead of points; it returns the per-point algorithm's
    result bit for bit.  The convex-minorant pointers touch only the first
    index of a run and the concave-majorant pointers only the last; an
    index that is not first (last) in its run points to its run's first
    (last) index.  So both pointer arrays are built over the distinct
    values, with the same floating-point comparisons, and then spread to
    every index.  Within a run x is constant, so a chord scan's distance
    rises along the run on the convex side and falls on the concave side
    (rounding is monotone): each scan evaluates only the last (convex) or
    first (concave) index of each run inside a chord, with the same
    arithmetic, in one numpy expression.

    Raises ValueError for fewer than 4 points, NaN, infinity or input
    that is not 1-d.
    """
    xs = np.sort(_finite_1d(values, "dip"))
    n = xs.size
    if n < 4:
        raise ValueError(f"dip requires at least 4 observations, got {n}")
    if xs[0] == xs[-1]:
        return 0.0

    # Tie runs: run k holds the distinct value u[k] at sorted indices
    # first[k] .. last[k].
    starts = np.flatnonzero(xs[1:] != xs[:-1]) + 1
    first = np.concatenate(([0], starts))
    last = np.concatenate((starts - 1, [n - 1]))
    size = last - first + 1
    u, fst, lst = xs[first].tolist(), first.tolist(), last.tolist()
    m = len(u)

    # Greatest convex minorant: mn[j] is the previous touch point when walking
    # the GCM down from j.  Built over runs (first indices), then spread to
    # every index: a non-first index points to the first index of its run.
    mn_run = [0] * m
    for k in range(1, m):
        a = k - 1
        while a != 0:
            b = mn_run[a]
            if (u[k] - u[a]) * (fst[a] - fst[b]) < (u[a] - u[b]) * (fst[k] - fst[a]):
                break
            a = b
        mn_run[k] = a
    mn = np.repeat(first, size)
    mn[first[1:]] = first[mn_run[1:]]

    # Least concave majorant successors, over last indices in the same way.
    mj_run = [m - 1] * m
    for k in range(m - 2, -1, -1):
        a = k + 1
        while a != m - 1:
            b = mj_run[a]
            if (u[k] - u[a]) * (lst[a] - lst[b]) < (u[a] - u[b]) * (lst[k] - lst[a]):
                break
            a = b
        mj_run[k] = a
    mj = np.repeat(last, size)
    mj[last[:-1]] = last[mj_run[:-1]]

    low, high = 0, n - 1
    # 2n*dip is at least 1 for non-degenerate samples.
    best = 1.0

    while True:
        # GCM touch points from high down to low (decreasing indices).
        gcm = [high]
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        ig = l_gcm = len(gcm) - 1
        ix = l_gcm - 1
        # LCM touch points from low up to high.
        lcm = [low]
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        ih = l_lcm = len(lcm) - 1
        iv = 1

        # Largest distance between the two fits over [low, high], in counts.
        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    # LCM point below a GCM chord segment.
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (xs[lcmiv] - xs[gcmi1]) \
                        * (gcmix - gcmi1) / (xs[gcmix] - xs[gcmi1])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    # GCM point above an LCM chord segment.
                    lcmiv1 = lcm[iv - 1]
                    dx = (xs[gcmix] - xs[lcmiv1]) * (lcmiv - lcmiv1) \
                        / (xs[lcmiv] - xs[lcmiv1]) - (gcmix - lcmiv1 - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break

        if d < best:
            break

        # Dip of the ECDF against the convex minorant between touch points:
        # the largest t = (jj - jb + 1) - (x[jj] - x[jb]) * c, at least 1.
        dip_lo = 0.0
        if ig < l_gcm:
            jj, jb, c = _chord_points(xs, np.array(gcm[ig:][::-1]), last)
            dip_lo = np.fmax.reduce((jj - jb + 1) - (xs[jj] - xs[jb]) * c,
                                    initial=1.0)

        # Dip against the concave majorant:
        # the largest t = (x[jj] - x[jb]) * c - (jj - jb - 1), at least 1.
        dip_hi = 0.0
        if ih < l_lcm:
            jj, jb, c = _chord_points(xs, np.array(lcm[ih:]), first)
            dip_hi = np.fmax.reduce((xs[jj] - xs[jb]) * c - (jj - jb - 1),
                                    initial=1.0)

        if best < max(dip_lo, dip_hi):
            best = max(dip_lo, dip_hi)
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]

    return best / (2.0 * n)


def dip_test(values) -> TestResult:
    """Dip statistic wrapped as a TestResult (diagnostic, no p-value)."""
    xs = np.asarray(values, dtype=float)
    return TestResult(kind="dip", statistic=dip_statistic(xs), n1=int(xs.size))
