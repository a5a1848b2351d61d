"""Per-cell duration statistics: outlier filtering and histograms.

A "cell" is the set of durations of one (vowel, length) pair within one
corpus.  All durations are milliseconds, strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DurationSampleSet",
    "Histogram",
    "filter_outliers",
    "build_histogram",
    "collect_cells",
]


@dataclass(frozen=True)
class DurationSampleSet:
    """Durations of one (vowel, length) cell with derived summary stats.

    Immutable; mean/sd are computed once at construction (sd uses the n-1
    denominator).  Build modified cells with `with_samples`.
    """

    vowel_class: str
    length_class: str
    corpus_id: str
    samples: tuple[float, ...]
    n: int = field(init=False)
    mean_ms: float | None = field(init=False)
    sd_ms: float | None = field(init=False)

    def __post_init__(self) -> None:
        samples = tuple(float(s) for s in self.samples)
        if any(s <= 0.0 for s in samples):
            raise ValueError("durations must be strictly positive")
        object.__setattr__(self, "samples", samples)
        n = len(samples)
        object.__setattr__(self, "n", n)
        if n == 0:
            mean = sd = None
        else:
            arr = np.asarray(samples)
            mean = float(arr.mean())
            sd = float(arr.std(ddof=1)) if n >= 2 else None
        object.__setattr__(self, "mean_ms", mean)
        object.__setattr__(self, "sd_ms", sd)

    def with_samples(self, samples) -> "DurationSampleSet":
        return DurationSampleSet(self.vowel_class, self.length_class,
                                 self.corpus_id, tuple(samples))


def filter_outliers(cell: DurationSampleSet) -> DurationSampleSet:
    """Single-pass 3-sigma rule: keep x with mean-3sd < x < mean+3sd.

    The bounds come from the *input* cell and the rule is not iterated.
    Cells with n < 2 or zero spread are returned unchanged.
    """
    if cell.n < 2 or cell.sd_ms is None or cell.sd_ms == 0.0:
        return cell
    lo = cell.mean_ms - 3.0 * cell.sd_ms
    hi = cell.mean_ms + 3.0 * cell.sd_ms
    kept = tuple(x for x in cell.samples if lo < x < hi)
    if len(kept) == cell.n:
        return cell
    return cell.with_samples(kept)


@dataclass(frozen=True)
class Histogram:
    """Fixed-width histogram from 0 ms; densities sum*width to 1."""

    bin_width_ms: float
    counts: tuple[int, ...]
    densities: tuple[float, ...]  # count / (n * width), unit 1/ms

    @property
    def nbins(self) -> int:
        return len(self.counts)

    def density_at(self, x: float) -> float:
        """Step-function value of the density at x (0 outside all bins)."""
        if x < 0.0 or not self.counts:
            return 0.0
        idx = int(x // self.bin_width_ms)
        if idx >= len(self.densities):
            return 0.0
        return self.densities[idx]


def build_histogram(cell: DurationSampleSet, bin_width_ms: float = 10.0) -> Histogram:
    """Histogram with bins [0,w), [w,2w), ... covering max(samples)."""
    if bin_width_ms <= 0.0:
        raise ValueError("bin width must be positive")
    if cell.n == 0:
        return Histogram(bin_width_ms, (), ())
    arr = np.asarray(cell.samples)
    nbins = int(math.floor(arr.max() / bin_width_ms)) + 1
    idx = np.floor(arr / bin_width_ms).astype(int)
    counts = np.bincount(idx, minlength=nbins)
    densities = counts / (cell.n * bin_width_ms)
    return Histogram(bin_width_ms, tuple(int(c) for c in counts),
                     tuple(float(d) for d in densities))


def collect_cells(tokens, corpus_id: str | None = None):
    """Group vowel tokens into (vowel, length) -> DurationSampleSet.

    Tokens from other corpora are excluded when corpus_id is given.
    """
    grouped: dict[tuple[str, str], list[float]] = {}
    seen_corpus = corpus_id
    for tok in tokens:
        if corpus_id is not None and tok.corpus_id != corpus_id:
            continue
        if seen_corpus is None:
            seen_corpus = tok.corpus_id
        grouped.setdefault((tok.vowel_class, tok.length_class), []).append(
            tok.duration_ms)
    return {
        key: DurationSampleSet(key[0], key[1], seen_corpus or "", tuple(durs))
        for key, durs in grouped.items()
    }
