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
    "pooled_samples",
]


@dataclass(frozen=True, eq=False)
class DurationSampleSet:
    """Durations of one (vowel, length) cell with derived summary stats.

    Immutable: `samples` is a read-only float64 copy of the input and
    mean/sd are computed once at construction (sd uses the n-1
    denominator).
    """

    vowel_class: str
    length_class: str
    corpus_id: str
    samples: np.ndarray
    n: int = field(init=False)
    mean_ms: float | None = field(init=False)
    sd_ms: float | None = field(init=False)

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("durations must be a 1-d sequence")
        if np.any(samples <= 0.0):
            raise ValueError("durations must be strictly positive")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        n = samples.size
        object.__setattr__(self, "n", n)
        mean = float(samples.mean()) if n else None
        sd = float(samples.std(ddof=1)) if n >= 2 else None
        object.__setattr__(self, "mean_ms", mean)
        object.__setattr__(self, "sd_ms", sd)


def filter_outliers(cell: DurationSampleSet) -> DurationSampleSet:
    """Single-pass 3-sigma rule: keep x with mean-3sd < x < mean+3sd.

    The bounds come from the *input* cell and the rule is not iterated.
    Cells with n < 2 or zero spread are returned unchanged.
    """
    if cell.n < 2 or cell.sd_ms is None or cell.sd_ms == 0.0:
        return cell
    lo = cell.mean_ms - 3.0 * cell.sd_ms
    hi = cell.mean_ms + 3.0 * cell.sd_ms
    keep = (lo < cell.samples) & (cell.samples < hi)
    if keep.all():
        return cell
    return DurationSampleSet(cell.vowel_class, cell.length_class,
                             cell.corpus_id, cell.samples[keep])


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
    nbins = int(math.floor(cell.samples.max() / bin_width_ms)) + 1
    idx = np.floor(cell.samples / bin_width_ms).astype(int)
    counts = np.bincount(idx, minlength=nbins)
    densities = counts / (cell.n * bin_width_ms)
    return Histogram(bin_width_ms, tuple(int(c) for c in counts),
                     tuple(float(d) for d in densities))


def collect_cells(tokens, corpus_id: str):
    """Group vowel tokens into (vowel, length) -> DurationSampleSet of
    the corpus `corpus_id`."""
    grouped: dict[tuple[str, str], list[float]] = {}
    for tok in tokens:
        grouped.setdefault((tok.vowel_class, tok.length_class), []).append(
            tok.duration_ms)
    return {
        key: DurationSampleSet(key[0], key[1], corpus_id, durs)
        for key, durs in grouped.items()
    }


def pooled_samples(cells, vowel_class: str,
                   lengths=("short", "long")) -> np.ndarray:
    """The samples of the vowel's cells in `lengths`, concatenated in that
    order; cells absent from the (vowel, length) map add nothing."""
    return np.concatenate([np.empty(0)] + [
        cells[(vowel_class, length)].samples for length in lengths
        if (vowel_class, length) in cells])
