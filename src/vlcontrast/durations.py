"""Per-cell duration statistics: outlier filtering and histograms.

A "cell" is the durations of one (vowel, length) pair within one corpus,
in ascending order, so no output depends on the order of the tokens.  All
durations are milliseconds, strictly positive.  `collect_cells` and
`filter_outliers` pass a cell as a DurationSampleSet; past the filter a
cell is its read-only float64 sample array, which `build_histogram`
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import CELLS, TokenTable

HISTOGRAM_BINS_MAX = 10 ** 6  # a bin width that needs more is a typo

__all__ = [
    "DurationSampleSet",
    "filter_outliers",
    "build_histogram",
    "collect_cells",
]


@dataclass(frozen=True, eq=False)
class DurationSampleSet:
    """Durations of one (vowel, length) cell of one corpus, as
    `collect_cells` hands them to `filter_outliers`.

    Immutable: `samples` is a read-only float64 copy of the input, sorted.
    """

    vowel_class: str
    length_class: str
    corpus_id: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("durations must be a 1-d sequence")
        samples = np.sort(samples)  # a copy
        if not np.isfinite(samples).all():
            raise ValueError("durations must be finite, got NaN or infinity")
        if np.any(samples <= 0.0):
            raise ValueError("durations must be strictly positive")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.size


def filter_outliers(cell: DurationSampleSet) -> DurationSampleSet:
    """Single-pass 3-sigma rule: keep x with mean-3sd < x < mean+3sd.

    The bounds come from the *input* cell (sd with the n-1 denominator)
    and the rule is not iterated; on the sorted cell the kept samples are
    one slice.  Cells with n < 2 or zero spread are returned unchanged.
    """
    samples = cell.samples
    if samples.size < 2:
        return cell
    mean = float(samples.mean())
    sd = float(samples.std(ddof=1))
    if sd == 0.0:
        return cell
    lo = samples.searchsorted(mean - 3.0 * sd, side="right")
    hi = samples.searchsorted(mean + 3.0 * sd, side="left")
    if lo == 0 and hi == samples.size:
        return cell
    return DurationSampleSet(cell.vowel_class, cell.length_class,
                             cell.corpus_id, samples[lo:hi])


def build_histogram(samples: np.ndarray,
                    bin_width_ms: float) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty bins [i*w, (i+1)*w) of a sorted cell, as (bin indexes
    i ascending, the count of each); empty arrays for an empty cell.  A
    sample x is counted in bin floor(x / w).  A bin index of
    HISTOGRAM_BINS_MAX or more is a ValueError naming `bin_width_ms`."""
    if bin_width_ms <= 0.0:
        raise ValueError("bin width must be positive")
    bins = np.floor(samples / bin_width_ms)
    if bins.size and bins[-1] >= HISTOGRAM_BINS_MAX:
        raise ValueError(f"config key 'bin_width_ms' {bin_width_ms!r} gives over "
                         f"{HISTOGRAM_BINS_MAX} histogram bins")
    # the cell is sorted, so each non-empty bin is one run of equal indexes
    starts = np.flatnonzero(np.diff(bins, prepend=-1.0))
    return bins[starts].astype(np.int64), np.diff(np.append(starts, bins.size))


def collect_cells(tokens: TokenTable, corpus_id: str):
    """Group a table's vowel tokens into (vowel, length) ->
    DurationSampleSet of the corpus `corpus_id`, in CELLS order; each
    cell is sorted, so the same tokens in any order give the same cells."""
    codes = tokens.cell.astype(np.uint8)  # len(CELLS) < 256: a radix sort
    counts = np.bincount(codes, minlength=len(CELLS))
    groups = np.split(tokens.duration_ms[np.argsort(codes, kind="stable")],
                      np.cumsum(counts)[:-1])
    return {CELLS[code]: DurationSampleSet(*CELLS[code], corpus_id, groups[code])
            for code in np.flatnonzero(counts).tolist()}

