"""Per-cell duration statistics: outlier filtering and histograms.

A "cell" is the set of durations of one (vowel, length) pair within one
corpus.  All durations are milliseconds, strictly positive.
`collect_cells` and `filter_outliers` pass a cell as a DurationSampleSet;
past the filter a cell is its read-only float64 sample array, and
`build_histogram` and `pooled_samples` read those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import CELLS, TokenTable

__all__ = [
    "DurationSampleSet",
    "filter_outliers",
    "build_histogram",
    "collect_cells",
    "pooled_samples",
]


@dataclass(frozen=True, eq=False)
class DurationSampleSet:
    """Durations of one (vowel, length) cell of one corpus, as
    `collect_cells` hands them to `filter_outliers`.

    Immutable: `samples` is a read-only float64 copy of the input.
    """

    vowel_class: str
    length_class: str
    corpus_id: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("durations must be a 1-d sequence")
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
    and the rule is not iterated.  Cells with n < 2 or zero spread are
    returned unchanged.
    """
    samples = cell.samples
    if samples.size < 2:
        return cell
    mean = float(samples.mean())
    sd = float(samples.std(ddof=1))
    if sd == 0.0:
        return cell
    keep = (mean - 3.0 * sd < samples) & (samples < mean + 3.0 * sd)
    if keep.all():
        return cell
    return DurationSampleSet(cell.vowel_class, cell.length_class,
                             cell.corpus_id, samples[keep])


def build_histogram(samples: np.ndarray, bin_width_ms: float) -> np.ndarray:
    """Read-only counts of the samples in the bins [0, w), [w, 2w), ...
    up to the bin holding max(samples); empty for an empty cell."""
    if bin_width_ms <= 0.0:
        raise ValueError("bin width must be positive")
    counts = np.bincount(np.floor(samples / bin_width_ms).astype(int))
    counts.flags.writeable = False
    return counts


def collect_cells(tokens: TokenTable, corpus_id: str):
    """Group a table's vowel tokens into (vowel, length) ->
    DurationSampleSet of the corpus `corpus_id`.

    Cells come in the order of their first token and keep their tokens'
    order: each is a slice of the duration column sorted stably by cell.
    """
    codes = tokens.cell.astype(np.uint8)  # len(CELLS) < 256: a radix sort
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(CELLS))
    ends = np.cumsum(counts)
    starts = ends - counts
    present = np.flatnonzero(counts)
    durations = tokens.duration_ms[order]
    cells = {}
    # a cell's first token heads its run of the stable order
    for code in present[np.argsort(order[starts[present]])].tolist():
        key = CELLS[code]
        cells[key] = DurationSampleSet(key[0], key[1], corpus_id,
                                       durations[starts[code]:ends[code]])
    return cells


def pooled_samples(cells, vowel_class: str,
                   lengths=("short", "long")) -> np.ndarray:
    """The samples of the vowel's cells in `lengths`, concatenated in that
    order; cells absent from the (vowel, length) -> samples map add nothing."""
    return np.concatenate([np.empty(0)] + [
        cells[(vowel_class, length)] for length in lengths
        if (vowel_class, length) in cells])
