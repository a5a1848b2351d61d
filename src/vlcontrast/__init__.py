"""vlcontrast: quantify phonemic vowel-length contrast from forced alignments.

Fits gamma densities to the short/long duration distributions of each
vowel and derives four bimodality features (peak ratios r1/r2, separated
area, mode delta), with KS and dip-test diagnostics, from Praat TextGrid
or CTM alignment files.
"""

__version__ = "0.1.0"

from .alignment import (  # noqa: E402
    IntervalTable,
    ParseError,
    PhoneMap,
    PhoneMapError,
    TokenTable,
    default_phone_map,
    extract_vowel_tokens,
    load_phone_map,
    parse_ctm,
    parse_textgrid,
)
from .durations import (  # noqa: E402
    DurationSampleSet,
    build_histogram,
    collect_cells,
    filter_outliers,
)
from .features import (  # noqa: E402
    AREA_SIGNIFICANCE_THRESHOLD,
    VOWEL_ORDER,
    ContrastReport,
    compare_corpora,
    compute_area,
    compute_delta,
    compute_r1,
    compute_r2,
    contrast_report,
)
from .gamma import (  # noqa: E402
    DegenerateDataError,
    GammaFit,
    NoInteriorModeError,
    fit_gamma,
    gamma_mode,
    gamma_pdf,
    moment_estimate,
)
from .report import (  # noqa: E402
    AnalysisConfig,
    ConfigError,
    CorpusLoadError,
    CorpusSource,
    RunResult,
    emit_plotdata,
    emit_table,
    run_analysis,
)
from .stattests import TestResult, dip_test, ks_two_sample  # noqa: E402
from .synthgen import CellSpec, CorpusSpec, generate_corpus, sample_gamma  # noqa: E402

__all__ = [
    "__version__",
    "AREA_SIGNIFICANCE_THRESHOLD",
    "AnalysisConfig",
    "CellSpec",
    "ConfigError",
    "ContrastReport",
    "CorpusLoadError",
    "CorpusSource",
    "CorpusSpec",
    "DegenerateDataError",
    "DurationSampleSet",
    "GammaFit",
    "IntervalTable",
    "NoInteriorModeError",
    "ParseError",
    "PhoneMap",
    "PhoneMapError",
    "RunResult",
    "TestResult",
    "TokenTable",
    "VOWEL_ORDER",
    "build_histogram",
    "collect_cells",
    "compare_corpora",
    "compute_area",
    "compute_delta",
    "compute_r1",
    "compute_r2",
    "contrast_report",
    "default_phone_map",
    "dip_test",
    "emit_plotdata",
    "emit_table",
    "extract_vowel_tokens",
    "filter_outliers",
    "fit_gamma",
    "gamma_mode",
    "gamma_pdf",
    "generate_corpus",
    "ks_two_sample",
    "load_phone_map",
    "moment_estimate",
    "parse_ctm",
    "parse_textgrid",
    "run_analysis",
    "sample_gamma",
]
