"""Analysis orchestration and report emission.

Runs the whole pipeline over one or more corpora of alignment files and
writes, per corpus, a contrast feature table (one row per vowel, columns
in a fixed order: occurrence counts, means, r1, r2, area, delta, the
density crossings), each vowel's duration histograms and fitted gamma
curves, dip and plot-grid diagnostics, per-comparison KS
results, and a run-metadata file that lists every other file the run
wrote with its sha256.

All outputs are deterministic: fixed vowel ordering, cells held sorted
(so no output depends on the order of input files or lines), no
timestamps, full float precision in CSV/JSON, and atomic
write-then-rename file emission.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (
    _NUMBER,
    _STRING,
    ConfigError,
    ParseError,
    PhoneMap,
    TokenTable,
    _check_corpus_id,
    _check_entry,
    _json_object,
    _list_of,
    default_phone_map,
    extract_vowel_tokens,
    load_phone_map,
    parse_ctm,
    parse_textgrid,
    speaker_rule,
)
from .durations import build_histogram, collect_cells, filter_outliers
from .features import VOWEL_ORDER, ContrastReport, compare_corpora, contrast_report
from .gamma import GammaFit, gamma_cdf, gamma_pdf
from .stattests import TestResult, dip_test

__all__ = [
    "ConfigError",
    "CorpusLoadError",
    "CorpusSource",
    "AnalysisConfig",
    "RunResult",
    "run_analysis",
    "csv_text",
    "emit_table",
    "emit_plotdata",
    "emit_histdata",
    "report_from_dict",
    "write_atomic",
]

# ASCII-safe file-name slugs for the vowel classes.
VOWEL_SLUGS = {"i": "i", "e": "e", "ɛ": "eh", "a": "a", "ɔ": "oh",
               "o": "o", "u": "u", "ə": "schwa"}

TABLE_COLUMNS = ("vowel", "n_short", "n_long", "mu_short_ms", "mu_long_ms",
                 "r1", "r2", "area", "delta_ms", "crossings_ms", "significant",
                 "flags", "error")

# The feature-table file of each format, in the order the run writes them.
FORMAT_FILES = {"csv": "features.csv", "json": "features.json",
                "markdown": "features.md"}

# The most bytes of one file name (NAME_MAX on Linux and macOS).
NAME_MAX_BYTES = 255

R1_UNDEFINED_MARK = "NA(no-long-mass)"
R2_UNDEFINED_MARK = "NA(no-short-mass)"


class CorpusLoadError(RuntimeError):
    """Corpus-level failure (missing/unparseable/empty input); aborts the run."""


@dataclass(frozen=True)
class CorpusSource:
    corpus_id: str
    paths: tuple[str, ...]
    format: str  # "textgrid" | "ctm"


_STRING_OR_NULL = (lambda v: v is None or isinstance(v, str), "a string or null")
# The keys AnalysisConfig.from_json accepts, at the top level and per corpus.
_CONFIG_TYPES = {
    "corpora": (_list_of(dict), "a list of corpus objects"),
    "output_dir": _STRING,
    "phone_map": _STRING_OR_NULL,
    "bin_width_ms": _NUMBER,
    "outlier_filtering": (lambda v: type(v) is bool, "true or false"),
    "comparisons": (lambda v: _list_of(list)(v) and all(
        len(pair) == 2 and _list_of(str)(pair) for pair in v),
        "a list of [corpus_id, corpus_id] pairs"),
    "speaker_from": _STRING_OR_NULL,
}
_CORPUS_TYPES = {
    "corpus_id": _STRING,
    "paths": (lambda v: isinstance(v, str) or _list_of(str)(v), "a path or a list of paths"),
    "format": _STRING,
}


def _ks_stem(a: str, b: str) -> str:
    return f"ks_{a}_vs_{b}"


@dataclass(frozen=True)
class AnalysisConfig:
    corpora: tuple[CorpusSource, ...]
    output_dir: str
    phone_map_path: str | None = None
    bin_width_ms: float = 10.0
    outlier_filtering: bool = True
    comparisons: tuple[tuple[str, str], ...] = ()
    speaker_from: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "corpora", tuple(self.corpora))
        object.__setattr__(self, "comparisons",
                           tuple(tuple(pair) for pair in self.comparisons))
        if not self.corpora:
            raise ConfigError("config lists zero corpora")
        ids = [c.corpus_id for c in self.corpora]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate corpus ids in {ids}")
        for c in self.corpora:
            _check_corpus_id(c.corpus_id)
            if c.format not in ("textgrid", "ctm"):
                raise ConfigError(f"unknown corpus format {c.format!r}")
            if not c.paths or "" in c.paths:
                raise ConfigError(f"config key 'paths' of corpus {c.corpus_id!r} "
                                  "must list paths, none of them empty")
        if not self.output_dir:
            raise ConfigError("config key 'output_dir' is empty")
        if not (math.isfinite(self.bin_width_ms) and self.bin_width_ms > 0):
            raise ConfigError("config key 'bin_width_ms' must be a positive "
                              f"finite number, got {self.bin_width_ms!r}")
        object.__setattr__(self, "bin_width_ms", float(self.bin_width_ms))
        outputs: dict[str, tuple[str, str]] = {}
        for a, b in self.comparisons:
            if a not in ids or b not in ids:
                raise ConfigError(f"comparison ({a!r}, {b!r}) names unknown corpus")
            if a == b:
                raise ConfigError(f"comparison {(a, b)!r} compares a corpus with itself")
            name = _ks_stem(a, b)
            if name in outputs:
                raise ConfigError(f"comparisons {outputs[name]!r} and "
                                  f"{(a, b)!r} both write {name}.csv")
            outputs[name] = (a, b)
        # files written directly under output_dir, and write_atomic's temp names
        top = {"run_metadata.json"} | {name + ext for name in outputs
                                       for ext in (".csv", ".json")}
        for c in self.corpora:
            if c.corpus_id.removesuffix(".tmp") in top:
                raise ConfigError(f"config key 'corpus_id' {c.corpus_id!r} names a "
                                  "file the run writes in output_dir")
        # checked here, as a failed mkdir or write would leave part of a tree;
        # a comparison's longest name is its KS JSON's temp file
        for key, name in [("corpus_id", c.corpus_id) for c in self.corpora] + [
                ("comparisons", f"{name}.json.tmp") for name in outputs]:
            if len(name.encode("utf-8")) > NAME_MAX_BYTES:
                raise ConfigError(f"config key {key!r}: the file name {name!r} is "
                                  f"over {NAME_MAX_BYTES} bytes in UTF-8")
        try:
            speaker_rule(self.speaker_from)
        except ValueError as exc:
            raise ConfigError(f"config key 'speaker_from': {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        obj = _json_object(text, "config", _CONFIG_TYPES, ("corpora", "output_dir"),
                           ConfigError)
        corpora = []
        for i, c in enumerate(obj["corpora"]):
            _check_entry(c, _CORPUS_TYPES, _CORPUS_TYPES, f"config corpora[{i}]",
                         ConfigError)
            paths = [c["paths"]] if isinstance(c["paths"], str) else c["paths"]
            corpora.append(CorpusSource(**dict(c, paths=tuple(paths))))
        # the keys the JSON gives; the dataclass holds every default
        fields = {"phone_map_path" if key == "phone_map" else key: value
                  for key, value in obj.items()}
        return cls(**dict(fields, corpora=corpora))

    def canonical_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    output_paths: list[Path] = field(default_factory=list)
    reports: dict[str, list[ContrastReport]] = field(default_factory=dict)
    comparisons: dict[tuple[str, str], list[TestResult]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# serialization helpers

def _json_text(obj, sort_keys: bool = True) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=sort_keys) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flags_str(report: ContrastReport) -> str:
    return ";".join(sorted(report.flags))


def _ratio_cell(value, flags, undefined_flag, mark, full_precision=True) -> str:
    if value is None:
        return mark if undefined_flag in flags else ""
    return repr(value) if full_precision else f"{value:.2f}"


def _table_row(report: ContrastReport, full_precision: bool) -> list[str]:
    if full_precision:
        mu_s = _fmt(report.mean_short_ms)
        mu_l = _fmt(report.mean_long_ms)
        area = _fmt(report.area)
        delta = _fmt(report.delta_ms)
    else:
        mu_s = "" if report.mean_short_ms is None else f"{report.mean_short_ms:.0f}"
        mu_l = "" if report.mean_long_ms is None else f"{report.mean_long_ms:.0f}"
        area = "" if report.area is None else f"{report.area:.2f}"
        delta = "" if report.delta_ms is None else f"{report.delta_ms:.0f}"
    return [
        report.vowel_class,
        str(report.n_short),
        str(report.n_long),
        mu_s,
        mu_l,
        _ratio_cell(report.r1, report.flags, "r1_undefined",
                    R1_UNDEFINED_MARK, full_precision),
        _ratio_cell(report.r2, report.flags, "r2_undefined",
                    R2_UNDEFINED_MARK, full_precision),
        area,
        delta,
        ";".join(map(repr, report.crossings_ms)),
        _fmt(report.significant),
        _flags_str(report),
        report.error or "",
    ]


def _sorted_reports(reports) -> list[ContrastReport]:
    order = {v: i for i, v in enumerate(VOWEL_ORDER)}
    return sorted(reports, key=lambda r: (order.get(r.vowel_class,
                                                    len(order)), r.vowel_class))


_FIT_FIELDS = ("fit_short", "fit_long")


def _report_dict(report: ContrastReport) -> dict:
    """JSON form of a report: flags sorted, a NaN log-likelihood as null."""
    obj = asdict(report)
    obj["flags"] = sorted(report.flags)
    for key in _FIT_FIELDS:
        if obj[key] is not None and math.isnan(obj[key]["log_likelihood"]):
            obj[key]["log_likelihood"] = None
    return obj


def report_from_dict(obj: dict) -> ContrastReport:
    """Inverse of the JSON report serialization (exact field recovery)."""
    fields = dict(obj, flags=frozenset(obj["flags"]),
                  crossings_ms=tuple(obj["crossings_ms"]))
    for key in _FIT_FIELDS:
        if obj[key] is not None:
            ll = obj[key]["log_likelihood"]
            fields[key] = GammaFit(**dict(
                obj[key], log_likelihood=math.nan if ll is None else ll))
    return ContrastReport(**fields)


def csv_text(header, rows) -> str:
    """A CSV table, "\\n" line ends; a field with a comma or quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def emit_table(reports, fmt: str) -> str:
    """Serialize contrast reports as csv, json, or markdown text.

    Rows follow the fixed vowel order (height, then backness).  Markdown
    rounds ratios/area to 2 decimals and durations to whole ms for a
    compact reading table; csv/json carry full precision.
    """
    reports = _sorted_reports(reports)
    if not reports:
        raise ValueError("emit_table needs at least one report")
    if fmt == "csv":
        return csv_text(TABLE_COLUMNS,
                        (_table_row(r, full_precision=True) for r in reports))
    if fmt == "json":
        return _json_text({
            "corpus_id": reports[0].corpus_id,
            "reports": [_report_dict(r) for r in reports],
        })
    if fmt == "markdown":
        header = ("| Vowel | #occ short | #occ long | μ short (ms) | "
                  "μ long (ms) | r1 | r2 | 𝒜 | Δ (ms) | significant | flags |")
        sep = "|" + "---|" * 11
        lines = [header, sep]
        for r in reports:
            row = _table_row(r, full_precision=False)
            del row[TABLE_COLUMNS.index("crossings_ms")]  # CSV and JSON only
            cells = row[:10] + [row[10] if not r.error else
                                (row[10] + " ERROR").strip()]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


# The most rows of a plot file; past it the grid's step grows from 1 ms.
PLOT_ROWS_MAX = 10_000
# The grid reaches the first whole ms where both fitted CDFs are >= 1 - this.
PLOT_TAIL_MASS = 1e-6


def _plot_upper_limit(fit_short: GammaFit, fit_long: GammaFit) -> tuple[int, int]:
    """End and step (whole ms) of the plot grid of two fits: the smallest
    step that fits 0 to the first whole ms where both fitted CDFs reach
    1 - PLOT_TAIL_MASS in PLOT_ROWS_MAX rows, and its first multiple at or
    past that ms."""
    def covered(ms: int) -> bool:
        return all(gamma_cdf(fit.shape, ms / fit.scale) >= 1.0 - PLOT_TAIL_MASS
                   for fit in (fit_short, fit_long))

    # double a bracket up from 1 ms, then bisect it: for shapes << 1 the
    # quantile lies far past mode + 40 SD.  covered(0) is False: F(0) = 0
    lo, hi = 0, 1
    while not covered(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if covered(mid) else (mid, hi)
    step = -(-hi // (PLOT_ROWS_MAX - 1))
    return -(-hi // step) * step, step


def emit_plotdata(report: ContrastReport, grid: dict | None = None) -> str:
    """CSV of one vowel's fitted curves, x_ms,pdf_short,pdf_long, on the
    grid of `_plot_upper_limit`, whose `upper_ms` and `step_ms` a `grid`
    dict receives."""
    if report.fit_short is None or report.fit_long is None:
        raise ValueError(
            f"plot data needs successful fits for vowel {report.vowel_class!r}"
            + (f" ({report.error})" if report.error else ""))
    upper, step = _plot_upper_limit(report.fit_short, report.fit_long)
    if grid is not None:
        grid.update(upper_ms=upper, step_ms=step)
    fit_s, fit_l = report.fit_short, report.fit_long
    lines = ["x_ms,pdf_short,pdf_long"]
    for x in map(float, range(0, upper + 1, step)):
        lines.append(f"{x!r},{gamma_pdf(fit_s, x)!r},{gamma_pdf(fit_l, x)!r}")
    return "\n".join(lines) + "\n"


def emit_histdata(short: np.ndarray, long: np.ndarray, bin_width_ms: float) -> str:
    """CSV of one vowel's histograms, bin_start_ms,density_short,
    density_long: a row per bin [i*w, (i+1)*w) that holds a duration of
    either sorted cell, each density (count / n) / w."""
    hists = [build_histogram(cell, bin_width_ms) for cell in (short, long)]
    # not np.unique: it imports numpy.ma (13-22 ms)
    bins = np.sort(np.concatenate([indexes for indexes, _counts in hists]))
    bins = bins[np.diff(bins, prepend=-1) > 0]
    densities = np.zeros((2, bins.size))
    for row, (indexes, counts), cell in zip(densities, hists, (short, long)):
        row[bins.searchsorted(indexes)] = counts / cell.size / bin_width_ms
    lines = ["bin_start_ms,density_short,density_long"]
    for x, density_s, density_l in zip((bins * bin_width_ms).tolist(),
                                       *densities.tolist()):
        lines.append(f"{x!r},{density_s!r},{density_l!r}")
    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write `text` as UTF-8, line ends as given, via a temp file + rename
    so readers never see partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# corpus loading

def _alignment_files(source: CorpusSource) -> list[Path]:
    """Input files in first-seen order, each file once however it is listed."""
    suffixes = (".textgrid",) if source.format == "textgrid" else (".ctm",)
    files: list[Path] = []
    for raw in source.paths:
        p = Path(raw)
        if p.is_dir():
            matched = sorted(
                child for child in p.iterdir()
                if child.is_file() and child.suffix.lower() in suffixes)
            if not matched:
                raise CorpusLoadError(
                    f"corpus {source.corpus_id!r}: no {source.format} files "
                    f"under {p}")
            files.extend(matched)
        elif p.is_file():
            files.append(p)
        else:
            raise CorpusLoadError(
                f"corpus {source.corpus_id!r}: missing input path {p}")
    unique: dict[tuple[int, int], Path] = {}
    for path in files:
        st = path.stat()
        unique.setdefault((st.st_dev, st.st_ino), path)
    return list(unique.values())


def _read_alignment_text(path: Path) -> str:
    """UTF-16 after its byte-order mark (as Praat saves), else UTF-8."""
    with path.open("rb") as fh:
        utf16 = fh.read(2) in (codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)
    return path.read_text(encoding="utf-16" if utf16 else "utf-8-sig")


# How many of a corpus's most frequent unmapped labels run_metadata.json lists.
UNMAPPED_LABELS_LISTED = 20


def _load_corpus(source: CorpusSource, phone_map: PhoneMap, speaker):
    """The corpus's vowel tokens as one TokenTable, and its counters for
    run_metadata.json (`per_speaker` is None without a speaker rule)."""
    entries = phone_map.entries
    files = _alignment_files(source)
    tables = []
    intervals_parsed = 0
    unmapped: Counter = Counter()
    for path in files:
        try:
            text = _read_alignment_text(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusLoadError(f"cannot read {path}: {exc}") from exc
        try:
            if source.format == "ctm":
                tiers = [parse_ctm(text)]
            else:
                tiers = [intervals for _tier, intervals in parse_textgrid(
                    text, utterance_id=path.stem)]
        except ParseError as exc:
            raise CorpusLoadError(f"{path}: {exc}") from exc
        for intervals in tiers:
            intervals_parsed += len(intervals)
            unmapped.update({label: n for label, n in intervals.label_counts().items()
                             if label not in entries})
            tables.append(extract_vowel_tokens(intervals, phone_map))
    tokens = TokenTable.concat(tables)
    ranked = sorted(unmapped.items(), key=lambda item: (-item[1], item[0]))
    if not tokens:
        named = ", ".join(f"{label!r} ({n})" for label, n in ranked[:5])
        raise CorpusLoadError(
            f"corpus {source.corpus_id!r} contains no vowel tokens (checked "
            f"{source.paths}; most frequent labels: {named or 'none'})")
    per_speaker = None
    if speaker is not None:
        per_speaker = Counter()
        for utterance_id, n in tokens.utterance_counts().items():
            per_speaker[speaker(utterance_id)] += n
    counts = {
        "files": len(files),
        "intervals": intervals_parsed,
        "tokens": len(tokens),
        "unmapped_labels": [{"label": label, "count": n}
                            for label, n in ranked[:UNMAPPED_LABELS_LISTED]],
        "per_speaker": None if per_speaker is None else dict(per_speaker),
    }
    return tokens, counts


def _comparison_rows(a: str, cells_a, b: str, cells_b) -> list[TestResult]:
    rows: list[TestResult] = []
    for vowel in VOWEL_ORDER:
        for length in ("short", "long", "pooled"):
            try:
                rows.append(compare_corpora(vowel, a, cells_a, b, cells_b, length))
            except ValueError:
                continue  # cell empty on one side: no comparison
    return rows


def _comparison_csv(rows) -> str:
    return csv_text(("vowel", "length_class", "D", "p_value", "n_a", "n_b"), (
        (r.vowel_class, r.length_class, repr(r.statistic), repr(r.p_value),
         r.n1, r.n2) for r in rows))


def _comparison_json(rows) -> str:
    return _json_text([{
        "vowel_class": r.vowel_class, "length_class": r.length_class,
        "statistic": r.statistic, "p_value": r.p_value,
        "n_a": r.n1, "n_b": r.n2,
        "corpus_a": r.corpus_a, "corpus_b": r.corpus_b,
    } for r in rows], sort_keys=False)


def run_analysis(config: AnalysisConfig) -> RunResult:
    """Execute the configured analysis; returns the written output paths.

    Corpus-level problems (missing files, parse failures, empty corpora)
    raise CorpusLoadError/ConfigError; per-vowel degenerate fits degrade
    to flagged table rows instead.  Nothing is written until every output
    is built, so a failed load or analysis changes no file.  The
    run_metadata.json written last lists every other output's sha256, so
    a file it does not list, or whose hash differs, is not from this run.
    """
    if config.phone_map_path is not None:
        map_path = Path(config.phone_map_path)
        if not map_path.is_file():
            raise CorpusLoadError(f"phone map not found: {map_path}")
        phone_map = load_phone_map(map_path.read_text(encoding="utf-8"))
    else:
        phone_map = default_phone_map()
    speaker = speaker_rule(config.speaker_from)

    out_root = Path(config.output_dir)
    result = RunResult()
    outputs: dict[Path, str] = {}  # every file's text, in the order written
    corpus_cells: dict[str, dict] = {}
    corpus_counts: dict[str, dict] = {}

    for source in config.corpora:
        tokens, corpus_counts[source.corpus_id] = _load_corpus(
            source, phone_map, speaker)
        cells = collect_cells(tokens, source.corpus_id)
        if config.outlier_filtering:
            cells = {key: filter_outliers(cell) for key, cell in cells.items()}
        # every output of the corpus reads this one (vowel, length) -> samples map
        cells = {key: cell.samples for key, cell in cells.items()}
        corpus_cells[source.corpus_id] = cells
        corpus_dir = out_root / source.corpus_id
        # one pass per vowel with a cell: a row and a histogram; a dip of
        # the pooled cells when they hold 4 or more durations; a plot when
        # both fits succeed
        reports = result.reports[source.corpus_id] = []
        dips: dict[str, dict] = {}
        plots: dict[str, dict] = {}  # vowel -> its plot grid's end and step
        vowel_files: dict[Path, str] = {}
        for vowel in VOWEL_ORDER:
            if (vowel, "short") not in cells and (vowel, "long") not in cells:
                continue
            short, long = (cells.get((vowel, length), np.empty(0))
                           for length in ("short", "long"))
            report = contrast_report(vowel, source.corpus_id, short, long)
            reports.append(report)
            slug = VOWEL_SLUGS[vowel]
            vowel_files[corpus_dir / f"hist_{slug}.csv"] = emit_histdata(
                short, long, config.bin_width_ms)
            pooled = np.concatenate((short, long))
            if pooled.size >= 4:
                dip = dip_test(pooled)
                dips[vowel] = {"dip": dip.statistic, "n": dip.n1}
            if report.fit_short is not None and report.fit_long is not None:
                grid = plots[vowel] = {}
                vowel_files[corpus_dir / f"plot_{slug}.csv"] = emit_plotdata(
                    report, grid)
        if not reports:
            raise CorpusLoadError(f"corpus {source.corpus_id!r}: its only vowel tokens "
                                  "are schwa (ə), which has no length contrast to report")
        for fmt, name in FORMAT_FILES.items():
            outputs[corpus_dir / name] = emit_table(reports, fmt)
        outputs.update(vowel_files)
        outputs[corpus_dir / "diagnostics.json"] = _json_text(
            {"corpus_id": source.corpus_id, "dip": dips, "plot": plots})

    for a, b in config.comparisons:
        rows = _comparison_rows(a, corpus_cells[a], b, corpus_cells[b])
        result.comparisons[(a, b)] = rows
        stem = _ks_stem(a, b)
        outputs[out_root / f"{stem}.csv"] = _comparison_csv(rows)
        outputs[out_root / f"{stem}.json"] = _comparison_json(rows)

    # the bytes write_atomic writes; the metadata cannot list its own hash
    manifest = {path.relative_to(out_root).as_posix():
                hashlib.sha256(text.encode("utf-8")).hexdigest()
                for path, text in outputs.items()}
    outputs[out_root / "run_metadata.json"] = _json_text({
        "tool": "vlcontrast",
        "version": __version__,
        "config_sha256": config.canonical_hash(),
        "options": {
            "bin_width_ms": config.bin_width_ms,
            "outlier_filtering": config.outlier_filtering,
            "phone_map": config.phone_map_path,
            "speaker_from": config.speaker_from,
        },
        "corpora": corpus_counts,
        "outputs": manifest,
    })

    for path, text in outputs.items():
        write_atomic(path, text)
        result.output_paths.append(path)
    return result
