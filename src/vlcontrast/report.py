"""Analysis orchestration and report emission.

Runs the whole pipeline over one or more corpora of alignment files and
writes, per corpus, a contrast feature table (one row per vowel, columns
in a fixed order: occurrence counts, means, r1, r2, area, delta),
plot data sufficient to re-render histogram + gamma-curve figures, dip
diagnostics, per-comparison KS results, and a run-metadata file.

All outputs are deterministic: fixed vowel ordering, no timestamps, full
float precision in CSV/JSON, and atomic write-then-rename file emission.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .alignment import (
    ParseError,
    PhoneMap,
    default_phone_map,
    extract_vowel_tokens,
    load_phone_map,
    parse_ctm,
    parse_textgrid,
    speaker_rule,
)
from .durations import (DurationSampleSet, build_histogram, collect_cells,
                         filter_outliers, pooled_samples)
from .features import VOWEL_ORDER, ContrastReport, compare_corpora, contrast_report
from .gamma import GammaFit, gamma_pdf
from .stattests import TestResult, dip_test

__all__ = [
    "ConfigError",
    "CorpusLoadError",
    "CorpusSource",
    "AnalysisConfig",
    "RunResult",
    "run_analysis",
    "emit_table",
    "emit_plotdata",
    "report_from_dict",
    "write_atomic",
]

# ASCII-safe file-name slugs for the vowel classes.
VOWEL_SLUGS = {"i": "i", "e": "e", "ɛ": "eh", "a": "a", "ɔ": "oh",
               "o": "o", "u": "u", "ə": "schwa"}

TABLE_COLUMNS = ("vowel", "n_short", "n_long", "mu_short_ms", "mu_long_ms",
                 "r1", "r2", "area", "delta_ms", "significant", "flags", "error")

R1_UNDEFINED_MARK = "NA(no-long-mass)"
R2_UNDEFINED_MARK = "NA(no-short-mass)"


class ConfigError(ValueError):
    """Invalid analysis configuration."""


class CorpusLoadError(RuntimeError):
    """Corpus-level failure (missing/unparseable/empty input); aborts the run."""


@dataclass(frozen=True)
class CorpusSource:
    corpus_id: str
    paths: tuple[str, ...]
    format: str  # "textgrid" | "ctm"


def _list_of(kind):
    return lambda value: isinstance(value, list) and all(
        isinstance(item, kind) for item in value)


_STRING = (lambda v: isinstance(v, str), "a string")
_STRING_OR_NULL = (lambda v: v is None or isinstance(v, str), "a string or null")
# The keys AnalysisConfig.from_json accepts, at the top level and per
# corpus, each with a check of its JSON value and what the check wants.
_CONFIG_TYPES = {
    "corpora": (_list_of(dict), "a list of corpus objects"),
    "output_dir": _STRING,
    "phone_map": _STRING_OR_NULL,
    "bin_width_ms": (lambda v: type(v) in (int, float), "a number"),
    "outlier_filtering": (lambda v: type(v) is bool, "true or false"),
    "output_formats": (_list_of(str), "a list of strings"),
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


def _check_entry(entry: dict, types: dict) -> None:
    """Reject unknown keys and values of the wrong JSON type, naming the key."""
    unknown = sorted(set(entry) - set(types))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown}")
    for key, value in entry.items():
        valid, expected = types[key]
        if not valid(value):
            raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class AnalysisConfig:
    corpora: tuple[CorpusSource, ...]
    output_dir: str
    phone_map_path: str | None = None
    bin_width_ms: float = 10.0
    outlier_filtering: bool = True
    output_formats: tuple[str, ...] = ("csv", "json", "markdown")
    comparisons: tuple[tuple[str, str], ...] = ()
    speaker_from: str | None = None

    def __post_init__(self) -> None:
        if not self.corpora:
            raise ConfigError("config lists zero corpora")
        ids = [c.corpus_id for c in self.corpora]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate corpus ids in {ids}")
        for c in self.corpora:
            if c.corpus_id in ("", ".", "..") or {"/", "\\"} & set(c.corpus_id):
                raise ConfigError("config key 'corpus_id' must be one plain path "
                                  f"component, got {c.corpus_id!r}")
            if c.format not in ("textgrid", "ctm"):
                raise ConfigError(f"unknown corpus format {c.format!r}")
            if not c.paths:
                raise ConfigError(f"corpus {c.corpus_id!r} lists no paths")
        if not (math.isfinite(self.bin_width_ms) and self.bin_width_ms > 0):
            raise ConfigError("config key 'bin_width_ms' must be a positive "
                              f"finite number, got {self.bin_width_ms!r}")
        for fmt in self.output_formats:
            if fmt not in ("csv", "json", "markdown"):
                raise ConfigError(f"unknown output format {fmt!r}")
        for a, b in self.comparisons:
            if a not in ids or b not in ids:
                raise ConfigError(f"comparison ({a!r}, {b!r}) names unknown corpus")

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        _check_entry(obj, _CONFIG_TYPES)
        for corpus in obj.get("corpora", []):
            _check_entry(corpus, _CORPUS_TYPES)
        try:
            corpora = tuple(
                CorpusSource(
                    corpus_id=c["corpus_id"],
                    paths=tuple(c["paths"]) if isinstance(c["paths"], list)
                    else (c["paths"],),
                    format=c["format"],
                )
                for c in obj.get("corpora", ())
            )
            return cls(
                corpora=corpora,
                output_dir=obj["output_dir"],
                phone_map_path=obj.get("phone_map"),
                bin_width_ms=float(obj.get("bin_width_ms", 10.0)),
                outlier_filtering=obj.get("outlier_filtering", True),
                output_formats=tuple(obj.get("output_formats",
                                             ("csv", "json", "markdown"))),
                comparisons=tuple((a, b) for a, b in obj.get("comparisons", ())),
                speaker_from=obj.get("speaker_from"),
            )
        except KeyError as exc:
            raise ConfigError(f"config is missing key {exc}") from exc

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
    fields = dict(obj, flags=frozenset(obj["flags"]))
    for key in _FIT_FIELDS:
        if obj[key] is not None:
            ll = obj[key]["log_likelihood"]
            fields[key] = GammaFit(**dict(
                obj[key], log_likelihood=math.nan if ll is None else ll))
    return ContrastReport(**fields)


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
        lines = [",".join(TABLE_COLUMNS)]
        for r in reports:
            lines.append(",".join(_table_row(r, full_precision=True)))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "corpus_id": reports[0].corpus_id,
            "reports": [_report_dict(r) for r in reports],
        }
        return json.dumps(payload, indent=2, ensure_ascii=False,
                          sort_keys=True) + "\n"
    if fmt == "markdown":
        header = ("| Vowel | #occ short | #occ long | μ short (ms) | "
                  "μ long (ms) | r1 | r2 | 𝒜 | Δ (ms) | significant | flags |")
        sep = "|" + "---|" * 11
        lines = [header, sep]
        for r in reports:
            row = _table_row(r, full_precision=False)
            cells = row[:10] + [row[10] if not r.error else
                                (row[10] + " ERROR").strip()]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def _plot_upper_limit(fit_short: GammaFit, fit_long: GammaFit) -> float:
    """Right end (ms) of the plot grid: the larger mode + 40 SD of the fits."""
    limit = 0.0
    for fit in (fit_short, fit_long):
        mode = (fit.shape - 1.0) * fit.scale if fit.shape >= 1.0 else 0.0
        limit = max(limit, mode + 40.0 * math.sqrt(fit.shape) * fit.scale)
    return limit


def emit_plotdata(report: ContrastReport, histograms) -> str:
    """CSV with histogram step densities and fitted curves for one vowel.

    Columns: x_ms, hist_density_short, hist_density_long, pdf_short,
    pdf_long.  x runs over the union of histogram bin centers and a 1 ms
    grid across [0, U]; enough to re-render the usual histogram +
    density-curve figures in any plotter.
    """
    if report.fit_short is None or report.fit_long is None:
        raise ValueError(
            f"plot data needs successful fits for vowel {report.vowel_class!r}"
            + (f" ({report.error})" if report.error else ""))
    hist_short, hist_long = histograms
    upper = _plot_upper_limit(report.fit_short, report.fit_long)
    xs = set(float(x) for x in range(0, int(math.ceil(upper)) + 1))
    for hist in (hist_short, hist_long):
        for i in range(hist.nbins):
            xs.add((i + 0.5) * hist.bin_width_ms)
    lines = ["x_ms,hist_density_short,hist_density_long,pdf_short,pdf_long"]
    for x in sorted(xs):
        lines.append(",".join([
            repr(x),
            repr(hist_short.density_at(x)),
            repr(hist_long.density_at(x)),
            repr(gamma_pdf(report.fit_short, x)),
            repr(gamma_pdf(report.fit_long, x)),
        ]))
    return "\n".join(lines) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
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


def _load_corpus_tokens(source: CorpusSource, phone_map: PhoneMap, speaker):
    tokens = []
    for path in _alignment_files(source):
        try:
            text = _read_alignment_text(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusLoadError(f"cannot read {path}: {exc}") from exc
        try:
            if source.format == "ctm":
                intervals = parse_ctm(text)
            else:
                intervals = []
                for _tier, tier_intervals in parse_textgrid(
                        text, utterance_id=path.stem):
                    intervals.extend(tier_intervals)
        except ParseError as exc:
            raise CorpusLoadError(f"{path}: {exc}") from exc
        tokens.extend(extract_vowel_tokens(intervals, phone_map, speaker))
    if not tokens:
        raise CorpusLoadError(
            f"corpus {source.corpus_id!r} contains no vowel tokens "
            f"(checked {source.paths})")
    return tokens


def _corpus_reports(cells, corpus_id: str) -> list[ContrastReport]:
    reports = []
    for vowel in VOWEL_ORDER:
        cell_s = cells.get((vowel, "short"))
        cell_l = cells.get((vowel, "long"))
        if cell_s is None and cell_l is None:
            continue
        if cell_s is None:
            cell_s = DurationSampleSet(vowel, "short", corpus_id, ())
        if cell_l is None:
            cell_l = DurationSampleSet(vowel, "long", corpus_id, ())
        reports.append(contrast_report(cell_s, cell_l))
    return reports


def _diagnostics(cells) -> dict:
    """Per-vowel dip statistic over the pooled (short+long) durations."""
    out = {}
    for vowel in VOWEL_ORDER:
        pooled = pooled_samples(cells, vowel)
        if pooled.size >= 4:
            result = dip_test(pooled)
            out[vowel] = {"dip": result.statistic, "n": result.n1}
    return out


def _comparison_rows(cells_a, cells_b) -> list[TestResult]:
    rows: list[TestResult] = []
    for vowel in VOWEL_ORDER:
        for length in ("short", "long", "pooled"):
            try:
                rows.append(compare_corpora(vowel, cells_a, cells_b, length))
            except ValueError:
                continue  # cell empty on one side: no comparison
    return rows


def _comparison_csv(rows) -> str:
    lines = ["vowel,length_class,D,p_value,n_a,n_b"]
    for r in rows:
        lines.append(",".join([
            r.vowel_class, r.length_class, repr(r.statistic),
            repr(r.p_value), str(r.n1), str(r.n2)]))
    return "\n".join(lines) + "\n"


def run_analysis(config: AnalysisConfig, comparisons_only: bool = False) -> RunResult:
    """Execute the configured analysis; returns the written output paths.

    Corpus-level problems (missing files, parse failures, empty corpora)
    raise CorpusLoadError/ConfigError; per-vowel degenerate fits degrade
    to flagged table rows instead.  With `comparisons_only` the per-corpus
    feature/plot/diagnostic outputs are skipped and only the configured KS
    comparisons (plus run metadata) are written.
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
    corpus_cells: dict[str, dict] = {}
    token_counts: dict[str, dict] = {}

    for source in config.corpora:
        tokens = _load_corpus_tokens(source, phone_map, speaker)
        # every output of the corpus reads this one (vowel, length) -> cell map
        cells = collect_cells(tokens, source.corpus_id)
        if config.outlier_filtering:
            cells = {key: filter_outliers(cell) for key, cell in cells.items()}
        corpus_cells[source.corpus_id] = cells
        if not comparisons_only:
            reports = _corpus_reports(cells, source.corpus_id)
            result.reports[source.corpus_id] = reports
            corpus_dir = out_root / source.corpus_id

            fmt_files = {"csv": "features.csv", "json": "features.json",
                         "markdown": "features.md"}
            for fmt in config.output_formats:
                if reports:
                    path = corpus_dir / fmt_files[fmt]
                    write_atomic(path, emit_table(reports, fmt))
                    result.output_paths.append(path)

            for report in reports:
                if report.fit_short is None or report.fit_long is None:
                    continue
                hist_s = build_histogram(cells[(report.vowel_class, "short")],
                                         config.bin_width_ms)
                hist_l = build_histogram(cells[(report.vowel_class, "long")],
                                         config.bin_width_ms)
                path = corpus_dir / f"plot_{VOWEL_SLUGS[report.vowel_class]}.csv"
                write_atomic(path, emit_plotdata(report, (hist_s, hist_l)))
                result.output_paths.append(path)

            diagnostics = _diagnostics(cells)
            path = corpus_dir / "diagnostics.json"
            write_atomic(path, json.dumps(
                {"corpus_id": source.corpus_id, "dip": diagnostics},
                indent=2, ensure_ascii=False, sort_keys=True) + "\n")
            result.output_paths.append(path)

        per_speaker: dict[str, int] = {}
        for tok in tokens:
            if tok.speaker_id is not None:
                per_speaker[tok.speaker_id] = per_speaker.get(tok.speaker_id, 0) + 1
        token_counts[source.corpus_id] = {
            "tokens": len(tokens),
            "per_speaker": per_speaker or None,
        }

    for a, b in config.comparisons:
        rows = _comparison_rows(corpus_cells[a], corpus_cells[b])
        result.comparisons[(a, b)] = rows
        path = out_root / f"ks_{a}_vs_{b}.csv"
        write_atomic(path, _comparison_csv(rows))
        result.output_paths.append(path)
        if "json" in config.output_formats:
            payload = [{
                "vowel_class": r.vowel_class, "length_class": r.length_class,
                "statistic": r.statistic, "p_value": r.p_value,
                "n_a": r.n1, "n_b": r.n2,
                "corpus_a": r.corpus_a, "corpus_b": r.corpus_b,
            } for r in rows]
            path = out_root / f"ks_{a}_vs_{b}.json"
            write_atomic(path, json.dumps(payload, indent=2,
                                          ensure_ascii=False) + "\n")
            result.output_paths.append(path)

    metadata = {
        "tool": "vlcontrast",
        "version": __version__,
        "config_sha256": config.canonical_hash(),
        "options": {
            "bin_width_ms": config.bin_width_ms,
            "outlier_filtering": config.outlier_filtering,
            "output_formats": list(config.output_formats),
            "phone_map": config.phone_map_path,
            "speaker_from": config.speaker_from,
            "ks_on_filtered_durations": config.outlier_filtering,
        },
        "corpora": token_counts,
    }
    path = out_root / "run_metadata.json"
    write_atomic(path, json.dumps(metadata, indent=2, ensure_ascii=False,
                                  sort_keys=True) + "\n")
    result.output_paths.append(path)
    return result
