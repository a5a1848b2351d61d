"""Spans around the functions `run_analysis` calls, recorded from outside.

`Tracer.install` replaces each wrapped function at the module attribute
`run_analysis` (or `contrast_report` / `compare_corpora`) looks it up
by, so the program's own files stay untouched.  Every call of a wrapped
function becomes a span (name, start, end, parent span, run id) kept in
memory; `gamma_pdf` calls are only counted, per calling span.  A name the
program no longer has is recorded as missing, and the metrics that need it
are left out by `layer_metrics` instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import time
from collections import Counter

# (module, attribute) pairs that get a span; the span name is
# "<module suffix>.<attribute>", e.g. "report.parse_ctm".
SPANNED = (
    ("vlcontrast.report", "parse_ctm"),
    ("vlcontrast.report", "parse_textgrid"),
    ("vlcontrast.report", "extract_vowel_tokens"),
    ("vlcontrast.report", "collect_cells"),
    ("vlcontrast.report", "contrast_report"),
    ("vlcontrast.report", "filter_outliers"),
    ("vlcontrast.report", "build_histogram"),
    ("vlcontrast.report", "emit_plotdata"),
    ("vlcontrast.report", "emit_table"),
    ("vlcontrast.report", "dip_test"),
    ("vlcontrast.report", "compare_corpora"),
    ("vlcontrast.report", "write_atomic"),
    ("vlcontrast.features", "fit_gamma"),
    ("vlcontrast.features", "compute_area"),
    ("vlcontrast.features", "filter_outliers"),
    ("vlcontrast.features", "ks_two_sample"),
)

# Counted without a span, attributed to the innermost open span.
COUNTED = (
    ("vlcontrast.report", "gamma_pdf"),
    ("vlcontrast.features", "gamma_pdf"),
)

ROOT_SPAN = "report.run_analysis"


def _span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _count_intervals_ctm(tracer, args, result):
    tracer.counters["intervals"] += len(result)


def _count_intervals_textgrid(tracer, args, result):
    tracer.counters["intervals"] += sum(len(iv) for _tier, iv in result)


def _count_tokens(tracer, args, result):
    tracer.counters["tokens"] += len(result)


def _count_filter(tracer, args, result):
    cell = args[0]
    tracer.counters["filter_in"] += cell.n
    tracer.counters["filter_out"] += result.n
    tracer.filtered_cells.add((cell.corpus_id, cell.vowel_class, cell.length_class))


def _count_ks(tracer, args, result):
    tracer.counters["ks_points"] += len(args[0]) + len(args[1])


def _count_dip(tracer, args, result):
    tracer.counters["dip_points"] += len(args[0])


def _count_plot(tracer, args, result):
    tracer.counters["plot_rows"] += result.count("\n") - 1


def _count_write(tracer, args, result):
    tracer.written_paths.append(args[0])


# span name -> (counters it feeds, hook reading the call's arguments/result)
HOOKS = {
    "report.parse_ctm": (("intervals",), _count_intervals_ctm),
    "report.parse_textgrid": (("intervals",), _count_intervals_textgrid),
    "report.extract_vowel_tokens": (("tokens",), _count_tokens),
    "report.filter_outliers": (("filter_in", "filter_out", "filtered_cells"), _count_filter),
    "features.filter_outliers": (("filter_in", "filter_out", "filtered_cells"), _count_filter),
    "features.ks_two_sample": (("ks_points",), _count_ks),
    "report.dip_test": (("dip_points",), _count_dip),
    "report.emit_plotdata": (("plot_rows",), _count_plot),
    "report.write_atomic": (("files_written", "bytes_written"), _count_write),
}


class Tracer:
    """Records spans and counters for the run_analysis calls it wraps."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counters: Counter = Counter()
        self.pdf_calls: Counter = Counter()  # caller span name -> calls
        self.filtered_cells: set = set()
        self.written_paths: list = []
        self.read_paths: list = []
        self.missing: list[str] = []
        self.broken: set[str] = set()  # counters whose hook no longer fits
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, attr in SPANNED:
            name = _span_name(module_name, attr)
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._patch(module, attr, self._spanned(name, fn, HOOKS.get(name)))
        for module_name, attr in COUNTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(_span_name(module_name, attr))
                continue
            self._patch(module, attr, self._counted(fn))
        read_text = pathlib.Path.read_text
        read_paths = self.read_paths

        def traced_read_text(path, *args, **kwargs):
            read_paths.append(path)
            return read_text(path, *args, **kwargs)

        self._patch(pathlib.Path, "read_text", traced_read_text)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, hook):
        spans, stack, names = self.spans, self._stack, self._names
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                self._run_hook(hook, args, result)
            return result

        return wrapper

    def _run_hook(self, hook, args, result) -> None:
        counters, fn = hook
        if counters[0] in self.broken:
            return
        try:
            fn(self, args, result)
        except (AttributeError, IndexError, TypeError):
            # the call signature changed; drop the counter, keep the run
            self.broken.update(counters)

    def _counted(self, fn):
        calls, names = self.pdf_calls, self._names

        def wrapper(*args, **kwargs):
            calls[names[-1] if names else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_root(self, fn, *args, **kwargs):
        """Call `fn` as the root span (run_analysis itself)."""
        return self._spanned(ROOT_SPAN, fn, None)(*args, **kwargs)

    # -- output -----------------------------------------------------------

    def document(self) -> dict:
        """Spans and counters as JSON-ready data; stats files touched."""
        counters = dict(self.counters)
        counters["files_read"] = len(self.read_paths)
        counters["bytes_read"] = sum(os.path.getsize(p) for p in self.read_paths)
        if "files_written" not in self.broken:
            counters["files_written"] = len(self.written_paths)
            counters["bytes_written"] = sum(
                os.path.getsize(p) for p in self.written_paths)
        counters["filtered_cells"] = len(self.filtered_cells)
        return {
            "run": self.run_id,
            "spans": [
                {"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run_id}
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
            "counters": counters,
            "pdf_calls": {str(k): v for k, v in self.pdf_calls.items()},
            "missing": self.missing,
            "broken": sorted(self.broken),
        }


# ---------------------------------------------------------------------------
# aggregation


class _Absent(Exception):
    """A metric needs a name the program no longer has."""


class _Spans:
    def __init__(self, doc: dict):
        self.missing = set(doc["missing"])
        self.broken = set(doc["broken"])
        self.counters = doc["counters"]
        self.pdf_calls = doc["pdf_calls"]
        spans = doc["spans"]
        children: dict[int, list[dict]] = {}
        for span in spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        for span in spans:
            duration = span["end"] - span["start"]
            self.total[span["name"]] += duration
            self.calls[span["name"]] += 1
            self.self_time[span["name"]] += duration - _covered(
                span, children.get(span["id"], ()))

    def _present(self, names) -> None:
        if names and all(n in self.missing for n in names):
            raise _Absent(names)

    def seconds(self, *names) -> float:
        self._present(names)
        return sum(self.total[n] for n in names)

    def self_seconds(self, name) -> float:
        self._present((name,))
        return self.self_time[name]

    def count_calls(self, *names) -> int:
        self._present(names)
        return sum(self.calls[n] for n in names)

    def counter(self, key, *sources) -> int:
        self._present(sources)
        if key in self.broken:
            raise _Absent(key)
        return self.counters.get(key, 0)

    def pdf_evals(self, caller) -> int:
        self._present(("report.gamma_pdf", "features.gamma_pdf"))
        self._present((caller,))
        return self.pdf_calls.get(caller, 0)


def _covered(span: dict, kids) -> float:
    """Length of the part of `span` covered by the union of its children."""
    covered = 0.0
    reach = span["start"]
    for kid in sorted(kids, key=lambda s: s["start"]):
        start = max(kid["start"], reach)
        end = min(kid["end"], span["end"])
        if end > start:
            covered += end - start
            reach = end
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_FILTERS = ("report.filter_outliers", "features.filter_outliers")
_PARSERS = ("report.parse_ctm", "report.parse_textgrid")

# metric name -> (unit, value from the aggregated spans of one traced run)
LAYER_METRICS = {
    "alignment.parse_ctm.s": ("s", lambda a: a.seconds("report.parse_ctm")),
    "alignment.parse_textgrid.s": ("s", lambda a: a.seconds("report.parse_textgrid")),
    "alignment.extract_vowel_tokens.s": (
        "s", lambda a: a.seconds("report.extract_vowel_tokens")),
    "alignment.intervals": ("count", lambda a: a.counter("intervals", *_PARSERS)),
    "alignment.tokens": (
        "count", lambda a: a.counter("tokens", "report.extract_vowel_tokens")),
    "alignment.vowel_yield": ("ratio", lambda a: _ratio(
        a.counter("tokens", "report.extract_vowel_tokens"),
        a.counter("intervals", *_PARSERS))),
    "durations.collect_cells.s": ("s", lambda a: a.seconds("report.collect_cells")),
    "durations.filter_outliers.s": ("s", lambda a: a.seconds(*_FILTERS)),
    "durations.filter_outliers.calls": ("count", lambda a: a.count_calls(*_FILTERS)),
    "durations.filter_calls_per_cell": ("ratio", lambda a: _ratio(
        a.count_calls(*_FILTERS), a.counter("filtered_cells", *_FILTERS))),
    "durations.filter_kept_ratio": ("ratio", lambda a: _ratio(
        a.counter("filter_out", *_FILTERS), a.counter("filter_in", *_FILTERS))),
    "durations.build_histogram.s": ("s", lambda a: a.seconds("report.build_histogram")),
    "gamma.fit_gamma.s": ("s", lambda a: a.seconds("features.fit_gamma")),
    "gamma.fit_gamma.calls": ("count", lambda a: a.count_calls("features.fit_gamma")),
    "features.contrast_report.self_s": (
        "s", lambda a: a.self_seconds("report.contrast_report")),
    "features.compute_area.s": ("s", lambda a: a.seconds("features.compute_area")),
    "features.area_pdf_evals": (
        "count", lambda a: a.pdf_evals("features.compute_area")),
    "features.compare_corpora.self_s": (
        "s", lambda a: a.self_seconds("report.compare_corpora")),
    "features.compare_corpora.calls": (
        "count", lambda a: a.count_calls("report.compare_corpora")),
    "stattests.dip_test.s": ("s", lambda a: a.seconds("report.dip_test")),
    "stattests.dip_points": ("count", lambda a: a.counter("dip_points", "report.dip_test")),
    "stattests.ks_two_sample.s": ("s", lambda a: a.seconds("features.ks_two_sample")),
    "stattests.ks_points": (
        "count", lambda a: a.counter("ks_points", "features.ks_two_sample")),
    "report.run_analysis.self_s": ("s", lambda a: a.self_seconds(ROOT_SPAN)),
    "report.files_read": ("count", lambda a: a.counter("files_read")),
    "report.bytes_read": ("B", lambda a: a.counter("bytes_read")),
    "report.emit_plotdata.s": ("s", lambda a: a.seconds("report.emit_plotdata")),
    "report.plot_rows": (
        "count", lambda a: a.counter("plot_rows", "report.emit_plotdata")),
    "report.plot_pdf_evals": (
        "count", lambda a: a.pdf_evals("report.emit_plotdata")),
    "report.emit_table.s": ("s", lambda a: a.seconds("report.emit_table")),
    "report.write_atomic.s": ("s", lambda a: a.seconds("report.write_atomic")),
    "report.files_written": (
        "count", lambda a: a.counter("files_written", "report.write_atomic")),
    "report.bytes_written": (
        "B", lambda a: a.counter("bytes_written", "report.write_atomic")),
}


def layer_metrics(doc: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of one traced run, and the names left out."""
    agg = _Spans(doc)
    values: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for name, (unit, compute) in LAYER_METRICS.items():
        try:
            values[name] = (compute(agg), unit)
        except _Absent:
            absent.append(name)
    return values, absent
