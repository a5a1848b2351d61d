"""Forced-alignment file ingestion: Praat TextGrid and CTM parsers, plus
the phone-label map that turns aligned phones into (vowel, length) tokens.

Only the Praat "long" text format is accepted; the short variant is
rejected with an explicit error.  Phone labels are compared after Unicode
NFC normalization so that composed/decomposed encodings of labels like
"ɛ" behave identically.

Parsers return an `IntervalTable` and `extract_vowel_tokens` a
`TokenTable`: numpy columns plus the distinct utterance ids and labels
their codes index.  A row is read from the columns, e.g.
`table.labels[table.label[i]]` or `CELLS[tokens.cell[i]]`.
"""

from __future__ import annotations

import json
import logging
import math
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, compress, product
from typing import Callable

import numpy as np

__all__ = [
    "ParseError",
    "PhoneMapError",
    "PhoneMap",
    "IntervalTable",
    "TokenTable",
    "VOWEL_CLASSES",
    "CONTRASTED_VOWELS",
    "CELLS",
    "parse_textgrid",
    "parse_ctm",
    "load_phone_map",
    "default_phone_map",
    "extract_vowel_tokens",
    "speaker_rule",
]

logger = logging.getLogger(__name__)

# Wolof vocalic system: 8 short vowels, each with a long counterpart
# except the schwa.
CONTRASTED_VOWELS = ("i", "e", "ɛ", "a", "ɔ", "o", "u")
VOWEL_CLASSES = CONTRASTED_VOWELS + ("ə",)
LENGTH_CLASSES = ("short", "long")
# Every (vowel, length) cell; a TokenTable's cell codes index this tuple.
CELLS = tuple(cell for cell in product(VOWEL_CLASSES, LENGTH_CLASSES)
              if cell != ("ə", "long"))
_CELL_CODES = {cell: code for code, cell in enumerate(CELLS)}


def _cell_problem(vowel: str, length: str) -> str | None:
    """Why (vowel, length) is not one of CELLS, or None when it is."""
    if vowel not in VOWEL_CLASSES:
        return f"unknown vowel class {vowel!r}"
    if length not in LENGTH_CLASSES:
        return f"unknown length class {length!r}"
    if (vowel, length) not in _CELL_CODES:
        return f"{vowel} has no {length} counterpart"
    return None


class ParseError(ValueError):
    """Malformed alignment file; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PhoneMapError(ValueError):
    """Invalid phone map configuration."""


class ConfigError(ValueError):
    """Invalid analysis configuration or corpus spec."""


def _list_of(kind):
    return lambda value: isinstance(value, list) and all(
        isinstance(item, kind) for item in value)


# The least integer that float() cannot hold; a JSON integer may be larger.
_FLOAT_LIMIT = 2**1024 - 2**970
# Key-table rules: a check of a JSON value and what the check wants.
_STRING = (lambda v: isinstance(v, str), "a string")
_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) is float or (type(v) is int and abs(v) < _FLOAT_LIMIT),
           "a number in float range")


def _check_entry(entry, types: dict, required, where: str,
                 error: type[ValueError]) -> None:
    """Reject a non-object, unknown keys, missing `required` keys and values
    of the wrong JSON type, naming the key and `where` the entry sits."""
    if not isinstance(entry, dict):
        raise error(f"{where}: not a JSON object")
    unknown = sorted(set(entry) - set(types))
    if unknown:
        raise error(f"{where}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(entry))
    if missing:
        raise error(f"{where}: missing key(s) {missing}")
    for key, value in entry.items():
        valid, expected = types[key]
        if not valid(value):
            raise error(f"{where}: key {key!r} must be {expected}, got {value!r}")


def _check_utf8(text: str, key: str, noun: str, error: type[ValueError]) -> None:
    """Reject a string with a lone surrogate, which JSON's "\\ud800" escape
    can write and no UTF-8 file, name or message can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"{noun} key {key!r} must encode as UTF-8, got {text!r}") from None


def _json_object(text: str, where: str, types: dict, required,
                 error: type[ValueError]) -> dict:
    """Parse `text` as one JSON object and check it with `_check_entry`;
    every mistake raises `error`, with a message that names the key or
    starts with `where`."""
    # a corpus spec's keys are config keys too, as in _check_corpus_id
    noun = "config" if error is ConfigError else where

    def checked_pairs(pairs):  # called once per JSON object, innermost first
        obj = {}
        for key, value in pairs:
            if key in obj:  # json would keep the last value
                raise error(f"{where}: key {key!r} is given twice")
            items = [key, value]  # an object in the value checked its own pairs
            while items:
                item = items.pop()
                if isinstance(item, list):
                    items += item
                elif isinstance(item, str):
                    _check_utf8(item, key, noun, error)
            obj[key] = value
        return obj

    try:  # RFC 8259 lets a parser ignore a leading byte-order mark
        obj = json.loads(text.removeprefix("\ufeff"), object_pairs_hook=checked_pairs)
    except error:
        raise
    except (ValueError, RecursionError) as exc:  # bad, huge or too deep JSON
        raise error(f"{where}: invalid JSON: {exc}") from None
    _check_entry(obj, types, required, where, error)
    return obj


def _check_corpus_id(corpus_id: str) -> None:
    """A corpus id names a directory the run writes, so it must be one
    plain path component, without the NUL no file name can hold, that
    encodes as UTF-8."""
    if corpus_id in ("", ".", "..") or {"/", "\\", "\0"} & set(corpus_id):
        raise ConfigError("config key 'corpus_id' must be one plain path "
                          f"component, got {corpus_id!r}")
    _check_utf8(corpus_id, "corpus_id", "config", ConfigError)


def _nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)


def _code(index: dict, values) -> np.ndarray:
    """The code of each value in `index` (value -> code); a value not yet
    there gets the next free code, so codes follow first appearance."""
    for value in dict.fromkeys(values):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, values), np.intp, len(values))


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Aligned phones as columns: `utterance` and `label` are codes into the
    distinct `utterance_ids` and NFC `labels`; `start` and `duration` are
    float64 seconds."""

    utterance_ids: tuple[str, ...]
    utterance: np.ndarray
    labels: tuple[str, ...]
    label: np.ndarray
    start: np.ndarray
    duration: np.ndarray

    @classmethod
    def from_codes(cls, utterance_ids, utterance, raw_labels, raw_label,
                   start, duration) -> "IntervalTable":
        """Table of utterance and raw-label codes into the distinct
        `utterance_ids` and `raw_labels`; each raw label is NFC-normalized
        once, and raw labels that normalize alike share a code."""
        labels: dict[str, int] = {}
        label = _code(labels, [_nfc(raw) for raw in raw_labels])
        return cls(tuple(utterance_ids), utterance, tuple(labels),
                   label[raw_label], np.asarray(start, dtype=np.float64),
                   np.asarray(duration, dtype=np.float64))

    @classmethod
    def from_columns(cls, utterance_ids, labels, start, duration) -> "IntervalTable":
        """Table of per-row utterance ids and raw labels."""
        utterances: dict[str, int] = {}
        raw_labels: dict[str, int] = {}
        utterance = _code(utterances, utterance_ids)
        raw_label = _code(raw_labels, labels)
        return cls.from_codes(utterances, utterance, raw_labels, raw_label,
                              start, duration)

    def __len__(self) -> int:
        return len(self.start)

    def label_counts(self) -> dict[str, int]:
        """Intervals per label."""
        counts = np.bincount(self.label, minlength=len(self.labels))
        return dict(zip(self.labels, counts.tolist()))


@dataclass(frozen=True, eq=False)
class TokenTable:
    """Vowel tokens as columns: `cell` codes index `CELLS`, `duration_ms`
    is float64 and `utterance` codes index `utterance_ids`."""

    cell: np.ndarray
    duration_ms: np.ndarray
    utterance_ids: tuple[str, ...]
    utterance: np.ndarray

    @classmethod
    def concat(cls, tables) -> "TokenTable":
        """The tables' rows one table after another."""
        offsets = np.cumsum([0] + [len(t.utterance_ids) for t in tables])
        return cls(
            np.concatenate([np.empty(0, np.intp)] + [t.cell for t in tables]),
            np.concatenate([np.empty(0)] + [t.duration_ms for t in tables]),
            tuple(chain.from_iterable(t.utterance_ids for t in tables)),
            np.concatenate([np.empty(0, np.intp)] + [
                t.utterance + offset for t, offset in zip(tables, offsets)]))

    def __len__(self) -> int:
        return len(self.duration_ms)

    def utterance_counts(self) -> Counter:
        """Tokens per utterance id; utterances without tokens are left out."""
        counts = Counter()
        per_code = np.bincount(self.utterance, minlength=len(self.utterance_ids))
        for utterance_id, n in zip(self.utterance_ids, per_code.tolist()):
            if n:
                counts[utterance_id] += n
        return counts


class PhoneMap:
    """Mapping phone_label -> (vowel_class, length_class).

    Labels absent from the map are non-vowels.  The schwa admits only a
    short entry; no label may map to two cells.  A label may not be empty
    or start or end with whitespace: the parsers never read such a label.
    """

    def __init__(self, entries: dict[str, tuple[str, str]]):
        normalized: dict[str, tuple[str, str]] = {}
        for label, (vowel, length) in entries.items():
            if not label or label != label.strip():
                raise PhoneMapError(
                    f"phone label {label!r} is empty or starts or ends with "
                    "whitespace, so no aligned phone can match it")
            label_n = _nfc(label)
            vowel_n = _nfc(vowel)
            problem = _cell_problem(vowel_n, length)
            if problem:
                raise PhoneMapError(f"{problem} for {label!r}")
            if label_n in normalized and normalized[label_n] != (vowel_n, length):
                raise PhoneMapError(f"phone label {label!r} mapped to two cells")
            normalized[label_n] = (vowel_n, length)
        self._entries = normalized

    @property
    def entries(self) -> dict[str, tuple[str, str]]:
        return dict(self._entries)


def default_phone_map() -> PhoneMap:
    """Shipped Wolof map: grapheme = short, doubled grapheme / colon = long.

    e.g. "a" -> (a, short), "aa" -> (a, long), "a:" -> (a, long); the
    schwa maps short-only.
    """
    entries: dict[str, tuple[str, str]] = {}
    for v in CONTRASTED_VOWELS:
        entries[v] = (v, "short")
        entries[v + v] = (v, "long")
        entries[v + ":"] = (v, "long")
        entries[v + "ː"] = (v, "long")  # IPA length mark alias
    entries["ə"] = ("ə", "short")
    return PhoneMap(entries)


# The phone map's keys, at the top level and per entry.
_PHONE_MAP_TYPES = {"phones": (lambda v: isinstance(v, dict),
                               "an object of phone entries")}
_PHONE_TYPES = {"vowel": _STRING, "length": _STRING}


def load_phone_map(text: str) -> PhoneMap:
    """Parse the JSON phone-map format:

    { "phones": { "<label>": {"vowel": "<class>", "length": "short"|"long"} } }
    """
    phones = _json_object(text, "phone map", _PHONE_MAP_TYPES, _PHONE_MAP_TYPES,
                          PhoneMapError)["phones"]
    for label, entry in phones.items():
        _check_entry(entry, _PHONE_TYPES, _PHONE_TYPES,
                     f"phone map entry {label!r}", PhoneMapError)
    return PhoneMap({label: (entry["vowel"], entry["length"])
                     for label, entry in phones.items()})


# ---------------------------------------------------------------------------
# Praat TextGrid (long text format)

# How far (s) an interval may start before the end of the one it follows,
# or a tier or interval reach past the bounds that hold it: rounding slack.
_BOUND_SLACK_S = 1e-9
_ITEM_RE = re.compile(r'^\s*(item|intervals|points)\s*\[\s*\d*\s*\]\s*:\s*$')
_ITEMS_RE = re.compile(r'^\s*item\s*\[\s*\]\s*:\s*$')  # "item []:", no number
_SIZE_RE = re.compile(r'^\s*(intervals|points)\s*:\s*size\s*=\s*(.*?)\s*$')


def _unquote(value: str, lineno: int) -> str:
    value = value.strip()
    if len(value) < 2 or not value.startswith('"') or not value.endswith('"'):
        raise ParseError(f"expected quoted string, got {value!r}", lineno)
    return value[1:-1].replace('""', '"')


def _parse_number(value: str, lineno: int, what: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {value!r}", lineno) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {what}: {value!r}", lineno)
    return number


def _parse_count(value: str, lineno: int, what: str) -> int:
    number = _parse_number(value, lineno, what)
    if not number.is_integer() or number < 0:
        raise ParseError(f"non-integer or negative {what}: {value!r}", lineno)
    return int(number)


def _decimal_difference(lo_text: str, hi_text: str) -> float:
    """hi - lo computed on the decimal strings, so that a boundary pair
    like (20.1234, 20.1407) yields exactly the double nearest to 0.0173,
    matching formats that carry the duration directly.  Both strings have
    passed `_parse_number`, and `Decimal` accepts every finite string that
    `float` does."""
    return float(Decimal(hi_text) - Decimal(lo_text))


def parse_textgrid(text: str, utterance_id: str = ""):
    """Parse a Praat long-format TextGrid.

    Returns a list of (tier_name, IntervalTable) pairs, one per
    IntervalTier, intervals in file order with start/duration in seconds.
    Empty-label intervals are dropped; point tiers are skipped with a
    warning.  Raises ParseError (with line number) on malformed input,
    including a tier outside the file's xmin/xmax or with xmin > xmax, and
    an interval outside its tier's xmin/xmax.
    """
    raw = text.splitlines()
    # (line number, stripped text) of each non-blank line, then an end mark
    lines = [(n, s) for n, s in enumerate(map(str.strip, raw), start=1) if s]
    lines.append((len(raw) or 1, None))
    pos = 0

    def next_line(what: str) -> tuple[int, str]:
        nonlocal pos
        lineno, line = lines[pos]
        if line is None:
            raise ParseError(f"unexpected end of file, expected {what}", lineno)
        pos += 1
        return lineno, line

    def next_value(key: str) -> tuple[int, str]:
        """The value of the next line, which must be `key = value`; the
        key is compared with its spaces removed."""
        lineno, line = next_line(f'"{key} = ..."')
        name, eq, value = line.partition("=")
        if not eq or name.rstrip().replace(" ", "") != key:
            if key in ("xmin", "xmax") and re.fullmatch(r"[-+0-9.eE]+", line):
                raise ParseError(
                    "bare number where a key = value line was expected; "
                    "short TextGrid format is not supported (save as the "
                    "Praat long/'ooTextFile' text format)", lineno)
            raise ParseError(f"expected {key!r} assignment, got {line!r}", lineno)
        return lineno, value.strip()

    def next_number(key: str) -> tuple[int, float, str]:
        lineno, value = next_value(key)
        return lineno, _parse_number(value, lineno, key), value

    lineno, header = next_line("TextGrid header")
    if header.lstrip("\ufeff") != 'File type = "ooTextFile"':
        raise ParseError(
            f'not an ooTextFile TextGrid (header {header!r})', lineno)
    lineno, klass = next_line("Object class")
    if klass != 'Object class = "TextGrid"':
        raise ParseError(f"not a TextGrid object: {klass!r}", lineno)

    _, xmin, _ = next_number("xmin")
    xmax_line, xmax, _ = next_number("xmax")
    if xmax < xmin:
        raise ParseError(f"file xmax {xmax} < xmin {xmin}", xmax_line)
    lineno, tiers_flag = next_line("tiers? flag")
    if not tiers_flag.startswith("tiers?"):
        raise ParseError(f"expected tiers? flag, got {tiers_flag!r}", lineno)
    if "<exists>" not in tiers_flag:
        return []
    lineno, size = next_value("size")
    n_tiers = _parse_count(size, lineno, "tier count")
    if _ITEMS_RE.match(lines[pos][1] or ""):
        pos += 1  # the optional "item []:" line

    tiers = []
    for _ in range(n_tiers):
        lineno, line = next_line("item [...] header")
        if not _ITEM_RE.match(line):
            raise ParseError(f"expected tier item header, got {line!r}", lineno)
        class_line, klass_v = next_value("class")
        tier_class = _unquote(klass_v, class_line)
        lineno, name_v = next_value("name")
        tier_name = _unquote(name_v, lineno)
        lineno, tier_xmin, _ = next_number("xmin")
        if tier_xmin < xmin - _BOUND_SLACK_S:
            raise ParseError(f"tier xmin {tier_xmin} lies before the file's "
                             f"xmin {xmin}", lineno)
        lineno, tier_xmax, _ = next_number("xmax")
        if tier_xmax < tier_xmin:
            raise ParseError(f"tier xmax {tier_xmax} < xmin {tier_xmin}", lineno)
        if tier_xmax > xmax + _BOUND_SLACK_S:
            raise ParseError(f"tier xmax {tier_xmax} lies past the file's "
                             f"xmax {xmax}", lineno)

        lineno, line = next_line("size of tier contents")
        m = _SIZE_RE.match(line)
        if not m:
            raise ParseError(f"expected intervals/points size, got {line!r}", lineno)
        count = _parse_count(m.group(2), lineno, "size")

        if tier_class == "TextTier":
            logger.warning("skipping point tier %r (%d points)", tier_name, count)
            for _ in range(count):
                lineno, line = next_line("point header")
                if not _ITEM_RE.match(line):
                    raise ParseError(f"expected point header, got {line!r}", lineno)
                next_number("number")
                lineno, mark = next_value("mark")
                _unquote(mark, lineno)
            continue
        if tier_class != "IntervalTier":
            raise ParseError(f"unknown tier class {tier_class!r}", class_line)

        labels: list[str] = []
        starts: list[float] = []
        durations: list[float] = []
        prev_end = None
        for _ in range(count):
            lineno, line = next_line("intervals [...] header")
            if not _ITEM_RE.match(line):
                raise ParseError(f"expected interval header, got {line!r}", lineno)
            xmin_line, ixmin, ixmin_text = next_number("xmin")
            if ixmin < 0.0:
                raise ParseError(f"negative start time {ixmin_text}", xmin_line)
            if ixmin < tier_xmin - _BOUND_SLACK_S:
                raise ParseError(f"interval starting at {ixmin} lies before its "
                                 f"tier's xmin {tier_xmin}", xmin_line)
            ix_line, ixmax, ixmax_text = next_number("xmax")
            if ixmax > tier_xmax + _BOUND_SLACK_S:
                raise ParseError(f"interval ending at {ixmax} lies past its "
                                 f"tier's xmax {tier_xmax}", ix_line)
            lineno, text_v = next_value("text")
            label = _unquote(text_v, lineno).strip()
            if ixmax < ixmin:
                raise ParseError(f"interval xmax {ixmax} < xmin {ixmin}", ix_line)
            if prev_end is not None and ixmin < prev_end - _BOUND_SLACK_S:
                raise ParseError(
                    f"interval starting at {ixmin} overlaps previous "
                    f"interval ending at {prev_end}", ix_line)
            prev_end = ixmax
            if not label:
                continue  # silence padding
            if ixmax == ixmin:
                raise ParseError(
                    f"zero-length interval with label {label!r}", ix_line)
            labels.append(label)
            starts.append(ixmin)
            durations.append(_decimal_difference(ixmin_text, ixmax_text))
        tiers.append((tier_name, IntervalTable.from_columns(
            [utterance_id] * len(labels), labels, starts, durations)))
    lineno, trailing = lines[pos]
    if trailing is not None:
        raise ParseError(
            f"content after the last of {n_tiers} declared tier(s) "
            f"(a tier or interval count too small?): {trailing!r}", lineno)
    return tiers


# ---------------------------------------------------------------------------
# CTM

# The kind of each UTF-16 code unit as str.split() and str.splitlines()
# see it: 0 a field character, 1 whitespace within a line, 2 a line
# break.  No whitespace lies outside the BMP, so surrogates are field
# characters.  A CTM in any whitespace layout is split and checked as
# columns, a slice at a time; the line loop only names the first bad line
# of a file the columns reject.
_KIND = np.array([ch.isspace() + (ch.splitlines() != [ch])
                  for ch in map(chr, range(0x10000))], np.uint8)
_HASH = 35


# Characters per slice of a CTM read by the column path; bounds the memory
# that split fields take at once.
_CHUNK_CHARS = 1 << 18
# A line break as str.splitlines() knows it, "\r\n" as one.
_LINE_BREAK = re.compile("\r\n|[%s]" % re.escape(
    "".join(map(chr, np.flatnonzero(_KIND == 2)))))


def _line_chunks(text: str):
    """`text` in slices of about `_CHUNK_CHARS` characters, each ending
    after a line break or at the end of `text`."""
    pos = 0
    while True:
        found = _LINE_BREAK.search(text, pos + _CHUNK_CHARS)
        end = found.end() if found else len(text)
        yield text[pos:end]
        pos = end
        if pos >= len(text):
            return


def _ctm_fields(chunk: str) -> list[str] | None:
    """The fields of the content lines of `chunk`, when every line (as
    str.splitlines() cuts them) is blank, a comment whose first field
    starts with "#", or five fields; None otherwise."""
    # a leading space, so that every field starts after a non-field unit
    units = np.frombuffer((" " + chunk).encode("utf-16-le", "surrogatepass"),
                          np.uint16)
    kind = np.take(_KIND, units)
    field = kind == 0
    starts = np.flatnonzero(field[1:] > field[:-1]) + 1
    # each line's first field, as an index into `starts`; the "\n" of a
    # "\r\n" ends one more line, a blank one, which passes
    breaks = np.flatnonzero(kind == 2)
    first = np.concatenate(([0], np.searchsorted(starts, breaks)))
    counts = np.diff(first, append=starts.size)
    some = counts > 0
    comment = np.zeros(counts.size, bool)
    comment[some] = units[starts[first[some]]] == _HASH
    if (some & (counts != 5) & ~comment).any():
        return None
    fields = chunk.split()
    if comment.any():
        fields = list(compress(fields, np.repeat(~comment, counts).tolist()))
    return fields


def _ctm_line_error(text: str) -> None:
    """Check a CTM one line at a time and raise a ParseError that names
    the first bad line."""
    per_utt: dict[str, list[tuple[float, float, int]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(
                f"expected 5 fields (utt channel start dur phone), "
                f"got {len(parts)}", lineno)
        utt, _channel, start_s, dur_s, _label = parts
        start = _parse_number(start_s, lineno, "start time")
        dur = _parse_number(dur_s, lineno, "duration")
        if dur <= 0.0:
            raise ParseError(f"non-positive duration {dur_s}", lineno)
        if start < 0.0:
            raise ParseError(f"negative start time {start_s}", lineno)
        per_utt.setdefault(utt, []).append((start, dur, lineno))

    for utt, items in per_utt.items():
        items.sort(key=lambda t: t[0])
        prev_end = None
        for start, dur, lineno in items:
            if prev_end is not None and start < prev_end - _BOUND_SLACK_S:
                raise ParseError(
                    f"overlapping intervals in utterance {utt!r}", lineno)
            prev_end = start + dur


def _ctm_columns(fields: list[str], utterances: dict, raw_labels: dict):
    """(utterance code, raw label code, start, duration) columns of the
    5-field rows in `fields`, coded into `utterances` and `raw_labels`.
    Raises ValueError on a time that `float` does not read."""
    n = len(fields) // 5
    return (_code(utterances, fields[0::5]), _code(raw_labels, fields[4::5]),
            np.fromiter(map(float, fields[2::5]), np.float64, n),
            np.fromiter(map(float, fields[3::5]), np.float64, n))


def _ctm_table(text: str) -> IntervalTable | None:
    """The intervals of a CTM, grouped per utterance and sorted by start as
    `_ctm_line_error` orders them; None when a line or a value fails a
    check."""
    utterances: dict[str, int] = {}
    raw_labels: dict[str, int] = {}
    parts = []
    try:
        for chunk in _line_chunks(text):
            fields = _ctm_fields(chunk)
            if fields is None:
                return None
            parts.append(_ctm_columns(fields, utterances, raw_labels))
    except ValueError:
        return None
    utterance, raw_label, start, duration = map(np.concatenate, zip(*parts))
    if not (np.isfinite(start).all() and np.isfinite(duration).all()
            and (duration > 0.0).all() and (start >= 0.0).all()):
        return None
    step, rise = np.diff(utterance), np.diff(start)
    if ((step < 0) | ((step == 0) & (rise < 0))).any():
        # a stable sort: equal starts keep their line order
        order = np.lexsort((start, utterance))
        utterance, raw_label, start, duration = (
            column[order] for column in (utterance, raw_label, start, duration))
    table = IntervalTable.from_codes(utterances, utterance, raw_labels,
                                     raw_label, start, duration)
    end = table.start + table.duration
    overlap = ((table.utterance[1:] == table.utterance[:-1])
               & (table.start[1:] < end[:-1] - _BOUND_SLACK_S))
    return None if overlap.any() else table


def parse_ctm(text: str) -> IntervalTable:
    r"""Parse CTM lines `utt_id channel start_s dur_s phone_label`.

    Fields may be split by any whitespace, and lines end as
    str.splitlines() ends them ("\n", "\r\n", "\r", ...).  `#`-prefixed
    comment lines and blank lines are allowed.  Output is grouped per
    utterance (in order of first appearance) and sorted by start within
    each utterance.  The file is split and checked as columns, a slice at
    a time; only a file that fails a check is read again line by line, so
    that the ParseError names the first bad line.
    """
    table = _ctm_table(text)
    if table is None:
        _ctm_line_error(text)
        raise AssertionError("the column checks rejected a CTM the line loop accepts")
    return table


# ---------------------------------------------------------------------------
# Token extraction

def speaker_rule(spec: str | None) -> Callable[[str], str] | None:
    """Build a speaker-id rule from a CLI spec string.

    `fixed:<value>` assigns the same id to every token; `prefix:<delim>`
    takes the utterance id up to the first occurrence of the delimiter.
    """
    if spec is None:
        return None
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"speaker rule must be 'fixed:<id>' or 'prefix:<delim>', got {spec!r}")
    if kind == "fixed":
        if not arg:
            raise ValueError("fixed speaker rule needs a speaker id")
        return lambda _utt: arg
    if kind == "prefix":
        if not arg:
            raise ValueError("prefix speaker rule needs a delimiter")
        return lambda utt: utt.split(arg, 1)[0]
    raise ValueError(f"unknown speaker rule {kind!r}")


def extract_vowel_tokens(table: IntervalTable, phone_map: PhoneMap) -> TokenTable:
    """Map aligned phones to vowel tokens (durations in ms).

    Intervals whose label is not in the map are silently skipped; input
    order is preserved.
    """
    entries = phone_map.entries  # labels are NFC on both sides
    cell_of_label = np.array([_CELL_CODES.get(entries.get(label), -1)
                              for label in table.labels], dtype=np.intp)
    cell = cell_of_label[table.label]
    vowels = np.flatnonzero(cell >= 0)
    return TokenTable(cell[vowels], table.duration[vowels] * 1000.0,
                      table.utterance_ids, table.utterance[vowels])
