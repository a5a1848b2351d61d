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
# Every (vowel, length) pair; a TokenTable's cell codes index this tuple.
CELLS = tuple(product(VOWEL_CLASSES, LENGTH_CLASSES))
_CELL_CODES = {cell: code for code, cell in enumerate(CELLS)}


class ParseError(ValueError):
    """Malformed alignment file; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PhoneMapError(ValueError):
    """Invalid phone map configuration."""


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
            if vowel_n not in VOWEL_CLASSES:
                raise PhoneMapError(f"unknown vowel class {vowel!r} for {label!r}")
            if length not in LENGTH_CLASSES:
                raise PhoneMapError(f"unknown length class {length!r} for {label!r}")
            if vowel_n == "ə" and length == "long":
                raise PhoneMapError("ə has no long counterpart")
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


def _reject_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise PhoneMapError(f"duplicate phone label {key!r} in map")
        obj[key] = value
    return obj


def load_phone_map(text: str) -> PhoneMap:
    """Parse the JSON phone-map format:

    { "phones": { "<label>": {"vowel": "<class>", "length": "short"|"long"} } }
    """
    try:
        obj = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise PhoneMapError(f"invalid JSON in phone map: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("phones"), dict):
        raise PhoneMapError('phone map must be an object with a "phones" table')
    entries: dict[str, tuple[str, str]] = {}
    for label, spec in obj["phones"].items():
        if not isinstance(spec, dict) or "vowel" not in spec or "length" not in spec:
            raise PhoneMapError(f'entry {label!r} needs "vowel" and "length"')
        entries[label] = (str(spec["vowel"]), str(spec["length"]))
    return PhoneMap(entries)


# ---------------------------------------------------------------------------
# Praat TextGrid (long text format)

_KV_RE = re.compile(r'^\s*([A-Za-z?!]+(?:\s+[A-Za-z?!]+)*)\s*=\s*(.*?)\s*$')
_ITEM_RE = re.compile(r'^\s*(item|intervals|points)\s*\[\s*\d*\s*\]\s*:\s*$')
_ITEMS_RE = re.compile(r'^\s*item\s*\[\s*\]\s*:\s*$')  # "item []:", no number
_SIZE_RE = re.compile(r'^\s*(intervals|points)\s*:\s*size\s*=\s*(.*?)\s*$')


class _TextGridScanner:
    """Line cursor that keeps 1-based line numbers for error reporting."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_content(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            self.pos += 1
            stripped = self.lines[self.pos - 1].strip()
            if stripped:
                return self.pos, stripped
        return None

    def expect(self, what: str) -> tuple[int, str]:
        item = self.next_content()
        if item is None:
            raise ParseError(f"unexpected end of file, expected {what}",
                             len(self.lines) or 1)
        return item


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


def _expect_kv(scanner: _TextGridScanner, key: str) -> tuple[int, str]:
    lineno, line = scanner.expect(f'"{key} = ..."')
    m = _KV_RE.match(line)
    if not m or m.group(1).replace(" ", "") != key.replace(" ", ""):
        if key in ("xmin", "xmax") and re.fullmatch(r"[-+0-9.eE]+", line):
            raise ParseError(
                "bare number where a key = value line was expected; "
                "short TextGrid format is not supported (save as the "
                "Praat long/'ooTextFile' text format)", lineno)
        raise ParseError(f"expected {key!r} assignment, got {line!r}", lineno)
    return lineno, m.group(2)


def _expect_number(scanner: _TextGridScanner, key: str) -> tuple[int, float, str]:
    lineno, value = _expect_kv(scanner, key)
    return lineno, _parse_number(value, lineno, key), value


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
    warning.  Raises ParseError (with line number) on malformed input.
    """
    scanner = _TextGridScanner(text)
    lineno, header = scanner.expect("TextGrid header")
    if header.lstrip("\ufeff") != 'File type = "ooTextFile"':
        raise ParseError(
            f'not an ooTextFile TextGrid (header {header!r})', lineno)
    lineno, klass = scanner.expect("Object class")
    if klass != 'Object class = "TextGrid"':
        raise ParseError(f"not a TextGrid object: {klass!r}", lineno)

    _, xmin, _ = _expect_number(scanner, "xmin")
    xmax_line, xmax, _ = _expect_number(scanner, "xmax")
    if xmax < xmin:
        raise ParseError(f"file xmax {xmax} < xmin {xmin}", xmax_line)
    lineno, tiers_flag = scanner.expect("tiers? flag")
    if not tiers_flag.startswith("tiers?"):
        raise ParseError(f"expected tiers? flag, got {tiers_flag!r}", lineno)
    if "<exists>" not in tiers_flag:
        return []
    lineno, size = _expect_kv(scanner, "size")
    n_tiers = _parse_count(size, lineno, "tier count")

    tiers = []
    # optional "item []:" header
    saved = scanner.pos
    item = scanner.next_content()
    if item is None or not _ITEMS_RE.match(item[1]):
        scanner.pos = saved

    for _ in range(n_tiers):
        lineno, line = scanner.expect("item [...] header")
        if not _ITEM_RE.match(line):
            raise ParseError(f"expected tier item header, got {line!r}", lineno)
        lineno, klass_v = _expect_kv(scanner, "class")
        tier_class = _unquote(klass_v, lineno)
        lineno, name_v = _expect_kv(scanner, "name")
        tier_name = _unquote(name_v, lineno)
        _expect_number(scanner, "xmin")
        _expect_number(scanner, "xmax")

        lineno, line = scanner.expect("size of tier contents")
        m = _SIZE_RE.match(line)
        if not m:
            raise ParseError(f"expected intervals/points size, got {line!r}", lineno)
        count = _parse_count(m.group(2), lineno, "size")

        if tier_class == "TextTier":
            logger.warning("skipping point tier %r (%d points)", tier_name, count)
            for _ in range(count):
                scanner.expect("point header")  # points [i]:
                _expect_number(scanner, "number")
                lineno, mark = _expect_kv(scanner, "mark")
                _unquote(mark, lineno)
            continue
        if tier_class != "IntervalTier":
            raise ParseError(f"unknown tier class {tier_class!r}", lineno)

        labels: list[str] = []
        starts: list[float] = []
        durations: list[float] = []
        prev_end = None
        for _ in range(count):
            lineno, line = scanner.expect("intervals [...] header")
            if not _ITEM_RE.match(line):
                raise ParseError(f"expected interval header, got {line!r}", lineno)
            xmin_line, ixmin, ixmin_text = _expect_number(scanner, "xmin")
            if ixmin < 0.0:
                raise ParseError(f"negative start time {ixmin_text}", xmin_line)
            ix_line, ixmax, ixmax_text = _expect_number(scanner, "xmax")
            lineno, text_v = _expect_kv(scanner, "text")
            label = _unquote(text_v, lineno).strip()
            if ixmax < ixmin:
                raise ParseError(f"interval xmax {ixmax} < xmin {ixmin}", ix_line)
            if prev_end is not None and ixmin < prev_end - 1e-9:
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
    trailing = scanner.next_content()
    if trailing is not None:
        raise ParseError(
            f"content after the last of {n_tiers} declared tier(s) "
            f"(a tier or interval count too small?): {trailing[1]!r}",
            trailing[0])
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


def _line_chunks(text: str):
    """`text` in slices of about `_CHUNK_CHARS` characters, each ending
    after a "\n" or at the end of `text`."""
    pos = 0
    while True:
        end = text.find("\n", pos + _CHUNK_CHARS) + 1 or len(text)
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
            if prev_end is not None and start < prev_end - 1e-9:
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
               & (table.start[1:] < end[:-1] - 1e-9))
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
