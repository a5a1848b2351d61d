"""Forced-alignment file ingestion: Praat TextGrid and CTM parsers, plus
the phone-label map that turns aligned phones into (vowel, length) tokens.

Only the Praat "long" text format is accepted; the short variant is
rejected with an explicit error.  Phone labels are compared after Unicode
NFC normalization so that composed/decomposed encodings of labels like
"ɛ" behave identically.
"""

from __future__ import annotations

import json
import logging
import math
import re
import unicodedata
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

__all__ = [
    "ParseError",
    "PhoneMapError",
    "PhoneInterval",
    "PhoneMap",
    "VowelToken",
    "VOWEL_CLASSES",
    "CONTRASTED_VOWELS",
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


@dataclass(frozen=True)
class PhoneInterval:
    """One aligned phone: start/duration in seconds, label NFC-normalized."""

    utterance_id: str
    phone_label: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError(f"non-positive duration {self.duration!r}")
        if self.start < 0.0:
            raise ValueError(f"negative start time {self.start!r}")
        object.__setattr__(self, "phone_label", _nfc(self.phone_label))


@dataclass(frozen=True)
class VowelToken:
    """One vowel occurrence attributed to a (vowel, length) cell."""

    vowel_class: str
    length_class: str
    duration_ms: float
    utterance_id: str

    def __post_init__(self) -> None:
        if self.duration_ms <= 0.0:
            raise ValueError(f"non-positive duration {self.duration_ms!r}")


class PhoneMap:
    """Mapping phone_label -> (vowel_class, length_class).

    Labels absent from the map are non-vowels.  The schwa admits only a
    short entry; no label may map to two cells.
    """

    def __init__(self, entries: dict[str, tuple[str, str]]):
        normalized: dict[str, tuple[str, str]] = {}
        for label, (vowel, length) in entries.items():
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

    def lookup(self, phone_label: str) -> tuple[str, str] | None:
        return self._entries.get(_nfc(phone_label))

    def __contains__(self, phone_label: str) -> bool:
        return self.lookup(phone_label) is not None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> dict[str, tuple[str, str]]:
        return dict(self._entries)

    def cells(self) -> set[tuple[str, str]]:
        return set(self._entries.values())


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

    Returns a list of (tier_name, [PhoneInterval]) pairs, one per
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
    if item is None or not _ITEM_RE.match(item[1]):
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

        intervals: list[PhoneInterval] = []
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
            intervals.append(PhoneInterval(
                utterance_id=utterance_id,
                phone_label=label,
                start=ixmin,
                duration=_decimal_difference(ixmin_text, ixmax_text),
            ))
        tiers.append((tier_name, intervals))
    trailing = scanner.next_content()
    if trailing is not None:
        raise ParseError(
            f"content after the last of {n_tiers} declared tier(s) "
            f"(a tier or interval count too small?): {trailing[1]!r}",
            trailing[0])
    return tiers


# ---------------------------------------------------------------------------
# CTM

def parse_ctm(text: str) -> list[PhoneInterval]:
    """Parse CTM lines `utt_id channel start_s dur_s phone_label`.

    `#`-prefixed comment lines and blank lines are allowed.  Output is
    grouped per utterance (in order of first appearance) and sorted by
    start within each utterance.
    """
    per_utt: dict[str, list[tuple[float, int, PhoneInterval]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ParseError(
                f"expected 5 fields (utt channel start dur phone), "
                f"got {len(parts)}", lineno)
        utt, _channel, start_s, dur_s, label = parts
        start = _parse_number(start_s, lineno, "start time")
        dur = _parse_number(dur_s, lineno, "duration")
        if dur <= 0.0:
            raise ParseError(f"non-positive duration {dur_s}", lineno)
        if start < 0.0:
            raise ParseError(f"negative start time {start_s}", lineno)
        interval = PhoneInterval(utterance_id=utt, phone_label=label,
                                 start=start, duration=dur)
        per_utt.setdefault(utt, []).append((start, lineno, interval))

    result: list[PhoneInterval] = []
    for utt, items in per_utt.items():
        items.sort(key=lambda t: t[0])
        prev_end = None
        for start, lineno, interval in items:
            if prev_end is not None and start < prev_end - 1e-9:
                raise ParseError(
                    f"overlapping intervals in utterance {utt!r}", lineno)
            prev_end = start + interval.duration
            result.append(interval)
    return result


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
        return lambda _utt: arg
    if kind == "prefix":
        if not arg:
            raise ValueError("prefix speaker rule needs a delimiter")
        return lambda utt: utt.split(arg, 1)[0]
    raise ValueError(f"unknown speaker rule {kind!r}")


def extract_vowel_tokens(intervals, phone_map: PhoneMap) -> list[VowelToken]:
    """Map aligned phones to vowel tokens (durations in ms).

    Intervals whose label is not in the map are silently skipped; input
    order is preserved.
    """
    entries = phone_map.entries  # labels are NFC on both sides
    tokens: list[VowelToken] = []
    for interval in intervals:
        cell = entries.get(interval.phone_label)
        if cell is None:
            continue
        vowel, length = cell
        tokens.append(VowelToken(
            vowel_class=vowel,
            length_class=length,
            duration_ms=interval.duration * 1000.0,
            utterance_id=interval.utterance_id,
        ))
    return tokens
