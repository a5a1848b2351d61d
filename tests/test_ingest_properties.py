"""Property tests of alignment ingestion: the column parsers against a
line-at-a-time CTM parser, the TextGrid reader against the line-scanner
reader it replaced, and TextGrid emit -> parse round trips."""

from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st
from oracles import ctm_line_parser, parse_textgrid_scanner
from tables import rows

from vlcontrast import alignment
from vlcontrast.alignment import ParseError, parse_ctm, parse_textgrid

UTTERANCES = ("u1", "u2", "spk-3", "#u4")  # a line starting "#" is a comment
LABELS = ("a", "aa", "\u00e9", "e\u0301", "sil", "#h", "ɛɛ", "a:", "\U0001d44e")
SEPARATORS = (" ", "  ", "\t", " \t", "\u3000", "\x1f", "\xa0")
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")
COMMENTS = ("# a comment", "#", "  # indented", "#\tx y z")
BLANKS = ("", "   ", "\t")
SETTINGS = settings(max_examples=300, deadline=None)


def _outcome(parse, text):
    """(utterance id, label, start, duration) rows of a parse, times as
    float.hex so -0.0 and 0.0 differ, or the message and line of its
    ParseError."""
    try:
        parsed = parse(text)
    except ParseError as err:
        return ("error", str(err), err.line)
    return ("ok", [(utt, label, start.hex(), duration.hex())
                   for utt, label, start, duration in parsed])


def _parse_ctm_rows(text):
    return rows(parse_ctm(text))


def _seconds(units: int, style: int) -> str:
    """`units` hundredths of a second in one of several spellings."""
    if units == 0 and style >= 3:
        return ("0", "-0.0", "+0")[style - 3]
    return (f"{units / 100:.2f}", f"{units / 100}", f"{units / 100:.6e}",
            f"{units}e-2", f"{units / 100:.4f}", f"{units / 100:.2f}")[style]


@st.composite
def ctm_rows(draw):
    """(utt, start, dur, label) rows that do not overlap within an
    utterance, interleaved across utterances in a random line order.  An
    interval of 1e-10 s lets the next one start at the same time."""
    rows = []
    for utt in draw(st.lists(st.sampled_from(UTTERANCES), unique=True, max_size=4)):
        cursor = 0
        for _ in range(draw(st.integers(0, 6))):
            style = draw(st.integers(0, 5))
            label = draw(st.sampled_from(LABELS))
            if draw(st.integers(0, 3)) == 0:  # tied start
                rows.append((utt, _seconds(cursor, style), "1e-10", label))
                continue
            start = cursor + draw(st.integers(0, 3))
            dur = draw(st.integers(1, 20))
            rows.append((utt, _seconds(start, style),
                         _seconds(dur, draw(st.integers(0, 2))), label))
            cursor = start + dur
    return draw(st.permutations(rows))


@st.composite
def ctm_texts(draw, rows=ctm_rows()):
    """A CTM of generated rows: either plain (single spaces, "\\n" line
    ends, comments at line starts) or with any whitespace layout."""
    plain = draw(st.booleans())
    lines = []
    for utt, start, dur, label in draw(rows):
        fields = (utt, draw(st.sampled_from(("1", "A"))), start, dur, label)
        if plain:
            lines.append(" ".join(fields))
        else:
            seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=4, max_size=4))
            edges = draw(st.lists(st.sampled_from(BLANKS), min_size=2, max_size=2))
            lines.append(edges[0] + fields[0] + "".join(
                s + f for s, f in zip(seps, fields[1:])) + edges[1])
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(COMMENTS[:2] if plain else COMMENTS)))
        if draw(st.integers(0, 6)) == 0:
            lines.append("" if plain else draw(st.sampled_from(BLANKS)))
    if draw(st.booleans()):
        lines.insert(0, "# header comment")
    ends = ("\n",) if plain else LINE_ENDS
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]
    return plain, text


CHUNK_SIZES = st.sampled_from((1, 9, 40, alignment._CHUNK_CHARS))


@SETTINGS
@given(ctm_texts(), CHUNK_SIZES)
def test_ctm_columns_equal_the_line_parser(case, chunk):
    _, text = case
    expected = _outcome(ctm_line_parser, text)
    with mock.patch.object(alignment, "_CHUNK_CHARS", chunk):
        assert _outcome(_parse_ctm_rows, text) == expected
        if expected[0] == "ok":
            assert alignment._ctm_table(text) is not None  # the column path ran


def _bad_line(draw):
    utt = draw(st.sampled_from(UTTERANCES[:3]))
    start = draw(st.sampled_from(("0.00", "0.05", "0.1")))
    return draw(st.sampled_from((
        f"{utt} 1 {start} 0.05",                   # 4 fields
        f"{utt} 1 {start} 0.05 a extra",           # 6 fields
        f"{utt} 1 zero 0.05 a",                    # non-numeric start
        f"{utt} 1 {start} 0,05 a",                 # non-numeric duration
        f"{utt} 1 nan 0.05 a",
        f"{utt} 1 {start} inf a",
        f"{utt} 1 {start} -inf a",
        f"{utt} 1 1e999 0.05 a",                   # overflows to inf
        f"{utt} 1 {start} 0 a",                    # zero duration
        f"{utt} 1 {start} -0.0 a",
        f"{utt} 1 {start} -0.05 a",
        f"{utt} 1 -0.01 0.05 a",                   # negative start
        f"{utt} 1 {start} 0.5 a",                  # overlaps most rows
        f"{utt} 1 0.015 0.2 a",
    )))


@SETTINGS
@given(st.data(), CHUNK_SIZES)
def test_ctm_errors_name_the_same_line_as_the_line_parser(data, chunk):
    plain, text = data.draw(ctm_texts())
    lines = text.split("\n") if plain else text.splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), _bad_line(data.draw))
    text = "\n".join(lines) + "\n"
    with mock.patch.object(alignment, "_CHUNK_CHARS", chunk):
        got = _outcome(_parse_ctm_rows, text)
    assert got == _outcome(ctm_line_parser, text)


# Pieces of CTM-like text: field characters, whitespace of every kind,
# line breaks, comment marks and numbers that float() does or does not read.
CTM_PIECES = st.lists(st.sampled_from(list("u1 0.5\n#a-e\t\r") + [
    "\u2003", "\x85", "\xa0", "\u2028", "\u00e9", "\U0001f600", "nan", "1e-10",
    "1_0", "u 1 0.1 0.1 a\n"])).map("".join)


@SETTINGS
@given(st.one_of(st.text(), CTM_PIECES), CHUNK_SIZES)
def test_arbitrary_text_is_a_table_or_a_parse_error(text, chunk):
    with mock.patch.object(alignment, "_CHUNK_CHARS", chunk):
        got = _outcome(_parse_ctm_rows, text)  # any other exception fails the test
    assert got == _outcome(ctm_line_parser, text)


@SETTINGS
@given(st.text(st.characters(blacklist_categories=())))
def test_arbitrary_text_with_surrogates_is_a_table_or_a_parse_error(text):
    assert _outcome(_parse_ctm_rows, text) == _outcome(ctm_line_parser, text)


def _textgrid(tiers):
    lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
             "xmin = 0", "xmax = 100", "tiers? <exists>", f"size = {len(tiers)}",
             "item []:"]
    for number, (name, intervals) in enumerate(tiers, start=1):
        lines += [f"    item [{number}]:", '        class = "IntervalTier"',
                  f'        name = "{name}"', "        xmin = 0", "        xmax = 100",
                  f"        intervals: size = {len(intervals)}"]
        for i, (lo, hi, text) in enumerate(intervals, start=1):
            lines += [f"        intervals [{i}]:", f"            xmin = {lo}",
                      f"            xmax = {hi}",
                      '            text = "%s"' % text.replace('"', '""')]
    return "\n".join(lines) + "\n"


TG_LABELS = st.sampled_from(("", " ", "a", " aa ", "é", "sil", 'q"t', "ɔ:"))


@st.composite
def textgrid_tiers(draw):
    tiers = []
    for name in draw(st.lists(st.sampled_from(("phones", "words", "x")), max_size=3)):
        bounds = sorted(set(draw(st.lists(st.integers(0, 10**6), max_size=12))))
        places = draw(st.integers(0, 6))
        text = [f"{Decimal(b).scaleb(-4):.{places}f}" for b in bounds]
        tiers.append((name, [(lo, hi, draw(TG_LABELS)) for lo, hi in zip(text, text[1:])
                             if Decimal(lo) < Decimal(hi)]))
    return tiers


@SETTINGS
@given(textgrid_tiers())
def test_textgrid_round_trips(tiers):
    parsed = parse_textgrid(_textgrid(tiers), utterance_id="utt")
    assert [name for name, _ in parsed] == [name for name, _ in tiers]
    for (_, table), (_, intervals) in zip(parsed, tiers):
        assert rows(table) == [
            ("utt", alignment._nfc(text.strip()), float(lo),
             float(Decimal(hi) - Decimal(lo)))
            for lo, hi, text in intervals if text.strip()]


def test_ctm_fields_are_counted_per_line():
    # ten fields in all, but four, four and two per line: not two rows
    text = " u 1 0.0 0.1\na u 1 0.2 \n  0.1 b \n"
    with pytest.raises(ParseError) as err:
        parse_ctm(text)
    assert (str(err.value), err.value.line) == (
        "line 1: expected 5 fields (utt channel start dur phone), got 4", 1)


@pytest.mark.parametrize("end", LINE_ENDS)
def test_ctm_slices_end_at_every_kind_of_line_break(end):
    # three slices' worth of lines: every line break, not only "\n", ends a
    # slice, so the slice bound holds for any line ending
    lines = [f"utt{i // 40} 1 {i % 40 / 10:.1f} 0.1 a{i % 7}"
             for i in range(3 * alignment._CHUNK_CHARS // 20)]
    text = end.join(lines) + end
    chunks = list(alignment._line_chunks(text))
    assert len(chunks) > 1
    assert "".join(chunks) == text
    assert all(chunk.endswith(end) for chunk in chunks)
    assert max(map(len, chunks)) < alignment._CHUNK_CHARS + 40
    assert alignment._ctm_table(text) is not None  # the column path ran
    assert _outcome(_parse_ctm_rows, text) == _outcome(
        _parse_ctm_rows, "\n".join(lines) + "\n")


def _textgrid_rows(parse):
    """A TextGrid reader as `_outcome` reads it: each tier's rows after a
    row of the tier's name and an empty label, which no interval has."""
    return lambda text: [row for name, table in parse(text, utterance_id="u")
                         for row in [(name, "", 0.0, 0.0)] + rows(table)]


# Rounding slack of the bounds checks, in seconds.
BOUND_SLACK_S = 1e-9


def _bounds_error(reads):
    """(message, line) of the first time in the scanner's `reads` that lies
    outside the bounds that hold it, or of a point header that is not one;
    None when there is none."""
    bounds = {}
    for kind, line, value in reads:
        if kind == "point header":
            if not alignment._ITEM_RE.match(value):
                return f"expected point header, got {value!r}", line
            continue
        if kind == "tier xmin" and value < bounds["file xmin"] - BOUND_SLACK_S:
            return (f"tier xmin {value} lies before the file's xmin "
                    f"{bounds['file xmin']}"), line
        if kind == "tier xmax":
            if value < bounds["tier xmin"]:
                return f"tier xmax {value} < xmin {bounds['tier xmin']}", line
            if value > bounds["file xmax"] + BOUND_SLACK_S:
                return (f"tier xmax {value} lies past the file's xmax "
                        f"{bounds['file xmax']}"), line
        if kind == "interval xmin" and value < bounds["tier xmin"] - BOUND_SLACK_S:
            return (f"interval starting at {value} lies before its tier's xmin "
                    f"{bounds['tier xmin']}"), line
        if kind == "interval xmax" and value > bounds["tier xmax"] + BOUND_SLACK_S:
            return (f"interval ending at {value} lies past its tier's xmax "
                    f"{bounds['tier xmax']}"), line
        bounds[kind] = value
    return None


def _checked_scanner(text, utterance_id=""):
    """The scanner's rows, or the first error in reading order: its own, or
    the first bounds error in what it read before that."""
    reads = []
    try:
        tiers = parse_textgrid_scanner(text, utterance_id, reads)
    except ParseError as err:
        found = _bounds_error(reads)
        raise err if found is None else ParseError(*found) from None
    found = _bounds_error(reads)
    if found is not None:
        raise ParseError(*found)
    return tiers


TG_READ = _textgrid_rows(parse_textgrid)
TG_ORACLE = _textgrid_rows(_checked_scanner)
TG_LINE_ENDS = ("\n", "\r\n", "\r", "\x85")
INDENTS = ("", "    ", "\t", " \u3000")


def _decimal_spelling(units: int, style: int) -> str:
    """`units` ten-thousandths of a second in one of several spellings that
    `float` and `Decimal` both read; the last is the shortest, as Praat
    writes times."""
    value = Decimal(units).scaleb(-4)
    return (f"{value:.4f}", f"{value:.6f}", f"{value}", f"{units}e-4",
            f"+{value:.4f}", f"{value:.4E}", f"{value:.4f}".rstrip("0"),
            f"{value:.4f}".rstrip("0").rstrip("."))[style]


# The plain-decimal spellings: fixed to 4 or 6 places, or Praat's shortest.
PLAIN_STYLES = (0, 1, 7)


@st.composite
def textgrid_lines(draw, praat=False):
    """The lines of a valid long-format TextGrid: interval and point tiers,
    labels with `""` in them, mixed decimal spellings, the `item []:`
    line present or missing, any indent and blank lines.  With `praat`,
    the lines are in Praat's own spelling, which the reader takes as
    columns: every time a plain decimal, in one spelling for the whole
    file or one per time, and no whitespace at a line's end."""
    styles = [draw(st.sampled_from(PLAIN_STYLES))] if praat else range(7)
    if praat and draw(st.booleans()):
        styles = PLAIN_STYLES

    def spell(units):
        return _decimal_spelling(units, draw(st.sampled_from(styles)))

    def indent():
        return draw(st.sampled_from(INDENTS))

    body = []
    tiers = draw(st.lists(st.sampled_from(("phones", "words", "events")), max_size=3))
    if praat:  # a phones tier of one interval or more comes first
        tiers = ["phones"] + tiers[:2]
    for number, name in enumerate(tiers, start=1):
        bounds = sorted(set(draw(st.lists(st.integers(0, 10**5), max_size=8))))
        if praat and number == 1:
            bounds = sorted(set(bounds) | {0, 10**5})
        point_tier = name == "events" and draw(st.booleans())
        body += [f"item [{number}]:",
                 'class = "%s"' % ("TextTier" if point_tier else "IntervalTier"),
                 f'name = "{name}"', f"xmin = {spell(0)}", f"xmax = {spell(10**5)}"]
        if point_tier:
            body.append(f"points: size = {len(bounds)}")
            for i, b in enumerate(bounds, start=1):
                body += [f"points [{i}]:", f"number = {spell(b)}",
                         'mark = "%s"' % draw(TG_LABELS).replace('"', '""')]
            continue
        body.append(f"intervals: size = {max(len(bounds) - 1, 0)}")
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]), start=1):
            body += [f"intervals [{i}]:", f"xmin = {spell(lo)}", f"xmax = {spell(hi)}",
                     'text = "%s"' % draw(TG_LABELS).replace('"', '""')]
    head = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
            f"xmin = {spell(0)}", f"xmax = {spell(10**5)}", "tiers? <exists>",
            f"size = {len(tiers)}"] + (["item []:"] if draw(st.booleans()) else [])
    lines = []
    for line in head + body:
        lines.append(indent() + line + ("" if praat else draw(
            st.sampled_from(("", " ", "\t")))))
        if draw(st.integers(0, 9)) == 0:
            lines.append(indent())
    if draw(st.booleans()):  # a byte-order mark, which goes before any indent
        lines[0] = "\ufeff" + lines[0].lstrip()
    return lines


# Lines a mutation inserts: a bare number, a value with no key, headers,
# keys out of place, numbers that do not read, an empty quoted value.
INSERTED_LINES = ("0.25", "= 0.5", "=", "xmin = 0.1", "xmax = 99", 'text = "a"',
                  "intervals [1]:", "item [2]:", "item []:", "points [1]:",
                  "size = 0", "intervals: size = 0", 'class = "TextTier"',
                  "x min = 0", "xmin = nan", "xmax = 1e999", "xmin = 1,5",
                  'text = ""', 'text = "', "tiers? <absent>", "\ufeff")
INSERTED_CHARS = tuple('"= \t0.-e[]:?x_') + ("\ufeff", "\r", "\x85", "\u3000", "\u00e9")


def _mutate(draw, lines):
    """`lines` with one line deleted, duplicated or inserted, a character
    inserted into one, a count changed by one, or a time replaced by
    another of the file's times, a negative one or one past them all."""
    lines = list(lines)
    kind = draw(st.sampled_from(
        ("delete", "duplicate", "insert", "char", "count", "time")))
    at = draw(st.integers(0, len(lines)))
    if kind == "insert":
        lines.insert(at, draw(st.sampled_from(INSERTED_LINES)))
    elif kind == "char" and lines:
        line = lines[min(at, len(lines) - 1)]
        cut = draw(st.integers(0, len(line)))
        lines[min(at, len(lines) - 1)] = (
            line[:cut] + draw(st.sampled_from(INSERTED_CHARS)) + line[cut:])
    elif kind == "time":  # reversed, overlapping, zero-length, negative, out of bounds
        timed = [i for i, line in enumerate(lines)
                 if line.lstrip().startswith(("xmin =", "xmax ="))]
        if timed:
            i, j = draw(st.sampled_from(timed)), draw(st.sampled_from(timed))
            value = draw(st.sampled_from((lines[j].partition("=")[2], " -0.5", " 99")))
            lines[i] = lines[i].partition("=")[0] + "=" + value
    elif kind == "count":  # a size one less or one more
        numbered = [i for i, line in enumerate(lines) if line.rstrip()[-1:].isdigit()]
        if numbered:
            i = draw(st.sampled_from(numbered))
            head, _, tail = lines[i].rstrip().rpartition(" ")
            step = draw(st.sampled_from((-1, 1)))
            lines[i] = f"{head} {int(tail) + step}" if tail.isdigit() else lines[i]
    elif lines and at < len(lines):
        if kind == "delete":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return lines


def _joined(draw, lines):
    return "".join(line + draw(st.sampled_from(TG_LINE_ENDS)) for line in lines)


def _read_by_columns(text):
    """The reader's outcome on `text`, and for each interval tier with
    intervals that it reached, whether its column path read the tier."""
    read = []
    columns = alignment._interval_columns

    def spy(lines, pos, n, *bounds):
        found = columns(lines, pos, n, *bounds)
        if n:
            read.append(found is not None)
        return found

    with mock.patch.object(alignment, "_interval_columns", spy):
        return _outcome(TG_READ, text), read


@SETTINGS
@given(st.data())
def test_textgrid_reader_equals_the_scanner_on_valid_files(data):
    text = _joined(data.draw, data.draw(textgrid_lines()))
    expected = _outcome(TG_ORACLE, text)
    assert expected[0] == "ok"
    assert _outcome(TG_READ, text) == expected


@settings(max_examples=75, deadline=None)
@given(st.data())
def test_textgrid_reader_equals_the_scanner_on_valid_praat_files(data):
    text = _joined(data.draw, data.draw(textgrid_lines(praat=True)))
    expected = _outcome(TG_ORACLE, text)
    assert expected[0] == "ok"
    got, read = _read_by_columns(text)
    assert got == expected
    # the columns read every tier: the loop reads none
    event(f"Praat spelling: {len(read)} tier(s) with intervals")
    assert read and all(read)


def _mutated_text(data, praat):
    lines = data.draw(textgrid_lines(praat))
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate(data.draw, lines)
    return _joined(data.draw, lines)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_textgrid_reader_equals_the_scanner_on_mutated_files(data):
    text = _mutated_text(data, praat=False)
    assert _outcome(TG_READ, text) == _outcome(TG_ORACLE, text)


@settings(max_examples=125, deadline=None)
@given(st.data())
def test_textgrid_reader_equals_the_scanner_on_mutated_praat_files(data):
    text = _mutated_text(data, praat=True)
    assert _outcome(TG_READ, text) == _outcome(TG_ORACLE, text)


# Pieces of TextGrid-like text, for arbitrary text that gets past the header.
TEXTGRID_PIECES = st.lists(st.sampled_from([
    'File type = "ooTextFile"\n', 'Object class = "TextGrid"\n', "xmin = 0\n",
    "xmax = 1\n", "tiers? <exists>\n", "size = 1\n", "item []:\n", "item [1]:\n",
    'class = "IntervalTier"\n', 'class = "TextTier"\n', 'name = "p"\n',
    "intervals: size = 1\n", "points: size = 1\n", "intervals [1]:\n",
    'text = "a"\n', "number = 0.5\n", 'mark = ""\n', "0.5\n", "= 1\n", "\r\n",
    " ", "\x85", "="])).map("".join)


@SETTINGS
@given(st.one_of(st.text(), TEXTGRID_PIECES))
def test_arbitrary_text_is_a_textgrid_or_a_parse_error(text):
    # any other exception fails the test
    assert _outcome(TG_READ, text) == _outcome(TG_ORACLE, text)


TWO_TIERS = [
    'File type = "ooTextFile"', 'Object class = "TextGrid"', "", "xmin = 0",
    "xmax = 1", "tiers? <exists>", "size = 2", "item []:",
    "item [1]:", 'class = "TextTier"', 'name = "events"', "xmin = 0", "xmax = 1",
    "points: size = 1", "points [1]:", "number = 0.5", 'mark = "b""eep"',
    "item [2]:", 'class = "IntervalTier"', 'name = "phones"', "xmin = 0",
    "xmax = 1", "intervals: size = 2", "intervals [1]:", "xmin = 0",
    "xmax = 0.25", 'text = "a"', "intervals [2]:", "xmin = 0.25", "xmax = 1",
    'text = "q""t"']


def _replaced(old, new):
    return [new if line == old else line for line in TWO_TIERS]


# (file lines, the start of the message both readers give): the mutation
# kinds the generated cases must cover, each pinned once.
TEXTGRID_MUTATIONS = (
    (_replaced("intervals: size = 2", "intervals: size = 1"),
     "line 28: content after the last of 2 declared tier(s)"),     # undercount
    (_replaced("size = 2", "size = 1"),
     "line 18: content after the last of 1 declared tier(s)"),
    (TWO_TIERS + ["xmin = 0"],
     "line 32: content after the last of 2 declared tier(s)"),     # trailing
    (TWO_TIERS[:24] + ["0.25"] + TWO_TIERS[24:],
     "line 25: bare number where a key = value line was expected"),
    (TWO_TIERS[:24] + ["= 0.25"] + TWO_TIERS[24:],
     "line 25: expected 'xmin' assignment, got '= 0.25'"),         # no key
    (TWO_TIERS[:8] + TWO_TIERS[9:],
     "line 9: expected tier item header, got 'class = \"TextTier\"'"),
    (_replaced("intervals: size = 2", "intervals: size = 3"),
     "line 31: unexpected end of file, expected intervals [...] header"),
    (_replaced("xmin = 0.25", "xmin = 0.2"),
     "line 30: interval starting at 0.2 overlaps previous interval ending at 0.25"),
    (_replaced("xmax = 0.25", "x max  =0.25"), None),               # spaced key
    (TWO_TIERS[:7] + TWO_TIERS[8:], None),                         # no "item []:"
    (_replaced("xmax = 0.25", "xmax = 2"),
     "line 26: interval ending at 2.0 lies past its tier's xmax 1.0"),
    (_replaced("points [1]:", "number = 0.5"),
     "line 15: expected point header, got 'number = 0.5'"),
)


@pytest.mark.parametrize("lines, message", TEXTGRID_MUTATIONS)
def test_textgrid_mutation_kinds_read_as_the_scanner_reads_them(lines, message):
    text = "\r\n".join(lines) + "\r\n"
    got = _outcome(TG_READ, text)
    assert got == _outcome(TG_ORACLE, text)
    if message is None:
        assert got[0] == "ok" and len(got[1]) == 3
    else:
        assert got[0] == "error" and got[1].startswith(message)
