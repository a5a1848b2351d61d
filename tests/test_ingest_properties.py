"""Property tests of alignment ingestion: the column parsers against a
line-at-a-time CTM parser, and TextGrid emit -> parse round trips."""

from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from oracles import ctm_line_parser
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


@SETTINGS
@given(st.text())
def test_arbitrary_text_is_a_textgrid_or_a_parse_error(text):
    try:
        parse_textgrid(text)
    except ParseError:
        pass


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
