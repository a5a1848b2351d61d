"""Alignment parsing and vowel-token extraction."""

import json
import unicodedata
from unittest import mock

import pytest
from oracles import parse_textgrid_scanner
from tables import rows

from vlcontrast import alignment
from vlcontrast.alignment import (
    CELLS,
    IntervalTable,
    ParseError,
    PhoneMap,
    PhoneMapError,
    default_phone_map,
    extract_vowel_tokens,
    load_phone_map,
    parse_ctm,
    parse_textgrid,
    speaker_rule,
)
from vlcontrast.durations import collect_cells
from vlcontrast.synthgen import CellSpec, CorpusSpec, generate_corpus

TG_HEADER = (
    'File type = "ooTextFile"\n'
    'Object class = "TextGrid"\n'
    "\n"
    "xmin = 0\n"
    "xmax = 1.0\n"
    "tiers? <exists>\n"
    "size = 1\n"
    "item []:\n"
)


def one_tier_textgrid(intervals):
    lines = [
        "    item [1]:",
        '        class = "IntervalTier"',
        '        name = "phones"',
        "        xmin = 0",
        "        xmax = 1.0",
        f"        intervals: size = {len(intervals)}",
    ]
    for i, (xmin, xmax, text) in enumerate(intervals, start=1):
        lines += [
            f"        intervals [{i}]:",
            f"            xmin = {xmin}",
            f"            xmax = {xmax}",
            f'            text = "{text}"',
        ]
    return TG_HEADER + "\n".join(lines) + "\n"


def test_textgrid_hand_fixture():
    text = one_tier_textgrid([(0.00, 0.07, "a"), (0.07, 1.0, "")])
    tiers = parse_textgrid(text, utterance_id="utt1")
    assert len(tiers) == 1
    name, intervals = tiers[0]
    assert name == "phones"
    assert rows(intervals) == [("utt1", "a", 0.0, pytest.approx(0.07))]


@pytest.mark.parametrize("spell", [lambda ms: f"{ms / 1000:.4f}",
                                   lambda ms: f"{ms / 1000:g}"],
                         ids=["fixed-places", "shortest"])
def test_a_long_praat_tier_is_read_as_columns(spell):
    # 1,200 intervals of 0.5 ms, a third of them silence
    bounds = [spell(ms / 2) for ms in range(1201)]
    intervals = [(lo, hi, ("a", "", "sil")[i % 3])
                 for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    text = one_tier_textgrid(intervals)
    read = []
    columns = alignment._interval_columns

    def spy(*args):
        read.append(columns(*args))
        return read[-1]

    with mock.patch.object(alignment, "_interval_columns", spy):
        (_, table), = parse_textgrid(text, "u")
    assert read[0] is not None
    (_, expected), = parse_textgrid_scanner(text, "u")
    assert len(table) == 800 and rows(table) == rows(expected)


def test_textgrid_empty_tier():
    text = one_tier_textgrid([(0.0, 0.5, ""), (0.5, 1.0, "")])
    tiers = parse_textgrid(text)
    assert [(name, rows(table)) for name, table in tiers] == [("phones", [])]


def test_textgrid_optional_item_header():
    # "item []:" may be left out; the first tier's "item [1]:" is not it
    text = one_tier_textgrid([(0.0, 0.25, "a"), (0.25, 1.0, "ee")])
    without = text.replace("item []:\n", "")
    assert without != text
    assert ([(name, rows(table)) for name, table in parse_textgrid(without)]
            == [(name, rows(table)) for name, table in parse_textgrid(text)]
            == [("phones", [("", "a", 0.0, 0.25), ("", "ee", 0.25, 0.75)])])


def test_textgrid_xmax_before_xmin_names_line():
    text = one_tier_textgrid([(0.30, 0.10, "a")])
    with pytest.raises(ParseError) as err:
        parse_textgrid(text)
    assert err.value.line is not None
    assert f"line {err.value.line}" in str(err.value)
    # the offending xmax sits on that line
    assert "0.1" in text.splitlines()[err.value.line - 1]


def test_textgrid_negative_start_names_line():
    text = one_tier_textgrid([(-0.5, 0.07, "a"), (0.07, 1.0, "")])
    with pytest.raises(ParseError) as err:
        parse_textgrid(text)
    assert "negative start time -0.5" in str(err.value)
    assert text.splitlines()[err.value.line - 1].strip() == "xmin = -0.5"


def test_textgrid_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_textgrid('File type = "something else"\n')


def test_textgrid_rejects_short_format():
    short = (
        'File type = "ooTextFile"\n'
        'Object class = "TextGrid"\n'
        "\n"
        "0\n"
        "1.0\n"
        "<exists>\n"
        "1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_textgrid(short)
    assert "short" in str(err.value).lower()


def test_textgrid_non_numeric_boundary():
    text = one_tier_textgrid([("zero", 0.1, "a")])
    with pytest.raises(ParseError) as err:
        parse_textgrid(text)
    assert "non-numeric" in str(err.value)


def test_textgrid_non_integer_sizes_name_line():
    text = one_tier_textgrid([(0.0, 0.07, "a"), (0.07, 1.0, "")])
    bad_tiers = text.replace("size = 1\n", "size = 1.7\n", 1)
    with pytest.raises(ParseError) as err:
        parse_textgrid(bad_tiers)
    assert "size = 1.7" in bad_tiers.splitlines()[err.value.line - 1]
    bad_intervals = text.replace("intervals: size = 2", "intervals: size = 2.5")
    with pytest.raises(ParseError) as err:
        parse_textgrid(bad_intervals)
    assert "size = 2.5" in bad_intervals.splitlines()[err.value.line - 1]


def test_textgrid_content_after_last_tier_names_line():
    text = one_tier_textgrid([(0.0, 0.07, "a"), (0.07, 0.2, "e"), (0.2, 1.0, "aa")])
    assert len(parse_textgrid(text + "\n\n")[0][1]) == 3
    undercounted = text.replace("intervals: size = 3", "intervals: size = 2")
    with pytest.raises(ParseError) as err:
        parse_textgrid(undercounted)
    assert "intervals [3]:" in undercounted.splitlines()[err.value.line - 1]

    second_tier = text[len(TG_HEADER):].replace("item [1]:", "item [2]:")
    two_tiers = text + second_tier
    assert len(parse_textgrid(two_tiers.replace("size = 1\n", "size = 2\n", 1))) == 2
    with pytest.raises(ParseError) as err:
        parse_textgrid(two_tiers)  # declares one tier, holds two
    assert "item [2]:" in two_tiers.splitlines()[err.value.line - 1]


# (text replaced in a one-interval file, with what, the message, the line
# it names): every ParseError site of the TextGrid reader once.  The file:
#   1 File type   2 Object class   3 (blank)   4 xmin   5 xmax
#   6 tiers?   7 size   8 item []:   9 item [1]:   10 class   11 name
#   12 xmin   13 xmax   14 intervals: size   15 intervals [1]:
#   16 xmin   17 xmax   18 text
TEXTGRID_ERRORS = (
    ('Object class = "TextGrid"', 'Object class = "Sound"',
     "not a TextGrid object: 'Object class = \"Sound\"'", 2),
    ("xmin = 0\nxmax = 1.0\ntiers?", "xmin = 2\nxmax = 1.0\ntiers?",
     "file xmax 1.0 < xmin 2.0", 5),
    ("tiers? <exists>", "tiers <exists>",
     "expected tiers? flag, got 'tiers <exists>'", 6),
    ("    item [1]:", "    tier [1]:",
     "expected tier item header, got 'tier [1]:'", 9),
    ("intervals: size = 1", "intervals size = 1",
     "expected intervals/points size, got 'intervals size = 1'", 14),
    ('class = "IntervalTier"', 'class = "TierOfSomething"',
     "unknown tier class 'TierOfSomething'", 10),
    ("intervals [1]:", "interval 1:",
     "expected interval header, got 'interval 1:'", 15),
    ("xmax = 0.25", "xmax = 0.1", "zero-length interval with label 'a'", 17),
    ('name = "phones"', "name = phones",
     "expected quoted string, got 'phones'", 11),
    ('class = "IntervalTier"', 'klass = "IntervalTier"',
     "expected 'class' assignment, got 'klass = \"IntervalTier\"'", 10),
    ("        xmin = 0\n", "        xmin = -1\n",
     "tier xmin -1.0 lies before the file's xmin 0.0", 12),
    ("        xmin = 0\n        xmax = 1.0", "        xmin = 0.5\n        xmax = 0.3",
     "tier xmax 0.3 < xmin 0.5", 13),
    ("        xmax = 1.0", "        xmax = 2",
     "tier xmax 2.0 lies past the file's xmax 1.0", 13),
    ("        xmin = 0\n", "        xmin = 0.2\n",
     "interval starting at 0.1 lies before its tier's xmin 0.2", 16),
    ("        xmax = 1.0", "        xmax = 0.2",
     "interval ending at 0.25 lies past its tier's xmax 0.2", 17),
)


@pytest.mark.parametrize("old, new, message, line", TEXTGRID_ERRORS)
def test_textgrid_error_names_message_and_line(old, new, message, line):
    text = one_tier_textgrid([(0.1, 0.25, "a")])
    assert old in text
    with pytest.raises(ParseError) as err:
        parse_textgrid(text.replace(old, new, 1))
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_textgrid_without_tiers_has_none():
    text = one_tier_textgrid([(0.1, 0.25, "a")])
    assert parse_textgrid(text.replace("tiers? <exists>", "tiers? <absent>")) == []


def test_textgrid_overlap_rejected():
    text = one_tier_textgrid([(0.0, 0.5, "a"), (0.4, 0.9, "e")])
    with pytest.raises(ParseError) as err:
        parse_textgrid(text)
    assert "overlap" in str(err.value)


def test_textgrid_point_tier_skipped(caplog):
    text = (
        TG_HEADER.replace("size = 1", "size = 2")
        + "    item [1]:\n"
        + '        class = "TextTier"\n'
        + '        name = "events"\n'
        + "        xmin = 0\n"
        + "        xmax = 1.0\n"
        + "        points: size = 1\n"
        + "        points [1]:\n"
        + "            number = 0.5\n"
        + '            mark = "beep"\n'
        + one_tier_textgrid([(0.0, 0.25, "u")])[len(TG_HEADER):]
    )
    with caplog.at_level("WARNING"):
        tiers = parse_textgrid(text)
    assert [t[0] for t in tiers] == ["phones"]
    assert any("point tier" in rec.message for rec in caplog.records)


# A file whose every time lies outside the bounds that hold it: the file
# ends at 1 s, the phones tier runs from 5 s to 1 s, its interval from 0 s
# to 7 s, and the point tier's header line holds a time.
OUT_OF_BOUNDS_TEXTGRID = (
    TG_HEADER.replace("size = 1", "size = 2")
    + "    item [1]:\n"
    + '        class = "IntervalTier"\n'
    + '        name = "phones"\n'
    + "        xmin = 5\n"
    + "        xmax = 1\n"
    + "        intervals: size = 1\n"
    + "        intervals [1]:\n"
    + "            xmin = 0\n"
    + "            xmax = 7\n"
    + '            text = "a"\n'
    + "    item [2]:\n"
    + '        class = "TextTier"\n'
    + '        name = "events"\n'
    + "        xmin = 0\n"
    + "        xmax = 1\n"
    + "        points: size = 1\n"
    + "        xmin = 9\n"
    + "            number = 0.5\n"
    + '            mark = "beep"\n'
)


# (fixes to the file, the line the first error names, what it holds, the
# message): each fix leaves the next time out of bounds, until none is.
@pytest.mark.parametrize("fixes, line, held, message", [
    ((), 13, "xmax = 1", "tier xmax 1.0 < xmin 5.0"),
    ((("xmin = 5", "xmin = 0"),), 17, "xmax = 7",
     "interval ending at 7.0 lies past its tier's xmax 1.0"),
    ((("xmax = 1\n        intervals", "xmax = 10\n        intervals"),), 13, "xmax = 10",
     "tier xmax 10.0 lies past the file's xmax 1.0"),
    ((("xmax = 1.0", "xmax = 10"),
      ("xmax = 1\n        intervals", "xmax = 10\n        intervals")), 16, "xmin = 0",
     "interval starting at 0.0 lies before its tier's xmin 5.0"),
    ((("xmin = 5", "xmin = 0"), ("xmax = 7", "xmax = 1")), 25, "xmin = 9",
     "expected point header, got 'xmin = 9'"),
])
def test_textgrid_checks_times_against_the_bounds_that_hold_them(
        fixes, line, held, message):
    text = OUT_OF_BOUNDS_TEXTGRID
    for old, new in fixes:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(ParseError) as err:
        parse_textgrid(text)
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
    assert text.splitlines()[line - 1].strip() == held


def test_textgrid_within_its_bounds_reads_one_token():
    text = OUT_OF_BOUNDS_TEXTGRID
    for old, new in (("xmin = 5", "xmin = 0"), ("xmax = 7", "xmax = 1"),
                     ("xmin = 9", "points [1]:")):
        text = text.replace(old, new, 1)
    assert [(name, rows(table)) for name, table in parse_textgrid(text)] == [
        ("phones", [("", "a", 0.0, 1.0)])]


def test_ctm_empty():
    assert rows(parse_ctm("")) == []
    assert rows(parse_ctm("# only a comment\n\n")) == []


def test_ctm_single_line():
    assert rows(parse_ctm("utt1 1 0.00 0.07 a\n")) == [("utt1", "a", 0.0, 0.07)]


def test_ctm_negative_duration():
    with pytest.raises(ParseError) as err:
        parse_ctm("utt1 1 0.00 -0.07 a\n")
    assert "non-positive duration" in str(err.value)
    assert err.value.line == 1


def test_ctm_field_count_and_numbers():
    with pytest.raises(ParseError) as err:
        parse_ctm("utt1 1 0.0 0.07\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_ctm("utt1 1 zero 0.07 a\n")


def test_ctm_groups_and_sorts_per_utterance():
    text = (
        "u2 1 0.50 0.10 e\n"
        "u1 1 0.90 0.10 a\n"
        "u1 1 0.10 0.10 i\n"
        "u2 1 0.10 0.10 o\n"
    )
    assert [row[:2] for row in rows(parse_ctm(text))] == [
        ("u2", "o"), ("u2", "e"), ("u1", "i"), ("u1", "a")]


def test_ctm_overlap_rejected():
    with pytest.raises(ParseError) as err:
        parse_ctm("u1 1 0.00 0.20 a\nu1 1 0.10 0.20 e\n")
    assert "overlap" in str(err.value)


def test_default_map_shape():
    pm = default_phone_map()
    cells = set(pm.entries.values())
    vowels = {v for v, _ in cells}
    assert vowels == {"i", "e", "ɛ", "a", "ɔ", "o", "u", "ə"}
    for v in ("i", "e", "ɛ", "a", "ɔ", "o", "u"):
        assert (v, "short") in cells and (v, "long") in cells
    assert ("ə", "short") in cells
    assert ("ə", "long") not in cells
    # the cells a token can fall in: every vowel short, all but ə long
    assert cells == set(CELLS) and len(CELLS) == 15
    assert ("ə", "long") not in CELLS
    # reduplication and colon aliases both land on the long cell
    assert pm.entries["aa"] == ("a", "long")
    assert pm.entries["a:"] == ("a", "long")


def test_load_phone_map_roundtrip_and_errors():
    pm = load_phone_map(
        '{"phones": {"a": {"vowel": "a", "length": "short"},'
        ' "aa": {"vowel": "a", "length": "long"},'
        ' "a:": {"vowel": "a", "length": "long"}}}')
    assert pm.entries == {"a": ("a", "short"), "aa": ("a", "long"),
                          "a:": ("a", "long")}

    with pytest.raises(PhoneMapError):  # duplicate label
        load_phone_map('{"phones": {"a": {"vowel": "a", "length": "short"},'
                       ' "a": {"vowel": "e", "length": "short"}}}')
    with pytest.raises(PhoneMapError):  # long schwa
        load_phone_map('{"phones": {"əə": {"vowel": "ə", "length": "long"}}}')
    with pytest.raises(PhoneMapError):  # unknown vowel class
        load_phone_map('{"phones": {"y": {"vowel": "y", "length": "short"}}}')
    with pytest.raises(PhoneMapError):  # not JSON
        load_phone_map("phones: a")


@pytest.mark.parametrize("text, message", [
    ('{"phones": {"a": {"vowel": "a", "length": "short"},'
     ' "a": {"vowel": "e", "length": "short"}}}', "phone map: key 'a' is given twice"),
    ('{"phones": {"a": {"vowel": "a", "length": "short", "length": "long"}}}',
     "phone map: key 'length' is given twice"),
    ('{"phones": {"a": {"vowel": "a", "length": "short", "lenght": "long"}}}',
     "phone map entry 'a': unknown key(s) ['lenght']"),
    ('{"phones": {"a": {"vowel": "a", "length": "short"}}, "phonez": {}}',
     "phone map: unknown key(s) ['phonez']"),
], ids=["label_twice", "entry_key_twice", "unknown_entry_key", "unknown_top_key"])
def test_phone_map_names_a_repeated_or_unknown_key(text, message):
    with pytest.raises(PhoneMapError) as err:
        load_phone_map(text)
    assert str(err.value) == message


@pytest.mark.parametrize("label", ["", "a ", " a", "\ta", "aa　"])
def test_phone_map_rejects_labels_that_never_match(label):
    # parse_ctm splits fields on whitespace and parse_textgrid strips
    # labels, so no parsed label can equal these
    text = json.dumps({"phones": {label: {"vowel": "a", "length": "short"}}})
    with pytest.raises(PhoneMapError) as err:
        load_phone_map(text)
    assert repr(label) in str(err.value)
    with pytest.raises(PhoneMapError):
        PhoneMap({label: ("a", "short")})


def _one_interval(label):
    return IntervalTable.from_columns(["u1"], [label], [0.0], [0.1])


def test_phone_map_nfc_normalization():
    # decomposed vs composed encodings of the same label must collide
    composed = "ɛ́"  # already NFC-stable combining sequence
    decomposed = unicodedata.normalize("NFD", composed)
    pm = load_phone_map(
        '{"phones": {"%s": {"vowel": "ɛ", "length": "short"}}}' % composed)
    assert rows(extract_vowel_tokens(_one_interval(decomposed), pm)) == [
        ("ɛ", "short", 100.0, "u1")]


def test_interval_table_normalizes_its_labels():
    composed, decomposed = "\u00e9", "e\u0301"
    assert _one_interval(decomposed).labels == (composed,)
    assert parse_ctm(f"u1 1 0.0 0.1 {decomposed}\n").labels == (composed,)
    for map_label, label in ((composed, decomposed), (decomposed, composed)):
        pm = PhoneMap({map_label: ("e", "long")})
        toks = extract_vowel_tokens(_one_interval(label), pm)
        assert [row[:2] for row in rows(toks)] == [("e", "long")]


def test_interval_tables_concatenate_into_one():
    a = IntervalTable.from_columns(["u1", "u1"], ["a", "sil"], [0.0, 0.1], [0.1, 0.2])
    b = IntervalTable.from_columns(["u2", "u1"], ["sil", "e\u0301"], [0.0, 0.5],
                                   [0.3, 0.4])
    empty = IntervalTable.from_columns([], [], [], [])
    joined = IntervalTable.concat([a, empty, b])
    assert rows(joined) == rows(a) + rows(b)
    # one code per distinct utterance id and label
    assert joined.utterance_ids == ("u1", "u2") and joined.labels == ("a", "sil", "\u00e9")
    assert joined.label_counts() == {"a": 1, "sil": 2, "\u00e9": 1}
    assert IntervalTable.concat([a]) is a  # a lone table is not copied
    assert rows(IntervalTable.concat([])) == []


def test_extract_tokens_basic():
    pm = default_phone_map()
    intervals = IntervalTable.from_columns(
        ["u1"] * 3, ["a", "sil", "aa"], [0.0, 0.07, 0.57], [0.070, 0.5, 0.130])
    toks = extract_vowel_tokens(intervals, pm)
    assert rows(toks) == [("a", "short", pytest.approx(70.0), "u1"),
                          ("a", "long", pytest.approx(130.0), "u1")]
    assert collect_cells(toks, "read")[("a", "short")].corpus_id == "read"


def test_extract_tokens_skips_all_consonants():
    pm = default_phone_map()
    intervals = IntervalTable.from_columns(
        ["u1"] * 4, ["b", "d", "sil", "k"], [0.0, 0.1, 0.2, 0.3], [0.05] * 4)
    assert rows(extract_vowel_tokens(intervals, pm)) == []


def test_speaker_rules():
    fixed = speaker_rule("fixed:spk1")
    assert fixed("whatever") == "spk1"
    prefix = speaker_rule("prefix:_")
    assert prefix("spk7_utt003") == "spk7"
    assert prefix("nodelim") == "nodelim"
    assert speaker_rule(None) is None
    with pytest.raises(ValueError):
        speaker_rule("bogus")
    with pytest.raises(ValueError):
        speaker_rule("prefix:")
    with pytest.raises(ValueError):
        speaker_rule("fixed:")


def _token_multiset(tokens):
    return sorted(row[:3] for row in rows(tokens))


def test_textgrid_and_ctm_yield_identical_token_multisets():
    spec = CorpusSpec("rt", seed=17, cells=(
        CellSpec("a", "short", 6.0, 11.5, 60),
        CellSpec("ɔ", "long", 5.0, 20.0, 40),
        CellSpec("ə", "short", 7.0, 8.0, 30),
    ), utterance_size=9)
    corpus = generate_corpus(spec)
    pm = default_phone_map()

    ctm_tokens = extract_vowel_tokens(
        parse_ctm(corpus.files["rt.ctm"]), pm)
    tg_tokens = []
    mapped_intervals = 0
    for name in sorted(corpus.files):
        if not name.endswith(".TextGrid"):
            continue
        for _tier, intervals in parse_textgrid(corpus.files[name],
                                               utterance_id=name[:-9]):
            mapped_intervals += sum(1 for row in rows(intervals)
                                    if row[1] in pm.entries)
            tg_tokens += rows(extract_vowel_tokens(intervals, pm))

    assert _token_multiset(ctm_tokens) == sorted(row[:3] for row in tg_tokens)
    # parsed durations recover the ground truth to the emission quantum
    truth = _token_multiset(corpus.tokens)
    for parsed, generated in zip(_token_multiset(ctm_tokens), truth):
        assert parsed[:2] == generated[:2]
        assert parsed[2] == pytest.approx(generated[2], abs=1e-9)
    # count conservation: one token per mapped interval
    assert len(tg_tokens) == mapped_intervals == 130
