"""The three JSON inputs (analysis config, corpus spec, phone map) share one
loader: the same mistake raises each reader's error class, with a message
that says where the key sits."""

import json
import sys
from pathlib import Path

import pytest

from vlcontrast.alignment import PhoneMapError, load_phone_map
from vlcontrast.report import AnalysisConfig, ConfigError
from vlcontrast.synthgen import CorpusSpec

HUGE = 10 ** 400  # a JSON integer that float() cannot hold
CORPUS = {"corpus_id": "c", "paths": ["x.ctm"], "format": "ctm"}
CELL = {"vowel": "a", "length": "short", "shape": 4, "scale": 20, "count": 3}
READERS = {
    "config": (AnalysisConfig.from_json, ConfigError,
               {"corpora": [CORPUS], "output_dir": "o", "bin_width_ms": 10}),
    "corpus spec": (CorpusSpec.from_json, ConfigError,
                    {"corpus_id": "j", "cells": [CELL]}),
    "phone map": (load_phone_map, PhoneMapError,
                  {"phones": {"a": {"vowel": "a", "length": "short"}}}),
}
NOT_JSON = ("invalid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)")


def _edit(reader, **top):
    """The reader's good input with top-level keys replaced (None drops one)."""
    obj = {**READERS[reader][2], **top}
    return json.dumps({key: value for key, value in obj.items() if value is not None})


CASES = {
    "config-not-json": ("config", "{", f"config: {NOT_JSON}"),
    "spec-not-json": ("corpus spec", "{", f"corpus spec: {NOT_JSON}"),
    "map-not-json": ("phone map", "{", f"phone map: {NOT_JSON}"),
    "config-not-object": ("config", "[]", "config: not a JSON object"),
    "spec-not-object": ("corpus spec", '"spec"', "corpus spec: not a JSON object"),
    "map-not-object": ("phone map", "7", "phone map: not a JSON object"),
    "config-twice": ("config", _edit("config").replace(
        '"output_dir": "o"', '"output_dir": "o", "output_dir": "p"'),
        "config: key 'output_dir' is given twice"),
    "spec-twice": ("corpus spec", _edit("corpus spec").replace(
        '"count": 3', '"count": 3, "count": 4'),
        "corpus spec: key 'count' is given twice"),
    "map-twice": ("phone map", _edit("phone map").replace(
        '"vowel": "a"', '"vowel": "a", "vowel": "e"'),
        "phone map: key 'vowel' is given twice"),
    "config-unknown": ("config", _edit("config", corpora=[CORPUS, dict(
        CORPUS, corpus_id="d", fromat="ctm")]),
        "config corpora[1]: unknown key(s) ['fromat']"),
    "spec-unknown": ("corpus spec", _edit("corpus spec", utterance_sise=3),
                     "corpus spec: unknown key(s) ['utterance_sise']"),
    "map-unknown": ("phone map", _edit("phone map", phones={
        "a": {"vowel": "a", "length": "short", "lenght": "long"}}),
        "phone map entry 'a': unknown key(s) ['lenght']"),
    "config-missing": ("config", _edit("config", output_dir=None),
                       "config: missing key(s) ['output_dir']"),
    "config-corpus-missing": ("config", _edit("config", corpora=[
        {"corpus_id": "c", "paths": ["x.ctm"]}]),
        "config corpora[0]: missing key(s) ['format']"),
    "spec-missing": ("corpus spec", _edit("corpus spec", corpus_id=None),
                     "corpus spec: missing key(s) ['corpus_id']"),
    "spec-cell-missing": ("corpus spec", _edit("corpus spec", cells=[
        {key: CELL[key] for key in ("vowel", "shape", "count")}]),
        "corpus spec cells[0]: missing key(s) ['length', 'scale']"),
    "map-missing": ("phone map", "{}", "phone map: missing key(s) ['phones']"),
    "map-entry-missing": ("phone map", _edit("phone map", phones={
        "a": {"vowel": "a"}}), "phone map entry 'a': missing key(s) ['length']"),
    "config-type": ("config", _edit("config", outlier_filtering="false"),
                    "config: key 'outlier_filtering' must be true or false, "
                    "got 'false'"),
    "spec-type": ("corpus spec", _edit("corpus spec", cells=[dict(CELL, count=2.9)]),
                  "corpus spec cells[0]: key 'count' must be an integer, got 2.9"),
    "map-type": ("phone map", _edit("phone map", phones={
        "a": {"vowel": None, "length": "short"}}),
        "phone map entry 'a': key 'vowel' must be a string, got None"),
    "map-entry-not-object": ("phone map", _edit("phone map", phones={"a": "a"}),
                             "phone map entry 'a': not a JSON object"),
    "map-phones-type": ("phone map", _edit("phone map", phones=["a"]),
                        "phone map: key 'phones' must be an object of phone "
                        "entries, got ['a']"),
    "config-huge": ("config", _edit("config", bin_width_ms=HUGE),
                    "config: key 'bin_width_ms' must be a number in float "
                    f"range, got {HUGE}"),
    "spec-huge": ("corpus spec", _edit("corpus spec", cells=[dict(CELL, shape=HUGE)]),
                  "corpus spec cells[0]: key 'shape' must be a number in float "
                  f"range, got {HUGE}"),
    "map-huge": ("phone map", _edit("phone map", phones={
        "a": {"vowel": "a", "length": HUGE}}),
        f"phone map entry 'a': key 'length' must be a string, got {HUGE}"),
    # JSON's "\ud800" escape reads as a lone surrogate, which UTF-8 cannot hold
    "config-not-utf8": ("config", _edit("config", output_dir="o\ud800"),
                        "config key 'output_dir' must encode as UTF-8, got 'o\\ud800'"),
    "config-list-not-utf8": ("config", _edit(
        "config", corpora=[CORPUS, dict(CORPUS, corpus_id="d")],
        comparisons=[["c", "d\ud800"]]),
        "config key 'comparisons' must encode as UTF-8, got 'd\\ud800'"),
    "spec-not-utf8": ("corpus spec", _edit("corpus spec", emit_formats=["ctm\ud800"]),
                      "config key 'emit_formats' must encode as UTF-8, "
                      "got 'ctm\\ud800'"),
    "map-not-utf8": ("phone map", _edit("phone map", phones={
        "a\ud800": {"vowel": "a", "length": "short"}}),
        "phone map key 'a\\ud800' must encode as UTF-8, got 'a\\ud800'"),
}


def test_the_good_inputs_load():
    for load, _, good in READERS.values():
        load(json.dumps(good))


@pytest.mark.parametrize("reader, text, message", CASES.values(), ids=CASES)
def test_each_json_input_names_its_mistake(reader, text, message):
    load, error, _ = READERS[reader]
    with pytest.raises(ValueError) as err:
        load(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_a_number_is_any_int_that_float_can_hold():
    largest = 2**1024 - 2**970 - 1  # float() rounds this down to the largest float
    spec = CorpusSpec.from_json(_edit("corpus spec", cells=[dict(CELL, scale=largest)]))
    assert spec.cells[0].scale == sys.float_info.max
    for scale in (largest + 1, -largest - 1):
        with pytest.raises(ConfigError, match="'scale' must be a number in float range"):
            CorpusSpec.from_json(_edit("corpus spec", cells=[dict(CELL, scale=scale)]))


def test_an_integer_past_the_digit_limit_is_invalid_json():
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    for reader, (load, error, _) in READERS.items():
        with pytest.raises(error, match=f"^{reader}: invalid JSON: Exceeds the limit"):
            load('{"k": 1' + "0" * 5000 + "}")


@pytest.mark.parametrize("reader", READERS)
def test_one_leading_byte_order_mark_is_ignored(reader):
    # RFC 8259 lets a parser ignore a byte-order mark; an editor may save one
    load, error, good = READERS[reader]
    text = json.dumps(good)
    assert vars(load("\ufeff" + text)) == vars(load(text))
    with pytest.raises(error, match=f"^{reader}: invalid JSON: Unexpected UTF-8 BOM"):
        load("\ufeff\ufeff" + text)


def test_the_cli_reads_json_files_saved_with_a_byte_order_mark(tmp_path, capsys):
    from vlcontrast.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"corpus_id": "bom", "seed": 4, "cells": [
        dict(CELL, count=60), dict(CELL, length="long", shape=7, count=40)],
        "emit_formats": ["ctm"]}), encoding="utf-8-sig")
    assert main(["synth", "--spec", str(spec_path), "--outdir", str(tmp_path)]) == 0
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"phones": {
        "a": {"vowel": "a", "length": "short"},
        "aa": {"vowel": "a", "length": "long"}}}), encoding="utf-8-sig")
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": "bom", "paths": [str(tmp_path / "bom")],
                     "format": "ctm"}],
        "output_dir": str(tmp_path / "out"), "phone_map": str(map_path)}),
        encoding="utf-8-sig")
    assert main(["analyze", "--config", str(config_path)]) == 0
    assert Path(tmp_path / "out" / "bom" / "features.csv").is_file()
    capsys.readouterr()
