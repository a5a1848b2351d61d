"""Synthetic corpus generator: sampling, emission, round trips."""

import json
import math
import warnings

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import ScalarXoshiro256, generate_corpus_scalar, sample_gamma_scalar
from tables import rows

from vlcontrast.alignment import (
    default_phone_map,
    extract_vowel_tokens,
    parse_ctm,
    parse_textgrid,
)
from vlcontrast.durations import DurationSampleSet, filter_outliers
from vlcontrast.features import contrast_report, compute_area
from vlcontrast import synthgen
from vlcontrast.alignment import CELLS
from vlcontrast.gamma import GammaFit
from vlcontrast.synthgen import (
    CellSpec,
    CorpusSpec,
    Xoshiro256,
    generate_corpus,
    sample_gamma,
)


def test_sample_gamma_empty_and_determinism():
    assert sample_gamma(4.0, 20.0, 0, seed=1) == []
    a = sample_gamma(4.0, 20.0, 500, seed=12345)
    b = sample_gamma(4.0, 20.0, 500, seed=12345)
    assert a == b
    c = sample_gamma(4.0, 20.0, 500, seed=12346)
    assert a != c


def test_sample_gamma_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_gamma(0.0, 20.0, 5)
    with pytest.raises(ValueError):
        sample_gamma(4.0, -1.0, 5)
    with pytest.raises(ValueError):
        sample_gamma(4.0, 20.0, -1)
    for shape, scale in ((math.nan, 20.0), (math.inf, 20.0),
                         (4.0, math.nan), (4.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            sample_gamma(shape, scale, 5)
    # a finite but huge scale: the first draw is 1.43e308, the next two inf
    assert sample_gamma(4.0, 1e308, 1, seed=1)[0] > 1e308
    with pytest.raises(ValueError, match=r"shape=4\.0, scale=1e\+308"):
        sample_gamma(4.0, 1e308, 3, seed=1)


def test_sample_gamma_moments_large_n():
    draws = np.asarray(sample_gamma(4.0, 20.0, 100_000, seed=271828))
    assert 79.0 <= draws.mean() <= 81.0          # population mean 80
    assert 1520.0 <= draws.var(ddof=1) <= 1680.0  # population variance 1600
    assert np.all(draws > 0)


def test_sample_gamma_small_shape_boost():
    draws = np.asarray(sample_gamma(0.5, 20.0, 20_000, seed=314159))
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(10.0, rel=0.05)


def test_rng_is_stable_across_calls():
    rng = Xoshiro256(42)
    first = [rng.next_u64() for _ in range(4)]
    rng2 = Xoshiro256(42)
    assert [rng2.next_u64() for _ in range(4)] == first


def test_generate_corpus_single_cell_matches_draw_log():
    spec = CorpusSpec("one", seed=11,
                      cells=(CellSpec("a", "short", 4.0, 20.0, 5),),
                      utterance_size=3, emit_formats=("ctm",))
    corpus = generate_corpus(spec)
    assert len(corpus.tokens) == 5
    # ground truth equals the seeded draws to the 0.1 ms emission quantum
    raw = sample_gamma(4.0, 20.0, 5, rng=Xoshiro256(11))
    assert sorted(round(x, 1) for x in raw) == sorted(
        corpus.tokens.duration_ms.tolist())
    parsed = extract_vowel_tokens(parse_ctm(corpus.files["one.ctm"]),
                                  default_phone_map())
    assert len(parsed) == 5
    assert sorted(parsed.duration_ms) == pytest.approx(
        sorted(corpus.tokens.duration_ms), abs=1e-9)


def test_generate_corpus_empty_cells_yield_filler_only():
    spec = CorpusSpec("empty", seed=1,
                      cells=(CellSpec("a", "short", 4.0, 20.0, 0),),
                      emit_formats=("ctm", "textgrid"))
    corpus = generate_corpus(spec)
    assert rows(corpus.tokens) == []
    parsed = extract_vowel_tokens(parse_ctm(corpus.files["empty.ctm"]),
                                  default_phone_map())
    assert rows(parsed) == []
    assert any(name.endswith(".TextGrid") for name in corpus.files)


def test_generate_corpus_cell_counts_exact():
    spec = CorpusSpec("a-row", seed=2, cells=(
        CellSpec("a", "short", 6.0, 11.5, 4673),
        CellSpec("a", "long", 125.0 / 17.5, 17.5, 880),
    ), utterance_size=20, emit_formats=("ctm",))
    corpus = generate_corpus(spec)
    assert len(corpus.tokens) == 5553
    n_short = sum(1 for row in rows(corpus.tokens) if row[1] == "short")
    assert (n_short, len(corpus.tokens) - n_short) == (4673, 880)


def test_generate_corpus_byte_identical_for_fixed_seed():
    spec = CorpusSpec("det", seed=99, cells=(
        CellSpec("i", "short", 7.0, 11.0, 40),
        CellSpec("i", "long", 7.7, 17.0, 25),
    ))
    first = generate_corpus(spec)
    second = generate_corpus(spec)
    assert first.files == second.files
    assert rows(first.tokens) == rows(second.tokens)


def test_generate_corpus_rejects_unknown_format():
    with pytest.raises(ValueError):
        CorpusSpec("x", seed=1, cells=(), emit_formats=("parquet",))


def test_cell_spec_validation():
    with pytest.raises(ValueError):
        CellSpec("q", "short", 4.0, 20.0, 5)
    with pytest.raises(ValueError):
        CellSpec("ə", "long", 4.0, 20.0, 5)
    with pytest.raises(ValueError):
        CellSpec("a", "short", -4.0, 20.0, 5)
    for shape, scale in ((math.nan, 20.0), (math.inf, 20.0),
                         (4.0, math.nan), (4.0, -math.inf)):
        with pytest.raises(ValueError, match="cell ɔ/long"):
            CellSpec("ɔ", "long", shape, scale, 5)


def test_corpus_spec_from_json():
    spec = CorpusSpec.from_json(
        '{"corpus_id": "j", "seed": 5, "utterance_size": 4,'
        ' "emit_formats": ["ctm"],'
        ' "cells": [{"vowel": "a", "length": "short", "shape": 4,'
        '            "scale": 20, "count": 3}]}')
    assert spec.corpus_id == "j"
    assert spec.cells[0].phone_label == "a"
    long_label = CellSpec("ɔ", "long", 5.0, 20.0, 1).phone_label
    assert long_label == "ɔɔ"


_GOOD_SPEC = {"corpus_id": "j", "seed": 5, "utterance_size": 4,
              "emit_formats": ["ctm"],
              "cells": [{"vowel": "a", "length": "short", "shape": 4,
                         "scale": 20.5, "count": 3}]}


@pytest.mark.parametrize("edit, named", [
    ({"utterance_sise": 3}, "utterance_sise"),
    ({"seed": "5"}, "'seed'"),
    ({"seed": True}, "'seed'"),
    ({"utterance_size": 2.0}, "'utterance_size'"),
    ({"emit_formats": "ctm"}, "'emit_formats'"),
    ({"corpus_id": 7}, "'corpus_id'"),
    ({"cells": {"vowel": "a"}}, "'cells'"),
    ({"cells": [{"vowel": "a", "length": "short", "shape": 4, "scale": 20,
                 "count": 2.9}]}, "cells[0]: config key 'count'"),
    ({"cells": [{"vowel": "a", "length": "short", "shape": "4", "scale": 20,
                 "count": 2}]}, "cells[0]: config key 'shape'"),
    ({"cells": [{"vowel": "a", "length": "short", "shape": 4, "scale": 20,
                 "count": 2, "weight": 1}]}, "cells[0]: unknown config key(s) ['weight']"),
    ({"cells": [{"vowel": "a", "length": "short", "shape": 4, "count": 2}]},
     "cells[0] is missing key 'scale'"),
])
def test_corpus_spec_from_json_names_the_bad_key(edit, named):
    assert CorpusSpec.from_json(json.dumps(_GOOD_SPEC)).cells[0].count == 3
    with pytest.raises(ValueError) as info:
        CorpusSpec.from_json(json.dumps({**_GOOD_SPEC, **edit}))
    assert named in str(info.value)


def test_corpus_spec_from_json_needs_an_object_with_an_id():
    for text in ("[]", '"spec"', '{"seed": 1}'):
        with pytest.raises(ValueError, match="corpus spec"):
            CorpusSpec.from_json(text)


def test_round_trip_durations_within_half_quantum():
    spec = CorpusSpec("rt2", seed=4242, cells=(
        CellSpec("e", "short", 7.2, 11.0, 500),
        CellSpec("e", "long", 8.0, 15.0, 300),
    ), utterance_size=10)
    corpus = generate_corpus(spec)
    pm = default_phone_map()
    # raw (unquantized) draws in generation order
    rng = Xoshiro256(4242)
    raw = sample_gamma(7.2, 11.0, 500, rng=rng) + sample_gamma(8.0, 15.0, 300, rng=rng)
    truth = sorted(corpus.tokens.duration_ms.tolist())
    assert max(abs(a - b) for a, b in zip(sorted(raw), truth)) <= 0.05 + 1e-9

    parsed = extract_vowel_tokens(parse_ctm(corpus.files["rt2.ctm"]), pm)
    assert len(parsed) == 800
    diffs = [abs(a - b) for a, b in
             zip(sorted(parsed.duration_ms.tolist()), truth)]
    assert max(diffs) <= 0.05

    tg_tokens = []
    for name in sorted(corpus.files):
        if name.endswith(".TextGrid"):
            for _t, ivs in parse_textgrid(corpus.files[name],
                                          utterance_id=name[:-9]):
                tg_tokens += rows(extract_vowel_tokens(ivs, pm))
    assert sorted(row[2] for row in tg_tokens) == sorted(
        parsed.duration_ms.tolist())


def test_pipeline_closure_large_n():
    # features measured on a generated corpus approach the features of the
    # true generating parameters
    true_area = compute_area(GammaFit(6.0, 11.5), GammaFit(125.0 / 17.5, 17.5))
    short = sample_gamma(6.0, 11.5, 10_000, seed=401)
    long_ = sample_gamma(125.0 / 17.5, 17.5, 10_000, seed=1401)
    rep = contrast_report(
        filter_outliers(DurationSampleSet("a", "short", "closure", tuple(short))),
        filter_outliers(DurationSampleSet("a", "long", "closure", tuple(long_))))
    assert abs(rep.area - true_area) < 0.03



# ---------------------------------------------------------------------------
# The block generator against the one-step-at-a-time referee
# (tests/oracles.py::generate_corpus_scalar).

SEEDS = st.one_of(st.just(0), st.integers(0, 2**63 - 1),
                  st.integers(2**63, 2**64 - 1))
SHAPES = st.one_of(st.floats(0.05, 0.99), st.floats(1.0, 15.0))
# Up to about 2 x 10^5 draws per example: several blocks of the stream.
COUNTS = st.one_of(st.integers(0, 40), st.integers(0, 15_000))
GENERATOR_CELLS = [cell for cell in CELLS if cell != ("ə", "long")]


def _hex(values):
    return [float(v).hex() for v in values]


@st.composite
def corpus_specs(draw):
    cells = draw(st.lists(st.tuples(st.sampled_from(GENERATOR_CELLS), SHAPES,
                                    st.floats(0.5, 60.0), COUNTS),
                          min_size=1, max_size=3))
    return CorpusSpec(
        "h", draw(SEEDS),
        tuple(CellSpec(vowel, length, shape, scale, count)
              for (vowel, length), shape, scale, count in cells),
        utterance_size=draw(st.integers(1, 15)),
        emit_formats=draw(st.sampled_from([("ctm",), ("textgrid",),
                                           ("textgrid", "ctm")])))


@settings(max_examples=12, deadline=None)
@given(corpus_specs())
@example(CorpusSpec("several-blocks", 2**64 - 1, (
    CellSpec("a", "short", 0.6, 30.0, 15_000),
    CellSpec("ɔ", "long", 5.0, 20.0, 15_000),
    CellSpec("ə", "short", 1.0, 9.0, 15_000)), utterance_size=15,
    emit_formats=("textgrid", "ctm")))
def test_generate_corpus_equals_the_scalar_generator(spec):
    corpus = generate_corpus(spec)
    files, cell, ms, utterance_ids, utterance = generate_corpus_scalar(spec)
    assert list(corpus.files.items()) == list(files.items())
    assert corpus.tokens.cell.tolist() == cell
    assert _hex(corpus.tokens.duration_ms.tolist()) == _hex(ms)
    assert corpus.tokens.utterance_ids == utterance_ids
    assert corpus.tokens.utterance.tolist() == utterance


@settings(max_examples=12, deadline=None)
@given(SEEDS, SHAPES, st.integers(0, 30_000), SHAPES, st.integers(0, 30_000))
@example(0, 0.5, 30_000, 7.0, 30_000)
def test_a_shared_generator_continues_the_scalar_stream(seed, k1, n1, k2, n2):
    rng, scalar = Xoshiro256(seed), ScalarXoshiro256(seed)
    assert _hex(sample_gamma(k1, 3.0, n1, rng=rng)) == _hex(
        sample_gamma_scalar(k1, 3.0, n1, scalar))
    assert _hex(sample_gamma(k2, 40.0, n2, rng=rng)) == _hex(
        sample_gamma_scalar(k2, 40.0, n2, scalar))
    assert rng.next_u64() == scalar.next_u64()
    items, scalar_items = list(range(n1 % 500)), list(range(n1 % 500))
    rng.shuffle(items)
    scalar.shuffle(scalar_items)
    assert items == scalar_items
    assert [rng.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


def test_the_all_zero_seed_guard_matches_the_scalar_stream(monkeypatch):
    monkeypatch.setattr(synthgen, "_splitmix64", lambda seed: [0, 0, 0, 0])
    monkeypatch.setattr(oracles, "splitmix64", lambda seed: [0, 0, 0, 0])
    rng, scalar = Xoshiro256(3), ScalarXoshiro256(3)
    n = 70_000   # past the first block
    assert [rng.next_u64() for _ in range(n)] == [scalar.next_u64() for _ in range(n)]


def test_the_generator_raises_no_numpy_warning():
    spec = CorpusSpec("w", 2**64 - 1, (CellSpec("a", "short", 0.4, 30.0, 900),
                                       CellSpec("i", "long", 9.0, 17.0, 20_000)),
                      utterance_size=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        synthgen._jump_powers.__wrapped__()
        generate_corpus(spec)
        rng = Xoshiro256(2**63)
        sample_gamma(0.3, 1e300, 100, rng=rng)
        rng.shuffle(list(range(70_000)))


def test_generate_corpus_rejects_draws_it_cannot_time():
    with pytest.raises(ValueError, match="cell a/long"):
        generate_corpus(CorpusSpec("big", 1, (
            CellSpec("a", "short", 4.0, 20.0, 10),
            CellSpec("a", "long", 4.0, 1e308, 10))))
    with pytest.raises(ValueError, match="cell i/short"):
        generate_corpus(CorpusSpec("long", 1, (
            CellSpec("i", "short", 4.0, 1e14, 100),)))
