"""Synthetic corpus generator: sampling, emission, round trips."""

import numpy as np
import pytest
from tables import rows

from vlcontrast.alignment import (
    default_phone_map,
    extract_vowel_tokens,
    parse_ctm,
    parse_textgrid,
)
from vlcontrast.durations import DurationSampleSet, filter_outliers
from vlcontrast.features import contrast_report, compute_area
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
    u = Xoshiro256(7).random()
    assert 0.0 <= u < 1.0


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
