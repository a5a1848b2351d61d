"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criteria are property-based plus synthetic reproduction; the
reference read-speech rows of criterion 10 need the original corpus
alignments and are skipped unless that data is present.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest
import scipy.special

from oracles import area_trapezoid, dip_exhaustive, ks_d_exhaustive
from tables import rows
from vlcontrast.alignment import (
    default_phone_map,
    extract_vowel_tokens,
    parse_ctm,
    parse_textgrid,
)
from vlcontrast.cli import main as cli_main
from vlcontrast.features import compute_area, compute_delta, compute_r1, compute_r2
from vlcontrast.gamma import GammaFit, fit_gamma
from vlcontrast.stattests import dip_statistic, ks_two_sample
from vlcontrast.synthgen import CellSpec, CorpusSpec, generate_corpus, sample_gamma


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:2d}: FAIL  {title}")
                raise
            print(f"\nACCEPTANCE {num:2d}: PASS  {title}")
        return wrapper
    return decorate


def _random_fits(seed, count):
    rng = np.random.default_rng(seed)
    return [GammaFit(float(rng.uniform(1.1, 30.0)),
                     float(rng.uniform(5.0, 50.0))) for _ in range(count)]


@criterion(1, "identity suite: r1=r2=1, area<=1e-6, delta=0 on 100 fits, <1s")
def test_criterion_1_identity_suite():
    fits = _random_fits(2025, 100)
    start = time.perf_counter()
    for fit in fits:
        assert abs(compute_r1(fit, fit) - 1.0) <= 1e-9
        assert abs(compute_r2(fit, fit) - 1.0) <= 1e-9
        assert compute_area(fit, fit) <= 1e-6
        assert compute_delta(fit, fit) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"


@criterion(2, "total-variation identity: area(S,L) == area(L,S) within 1e-6")
def test_criterion_2_total_variation():
    fits = _random_fits(2026, 200)
    for fit_s, fit_l in zip(fits[::2], fits[1::2]):
        forward = compute_area(fit_s, fit_l)
        backward = compute_area(fit_l, fit_s)
        assert abs(forward - backward) < 1e-6


@criterion(3, "quadrature matches 0.01 ms trapezoid oracle within 1e-5 on 20 pairs")
def test_criterion_3_quadrature_vs_oracle():
    fits = _random_fits(2027, 40)
    for fit_s, fit_l in zip(fits[::2], fits[1::2]):
        assert abs(compute_area(fit_s, fit_l)
                   - area_trapezoid(fit_s, fit_l)) < 1e-5


@criterion(4, "gamma fit recovery on 10k seeded draws, < 50 ms per fit")
def test_criterion_4_fit_recovery():
    draws = sample_gamma(4.0, 20.0, 10_000, seed=424242)
    start = time.perf_counter()
    fit = fit_gamma(draws)
    elapsed = time.perf_counter() - start
    assert 3.8 <= fit.shape <= 4.2
    assert 18.5 <= fit.scale <= 21.5
    assert fit.converged
    assert elapsed < 0.050, f"fit took {elapsed * 1000:.1f} ms"


ACCEPTANCE_CELLS = (
    # /a/ and /ɔ/ cells use realistic occurrence counts and means;
    # generator shapes pre-checked by computing the area on the true
    # parameters (0.5517 and 0.2806)
    CellSpec("a", "short", 6.0, 11.5, 4673),
    CellSpec("a", "long", 125 / 17.5, 17.5, 880),
    CellSpec("ɔ", "short", 4.5625, 16.0, 881),
    CellSpec("ɔ", "long", 102 / 21.0, 21.0, 710),
    # remaining vowels sized to push the corpus beyond 20k tokens
    CellSpec("i", "short", 76 / 11.0, 11.0, 4298),
    CellSpec("i", "long", 131 / 17.0, 17.0, 266),
    CellSpec("e", "short", 79 / 11.0, 11.0, 454),
    CellSpec("e", "long", 120 / 15.0, 15.0, 356),
    CellSpec("ɛ", "short", 81 / 11.0, 11.0, 2528),
    CellSpec("ɛ", "long", 131 / 15.0, 15.0, 1114),
    CellSpec("o", "short", 68 / 10.0, 10.0, 120),
    CellSpec("o", "long", 108 / 16.0, 16.0, 138),
    CellSpec("u", "short", 67 / 10.0, 10.0, 3786),
    CellSpec("u", "long", 110 / 17.0, 17.0, 222),
)


@criterion(5, "synthetic read-speech corpus: /a/ significant, /ɔ/ not, "
              ">20k tokens analyzed in <5s")
def test_criterion_5_synthetic_read_speech(tmp_path):
    from vlcontrast.report import AnalysisConfig, CorpusSource, run_analysis

    assert sum(c.count for c in ACCEPTANCE_CELLS) > 20_000
    spec = CorpusSpec("read-mimic", seed=20250808, cells=ACCEPTANCE_CELLS,
                      utterance_size=12, emit_formats=("ctm",))
    corpus = generate_corpus(spec)
    ctm = tmp_path / "read-mimic.ctm"
    ctm.write_text(corpus.files["read-mimic.ctm"], encoding="utf-8")
    config = AnalysisConfig(
        corpora=(CorpusSource("read-mimic", (str(ctm),), "ctm"),),
        output_dir=str(tmp_path / "out"))

    start = time.perf_counter()
    result = run_analysis(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"full run took {elapsed:.2f}s"

    by_vowel = {r.vowel_class: r for r in result.reports["read-mimic"]}
    assert by_vowel["a"].significant is True     # true-parameter area 0.55
    assert by_vowel["a"].area > 0.40
    assert by_vowel["ɔ"].significant is False    # true-parameter area 0.28
    assert by_vowel["ɔ"].area < 0.40
    assert len(by_vowel) == 7


@criterion(6, "KS: trivial cases, exhaustive-threshold oracle, series p-value")
def test_criterion_6_ks():
    same = ks_two_sample([3.0, 1.0, 4.0, 1.0, 5.0], [3.0, 1.0, 4.0, 1.0, 5.0])
    assert same.statistic == 0.0 and same.p_value == 1.0
    disjoint = ks_two_sample([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
    assert disjoint.statistic == 1.0

    rng = np.random.default_rng(606)
    for _ in range(50):
        x = rng.normal(size=int(rng.integers(1, 31)))
        y = rng.normal(rng.uniform(-1, 1), 1.0, size=int(rng.integers(1, 31)))
        res = ks_two_sample(x, y)
        assert res.statistic == ks_d_exhaustive(x, y)
        n_eff = res.n1 * res.n2 / (res.n1 + res.n2)
        lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * res.statistic
        assert abs(res.p_value - scipy.special.kolmogorov(lam)) < 1e-6


@criterion(7, "dip: exhaustive modal-interval oracle (n<=12), cluster separation")
def test_criterion_7_dip():
    rng = np.random.default_rng(707)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        if trial % 3 == 0:
            data = np.concatenate([rng.normal(0, 0.05, n // 2),
                                   rng.normal(1, 0.05, n - n // 2)])
        elif trial % 3 == 1:
            data = rng.integers(0, 5, size=n).astype(float)
            if np.all(data == data[0]):
                data[0] += 1.0
        else:
            data = rng.gamma(3.0, 10.0, n)
        assert dip_statistic(data) == pytest.approx(dip_exhaustive(data),
                                                    abs=1e-7)

    clusters = np.concatenate([rng.normal(0.0, 0.01, 100),
                               rng.normal(1.0, 0.01, 100)])
    flat = np.arange(200.0)
    assert dip_statistic(clusters) > 5.0 * dip_statistic(flat)


@criterion(8, "round trip: 10k-token spec recovered from TextGrid and CTM")
def test_criterion_8_round_trip():
    spec = CorpusSpec("rt", seed=808, cells=(
        CellSpec("a", "short", 6.0, 11.5, 4000),
        CellSpec("a", "long", 7.0, 17.5, 1500),
        CellSpec("i", "short", 7.0, 11.0, 3000),
        CellSpec("u", "long", 6.5, 17.0, 1500),
    ), utterance_size=25)
    corpus = generate_corpus(spec)
    assert len(corpus.tokens) == 10_000
    pm = default_phone_map()

    ctm_tokens = extract_vowel_tokens(parse_ctm(corpus.files["rt.ctm"]), pm)
    tg_tokens = []
    for name in sorted(corpus.files):
        if name.endswith(".TextGrid"):
            for _tier, intervals in parse_textgrid(corpus.files[name],
                                                   utterance_id=name[:-9]):
                tg_tokens += rows(extract_vowel_tokens(intervals, pm))

    def key(token_rows):
        return sorted(row[:3] for row in token_rows)

    ctm_key = key(rows(ctm_tokens))
    assert len(ctm_tokens) == len(tg_tokens) == 10_000
    assert ctm_key == key(tg_tokens)  # identical multisets
    truth = key(rows(corpus.tokens))
    worst = max(abs(a[2] - b[2]) for a, b in zip(ctm_key, truth))
    assert worst <= 0.05, f"worst duration error {worst} ms"
    for (va, la, _), (vb, lb, _) in zip(ctm_key, truth):
        assert (va, la) == (vb, lb)


@criterion(9, "determinism: two CLI runs produce byte-identical outputs")
def test_criterion_9_cli_determinism(tmp_path):
    spec = {
        "corpus_id": "det", "seed": 909, "utterance_size": 10,
        "emit_formats": ["ctm"],
        "cells": [
            {"vowel": "a", "length": "short", "shape": 6.0, "scale": 11.5,
             "count": 300},
            {"vowel": "a", "length": "long", "shape": 125 / 17.5,
             "scale": 17.5, "count": 150},
            {"vowel": "u", "length": "short", "shape": 6.7, "scale": 10.0,
             "count": 200},
            {"vowel": "u", "length": "long", "shape": 6.5, "scale": 17.0,
             "count": 90},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--outdir", str(tmp_path)]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "corpora": [{"corpus_id": "det",
                     "paths": [str(tmp_path / "det" / "det.ctm")],
                     "format": "ctm"}],
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")

    assert cli_main(["analyze", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    snapshot = {}
    for root, _dirs, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            snapshot[os.path.relpath(path, out_dir)] = open(path, "rb").read()
    assert snapshot

    assert cli_main(["analyze", "--config", str(config_path)]) == 0
    for rel, blob in snapshot.items():
        assert open(os.path.join(out_dir, rel), "rb").read() == blob, rel


@criterion(10, "conditional: reproduce the reference read-speech rows")
@pytest.mark.skipif(
    not os.environ.get("VLCONTRAST_READ_SPEECH_ALIGNMENTS"),
    reason="reference corpus alignments not available; set "
           "VLCONTRAST_READ_SPEECH_ALIGNMENTS to run")
def test_criterion_10_reference_corpus(tmp_path):
    from vlcontrast.report import AnalysisConfig, CorpusSource, run_analysis

    root = os.environ["VLCONTRAST_READ_SPEECH_ALIGNMENTS"]
    config = AnalysisConfig(
        corpora=(CorpusSource("read", (root,), "textgrid"),),
        output_dir=str(tmp_path / "out"))
    result = run_analysis(config)
    reference_rows = {
        # vowel: (n_short, n_long, area, r1, r2, delta)
        "i": (2149, 133, 0.44, 2.54, 1.42, 49.0),
        "e": (227, 178, 0.45, 2.63, 1.52, 37.0),
        "ɛ": (1264, 557, 0.45, 2.64, 1.50, 46.0),
        "a": (4673, 880, 0.56, 4.07, 2.21, 50.0),
        "ɔ": (881, 710, 0.27, 1.62, 0.93, 24.0),
        "o": (60, 69, 0.46, 2.85, 1.27, 34.0),
        "u": (1893, 111, 0.40, 2.34, 1.09, 36.0),
    }
    by_vowel = {r.vowel_class: r for r in result.reports["read"]}
    for vowel, (n_s, n_l, area, r1, r2, delta) in reference_rows.items():
        rep = by_vowel[vowel]
        assert (rep.n_short, rep.n_long) == (n_s, n_l)
        assert abs(rep.area - area) <= 0.05
        assert abs(rep.r1 - r1) <= 0.15
        assert abs(rep.r2 - r2) <= 0.15
        assert abs(rep.delta_ms - delta) <= 5.0
