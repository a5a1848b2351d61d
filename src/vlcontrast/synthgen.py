"""Deterministic synthetic-corpus generator.

Samples gamma-distributed durations per (vowel, length) cell and writes
them back out as TextGrid and/or CTM alignment files, keeping the drawn
ground truth so that the whole ingestion + analysis pipeline can be
validated end to end.

Randomness comes from a self-contained xoshiro256** generator (seeded via
splitmix64) so that a fixed seed yields byte-identical output on any
platform and library version.  Gamma variates use the Marsaglia-Tsang
squeeze method, with the u^(1/k) boost for shapes below 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import CELLS, VOWEL_CLASSES, TokenTable

__all__ = ["Xoshiro256", "CellSpec", "CorpusSpec", "SynthCorpus",
           "sample_gamma", "generate_corpus"]

_MASK64 = (1 << 64) - 1

EMIT_FORMATS = ("textgrid", "ctm")

# Emission quantum: durations are written at 0.1 ms precision, i.e. an
# integer number of 1e-4 s units.
TIME_UNITS_PER_SECOND = 10_000
FILLER_LABEL = "sil"
FILLER_UNITS = 500  # 50 ms of padding around each vowel token


class Xoshiro256:
    """xoshiro256** PRNG; small, fast enough, and fully reproducible."""

    def __init__(self, seed: int):
        # splitmix64 expansion of the seed into 256 bits of state
        state = []
        z = seed & _MASK64
        for _ in range(4):
            z = (z + 0x9E3779B97F4A7C15) & _MASK64
            s = z
            s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & _MASK64
            state.append(s ^ (s >> 31))
        if not any(state):
            state[0] = 1
        self._s = state

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & _MASK64

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (self._rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self._rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller (one value per pair of uniforms)."""
        u1 = 1.0 - self.random()  # (0, 1]
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def _gamma_variate(rng: Xoshiro256, shape: float) -> float:
    if shape < 1.0:
        # boost: Gamma(k) = Gamma(k+1) * U^(1/k)
        u = 1.0 - rng.random()
        return _gamma_variate(rng, shape + 1.0) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u <= 0.0 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_gamma(shape: float, scale: float, n: int, seed: int = 0,
                 rng: Xoshiro256 | None = None) -> list[float]:
    """n independent Gamma(shape, scale) draws, deterministic per seed."""
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError("gamma parameters must be positive")
    if n < 0:
        raise ValueError("sample count must be >= 0")
    if rng is None:
        rng = Xoshiro256(seed)
    return [scale * _gamma_variate(rng, shape) for _ in range(n)]


@dataclass(frozen=True)
class CellSpec:
    """One (vowel, length) generator cell."""

    vowel_class: str
    length_class: str
    shape: float
    scale: float
    count: int

    def __post_init__(self) -> None:
        if self.vowel_class not in VOWEL_CLASSES:
            raise ValueError(f"unknown vowel class {self.vowel_class!r}")
        if self.length_class not in ("short", "long"):
            raise ValueError(f"unknown length class {self.length_class!r}")
        if self.vowel_class == "ə" and self.length_class == "long":
            raise ValueError("ə has no long counterpart")
        if self.shape <= 0.0 or self.scale <= 0.0:
            raise ValueError("cell shape/scale must be positive")
        if self.count < 0:
            raise ValueError("cell count must be >= 0")

    @property
    def phone_label(self) -> str:
        # grapheme duplication encodes length, as in Wolof orthography
        if self.length_class == "long":
            return self.vowel_class * 2
        return self.vowel_class


@dataclass(frozen=True)
class CorpusSpec:
    corpus_id: str
    seed: int
    cells: tuple[CellSpec, ...]
    utterance_size: int = 10
    emit_formats: tuple[str, ...] = ("textgrid", "ctm")

    def __post_init__(self) -> None:
        if not self.corpus_id:
            raise ValueError("corpus_id must be non-empty")
        if self.utterance_size < 1:
            raise ValueError("utterance_size must be >= 1")
        for fmt in self.emit_formats:
            if fmt not in EMIT_FORMATS:
                raise ValueError(f"unknown emit format {fmt!r}")
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "emit_formats", tuple(self.emit_formats))

    @classmethod
    def from_json(cls, text: str) -> "CorpusSpec":
        obj = json.loads(text)
        cells = tuple(
            CellSpec(c["vowel"], c["length"], float(c["shape"]),
                     float(c["scale"]), int(c["count"]))
            for c in obj.get("cells", ())
        )
        return cls(
            corpus_id=obj["corpus_id"],
            seed=int(obj.get("seed", 0)),
            cells=cells,
            utterance_size=int(obj.get("utterance_size", 10)),
            emit_formats=tuple(obj.get("emit_formats", EMIT_FORMATS)),
        )


@dataclass(frozen=True)
class SynthCorpus:
    """Emitted file texts plus the generated ground truth."""

    spec: CorpusSpec
    files: dict[str, str]
    tokens: TokenTable


def _format_seconds(units: int) -> str:
    return f"{units / TIME_UNITS_PER_SECOND:.4f}"


def _textgrid_text(utt_intervals: list[tuple[int, int, str]], total_units: int) -> str:
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        "xmin = 0",
        f"xmax = {_format_seconds(total_units)}",
        "tiers? <exists>",
        "size = 1",
        "item []:",
        "    item [1]:",
        '        class = "IntervalTier"',
        '        name = "phones"',
        "        xmin = 0",
        f"        xmax = {_format_seconds(total_units)}",
        f"        intervals: size = {len(utt_intervals)}",
    ]
    for i, (start, dur, label) in enumerate(utt_intervals, start=1):
        lines.append(f"        intervals [{i}]:")
        lines.append(f"            xmin = {_format_seconds(start)}")
        lines.append(f"            xmax = {_format_seconds(start + dur)}")
        lines.append(f'            text = "{label}"')
    lines.append("")
    return "\n".join(lines)


def generate_corpus(spec: CorpusSpec) -> SynthCorpus:
    """Draw all cells, pack tokens into utterances, emit alignment files.

    Tokens are interleaved with non-vowel filler phones; durations are
    quantized to 0.1 ms at emission and the returned ground-truth tokens
    carry the quantized values.
    """
    rng = Xoshiro256(spec.seed)

    # (cell code, phone label, duration in 0.1 ms units)
    drawn: list[tuple[int, str, int]] = []
    for cell in spec.cells:
        code = CELLS.index((cell.vowel_class, cell.length_class))
        label = cell.phone_label
        for value_ms in sample_gamma(cell.shape, cell.scale, cell.count, rng=rng):
            units = max(1, round(value_ms * TIME_UNITS_PER_SECOND / 1000.0))
            drawn.append((code, label, units))
    rng.shuffle(drawn)

    utterances: list[tuple[str, list[tuple[int, int, str]]]] = []
    token_cell: list[int] = []
    token_ms: list[float] = []
    token_utterance: list[int] = []
    n_utts = max(1, math.ceil(len(drawn) / spec.utterance_size))
    for u in range(n_utts):
        chunk = drawn[u * spec.utterance_size:(u + 1) * spec.utterance_size]
        utt_id = f"{spec.corpus_id}-{u:04d}"
        cursor = 0
        intervals: list[tuple[int, int, str]] = []
        intervals.append((cursor, FILLER_UNITS, FILLER_LABEL))
        cursor += FILLER_UNITS
        for code, label, units in chunk:
            intervals.append((cursor, units, label))
            token_cell.append(code)
            token_ms.append(units / 10.0)
            token_utterance.append(u)
            cursor += units
            intervals.append((cursor, FILLER_UNITS, FILLER_LABEL))
            cursor += FILLER_UNITS
        utterances.append((utt_id, intervals))

    files: dict[str, str] = {}
    if "ctm" in spec.emit_formats:
        lines = [f"# synthetic corpus {spec.corpus_id} (seed {spec.seed})"]
        for utt_id, intervals in utterances:
            for start, dur, label in intervals:
                lines.append(
                    f"{utt_id} 1 {_format_seconds(start)} "
                    f"{_format_seconds(dur)} {label}")
        files[f"{spec.corpus_id}.ctm"] = "\n".join(lines) + "\n"
    if "textgrid" in spec.emit_formats:
        for utt_id, intervals in utterances:
            total = intervals[-1][0] + intervals[-1][1] if intervals else 0
            files[f"{utt_id}.TextGrid"] = _textgrid_text(intervals, total)

    tokens = TokenTable(np.array(token_cell, dtype=np.intp),
                        np.array(token_ms, dtype=np.float64),
                        tuple(utt_id for utt_id, _ in utterances),
                        np.array(token_utterance, dtype=np.intp))
    return SynthCorpus(spec=spec, files=files, tokens=tokens)
