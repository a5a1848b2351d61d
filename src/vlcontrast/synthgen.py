"""Deterministic synthetic-corpus generator.

Samples gamma-distributed durations per (vowel, length) cell and writes
them back out as TextGrid and/or CTM alignment files, keeping the drawn
ground truth so that the whole ingestion + analysis pipeline can be
validated end to end.

Randomness comes from a self-contained xoshiro256** generator (seeded via
splitmix64) so that a fixed seed yields byte-identical output on any
platform and library version.  Gamma variates use the Marsaglia-Tsang
squeeze method, with the u^(1/k) boost for shapes below 1.

The generator's stream is made in blocks.  xoshiro256** is linear over
GF(2): one step multiplies the 256-bit state by a fixed matrix T.  A
block runs `_LANES` numpy uint64 lanes for `_STEPS` steps each, lane l
starting at J^l s, where s is the block's start state and J = T^_STEPS.
Lane l then makes exactly the stream's outputs l*_STEPS to
(l+1)*_STEPS - 1, because the multiplications by 5 and 9, the shifts and
the rotations wrap in uint64 as they do mod 2^64, so laid end to end the
lanes are the one-step-at-a-time stream, bit for bit.  Every consumer
reads that one buffered stream.  The gamma variates keep their float
arithmetic and `math` calls per attempt; the utterance layout is built
as columns and each distinct time is formatted once.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .alignment import CELLS, VOWEL_CLASSES, TokenTable
from .report import _STRING, ConfigError, _check_entry, _list_of

__all__ = ["Xoshiro256", "CellSpec", "CorpusSpec", "SynthCorpus",
           "sample_gamma", "generate_corpus"]

_MASK64 = (1 << 64) - 1

EMIT_FORMATS = ("textgrid", "ctm")

# Emission quantum: durations are written at 0.1 ms precision, i.e. an
# integer number of 1e-4 s units.
TIME_UNITS_PER_SECOND = 10_000
FILLER_LABEL = "sil"
FILLER_UNITS = 500  # 50 ms of padding around each vowel token

# A block of the stream: _LANES lanes of _STEPS steps (both powers of two).
_LANES = 256
_STEPS = 256
# Uniforms one gamma attempt can read: the shape < 1 boost plus three.
_ATTEMPT_READS = 4
# CTM lines joined at a time.
_CTM_CHUNK = 1 << 15
# Longest corpus, in ms, whose times stay exact integers in int64 and
# float64 (2^52 units of 0.1 ms, about 14,000 years).
_MAX_SPAN_MS = 2.0 ** 52 / 10


def _splitmix64(seed: int) -> list[int]:
    """The four state words splitmix64 expands `seed` into."""
    state = []
    z = seed & _MASK64
    for _ in range(4):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        s = z
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & _MASK64
        state.append(s ^ (s >> 31))
    return state


def _run_lanes(lanes: np.ndarray, steps: int) -> np.ndarray:
    """Step each column of the 4 x L uint64 state array `steps` times in
    place; returns the outputs, one row per step."""
    s0, s1, s2, s3 = lanes
    out = np.empty((steps, lanes.shape[1]), np.uint64)
    t = np.empty_like(s0)
    for r in out:
        np.multiply(s1, 5, out=r)              # rotl(s1 * 5, 7) * 9
        np.left_shift(r, 7, out=t)
        r >>= 57
        r |= t
        r *= 9
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)           # rotl(s3, 45)
        s3 >>= 19
        s3 |= t
    return out


def _to_bits(lanes: np.ndarray) -> np.ndarray:
    """4 x L uint64 states -> L x 256 rows of 0/1 (bit 64*w + b is bit b
    of word w)."""
    words = np.ascontiguousarray(lanes.T, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of `_to_bits`."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)


@functools.cache
def _jump_powers() -> tuple[np.ndarray, ...]:
    """J^(2^k) for k = 0 .. log2(_LANES) - 1, J = T^_STEPS, as 0/1 float32
    matrices that step a row of state bits by right multiplication.

    Row i of T is one step of the state with only bit i set, so one
    vectorized step of those 256 states builds it; each power is a float
    matmul mod 2 (the sums are integers of at most 256, exact in float32)."""
    basis = _from_bits(np.eye(256, dtype=np.uint8))
    _run_lanes(basis, 1)
    power = _to_bits(basis).astype(np.float32)
    for _ in range(_STEPS.bit_length() - 1):
        power = (power @ power) % 2
    powers = [power]
    while len(powers) < _LANES.bit_length() - 1:
        powers.append((powers[-1] @ powers[-1]) % 2)
    return tuple(powers)


class Xoshiro256:
    """xoshiro256** PRNG, fully reproducible, made a block at a time.

    `next_u64`, `shuffle` and `sample_gamma(rng=...)` all read one
    buffered stream, equal to stepping the generator once per draw."""

    def __init__(self, seed: int):
        state = _splitmix64(seed)
        if not any(state):
            state[0] = 1
        self._state = np.array(state, dtype=np.uint64)  # next block's start
        self._buffer = np.empty(0, np.uint64)           # made, read to _pos
        self._pos = 0
        self._uniforms = None  # the buffer as doubles in [0, 1), on demand

    def _next_block(self) -> np.ndarray:
        bits = np.empty((_LANES, 256), np.float32)
        bits[0] = _to_bits(self._state[:, None])[0]
        n = 1
        for power in _jump_powers():          # lane l starts at J^l s
            bits[n:2 * n] = (bits[:n] @ power) % 2
            n *= 2
        lanes = _from_bits(bits)
        out = _run_lanes(lanes, _STEPS)
        self._state = lanes[:, -1].copy()     # J^_LANES s
        return out.T.ravel()

    def _fill(self, k: int) -> None:
        """Make sure at least k outputs are unread."""
        unread = len(self._buffer) - self._pos
        if unread >= k:
            return
        parts = [self._buffer[self._pos:]]
        while unread < k:
            parts.append(self._next_block())
            unread += _LANES * _STEPS
        self._buffer = np.concatenate(parts)
        self._pos = 0
        self._uniforms = None

    def _take(self, k: int) -> np.ndarray:
        """The next k outputs."""
        self._fill(k)
        self._pos += k
        return self._buffer[self._pos - k:self._pos]

    def _read_uniforms(self, k: int) -> tuple[list[float], int]:
        """The buffer as uniform doubles and the read position, with at
        least k unread; the caller stores its new position in `_pos`."""
        self._fill(k)
        if self._uniforms is None:
            self._uniforms = ((self._buffer >> 11) * 2.0 ** -53).tolist()
        return self._uniforms, self._pos

    def next_u64(self) -> int:
        return int(self._take(1)[0])

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        n = len(items)
        if n < 2:
            return
        picks = self._take(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]


def _gamma_variates(rng: Xoshiro256, shape: float, scale: float,
                    n: int) -> list[float]:
    """n draws of scale * Gamma(shape, 1), Marsaglia-Tsang.

    Each attempt reads two or three uniforms from `rng`'s buffer and keeps
    `math`'s log, sqrt and cos (numpy's vectorized log differs from libm
    by an ulp on some inputs)."""
    boost = shape < 1.0  # Gamma(k) = Gamma(k+1) * U^(1/k)
    d = (shape + 1.0 if boost else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    inv_shape = 1.0 / shape
    two_pi = 2.0 * math.pi
    log, sqrt, cos = math.log, math.sqrt, math.cos
    draws = []
    uniforms, pos = rng._read_uniforms(_ATTEMPT_READS)
    last = len(uniforms) - _ATTEMPT_READS
    for _ in range(n):
        if pos > last:
            rng._pos = pos
            uniforms, pos = rng._read_uniforms(_ATTEMPT_READS)
            last = len(uniforms) - _ATTEMPT_READS
        if boost:
            boost_u = 1.0 - uniforms[pos]
            pos += 1
        while True:
            x = (sqrt(-2.0 * log(1.0 - uniforms[pos]))
                 * cos(two_pi * uniforms[pos + 1]))
            v = 1.0 + c * x
            if v > 0.0:
                v = v * v * v
                u = uniforms[pos + 2]
                pos += 3
                if (u < 1.0 - 0.0331 * x * x * x * x or u <= 0.0
                        or log(u) < 0.5 * x * x + d * (1.0 - v + log(v))):
                    break
            else:
                pos += 2
            if pos > last:
                rng._pos = pos
                uniforms, pos = rng._read_uniforms(_ATTEMPT_READS)
                last = len(uniforms) - _ATTEMPT_READS
        value = d * v
        if boost:
            value = value * boost_u ** inv_shape
        draws.append(scale * value)
    rng._pos = pos
    return draws


def sample_gamma(shape: float, scale: float, n: int, seed: int = 0,
                 rng: Xoshiro256 | None = None) -> list[float]:
    """n independent Gamma(shape, scale) draws, deterministic per seed."""
    if not (0.0 < shape < math.inf and 0.0 < scale < math.inf):
        raise ValueError(f"gamma shape and scale must be positive and finite, "
                         f"got {shape!r} and {scale!r}")
    if n < 0:
        raise ValueError("sample count must be >= 0")
    if rng is None:
        rng = Xoshiro256(seed)
    draws = _gamma_variates(rng, shape, scale, n)
    if not all(map(math.isfinite, draws)):
        raise ValueError(f"a Gamma(shape={shape!r}, scale={scale!r}) draw "
                         "overflows to inf")
    return draws


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
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError(
                f"cell {self.vowel_class}/{self.length_class}: shape and scale "
                f"must be positive and finite, got {self.shape!r} and {self.scale!r}")
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
        """Parse a spec; an unknown key or a value of the wrong JSON type
        raises ConfigError (a ValueError) naming the key."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ConfigError("corpus spec must be a JSON object")
        _check_entry(obj, _SPEC_TYPES)
        cells = []
        for i, c in enumerate(obj.get("cells", ())):
            try:
                _check_entry(c, _CELL_TYPES)
                cells.append(CellSpec(c["vowel"], c["length"], float(c["shape"]),
                                      float(c["scale"]), c["count"]))
            except ConfigError as exc:
                raise ConfigError(f"cells[{i}]: {exc}") from None
            except KeyError as exc:
                raise ConfigError(f"cells[{i}] is missing key {exc}") from None
        if "corpus_id" not in obj:
            raise ConfigError("corpus spec is missing key 'corpus_id'")
        return cls(
            corpus_id=obj["corpus_id"],
            seed=obj.get("seed", 0),
            cells=tuple(cells),
            utterance_size=obj.get("utterance_size", 10),
            emit_formats=tuple(obj.get("emit_formats", EMIT_FORMATS)),
        )


_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
# The keys CorpusSpec.from_json accepts, at the top level and per cell,
# each with a check of its JSON value and what the check wants.
_SPEC_TYPES = {
    "corpus_id": _STRING,
    "seed": _INTEGER,
    "cells": (_list_of(dict), "a list of cell objects"),
    "utterance_size": _INTEGER,
    "emit_formats": (_list_of(str), "a list of strings"),
}
_CELL_TYPES = {
    "vowel": _STRING,
    "length": _STRING,
    "shape": _NUMBER,
    "scale": _NUMBER,
    "count": _INTEGER,
}


@dataclass(frozen=True)
class SynthCorpus:
    """Emitted file texts plus the generated ground truth."""

    spec: CorpusSpec
    files: dict[str, str]
    tokens: TokenTable


def _seconds_text(*columns: np.ndarray) -> list[list[str]]:
    """Equal-length columns of times in units as seconds text, "%.4f";
    every distinct time is formatted once."""
    values, inverse = np.unique(np.concatenate(columns), return_inverse=True)
    text = np.array([f"{u / TIME_UNITS_PER_SECOND:.4f}" for u in values.tolist()],
                    dtype=object)
    return [part.tolist() for part in np.split(text[inverse], len(columns))]


_TEXTGRID_HEADER = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = {total}
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = {total}
        intervals: size = {size}
"""


# glibc's malloc_trim, or None where the C library has none.  Once a large
# block has been freed, glibc serves blocks up to that size from the heap,
# and freed heap pages stay resident; the ~100 MB a 200k-token corpus
# passes through would then stay with the caller, and whether a later
# large allocation reuses it or maps fresh pages varies from run to run.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def generate_corpus(spec: CorpusSpec) -> SynthCorpus:
    """Draw all cells, pack tokens into utterances, emit alignment files.

    Tokens are interleaved with non-vowel filler phones; durations are
    quantized to 0.1 ms at emission and the returned ground-truth tokens
    carry the quantized values.  Raises ValueError naming the cell whose
    draws are not finite or would make the corpus too long to time
    exactly.  The memory freed on the way is handed back to the system.
    """
    corpus = _generate_corpus(spec)
    if _malloc_trim is not None:
        _malloc_trim(0)
    return corpus


def _generate_corpus(spec: CorpusSpec) -> SynthCorpus:
    rng = Xoshiro256(spec.seed)
    cell_units = [np.empty(0)]
    span_ms = 0.0
    for cell in spec.cells:
        ms = np.array(_gamma_variates(rng, cell.shape, cell.scale, cell.count))
        span_ms += float(ms.max(initial=0.0)) * cell.count
        if not span_ms <= _MAX_SPAN_MS:
            raise ValueError(
                f"cell {cell.vowel_class}/{cell.length_class} (shape "
                f"{cell.shape!r}, scale {cell.scale!r}): its draws are not "
                f"finite or the corpus would last over {_MAX_SPAN_MS:.0f} ms")
        cell_units.append(
            np.maximum(np.rint(ms * TIME_UNITS_PER_SECOND / 1000.0), 1.0))
    counts = [cell.count for cell in spec.cells]
    n = sum(counts)
    order = list(range(n))
    rng.shuffle(order)
    # tokens in shuffled order: duration in units and index into spec.cells
    units = np.concatenate(cell_units).astype(np.int64)[order]
    which = np.repeat(np.arange(len(counts), dtype=np.intp), counts)[order]

    # Utterance u holds tokens u*size to (u+1)*size - 1, as 1 + 2k
    # intervals: a filler, then each of its k tokens followed by a filler.
    size = spec.utterance_size
    n_utts = max(1, -(-n // size))
    token_utt = np.arange(n, dtype=np.intp) // size
    n_intervals = 1 + 2 * np.bincount(token_utt, minlength=n_utts)
    slot = token_utt + 2 * np.arange(n) + 1
    dur = np.full(n_utts + 2 * n, FILLER_UNITS, dtype=np.int64)
    dur[slot] = units
    label = np.zeros(len(dur), dtype=np.intp)   # 0 is the filler
    label[slot] = which + 1
    first = np.cumsum(n_intervals) - n_intervals
    end = np.cumsum(dur)
    end -= np.repeat((end - dur)[first], n_intervals)   # from its utterance's start
    start = end - dur

    utt_ids = [f"{spec.corpus_id}-{u:04d}" for u in range(n_utts)]
    labels = [FILLER_LABEL] + [cell.phone_label for cell in spec.cells]
    label_text = np.array(labels, dtype=object)[label].tolist()
    files: dict[str, str] = {}
    if "ctm" in spec.emit_formats:
        start_text, dur_text = _seconds_text(start, dur)
        utt_text = np.repeat(np.array(utt_ids, dtype=object), n_intervals).tolist()
        # joined a chunk at a time, so that no list of every line is held
        chunks = [f"# synthetic corpus {spec.corpus_id} (seed {spec.seed})\n"]
        for a in range(0, len(dur), _CTM_CHUNK):
            b = a + _CTM_CHUNK
            chunks.append("".join([
                f"{u} 1 {t} {d} {lab}\n" for u, t, d, lab in zip(
                    utt_text[a:b], start_text[a:b], dur_text[a:b], label_text[a:b])]))
        files[f"{spec.corpus_id}.ctm"] = "".join(chunks)
    if "textgrid" in spec.emit_formats:
        start_text, end_text = _seconds_text(start, end)
        position = (np.arange(len(dur)) - np.repeat(first, n_intervals) + 1).tolist()
        blocks = [f"        intervals [{i}]:\n"
                  f"            xmin = {a}\n"
                  f"            xmax = {b}\n"
                  f'            text = "{lab}"\n'
                  for i, a, b, lab in zip(position, start_text, end_text, label_text)]
        for utt_id, a, k in zip(utt_ids, first.tolist(), n_intervals.tolist()):
            files[f"{utt_id}.TextGrid"] = (
                _TEXTGRID_HEADER.format(total=end_text[a + k - 1], size=k)
                + "".join(blocks[a:a + k]))

    cell_code = np.array([CELLS.index((cell.vowel_class, cell.length_class))
                          for cell in spec.cells], dtype=np.intp)
    tokens = TokenTable(cell_code[which], units / 10.0, tuple(utt_ids), token_utt)
    return SynthCorpus(spec=spec, files=files, tokens=tokens)
