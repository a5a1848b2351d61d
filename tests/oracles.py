"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own numerical code
paths: areas come from dense trapezoid sums or scipy's adaptive
quadrature over scipy densities, KS
statistics from naive counting at every pooled threshold, and the dip
from a direct linear-program realization of its definition (nearest
unimodal CDF in sup norm, exhaustive over modal positions).
`dip_pointwise` is AS 217 run one sorted point at a time, which the
package's tie-run dip must equal bit for bit.  CTM files
are read by a line-at-a-time parser that gives one
(utterance id, NFC label, start, duration) tuple per line.
`parse_textgrid_scanner` is the TextGrid reader made with a line scanner,
a regex per `key = value` line and a rewind around the optional
`item []:` line; the package's one-list reader must give the same rows
or the same ParseError message and line.
`generate_corpus_scalar` is the synthetic-corpus generator made one
xoshiro256** step, one gamma variate and one interval tuple at a time,
which the package's block generator must equal byte for byte.
`emit_plotdata_scalar` is the plot-file emitter made with an upward scan
for the grid's end and step, and `emit_histdata_scalar` the histogram-file
emitter made from dense bin counts with the empty rows dropped; the
package's emitters must equal them byte for byte.
"""

from __future__ import annotations

import math
import re
import unicodedata
from decimal import Decimal

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.stats import gamma as scipy_gamma

from vlcontrast.alignment import IntervalTable, ParseError


def gamma_pdf_ref(shape: float, scale: float, x):
    return scipy_gamma.pdf(x, shape, scale=scale)


def _area_upper_ms(fit_short, fit_long) -> float:
    """Larger mode + 40 SD of the two fits: the oracles' finite range."""
    upper = 0.0
    for fit in (fit_short, fit_long):
        mode = (fit.shape - 1.0) * fit.scale if fit.shape >= 1.0 else 0.0
        upper = max(upper, mode + 40.0 * np.sqrt(fit.shape) * fit.scale)
    return upper


def area_trapezoid(fit_short, fit_long, step: float = 0.01) -> float:
    """Positive-part area by trapezoid rule on a `step`-ms grid."""
    upper = _area_upper_ms(fit_short, fit_long)
    xs = np.arange(0.0, upper + step, step)
    excess = np.maximum(
        0.0,
        gamma_pdf_ref(fit_long.shape, fit_long.scale, xs)
        - gamma_pdf_ref(fit_short.shape, fit_short.scale, xs),
    )
    return float(np.trapezoid(excess, xs))


def area_quad(fit_short, fit_long) -> float:
    """Positive-part area by scipy's adaptive quadrature over [0, inf).

    QAGS on [0, U] (U the trapezoid oracle's bound) never evaluates the
    origin, so it handles the x^(k-1) singularity of a shape < 1 density;
    QAGI adds the tail beyond U.
    """
    def excess(x):
        return max(0.0, float(gamma_pdf_ref(fit_long.shape, fit_long.scale, x)
                              - gamma_pdf_ref(fit_short.shape, fit_short.scale, x)))

    upper = _area_upper_ms(fit_short, fit_long)
    head, _ = quad(excess, 0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=500)
    tail, _ = quad(excess, upper, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500)
    return head + tail


def ks_d_exhaustive(x, y) -> float:
    """sup |F_x - F_y| by counting at every pooled threshold."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    best = 0.0
    for v in np.concatenate([xs, ys]):
        fx = np.count_nonzero(xs <= v) / xs.size
        fy = np.count_nonzero(ys <= v) / ys.size
        best = max(best, abs(fx - fy))
    return best


def dip_exhaustive(values) -> float:
    """min over unimodal CDFs G of sup |F_n - G|.

    Exhaustive over modal positions: for each knot (unique sorted value)
    the mode may sit there with a jump, splitting the knot into a left
    limit on the convex side and a value on the concave side; interior
    modes between knots reduce to the knot cases.  Each candidate is a
    small LP over the CDF values at the knots.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    knots, counts = np.unique(xs, return_counts=True)
    num_knots = knots.size
    if num_knots == 1:
        return 0.0
    f_hi = np.cumsum(counts) / n   # F at the knot (right-continuous)
    f_lo = f_hi - counts / n       # F just left of the knot

    best = np.inf
    for m in range(num_knots):
        # variables g_0..g_{m-1}, g_m^-, g_m^+, g_{m+1}..g_{K-1}, then d
        nvar = num_knots + 1

        def vid(k: int) -> int:
            return k if k < m else k + 1

        minus, plus = m, m + 1
        rows, rhs = [], []

        def add(coeffs: dict[int, float], bound: float) -> None:
            row = np.zeros(nvar + 1)
            for idx, c in coeffs.items():
                row[idx] += c
            rows.append(row)
            rhs.append(bound)

        for k in range(num_knots):
            vi = minus if k == m else vid(k)
            vj = plus if k == m else vid(k)
            ref_hi = f_lo[k]  # compared with the left limit
            ref_lo = f_hi[k]  # compared with the value
            add({vi: 1.0, nvar: -1.0}, ref_hi)        # G(t^-) <= f_lo + d
            add({vi: -1.0, nvar: -1.0}, -f_lo[k])     # G(t^-) >= f_lo - d
            add({vj: 1.0, nvar: -1.0}, f_hi[k])       # G(t)  <= f_hi + d
            add({vj: -1.0, nvar: -1.0}, -ref_lo)      # G(t)  >= f_hi - d
        # monotone
        seq = [vid(k) for k in range(m)] + [minus, plus] + \
              [vid(k) for k in range(m + 1, num_knots)]
        for i, j in zip(seq, seq[1:]):
            add({i: 1.0, j: -1.0}, 0.0)
        # shape: convex triples up to the mode (left limit there),
        # concave triples from the mode on (value there)
        for k in range(1, num_knots - 1):
            a, b, c = k - 1, k, k + 1
            ta, tb, tc = knots[a], knots[b], knots[c]
            if c <= m:
                ia = minus if a == m else vid(a)
                ib = minus if b == m else vid(b)
                ic = minus if c == m else vid(c)
                add({ia: -(tc - tb), ib: (tc - tb) + (tb - ta),
                     ic: -(tb - ta)}, 0.0)
            if a >= m:
                ia = plus if a == m else vid(a)
                ib = vid(b)
                ic = vid(c)
                add({ia: (tc - tb), ib: -((tc - tb) + (tb - ta)),
                     ic: (tb - ta)}, 0.0)

        cost = np.zeros(nvar + 1)
        cost[-1] = 1.0
        res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.array(rhs),
                      bounds=[(0.0, 1.0)] * nvar + [(0.0, 1.0)],
                      method="highs")
        assert res.status == 0, res.message
        best = min(best, res.fun)
    return float(best)


def dip_pointwise(values) -> float:
    """Hartigan-Hartigan dip of a 1-d sample (n >= 4), one point at a time.

    Returns the sup-norm distance from the empirical CDF to the nearest
    unimodal CDF.  At least 1/(2n) for samples with distinct extremes;
    0.0 for an all-equal sample (a point mass is itself unimodal).
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n < 4:
        raise ValueError(f"dip requires at least 4 observations, got {n}")
    if xs[0] == xs[-1]:
        return 0.0

    # Predecessor indices for the greatest convex minorant fit: mn[j] is the
    # previous touch point when walking the GCM down from j.
    mn = np.zeros(n, dtype=np.intp)
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            if mnj == 0:
                break
            mnmnj = mn[mnj]
            if (xs[j] - xs[mnj]) * (mnj - mnmnj) < (xs[mnj] - xs[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj

    # Successor indices for the least concave majorant fit.
    mj = np.zeros(n, dtype=np.intp)
    mj[n - 1] = n - 1
    for j in range(n - 2, -1, -1):
        mj[j] = j + 1
        while True:
            mjj = mj[j]
            if mjj == n - 1:
                break
            mjmjj = mj[mjj]
            if (xs[j] - xs[mjj]) * (mjj - mjmjj) < (xs[mjj] - xs[mjmjj]) * (j - mjj):
                break
            mj[j] = mjmjj

    gcm = np.zeros(n + 1, dtype=np.intp)
    lcm = np.zeros(n + 1, dtype=np.intp)
    low, high = 0, n - 1
    # 2n*dip is at least 1 for non-degenerate samples.
    best = 1.0

    while True:
        # GCM touch points from high down to low (decreasing indices).
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = l_gcm = i
        ix = i - 1
        # LCM touch points from low up to high.
        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = l_lcm = i
        iv = 1

        # Largest distance between the two fits over [low, high], in counts.
        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    # LCM point below a GCM chord segment.
                    gcmi1 = gcm[ix + 1]
                    dx = (lcmiv - gcmi1 + 1) - (xs[lcmiv] - xs[gcmi1]) \
                        * (gcmix - gcmi1) / (xs[gcmix] - xs[gcmi1])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    # GCM point above an LCM chord segment.
                    lcmiv1 = lcm[iv - 1]
                    dx = (xs[gcmix] - xs[lcmiv1]) * (lcmiv - lcmiv1) \
                        / (xs[lcmiv] - xs[lcmiv1]) - (gcmix - lcmiv1 - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break

        if d < best:
            break

        # Dip of the ECDF against the convex minorant between touch points.
        dip_lo = 0.0
        for j in range(ig, l_gcm):
            max_t = 1.0
            jb = gcm[j + 1]
            je = gcm[j]
            if je - jb > 1 and xs[je] != xs[jb]:
                c = (je - jb) / (xs[je] - xs[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (xs[jj] - xs[jb]) * c
                    if max_t < t:
                        max_t = t
            if dip_lo < max_t:
                dip_lo = max_t

        # Dip against the concave majorant.
        dip_hi = 0.0
        for j in range(ih, l_lcm):
            max_t = 1.0
            jb = lcm[j]
            je = lcm[j + 1]
            if je - jb > 1 and xs[je] != xs[jb]:
                c = (je - jb) / (xs[je] - xs[jb])
                for jj in range(jb, je + 1):
                    t = (xs[jj] - xs[jb]) * c - (jj - jb - 1)
                    if max_t < t:
                        max_t = t
            if dip_hi < max_t:
                dip_hi = max_t

        if best < max(dip_lo, dip_hi):
            best = max(dip_lo, dip_hi)
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]

    return best / (2.0 * n)


def ctm_line_parser(text: str) -> list[tuple[str, str, float, float]]:
    """CTM intervals read one line at a time, as (utterance id, NFC label,
    start, duration) tuples: comment (`#`) and blank lines skipped, grouped
    per utterance in order of first appearance, sorted stably by start
    within it.  Raises ParseError naming the first bad line, checking every
    line before any overlap."""
    per_utt: dict[str, list[tuple[float, int, tuple[str, str, float, float]]]] = {}
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
        values = []
        for text_value, what in ((start_s, "start time"), (dur_s, "duration")):
            try:
                value = float(text_value)
            except ValueError:
                raise ParseError(f"non-numeric {what}: {text_value!r}", lineno) from None
            if not np.isfinite(value):
                raise ParseError(f"non-finite {what}: {text_value!r}", lineno)
            values.append(value)
        start, dur = values
        if dur <= 0.0:
            raise ParseError(f"non-positive duration {dur_s}", lineno)
        if start < 0.0:
            raise ParseError(f"negative start time {start_s}", lineno)
        per_utt.setdefault(utt, []).append(
            (start, lineno, (utt, unicodedata.normalize("NFC", label), start, dur)))
    result = []
    for utt, items in per_utt.items():
        items.sort(key=lambda t: t[0])
        prev_end = None
        for start, lineno, interval in items:
            if prev_end is not None and start < prev_end - 1e-9:
                raise ParseError(f"overlapping intervals in utterance {utt!r}", lineno)
            prev_end = start + interval[3]
            result.append(interval)
    return result


# Praat TextGrid (long text format), read by a line scanner: the package's
# reader as it stood before its one-list rewrite, kept as the referee.

_KV_RE = re.compile(r'^\s*([A-Za-z?!]+(?:\s+[A-Za-z?!]+)*)\s*=\s*(.*?)\s*$')
_ITEM_RE = re.compile(r'^\s*(item|intervals|points)\s*\[\s*\d*\s*\]\s*:\s*$')
_ITEMS_RE = re.compile(r'^\s*item\s*\[\s*\]\s*:\s*$')  # "item []:", no number
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
    return float(Decimal(hi_text) - Decimal(lo_text))


def parse_textgrid_scanner(text: str, utterance_id: str = "", reads=None):
    """(tier name, IntervalTable) per interval tier of a Praat long-format
    TextGrid, read one scanner step at a time; raises ParseError with the
    message and line the package's reader must give.

    The scanner checks no time against the bounds that hold it.  A `reads`
    list gets a (kind, line, value) entry for each bound, each interval
    time and each point header line read, in reading order, so that a test
    can apply those checks to what the scanner read; an interval's start
    is entered after its negative-start check."""
    reads = [] if reads is None else reads
    scanner = _TextGridScanner(text)
    lineno, header = scanner.expect("TextGrid header")
    if header.lstrip("\ufeff") != 'File type = "ooTextFile"':
        raise ParseError(
            f'not an ooTextFile TextGrid (header {header!r})', lineno)
    lineno, klass = scanner.expect("Object class")
    if klass != 'Object class = "TextGrid"':
        raise ParseError(f"not a TextGrid object: {klass!r}", lineno)

    xmin_line, xmin, _ = _expect_number(scanner, "xmin")
    xmax_line, xmax, _ = _expect_number(scanner, "xmax")
    if xmax < xmin:
        raise ParseError(f"file xmax {xmax} < xmin {xmin}", xmax_line)
    reads += [("file xmin", xmin_line, xmin), ("file xmax", xmax_line, xmax)]
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
    if item is None or not _ITEMS_RE.match(item[1]):
        scanner.pos = saved

    for _ in range(n_tiers):
        lineno, line = scanner.expect("item [...] header")
        if not _ITEM_RE.match(line):
            raise ParseError(f"expected tier item header, got {line!r}", lineno)
        class_line, klass_v = _expect_kv(scanner, "class")
        tier_class = _unquote(klass_v, class_line)
        lineno, name_v = _expect_kv(scanner, "name")
        tier_name = _unquote(name_v, lineno)
        lineno, tier_xmin, _ = _expect_number(scanner, "xmin")
        reads.append(("tier xmin", lineno, tier_xmin))
        lineno, tier_xmax, _ = _expect_number(scanner, "xmax")
        reads.append(("tier xmax", lineno, tier_xmax))

        lineno, line = scanner.expect("size of tier contents")
        m = _SIZE_RE.match(line)
        if not m:
            raise ParseError(f"expected intervals/points size, got {line!r}", lineno)
        count = _parse_count(m.group(2), lineno, "size")

        if tier_class == "TextTier":
            for _ in range(count):
                reads.append(("point header", *scanner.expect("point header")))
                _expect_number(scanner, "number")
                lineno, mark = _expect_kv(scanner, "mark")
                _unquote(mark, lineno)
            continue
        if tier_class != "IntervalTier":
            raise ParseError(f"unknown tier class {tier_class!r}", class_line)

        labels: list[str] = []
        starts: list[float] = []
        durations: list[float] = []
        prev_end = None
        for _ in range(count):
            lineno, line = scanner.expect("intervals [...] header")
            if not _ITEM_RE.match(line):
                raise ParseError(f"expected interval header, got {line!r}", lineno)
            xmin_line, ixmin, ixmin_text = _expect_number(scanner, "xmin")
            if ixmin < 0.0:
                raise ParseError(f"negative start time {ixmin_text}", xmin_line)
            reads.append(("interval xmin", xmin_line, ixmin))
            ix_line, ixmax, ixmax_text = _expect_number(scanner, "xmax")
            reads.append(("interval xmax", ix_line, ixmax))
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
            labels.append(label)
            starts.append(ixmin)
            durations.append(_decimal_difference(ixmin_text, ixmax_text))
        tiers.append((tier_name, IntervalTable.from_columns(
            [utterance_id] * len(labels), labels, starts, durations)))
    trailing = scanner.next_content()
    if trailing is not None:
        raise ParseError(
            f"content after the last of {n_tiers} declared tier(s) "
            f"(a tier or interval count too small?): {trailing[1]!r}",
            trailing[0])
    return tiers


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int) -> list[int]:
    """The four xoshiro256** state words splitmix64 expands `seed` into."""
    state = []
    z = seed & _MASK64
    for _ in range(4):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        s = z
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & _MASK64
        state.append(s ^ (s >> 31))
    return state


class ScalarXoshiro256:
    """xoshiro256** one Python-int step per draw."""

    def __init__(self, seed: int):
        state = splitmix64(seed)
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
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        u1 = 1.0 - self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def gamma_variate_scalar(rng: ScalarXoshiro256, shape: float) -> float:
    """One Marsaglia-Tsang Gamma(shape, 1) variate, with the u^(1/k)
    boost for shapes below 1."""
    if shape < 1.0:
        u = 1.0 - rng.random()
        return gamma_variate_scalar(rng, shape + 1.0) * u ** (1.0 / shape)
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


def sample_gamma_scalar(shape: float, scale: float, n: int,
                        rng: ScalarXoshiro256) -> list[float]:
    return [scale * gamma_variate_scalar(rng, shape) for _ in range(n)]


def _format_seconds(units: int) -> str:
    return f"{units / 10_000:.4f}"


def _textgrid_text(utt_intervals, total_units: int) -> str:
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


def generate_corpus_scalar(spec):
    """A `CorpusSpec`'s files and ground truth, made one draw and one
    interval tuple at a time: (files, cell codes, durations in ms,
    utterance ids, utterance codes), the last four one entry per token."""
    from vlcontrast.alignment import CELLS

    rng = ScalarXoshiro256(spec.seed)
    drawn = []
    for cell in spec.cells:
        code = CELLS.index((cell.vowel_class, cell.length_class))
        for value_ms in sample_gamma_scalar(cell.shape, cell.scale, cell.count, rng):
            units = max(1, round(value_ms * 10_000 / 1000.0))
            drawn.append((code, cell.phone_label, units))
    rng.shuffle(drawn)

    utterances = []
    token_cell, token_ms, token_utterance = [], [], []
    n_utts = max(1, math.ceil(len(drawn) / spec.utterance_size))
    for u in range(n_utts):
        chunk = drawn[u * spec.utterance_size:(u + 1) * spec.utterance_size]
        cursor = 0
        intervals = [(cursor, 500, "sil")]
        cursor += 500
        for code, label, units in chunk:
            intervals.append((cursor, units, label))
            token_cell.append(code)
            token_ms.append(units / 10.0)
            token_utterance.append(u)
            cursor += units
            intervals.append((cursor, 500, "sil"))
            cursor += 500
        utterances.append((f"{spec.corpus_id}-{u:04d}", intervals))

    files = {}
    if "ctm" in spec.emit_formats:
        lines = [f"# synthetic corpus {spec.corpus_id} (seed {spec.seed})"]
        for utt_id, intervals in utterances:
            for start, dur, label in intervals:
                lines.append(f"{utt_id} 1 {_format_seconds(start)} "
                             f"{_format_seconds(dur)} {label}")
        files[f"{spec.corpus_id}.ctm"] = "\n".join(lines) + "\n"
    if "textgrid" in spec.emit_formats:
        for utt_id, intervals in utterances:
            total = intervals[-1][0] + intervals[-1][1]
            files[f"{utt_id}.TextGrid"] = _textgrid_text(intervals, total)
    return (files, token_cell, token_ms,
            tuple(utt_id for utt_id, _ in utterances), token_utterance)


def emit_plotdata_scalar(report, rows_max: int) -> str:
    """The plot CSV of one vowel: x over a grid of whole ms, each row's
    curves computed one x at a time.

    The grid ends at the first whole ms, found by counting up from 1, where
    both fitted CDFs reach 1 - 1e-6; its step is the first whole ms,
    counting up from 1, at which the grid's rows fit in `rows_max`, and it
    ends at the first multiple of the step at or past that end."""
    from vlcontrast.gamma import gamma_cdf, gamma_pdf

    end = 1
    while any(gamma_cdf(fit.shape, end / fit.scale) < 1.0 - 1e-6
              for fit in (report.fit_short, report.fit_long)):
        end += 1
    step = 1
    while math.ceil(end / step) + 1 > rows_max:
        step += 1
    lines = ["x_ms,pdf_short,pdf_long"]
    for x in range(0, end + step, step):
        lines.append(",".join([repr(float(x)),
                               repr(gamma_pdf(report.fit_short, float(x))),
                               repr(gamma_pdf(report.fit_long, float(x)))]))
    return "\n".join(lines) + "\n"


def emit_histdata_scalar(short, long, bin_width_ms: float) -> str:
    """The histogram CSV of one vowel, from dense counts over every bin
    [i*w, (i+1)*w) up to the one that holds the longest sample, with the
    rows where both cells count nothing dropped."""
    nbins = max(int(math.floor(x / bin_width_ms)) + 1
                for cell in (short, long) for x in cell)
    counts = [np.bincount(np.floor(np.asarray(cell, dtype=float) / bin_width_ms)
                          .astype(int), minlength=nbins).tolist()
              for cell in (short, long)]
    lines = ["bin_start_ms,density_short,density_long"]
    for i in range(nbins):
        if counts[0][i] or counts[1][i]:
            densities = [(c[i] / len(cell)) / bin_width_ms if c[i] else 0.0
                         for c, cell in zip(counts, (short, long))]
            lines.append(",".join(map(repr, [i * bin_width_ms] + densities)))
    return "\n".join(lines) + "\n"
