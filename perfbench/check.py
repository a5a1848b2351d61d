"""Correctness checks on the outputs of one benchmark `run_analysis` call.

Every run is checked against facts the benchmark knows independently of
the program: the generator's token counts, the expected output files, the
feature identities recomputed from the reported gamma fits, and a
midpoint-rule oracle for the area.  For the recorded workload seeds the
feature, KS and dip rows must also match a reference captured from the
seed commit (`reference/<workload>-seed<seed>.json`).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

VOWEL_ORDER = ("i", "e", "ɛ", "a", "ɔ", "o", "u")
VOWEL_SLUGS = {"i": "i", "e": "e", "ɛ": "eh", "a": "a", "ɔ": "oh",
               "o": "o", "u": "u"}
KS_LENGTHS = ("short", "long", "pooled")
SIGNIFICANCE = 0.40

# Tolerances against the reference rows.  The area may match either the
# seed's value or the exact area of the seed's fits.
FEATURE_ABS_TOL = 1e-6   # area, r1, r2, delta_ms
DIP_ABS_TOL = 1e-12
# Against the recomputed identities and the area oracle.
IDENTITY_REL_TOL = 1e-9
# Density below which the program reports a ratio as undefined.
UNDEFINED_DENSITY_FLOOR = 1e-12
# A guard against gross area errors only: on cells of a few dozen tokens
# whose long density crosses the short one twice, the seed's adaptive
# Simpson area is off by up to ~7e-5.  The reference rows pin exact values.
AREA_ORACLE_TOL = 1e-3
AREA_ORACLE_STEP_MS = 0.05
# Step of the reference's exact area (midpoint error below 1e-8).
EXACT_AREA_STEP_MS = 0.005


def output_digest(out_dir: Path) -> str:
    """Hash of every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def expected_files(workload) -> list[str]:
    names = ["run_metadata.json"]
    for corpus in workload.corpora:
        cid = corpus.spec.corpus_id
        names += [f"{cid}/features.csv", f"{cid}/features.json",
                  f"{cid}/features.md", f"{cid}/diagnostics.json"]
        names += [f"{cid}/plot_{VOWEL_SLUGS[v]}.csv" for v in VOWEL_ORDER]
    for a, b in workload.comparisons:
        names += [f"ks_{a}_vs_{b}.csv", f"ks_{a}_vs_{b}.json"]
    return names


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _log_pdf(fit: dict, x: float) -> float:
    k, theta = fit["shape"], fit["scale"]
    return (k - 1.0) * math.log(x) - x / theta - math.lgamma(k) - k * math.log(theta)


def _mode(fit: dict) -> float:
    return (fit["shape"] - 1.0) * fit["scale"]


def area_oracle(fit_s: dict, fit_l: dict, step_ms: float = AREA_ORACLE_STEP_MS) -> float:
    """Midpoint rule for the positive part of d_L - d_S."""
    upper = max(max(_mode(f), 0.0) + 40.0 * math.sqrt(f["shape"]) * f["scale"]
                for f in (fit_s, fit_l))
    n = int(math.ceil(upper / step_ms))
    x = (np.arange(n) + 0.5) * step_ms

    def pdf(fit):
        k, theta = fit["shape"], fit["scale"]
        return np.exp((k - 1.0) * np.log(x) - x / theta - math.lgamma(k)
                      - k * math.log(theta))

    return float(np.maximum(pdf(fit_l) - pdf(fit_s), 0.0).sum() * step_ms)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_row(cid: str, row: dict, truth_cells: dict, problems: list) -> None:
    vowel = row["vowel_class"]
    where = f"{cid}/{vowel}"
    if row["error"] is not None:
        problems.append(f"{where}: error {row['error']!r}")
        return
    for length in ("short", "long"):
        truth = truth_cells[(vowel, length)]
        n = row[f"n_{length}"]
        # the 3-sigma filter drops a small tail, never adds tokens
        if not truth * 0.97 - 1 <= n <= truth:
            problems.append(f"{where}: n_{length}={n} vs {truth} generated")
    area = row["area"]
    if not 0.0 <= area < 1.0:
        problems.append(f"{where}: area {area} outside [0, 1)")
    if row["significant"] != (area > SIGNIFICANCE):
        problems.append(f"{where}: significant={row['significant']} with area {area}")
    fit_s, fit_l = row["fit_short"], row["fit_long"]
    oracle = area_oracle(fit_s, fit_l)
    if abs(area - oracle) > AREA_ORACLE_TOL:
        problems.append(f"{where}: area {area} vs oracle {oracle}")
    if "no_interior_mode" in row["flags"]:
        return
    a, b = _mode(fit_s), _mode(fit_l)
    if not _close(row["delta_ms"], b - a, IDENTITY_REL_TOL):
        problems.append(f"{where}: delta_ms={row['delta_ms']} vs recomputed {b - a}")
    for key, num, den, x in (("r1", fit_s, fit_l, a), ("r2", fit_l, fit_s, b)):
        log_den = _log_pdf(den, x)
        got = row[key]
        if got is None:
            if (f"{key}_undefined" not in row["flags"]
                    or log_den >= math.log(UNDEFINED_DENSITY_FLOOR)):
                problems.append(f"{where}: {key} undefined, density {math.exp(log_den)}")
        elif not _close(got, math.exp(_log_pdf(num, x) - log_den), IDENTITY_REL_TOL):
            problems.append(f"{where}: {key}={got} vs recomputed "
                            f"{math.exp(_log_pdf(num, x) - log_den)}")


def _features(out_dir: Path, cid: str) -> dict[str, dict]:
    doc = _load_json(out_dir / cid / "features.json")
    return {row["vowel_class"]: row for row in doc["reports"]}


def _ks_rows(out_dir: Path, a: str, b: str) -> dict[str, dict]:
    rows = _load_json(out_dir / f"ks_{a}_vs_{b}.json")
    return {f"{r['vowel_class']}/{r['length_class']}": r for r in rows}


def _dips(out_dir: Path, cid: str) -> dict[str, dict]:
    return _load_json(out_dir / cid / "diagnostics.json")["dip"]


def check_outputs(workload, setup, reference: dict | None) -> list[str]:
    """Problems found in the outputs of one run; empty when correct."""
    out_dir = setup.output_dir
    missing = [n for n in expected_files(workload) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing output files: {missing[:5]} ({len(missing)} total)"]
    problems: list[str] = []

    metadata = _load_json(out_dir / "run_metadata.json")["corpora"]
    for cid, truth in setup.truth_tokens.items():
        counted = metadata[cid]["tokens"]
        if counted != truth:
            problems.append(f"{cid}: {counted} tokens analysed, {truth} generated")

    features = {cid: _features(out_dir, cid) for cid in setup.truth_tokens}
    for cid, rows in features.items():
        if tuple(rows) != VOWEL_ORDER:
            problems.append(f"{cid}: feature rows {tuple(rows)}")
            continue
        for row in rows.values():
            _check_row(cid, row, setup.truth_cells[cid], problems)
        dips = _dips(out_dir, cid)
        if set(dips) != set(VOWEL_ORDER):
            problems.append(f"{cid}: dip rows {sorted(dips)}")
        for vowel, dip in dips.items():
            row = rows[vowel]
            if dip["n"] != row["n_short"] + row["n_long"] or not 0.0 < dip["dip"] <= 0.25:
                problems.append(f"{cid}/{vowel}: dip {dip}")

    for a, b in workload.comparisons:
        ks = _ks_rows(out_dir, a, b)
        for vowel in VOWEL_ORDER:
            for length in KS_LENGTHS:
                row = ks.get(f"{vowel}/{length}")
                if row is None:
                    problems.append(f"ks {a}/{b}: no row {vowel}/{length}")
                    continue
                for side, cid in (("n_a", a), ("n_b", b)):
                    feat = features[cid][vowel]
                    n = (feat["n_short"] + feat["n_long"] if length == "pooled"
                         else feat[f"n_{length}"])
                    if row[side] != n:
                        problems.append(f"ks {a}/{b} {vowel}/{length}: {side}={row[side]} vs {n}")
                if not 0.0 <= row["statistic"] <= 1.0 or not 0.0 <= row["p_value"] <= 1.0:
                    problems.append(f"ks {a}/{b} {vowel}/{length}: {row}")

    if workload.name == "ctm_large":
        read = features["read"]
        if not read["a"]["significant"] or read["ɔ"]["significant"]:
            problems.append("read: expected /a/ significant and /ɔ/ not")

    if reference is not None and not problems:
        problems += compare_reference(reference_doc(workload, out_dir), reference)
    return problems


# ---------------------------------------------------------------------------
# reference rows

ROW_EXACT = ("n_short", "n_long", "flags", "significant")
ROW_CLOSE = ("area", "r1", "r2", "delta_ms")


def reference_doc(workload, out_dir: Path, exact_area: bool = False) -> dict:
    """The rows a later commit must reproduce, read from one run's outputs.

    With `exact_area` each row also gets the area of its fits by a fine
    midpoint rule, so that a more accurate area method can be accepted.
    """
    corpora = {}
    for corpus in workload.corpora:
        cid = corpus.spec.corpus_id
        rows = {}
        for vowel, row in _features(out_dir, cid).items():
            rows[vowel] = {k: row[k] for k in ROW_EXACT + ROW_CLOSE}
            if exact_area:
                rows[vowel]["area_exact"] = area_oracle(
                    row["fit_short"], row["fit_long"], EXACT_AREA_STEP_MS)
        dips = {v: d["dip"] for v, d in _dips(out_dir, cid).items()}
        corpora[cid] = {"rows": rows, "dip": dips}
    ks = {f"{a}_vs_{b}": {key: r["statistic"] for key, r in _ks_rows(out_dir, a, b).items()}
          for a, b in workload.comparisons}
    return {"corpora": corpora, "ks": ks}


def _differs(got, want, tol: float) -> bool:
    if got is None or want is None:
        return got is not want
    return abs(got - want) > tol


def compare_reference(got: dict, want: dict) -> list[str]:
    problems = []
    if set(got["corpora"]) != set(want["corpora"]):
        return [f"corpora {sorted(got['corpora'])} vs reference {sorted(want['corpora'])}"]
    for cid, ref in want["corpora"].items():
        mine = got["corpora"][cid]
        if set(mine["rows"]) != set(ref["rows"]):
            problems.append(f"{cid}: vowels {sorted(mine['rows'])} vs reference")
            continue
        for vowel, ref_row in ref["rows"].items():
            row = mine["rows"][vowel]
            for key in ROW_EXACT:
                if row[key] != ref_row[key]:
                    problems.append(f"{cid}/{vowel}: {key}={row[key]!r} vs {ref_row[key]!r}")
            if (_differs(row["area"], ref_row["area"], FEATURE_ABS_TOL)
                    and _differs(row["area"], ref_row["area_exact"], FEATURE_ABS_TOL)):
                problems.append(f"{cid}/{vowel}: area={row['area']!r} vs "
                                f"{ref_row['area']!r} (exact {ref_row['area_exact']!r})")
            for key in ("r1", "r2", "delta_ms"):
                if _differs(row[key], ref_row[key], FEATURE_ABS_TOL):
                    problems.append(f"{cid}/{vowel}: {key}={row[key]!r} vs {ref_row[key]!r}")
        for vowel, ref_dip in ref["dip"].items():
            if _differs(mine["dip"].get(vowel), ref_dip, DIP_ABS_TOL):
                problems.append(f"{cid}/{vowel}: dip {mine['dip'].get(vowel)!r} vs {ref_dip!r}")
    for pair, ref_rows in want["ks"].items():
        if got["ks"].get(pair) != ref_rows:
            problems.append(f"ks {pair}: D values differ from the reference")
    return problems


def reference_path(workload_name: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload_name}-seed{seed}.json"


def load_reference(workload_name: str, seed: int) -> dict | None:
    path = reference_path(workload_name, seed)
    return _load_json(path) if path.is_file() else None
