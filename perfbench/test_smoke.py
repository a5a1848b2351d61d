"""Self-test of the benchmark harness, at a tiny scale.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced through the output
checks, and asserts that each metric BENCHMARK.json names is printed with
its unit.  The span arithmetic and the reference comparison are tested on
hand-made data.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SCALE = 0.02


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, scale=SMOKE_SCALE) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert details["absent_metrics"] == []
    assert details["environment"]["nproc"] >= 1


def _doc(spans, missing=()):
    return {
        "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p, "run": "r"}
                  for i, (n, s, e, p) in enumerate(spans)],
        "counters": {}, "pdf_calls": {}, "missing": list(missing), "broken": [],
    }


def test_self_time_subtracts_children():
    doc = _doc([(tracer.ROOT_SPAN, 0.0, 10.0, None),
                ("report.compare_corpora", 1.0, 4.0, 0),
                ("features.ks_two_sample", 2.0, 3.0, 1),
                ("report.dip_test", 5.0, 6.0, 0)])
    values, absent = tracer.layer_metrics(doc)
    assert absent == []
    assert values["report.run_analysis.self_s"][0] == pytest.approx(6.0)
    assert values["features.compare_corpora.self_s"][0] == pytest.approx(2.0)
    assert values["stattests.ks_two_sample.s"][0] == pytest.approx(1.0)


def test_missing_name_is_absent_not_fatal():
    doc = _doc([(tracer.ROOT_SPAN, 0.0, 1.0, None)],
               missing=["features.compute_area", "features.gamma_pdf"])
    values, absent = tracer.layer_metrics(doc)
    assert "features.compute_area.s" in absent
    assert "features.area_pdf_evals" in absent
    assert values["report.plot_pdf_evals"][0] == 0


def test_reference_mismatch_is_reported():
    row = {"n_short": 10, "n_long": 8, "flags": [], "significant": True,
           "area": 0.5, "area_exact": 0.50002, "r1": 2.0, "r2": 1.5,
           "delta_ms": 40.0}
    ref = {"corpora": {"c": {"rows": {"a": row}, "dip": {"a": 0.01}}},
           "ks": {"c_vs_d": {"a/short": 0.25}}}
    assert check.compare_reference(copy.deepcopy(ref), ref) == []

    closer = copy.deepcopy(ref)
    closer["corpora"]["c"]["rows"]["a"]["area"] = 0.5000205  # near the exact area
    assert check.compare_reference(closer, ref) == []

    for path, value in ((("rows", "a", "area"), 0.50001),
                        (("rows", "a", "n_long"), 7),
                        (("rows", "a", "r1"), 2.00001),
                        (("dip", "a"), 0.0100001)):
        bad = copy.deepcopy(ref)
        target = bad["corpora"]["c"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert check.compare_reference(bad, ref), path

    bad = copy.deepcopy(ref)
    bad["ks"]["c_vs_d"]["a/short"] = 0.2500001
    assert check.compare_reference(bad, ref)
