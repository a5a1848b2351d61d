"""Capture the reference rows that check.py compares recorded seeds against.

    python3 perfbench/capture_reference.py

Run from the root of a checkout of the commit whose outputs become the
reference.  For every workload and every seed in provenance.json it sets
the workload up, runs `run_analysis` once in a fresh process, checks the
outputs without a reference and writes `reference/<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    provenance = json.loads((run.HERE / "provenance.json").read_text(encoding="utf-8"))
    seeds = (provenance["seeds"]["baseline"], provenance["seeds"]["held_out"])
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.BUILDERS:
        for seed in seeds:
            workload = workloads.build(name, seed)
            work_dir = run.WORK_ROOT / f"reference-{name}"
            try:
                setup = workloads.setup(workload, work_dir)
                sample = run.run_sample(setup)
                problems = ([sample["error"]] if sample["error"]
                            else check.check_outputs(workload, setup, None))
                if problems:
                    print(f"{name} seed {seed}: {problems[:5]}", file=sys.stderr)
                    return 1
                doc = check.reference_doc(workload, setup.output_dir, exact_area=True)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            doc = {"workload": name, "seed": seed, **doc}
            path = check.reference_path(name, seed)
            path.write_text(json.dumps(doc, indent=1, ensure_ascii=False,
                                       sort_keys=True) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
