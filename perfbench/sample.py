"""Run one `run_analysis` call in a fresh process and report its cost.

    python3 perfbench/sample.py CONFIG_JSON [SPANS_JSON RUN_ID]

Loads the analysis config with `AnalysisConfig.from_json`, times one
`run_analysis` call and prints one JSON line with the wall seconds, the
process's peak resident memory and the error, if the call raised.  With
SPANS_JSON the call runs under the tracer and its spans are written there
once the call has returned.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vlcontrast.report import AnalysisConfig, run_analysis  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    config = AnalysisConfig.from_json(Path(argv[0]).read_text(encoding="utf-8"))
    tracer = Tracer(argv[2]) if len(argv) > 1 else None
    if tracer is not None:
        tracer.install()
    gc.collect()
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            run_analysis(config)
        else:
            tracer.run_root(run_analysis, config)
    except Exception as exc:  # reported to the parent as a failed attempt
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        Path(argv[1]).write_text(json.dumps(tracer.document()), encoding="utf-8")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"seconds": seconds, "peak_rss_mb": peak_kib / 1024.0,
                      "error": error}))
    return 1 if error else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
