"""vlcontrast benchmark: time `run_analysis` on seeded synthetic corpora.

    python3 perfbench/run.py --workload ctm_large --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Each run sets the workload up three
times (generate the corpora with `vlcontrast.synthgen`, write them to
disk) and reports the median set-up time.  It then starts fresh
`sample.py` processes, one `run_analysis` call each, until `--seconds`
have passed, and checks every call's outputs (see check.py).

With `--trace 0` the last stdout line holds the end-to-end metrics:
analyze_s, tokens_per_s, peak_rss_mb, setup_s and passed_frac.  With
`--trace 1` the calls alternate untraced and traced; it holds the
per-layer metrics of the traced calls (see tracer.py) and the tracing
overhead.  The line before it gives the sample details and the Python,
numpy and CPU-count environment.  Spans of traced runs are written to
`.perfbench_work/spans/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
SAMPLE_TIMEOUT_S = 150
# Percentiles worth reporting once at least ten samples lie beyond them.
PERCENTILES = (50, 90, 99)


def _highest_percentile(values) -> dict | None:
    """Highest of PERCENTILES with at least ten samples beyond it."""
    n = len(values)
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if not usable:
        return None
    p = usable[-1]
    ordered = sorted(values)
    return {"p": p, "value": ordered[min(n - 1, int(n * p / 100))]}


def run_sample(setup, spans_path: Path | None = None, run_id: str = "") -> dict:
    """One run_analysis call in a fresh child process."""
    if setup.output_dir.exists():
        shutil.rmtree(setup.output_dir)
    cmd = [sys.executable, str(HERE / "sample.py"), str(setup.config_path)]
    if spans_path is not None:
        cmd += [str(spans_path), run_id]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"seconds": float(SAMPLE_TIMEOUT_S), "peak_rss_mb": 0.0,
                "error": f"timed out after {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"seconds": 0.0, "peak_rss_mb": 0.0,
                "error": f"sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> tuple[dict, dict]:
    """Set up, sample and check one workload; returns (result, details)."""
    import check
    import numpy
    import tracer
    import workloads

    workload = workloads.build(workload_name, seed, scale)
    work_dir = WORK_ROOT / f"{workload_name}-{os.getpid()}"
    reference = check.load_reference(workload_name, seed) if scale == 1.0 else None
    try:
        setups = [workloads.setup(workload, work_dir) for _ in range(SETUP_REPEATS)]
        setup = setups[-1]
        samples: list[dict] = []
        span_docs: list[dict] = []
        digest = None
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(samples) % 2 == 1
            run_id = f"{workload_name}-seed{seed}-sample{len(samples)}"
            spans_path = work_dir / f"{run_id}.spans.json" if traced else None
            sample = run_sample(setup, spans_path, run_id)
            sample["traced"] = traced
            if sample["error"] is None:
                current = check.output_digest(setup.output_dir)
                if digest is None:
                    try:
                        problems = check.check_outputs(workload, setup, reference)
                    except (KeyError, TypeError, ValueError) as exc:
                        problems = [f"malformed outputs: {exc!r}"]
                    if not problems:
                        digest = current
                elif current != digest:
                    problems = ["outputs differ from the first correct sample's"]
                else:
                    problems = []
                sample["problems"] = problems
            if traced and spans_path.is_file():
                span_docs.append(json.loads(spans_path.read_text(encoding="utf-8")))
            samples.append(sample)
            if time.perf_counter() >= deadline and (not trace or len(samples) >= 2):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [s for s in samples if s["error"] is not None or s["problems"]]
    for s in failed:
        print(f"failed sample: {s.get('error') or s['problems'][:10]}", file=sys.stderr)

    def times(traced_flag):
        return [s["seconds"] for s in samples if s["traced"] == traced_flag]

    untraced = times(False)
    tokens = sum(setup.truth_tokens.values())
    if trace:
        metrics, absent = _layer_metrics(span_docs, tracer)
        metrics["synthgen.generate_corpus.s"] = (
            statistics.median([s.generate_seconds for s in setups]), "s")
        metrics["synthgen.tokens"] = (tokens, "count")
        overhead = statistics.median(times(True)) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        if span_docs:
            spans_dir = WORK_ROOT / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            (spans_dir / f"{workload_name}-seed{seed}.json").write_text(
                json.dumps({"workload": workload_name, "seed": seed, "runs": span_docs}),
                encoding="utf-8")
    else:
        analyze_s = statistics.median(untraced)
        metrics = {
            "analyze_s": (analyze_s, "s"),
            "tokens_per_s": (tokens / analyze_s, "1/s"),
            "peak_rss_mb": (
                statistics.median([s["peak_rss_mb"] for s in samples]), "MB"),
            "setup_s": (statistics.median([s.seconds for s in setups]), "s"),
            "passed_frac": ((len(samples) - len(failed)) / len(samples), "ratio"),
        }
        absent = []

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "tokens": tokens,
        "reference_checked": reference is not None,
        "failed_frac": len(failed) / len(samples),
        "analyze_s": {"samples": len(untraced), "median": statistics.median(untraced),
                      "highest_percentile": _highest_percentile(untraced)},
        "sample_seconds": [round(s["seconds"], 4) for s in samples],
        "setup_seconds": [round(s.seconds, 4) for s in setups],
        "absent_metrics": absent,
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "nproc": os.cpu_count()},
    }
    return result, details


def _layer_metrics(span_docs: list[dict], tracer) -> tuple[dict, list[str]]:
    """Median over the traced samples of each per-layer metric."""
    per_run = [tracer.layer_metrics(doc) for doc in span_docs]
    if not per_run:
        return {}, list(tracer.LAYER_METRICS)
    metrics = {}
    for name, (_value, unit) in per_run[0][0].items():
        metrics[name] = (
            statistics.median([values[name][0] for values, _ in per_run]), unit)
    return metrics, per_run[0][1]


def main(argv=None, scale: float = 1.0) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ctm_large", "read_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "vlcontrast" / "__init__.py").is_file():
        print(f"vlcontrast sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, details = run(args.workload, args.seed, args.seconds,
                          bool(args.trace), scale)
    print(json.dumps(details, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
