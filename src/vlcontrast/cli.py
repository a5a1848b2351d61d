"""Command-line front end.

    vlcontrast analyze --config analysis.json
    vlcontrast synth   --spec corpus.json --outdir DIR

Every analysis option is a key of the config file.  Exit codes: 0
success, 1 corpus-level runtime failure or a failed read or write (an
OSError), 2 configuration or usage error.  Per-vowel failures never
abort a run; they surface as flagged rows in the feature table.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .alignment import CELLS
from .report import (
    AnalysisConfig,
    ConfigError,
    CorpusLoadError,
    csv_text,
    run_analysis,
    write_atomic,
)
from .synthgen import CorpusSpec, generate_corpus

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcontrast",
        description="Vowel-length contrast analysis over forced-alignment files.",
    )
    parser.add_argument("--version", action="version",
                        version=f"vlcontrast {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the full contrast analysis")
    p_analyze.add_argument("--config", required=True, metavar="PATH",
                           help="analysis config JSON")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--spec", required=True, metavar="PATH",
                         help="corpus spec JSON")
    p_synth.add_argument("--outdir", default=".", metavar="DIR",
                         help="directory to write the corpus under")
    return parser


def _cmd_analyze(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    config = AnalysisConfig.from_json(config_path.read_text(encoding="utf-8"))
    result = run_analysis(config)
    for path in result.output_paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise ConfigError(f"spec file not found: {spec_path}")
    try:
        spec = CorpusSpec.from_json(spec_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{spec_path}: {exc}") from exc
    corpus = generate_corpus(spec)
    out_dir = Path(args.outdir) / spec.corpus_id
    for name, text in sorted(corpus.files.items()):
        write_atomic(out_dir / name, text)
    tokens = corpus.tokens
    # tolist() gives Python floats; a numpy float64's repr reads "np.float64(...)"
    write_atomic(out_dir / "tokens_truth.csv", csv_text(
        ("vowel", "length", "duration_ms", "utterance_id"),
        ((*CELLS[cell], repr(duration_ms), tokens.utterance_ids[u])
         for cell, duration_ms, u in zip(tokens.cell.tolist(),
                                         tokens.duration_ms.tolist(),
                                         tokens.utterance.tolist()))))
    print(f"wrote {len(corpus.files) + 1} files under {out_dir} "
          f"({len(corpus.tokens)} vowel tokens)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "synth":
            return _cmd_synth(args)
        parser.error(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusLoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
