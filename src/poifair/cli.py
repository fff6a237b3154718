"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 data error, 4 stage failure.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

# Imported first: where bytecode is not cached, data.py, the largest module,
# is then compiled before numpy fills the heap, which lowers the peak RSS.
from .data import DataError
from .config import ConfigError, ExperimentConfig
from .pipeline import COMMANDS, StageFailure, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STAGE = 4


def _add_common(sub):
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--out", help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, help="seed recorded in the manifest's config "
                     "and its hash (overrides config); no stage reads it yet")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poifair",
        description="Context-aware POI recommendation with temporal-fairness evaluation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        # An unusable out_dir is a ConfigError too, raised before any stage.
        run_pipeline(_load_config(args), args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StageFailure as e:
        if isinstance(e.cause, DataError):
            print(f"data error in stage {e.stage!r}: {e.cause}", file=sys.stderr)
            return EXIT_DATA
        print(f"stage failure: {e}", file=sys.stderr)
        return EXIT_STAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def entry() -> None:
    """`main()` as a process: every artifact is closed when it returns, so
    once logs and streams are flushed the process ends without interpreter
    finalization (about 20 ms with numpy loaded). If main() raises, SystemExit
    included, the process exits the normal way."""
    code = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
