"""Command-line entry point: ``lotrain <experiment> --config FILE --out CSV``.

Exit codes: 0 success; 1 parameter or consistency error; 2 infeasible
training length (the coloring needs at least the whole coherence time);
3 I/O failure.
"""

import argparse
import os
import sys

from .errors import TrainingLengthError
from .experiments import config_from_mapping, emit_csv, load_config, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lotrain",
        description="Training-design experiments for dense cloud radio access networks",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, text in (
        ("scaling", "normalized training length vs user count, against the asymptotic bound"),
        ("density", "distribution of per-RRH served-set sizes"),
        ("compare", "throughput of the configured schemes over an SNR grid"),
        ("sweep-k", "throughput vs user count"),
        ("sweep-r", "throughput vs sparsification radius"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="flat 'key = value' config file")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")
        p.add_argument("--workers", type=int, default=None, help="override the worker count")
    args = parser.parse_args(argv)
    try:
        mapping = load_config(args.config)
        for key in ("seed", "trials", "workers"):
            value = getattr(args, key)
            if value is not None:
                mapping[key] = value
        cfg = config_from_mapping(args.experiment, mapping)
        _check_writable(args.out)
        rows = run_experiment(cfg)
        emit_csv(rows, args.out)
    except TrainingLengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any trial runs:
    an existing directory, or a file in a directory that does not exist."""
    if os.path.isdir(path):
        raise OSError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OSError(f"--out {path}: directory {parent} does not exist")
