"""Command-line entry point.

    reachlab <kind> --config cfg.json --out results/ [--workers N] [--seed S]

Exit codes: 0 success, 2 config rejected by the schema, 3 experiment
failure (whatever completed stays on disk, plus an aborted.json note).
All configuration is explicit; no environment variable configures a run.
Before any work, ``main`` pins two glibc heap thresholds (``_pin_heap``)
and, unless the caller set it, ``OPENBLAS_NUM_THREADS`` to 1.
"""

import argparse
import ctypes
import json
import os
import sys

from ..errors import (
    ConfigError,
    ContractError,
    NumericalError,
    SchemaError,
    SimulationError,
    TrainingDivergedError,
)
from .config import KINDS, parse_config
from .experiments import run_experiment
from .io import canonical_json

_RUNTIME_ERRORS = (
    ContractError,
    NumericalError,
    SimulationError,
    TrainingDivergedError,
    SchemaError,
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="reachlab",
        description="Run one canned diffusion/complexity experiment from a JSON config.",
    )
    p.add_argument("kind", choices=sorted(KINDS), help="experiment kind")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1, help="parallel sweep cells (default 1)")
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    return p


# glibc's mallopt parameter numbers, and the values the CLI pins them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 4 << 20


def _pin_heap():
    """Keep the kernels' temporaries on a heap that is not trimmed.

    The descent, SGD and curvature kernels allocate and free arrays of
    160-720 KB on every call (hidden activations of 4-5 runs at n = 100,
    Fisher blocks at 300 parameters).  Under glibc's default thresholds
    these are mmapped, or the heap top is trimmed after them, so every
    call faults their pages back in.  Allocations under 1 MiB come
    from the heap, and up to 4 MiB of free heap top is kept.  Larger
    arrays (the 2.9 MB and 5.8 MB Jacobian blocks at n = 800) are still
    mmapped and returned when freed.  Returns whether both settings
    took; without glibc's ``mallopt`` nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )


def main(argv=None):
    _pin_heap()
    # scipy's OpenBLAS loads with the first L-BFGS-B descent, after this
    # line, and reads the variable then.  Unpinned, its threads made the
    # 62-variable descents of one action-check take 0.75 s instead of
    # 0.002 s on a 2-core machine, in the first run after an idle pause.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(args.kind, raw, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        bundle = run_experiment(cfg, args.out, workers=args.workers)
    except _RUNTIME_ERRORS as exc:
        os.makedirs(args.out, exist_ok=True)
        # serialized first: a note that cannot be written leaves no empty file
        note = canonical_json({"kind": cfg.kind, "config": cfg.snapshot(), "error": str(exc)})
        with open(os.path.join(args.out, "aborted.json"), "w") as fh:
            fh.write(note)
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 3
    n_flagged = len(bundle.flags)
    tail = f" ({n_flagged} cell(s) flagged)" if n_flagged else ""
    print(f"{cfg.kind}: {len(bundle.records)} record(s) -> {args.out}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
