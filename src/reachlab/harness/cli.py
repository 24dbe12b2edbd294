"""Command-line entry point.

    reachlab <kind> --config cfg.json --out results/ [--workers N] [--seed S]

Exit codes: 0 success, 2 config rejected by the schema, 3 experiment
failure (whatever completed stays on disk, plus an aborted.json note).
All configuration is explicit; no environment variable configures a run.
Before any work, ``main`` sets ``OPENBLAS_NUM_THREADS`` to 1, unless the
caller set it.  This module imports only the standard library and
numpy-free modules (``errors``, ``io``), and the package ``__init__``s
load nothing, so the pin reaches both numpy's and scipy's OpenBLAS:
``main`` imports the config parser and the runners only after it.
Parsing a config imports the science modules its kind uses, and no
others.  Once those and the runners are loaded, two glibc heap
thresholds are pinned for the run (``_pin_heap``).
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
from .io import canonical_json, write_atomic

_RUNTIME_ERRORS = (
    ContractError,
    NumericalError,
    SimulationError,
    TrainingDivergedError,
    SchemaError,
)


def build_parser():
    from .config import KINDS

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
    from the heap (the Fisher's Jacobian blocks are sized to fit), and
    up to 4 MiB of free heap top is kept.  Larger arrays are still
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


def run_experiment(cfg, out_dir, workers=1):
    """``experiments.run_experiment``, imported once a run starts.

    The heap thresholds are pinned after every import the run needs: set
    before numpy's import, they kept its import-time buffers on the heap
    and raised a label-sweep run's peak RSS by about 0.6 MB.
    """
    from .experiments import run_experiment

    _pin_heap()
    return run_experiment(cfg, out_dir, workers=workers)


def main(argv=None):
    # numpy's OpenBLAS loads with the first import of numpy and scipy's
    # with the first L-BFGS-B descent, both after this line, and each
    # reads the variable then.  Unpinned, scipy's threads made the
    # 62-variable descents of one action-check take 0.75 s instead of
    # 0.002 s on a 2-core machine, in the first run after an idle pause,
    # and numpy's changed the last bits of eigvalsh, so of the bundles.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .config import parse_config

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
        # serialized before its file opens, and renamed into place once whole
        note = canonical_json({"kind": cfg.kind, "config": cfg.snapshot(), "error": str(exc)})
        write_atomic(os.path.join(args.out, "aborted.json"), note)
        print(f"error: experiment failed: {exc}", file=sys.stderr)
        return 3
    n_flagged = len(bundle.flags)
    tail = f" ({n_flagged} cell(s) flagged)" if n_flagged else ""
    print(f"{cfg.kind}: {len(bundle.records)} record(s) -> {args.out}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
