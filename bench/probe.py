"""Set-up probe: what a fresh CLI process pays before any experiment work.

    python bench/probe.py KIND CONFIG_JSON

Imports ``reachlab.harness.experiments`` and parses the config, then
prints one JSON object with the import and ``parse_config`` times and
the versions of the numerical stack.  Run under ``python -X importtime``
for the per-module import breakdown on stderr.
"""

import json
import sys
import time


def main(kind, cfg_path):
    t0 = time.perf_counter()
    from reachlab.harness.config import parse_config
    from reachlab.harness import experiments  # noqa: F401

    t1 = time.perf_counter()
    with open(cfg_path) as fh:
        raw = json.load(fh)
    parse_config(kind, raw)
    t2 = time.perf_counter()

    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    json.dump(
        {
            "import_s": t1 - t0,
            "parse_config_s": t2 - t1,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
