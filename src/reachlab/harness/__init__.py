"""Experiment orchestration: configs, runners, bundles, the CLI.

Submodules and re-exports load on first access.  ``python -m
reachlab.harness.cli`` runs this file first, and the CLI must pin BLAS
threads before anything imports numpy.
"""

from .._lazy import namespace

__getattr__ = namespace(
    __name__,
    ("bundle", "cli", "config", "experiments", "io"),
    {
        "ResultBundle": "bundle",
        "KINDS": "config",
        "ExperimentConfig": "config",
        "parse_config": "config",
        "RUNNERS": "experiments",
        "rerun": "experiments",
        "run_experiment": "experiments",
        "CSV_SCHEMAS": "io",
        "validate_csv": "io",
        "validate_path_csv": "io",
    },
)
