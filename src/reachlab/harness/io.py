"""CSV and plot-data persistence for experiment bundles.

Every CSV the harness emits has its header registered in CSV_SCHEMAS
and is checked by validate_csv before the runner returns, so a schema
drift breaks the run that introduced it rather than a reader later.
Plot files are bare whitespace-separated numeric columns; axis names
live in plots/manifest.json, keeping the .dat files tool-agnostic.
"""

import csv
import json
import math
import os

from ..errors import SchemaError

# column types: int | float | str | float? (empty cell allowed)
CSV_SCHEMAS = {
    "kramers_sweep.csv": [
        ("D", "float"),
        ("inv_D", "float"),
        ("mean_time", "float"),
        ("median_time", "float"),
        ("rate", "float"),
        ("n_runs", "int"),
        ("n_censored", "int"),
    ],
    "label_sweep.csv": [
        ("rho", "float"),
        ("c_beta", "float"),
        ("median_time", "float"),
        ("mean_time", "float"),
        ("n_censored", "int"),
        ("n_runs", "int"),
        ("threshold", "float"),
        ("min_loss", "float"),
    ],
    "batch_sweep.csv": [
        ("batch_size", "int"),
        ("noise_trace", "float"),
        ("noise_trace_exact", "float"),
        ("frobenius_rel_err", "float"),
        ("median_time", "float"),
        ("mean_time", "float"),
        ("n_censored", "int"),
        ("n_runs", "int"),
    ],
    "complexity_scatter.csv": [
        ("label", "str"),
        ("c_beta", "float"),
        ("median_time", "float"),
        ("mean_time", "float"),
        ("n_censored", "int"),
        ("n_runs", "int"),
    ],
    "finetune_times.csv": [
        ("from", "str"),
        ("to", "str"),
        ("median_time", "float?"),
        ("mean_time", "float?"),
        ("n_censored", "int"),
        ("n_runs", "int"),
    ],
    "finetune_distances.csv": [
        ("from", "str"),
        ("to", "str"),
        ("distance", "float?"),
    ],
    "finetune_scatter.csv": [
        ("from", "str"),
        ("to", "str"),
        ("distance", "float"),
        ("median_time", "float"),
    ],
    "structure_curve.csv": [
        ("beta", "float"),
        ("kl_nats", "float"),
        ("expected_loss", "float"),
        ("converged", "int"),
        ("n_iter", "int"),
    ],
    "action_check.csv": [
        ("path", "str"),
        ("total", "float"),
        ("static_term", "float"),
        ("dynamic_term", "float"),
        ("defect", "float"),
    ],
}


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path, name, rows):
    """Write rows under the registered header for ``name`` and validate."""
    schema = CSV_SCHEMAS[name]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([c for c, _ in schema])
        for row in rows:
            if len(row) != len(schema):
                raise SchemaError(f"{name}: row has {len(row)} cells, schema wants {len(schema)}")
            w.writerow([_fmt(v) for v in row])
    validate_csv(path, name)
    return path


def validate_csv(path, name):
    """Check a CSV against its registered schema; raise SchemaError on drift."""
    if name not in CSV_SCHEMAS:
        raise SchemaError(f"no schema registered for {name!r}")
    schema = CSV_SCHEMAS[name]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise SchemaError(f"{name}: file is empty")
    header = rows[0]
    expected = [c for c, _ in schema]
    if header != expected:
        raise SchemaError(f"{name}: header {header} != {expected}")
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != len(schema):
            raise SchemaError(f"{name}:{ln}: {len(row)} cells, expected {len(schema)}")
        for cell, (col, typ) in zip(row, schema):
            _check_cell(name, ln, col, typ, cell)


def _check_cell(name, ln, col, typ, cell):
    where = f"{name}:{ln}: column {col!r}"
    if typ == "str":
        if cell == "":
            raise SchemaError(f"{where} must not be empty")
        return
    if typ == "float?" and cell == "":
        return
    if typ == "int":
        try:
            int(cell)
        except ValueError:
            raise SchemaError(f"{where} must be an integer, got {cell!r}") from None
        return
    try:
        v = float(cell)
    except ValueError:
        raise SchemaError(f"{where} must be a float, got {cell!r}") from None
    if not math.isfinite(v):
        raise SchemaError(f"{where} must be finite, got {cell!r}")


def validate_path_csv(path):
    """Trajectory CSVs have a variable width: t,w0,...,w{d-1}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["t"]:
        raise SchemaError(f"{path}: expected a 't,w0,...' header")
    d = len(rows[0]) - 1
    if d < 1 or rows[0][1:] != [f"w{i}" for i in range(d)]:
        raise SchemaError(f"{path}: malformed coordinate header {rows[0]}")
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise SchemaError(f"{path}:{ln}: expected {d + 1} cells")
        for cell, col in zip(row, rows[0]):
            _check_cell(path, ln, col, "float", cell)


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, fixed indent, no NaN."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_atomic(path, text):
    """Write ``text`` through a temp file, so ``path`` is never seen half written."""
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


class PlotSet:
    """Collects .dat plot files plus the manifest naming their axes."""

    def __init__(self, out_dir):
        self.dir = os.path.join(out_dir, "plots")
        os.makedirs(self.dir, exist_ok=True)
        self.entries = []

    def add(self, fname, columns, rows):
        if any(name in (e["file"] for e in self.entries) for name in [fname]):
            raise SchemaError(f"plot file {fname!r} emitted twice")
        if not all(len(r) == len(columns) for r in rows):
            raise SchemaError(f"plot {fname!r}: row width != {len(columns)} columns")
        with open(os.path.join(self.dir, fname), "w") as fh:
            for row in rows:
                fh.write(" ".join(f"{float(v):.17g}" for v in row) + "\n")
        self.entries.append({"file": fname, "columns": list(columns)})

    def finish(self):
        path = os.path.join(self.dir, "manifest.json")
        with open(path, "w") as fh:
            fh.write(canonical_json({"files": sorted(self.entries, key=lambda e: e["file"])}))
        return path
