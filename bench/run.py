"""reachlab benchmark: one workload through the real CLI, checked and timed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a reachlab source tree (the program is imported
from ``./src``; nothing is installed).  Every CLI process runs with
``--workers 1`` and BLAS threads pinned to 1.  Scratch output goes to a
temporary directory under ``.bench_build/`` and is removed at exit.

``--trace 0`` times the untraced CLI over the workload's seed panel
(see ``workloads.py``) for at least S seconds and at least once per
panel seed, plus fresh-interpreter set-up probes, and reports the
end-to-end metrics.  ``--trace 1`` repeats the untraced runs as the
baseline, then runs the CLI once more with the timing wrappers of
``tracer.py``, the fixed-size kernels of ``kernels.py`` and an
``-X importtime`` set-up probe, and reports the per-layer metrics.

Every CLI run is checked: exit code, workload oracles, every CSV
against its registered schema, a digest of the result fields that must
repeat across runs of one seed (and match ``workloads.PINNED`` where a
digest is pinned).  Human-readable report lines go first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import kernels
import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
# The whole run must end within 180 s: children are killed at DEADLINE_S,
# and no new untraced run starts after LOOP_LIMIT_S (the traced run,
# kernels and probes still have to fit after the loop).
DEADLINE_S = 170
LOOP_LIMIT_S = 100
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


class Runner:
    """Launches children from the source root and records what they cost."""

    def __init__(self, root, tmp):
        self.root, self.tmp = root, tmp
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.n = 0
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def run(self, args, stdout=None):
        """Run ``python args...``; wall time is process launch to exit."""
        self.n += 1
        err_path = os.path.join(self.tmp, f"child{self.n}.stderr")
        out_path = stdout or os.devnull
        with open(err_path, "w") as err, open(out_path, "w") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                 stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, DEADLINE_S - self.elapsed()), p.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path) as fh:
            stderr = fh.read()
        return {
            "rc": p.returncode,
            "wall_s": wall,
            "maxrss_mb": ru.ru_maxrss / 1024.0,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "stderr": stderr,
        }


def _files(out_dir):
    for dirpath, _, names in os.walk(out_dir):
        for n in names:
            yield os.path.join(dirpath, n)


def verify(name, out_dir, seed, res):
    """Check one CLI run's output; fills ``problems``, ``digest`` and ``work``."""
    from reachlab.errors import SchemaError
    from reachlab.harness import io

    res.update(problems=[], digest=None, work=0, files=0, bytes=0)
    if res["rc"] != 0:
        res["problems"].append(f"exit code {res['rc']}: {res['stderr'][-300:]}")
        return res
    try:
        with open(os.path.join(out_dir, "bundle.json")) as fh:
            bundle = json.load(fh)
    except (OSError, ValueError) as exc:
        res["problems"].append(f"bundle.json unreadable: {exc}")
        return res
    res["bundle"] = bundle
    if bundle.get("kind") != wl.WORKLOADS[name]["kind"] or bundle["config"].get("seed") != seed:
        res["problems"].append("bundle kind or seed does not match the request")
        return res
    res["digest"] = wl.digest(bundle)
    pinned = wl.PINNED[name].get(seed)
    if pinned is not None and pinned != res["digest"]:
        res["problems"].append(f"digest {res['digest'][:16]} != pinned {pinned[:16]} at seed {seed}")
    try:
        res["problems"] += wl.check(name, bundle)
        res["work"] = wl.work(name, bundle)
    except (KeyError, TypeError, ValueError) as exc:
        res["problems"].append(f"bundle lacks the fields the checks read: {type(exc).__name__}: {exc}")
    csvs = 0
    for path in _files(out_dir):
        res["files"] += 1
        res["bytes"] += os.path.getsize(path)
        base = os.path.basename(path)
        if not base.endswith(".csv"):
            continue
        csvs += 1
        try:
            if base in io.CSV_SCHEMAS:
                io.validate_csv(path, base)
            elif base == "action_path.csv":
                io.validate_path_csv(path)
            else:
                res["problems"].append(f"CSV {base} has no registered schema")
        except (SchemaError, ValueError, OSError, csv.Error) as exc:
            res["problems"].append(f"{base}: {type(exc).__name__}: {exc}")
    if not csvs:
        res["problems"].append("no CSV written")
    return res


def cli_run(runner, name, cfg_path, seed, trace_path=None):
    """One verified CLI process on ``seed``; traced when ``trace_path`` is set."""
    out = os.path.join(runner.tmp, f"out{runner.n + 1}")
    head = [os.path.join(HERE, "tracer.py"), trace_path, "--"] if trace_path else ["-m", "reachlab.harness.cli"]
    res = runner.run(head + [wl.WORKLOADS[name]["kind"], "--config", cfg_path, "--out", out,
                             "--workers", "1", "--seed", str(seed)])
    res["seed"] = seed
    verify(name, out, seed, res)
    shutil.rmtree(out, ignore_errors=True)
    return res


def measure(runner, name, cfg_path, seeds, seconds):
    """Untraced CLI runs: each panel seed at least once, for >= seconds."""
    reps = []
    t_start = time.perf_counter()
    while (len(reps) < len(seeds) or time.perf_counter() - t_start < seconds) and (
        not reps or runner.elapsed() < LOOP_LIMIT_S
    ):
        reps.append(cli_run(runner, name, cfg_path, seeds[len(reps) % len(seeds)]))
    return reps


def check_repeats(runs):
    """Every run of one seed, traced or not, must give the same results."""
    first = {}
    for r in runs:
        if r["digest"] is not None and first.setdefault(r["seed"], r["digest"]) != r["digest"]:
            r["problems"].append(f"seed {r['seed']}: results differ from an earlier run of this seed")


def setup_probe(runner, kind, cfg_path, importtime=False):
    out = os.path.join(runner.tmp, f"probe{runner.n + 1}.json")
    args = (["-X", "importtime"] if importtime else []) + [os.path.join(HERE, "probe.py"), kind, cfg_path]
    res = runner.run(args, stdout=out)
    res["info"] = {}
    if res["rc"] == 0:
        with open(out) as fh:
            res["info"] = json.load(fh)
    return res


def import_breakdown(stderr_text):
    """Cumulative import seconds per module from ``-X importtime`` output."""
    cum = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, c, mod = line[len("import time:"):].split("|")
        try:
            cum[mod.strip()] = int(c) / 1e6
        except ValueError:
            continue
    return cum


def source_lines(root):
    n = 0
    for path in _files(os.path.join(root, "src")):
        if path.endswith(".py"):
            with open(path, "rb") as fh:
                n += fh.read().count(b"\n")
    return n


def commit_of(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def traced_metrics(runner, name, cfg_path, seed, reps, side):
    """Per-layer metrics: set-up breakdown, one traced run, the kernels."""
    kind = wl.WORKLOADS[name]["kind"]
    imp = setup_probe(runner, kind, cfg_path, importtime=True)
    side.append(("importtime probe", imp))
    # an untraced run right before the traced one, so the overhead
    # compares runs made under the same machine load
    reps.append(cli_run(runner, name, cfg_path, seed))
    trace_path = os.path.join(runner.tmp, "trace.json")
    traced = cli_run(runner, name, cfg_path, seed, trace_path)
    kern_path = os.path.join(runner.tmp, "kernels.json")
    kern = runner.run([os.path.join(HERE, "kernels.py")], stdout=kern_path)
    side.append(("kernels", kern))

    m = {}
    if traced["digest"] is not None and os.path.exists(trace_path):
        with open(trace_path) as fh:
            trace = json.load(fh)
        base = statistics.median(r["wall_s"] for r in reps if r["seed"] == seed)
        m.update(tracer.layer_metrics(trace, traced["wall_s"], base, traced["bundle"]))
        traced["spans"] = tracer.span_lines(trace)
        m["harness.bytes_written"] = traced["bytes"]
        m["harness.files_written"] = traced["files"]
        for layer in wl.BYPASS[name]:
            if m[f"{layer}.calls"]:
                traced["problems"].append(
                    f"bypass check: {m[f'{layer}.calls']} {layer} calls on {name}, expected 0")
    if kern["rc"] == 0:
        with open(kern_path) as fh:
            m.update(json.load(fh))
    cum = import_breakdown(imp["stderr"])
    m["setup.import_s"] = imp["info"].get("import_s", 0.0)
    m["setup.parse_config_s"] = imp["info"].get("parse_config_s", 0.0)
    for layer in tracer.LAYERS:
        m[f"setup.import.{layer}_s"] = cum.get(f"reachlab.{layer}", 0.0)
    m["setup.import.numpy_s"] = cum.get("numpy", 0.0)
    m["process.cpu_s"] = statistics.median(r["cpu_s"] for r in reps)
    m["meta.src_lines"] = source_lines(runner.root)
    return m, traced


def unit_of(metric):
    if metric.endswith(("_us", ".us_per_call", ".us_per_step")):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("share.") or metric.endswith("_frac"):
        return "fraction"
    if metric == "harness.bytes_written":
        return "bytes"
    if metric == "meta.src_lines":
        return "lines"
    return "count"


def report(args, runner, name, spec, cfg_path, seeds):
    side = []  # (label, result) of every child that is not a CLI run
    if not args.trace:
        side = [("setup probe", setup_probe(runner, spec["kind"], cfg_path))
                for _ in range(SETUP_PROBES)]
    reps = measure(runner, name, cfg_path, seeds, args.seconds)
    runs = reps
    if args.trace:
        per_layer, traced = traced_metrics(runner, name, cfg_path, seeds[0], reps, side)
        runs = reps + [traced]
    check_repeats(runs)
    for label, res in side:
        res["problems"] = [] if res["rc"] == 0 else [f"{label} exit code {res['rc']}: {res['stderr'][-300:]}"]
    attempted = len(runs) + len(side)
    failures = [r for r in runs + [res for _, res in side] if r["problems"]]
    ok = [r for r in reps if not r["problems"]]

    info = next((res["info"] for _, res in side if res.get("info")), {})
    print(f"workload {name}: reachlab {spec['kind']}, --workers 1, seed panel {seeds}, "
          f"{len(reps)} untraced run(s) in {sum(r['wall_s'] for r in reps):.1f} s")
    print(f"environment: nproc {os.cpu_count()}, python {info.get('python')}, numpy {info.get('numpy')}, "
          f"scipy {info.get('scipy')}, blas {info.get('blas')}; BLAS threads pinned to 1 "
          f"(OPENBLAS/OMP/MKL_NUM_THREADS=1)")
    print(f"source: commit {commit_of(runner.root)}, src_lines {source_lines(runner.root)}")
    for r in runs:
        pin = wl.PINNED[name].get(r["seed"])
        tag = "" if pin is None else (" (pinned: match)" if pin == r["digest"] else " (pinned: MISMATCH)")
        label = "traced" if args.trace and r is runs[-1] else "run"
        print(f"  {label} seed {r['seed']}: wall {r['wall_s']:.3f} s, rss {r['maxrss_mb']:.1f} MB, "
              f"cpu {r['cpu_s']:.2f} s, {spec['work']} {r['work']}, digest {r['digest']}{tag}")
    for r in failures:
        for p in r["problems"]:
            print(f"  FAILED: {p}")
    print(f"failed_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted} runs)")

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(per_layer.items())}
        for layer in tracer.LAYERS:
            print(f"  share.{layer} {per_layer.get(f'share.{layer}', 0.0):.3f}, "
                  f"calls {per_layer.get(f'{layer}.calls', 0)}")
        print("  spans of the traced run (entry points):")
        for line in traced.get("spans", []):
            print(f"    {line}")
        for k, target in sorted(kernels.KERNELS.items()):
            print(f"  {k} {per_layer.get(k, 0.0):.2f} us (should move {target})")
        print(f"  trace.overhead_s {per_layer.get('trace.overhead_s', 0.0):.3f} "
              f"(traced wall minus the untraced median at seed {seeds[0]})")
    else:
        def med(values):
            values = list(values)
            return statistics.median(values) if values else 0.0

        rate = med(r["work"] / r["wall_s"] for r in ok)
        values = {
            "wall_s": med(r["wall_s"] for r in ok),
            "setup_s": med(res["wall_s"] for _, res in side),
            "peak_rss_mb": med(r["maxrss_mb"] for r in ok),
            "work_per_s": rate,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"  {k} {v:.4f} {E2E_UNITS[k]} (median)")
        print(f"  work_per_s counts {spec['work']}: {spec['rate_name']} {rate:.1f}")
    result = {"correct": not failures and bool(ok), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reachlab", "harness", "cli.py")):
        print("error: run from the root of a reachlab source tree (no src/reachlab here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    name, spec = args.workload, wl.WORKLOADS[args.workload]
    seeds = wl.panel(args.seed)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="reachlab-", dir=build)
    try:
        runner = Runner(root, tmp)
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(spec["config"], fh)
        return report(args, runner, name, spec, cfg_path, seeds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
