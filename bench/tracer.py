"""Run the reachlab CLI once with per-layer timing wrappers installed.

    python bench/tracer.py TRACE_JSON -- KIND --config CFG --out DIR ...

Everything after ``--`` is passed to ``reachlab.harness.cli.main``.
The wrappers live here, not in ``src/``: after the package is imported,
each traced function or method is replaced by a wrapper under every name
a caller looks it up by (``stream``, for example, is imported by name
into several modules).  Every call is aggregated per (parent, function)
into a call count, busy time and self time, so the hot leaf kernels
(10^5 or more calls per run) cost a few counters each.  Calls into entry
points additionally keep a span (start, end, parent span), written out
with the aggregates when the run ends.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("landscape", "action", "diffusion", "rates", "tasks", "complexity", "rng", "harness")

# Entry points keep individual spans; everything else is aggregated only.
ENTRY_POINTS = {
    "harness.parse_config",
    "harness.run_experiment",
    "harness.bundle_save",
    "harness.write_csv",
    "diffusion.first_passage",
    "diffusion.convergence_time",
    "action.minimum_action_path",
    "complexity.train_minimizer",
    "complexity.train_posterior_mean",
    "complexity.structure_curve",
    "complexity.c_beta",
    "rates.arrhenius_fit",
}
MAX_SPANS = 10000

POTENTIAL_METHODS = (
    "value", "grad", "hessian", "laplacian", "grad_laplacian",
    "value_many", "grad_many", "laplacian_many", "grad_laplacian_many", "hessian_many",
)


class Tracer:
    """Per-(parent, function) aggregates plus spans for entry points."""

    def __init__(self):
        self.stats = {}  # (parent name, name) -> [calls, busy_s, self_s]
        self.spans = []  # [id, parent id, name, start_s, end_s]
        self.dropped_spans = 0
        self.train_calls = 0
        self.train_converged = 0
        self.t0 = time.perf_counter()
        # frame: [name, child busy time, span id of the enclosing entry point]
        self._stack = [["<root>", 0.0, -1]]

    def wrap(self, name, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        is_entry = name in ENTRY_POINTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = parent[2]
            if is_entry:
                if len(self.spans) < MAX_SPANS:
                    span = len(self.spans)
                    self.spans.append([span, parent[2], name, 0.0, 0.0])
                else:
                    self.dropped_spans += 1
            frame = [name, 0.0, span]
            stack.append(frame)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t
                stack.pop()
                parent[1] += dt
                s = stats.get((parent[0], name))
                if s is None:
                    s = stats[(parent[0], name)] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
                if is_entry and span != parent[2]:
                    self.spans[span][3:] = [t - self.t0, t1 - self.t0]

        return traced

    def wrap_train(self, fn):
        """``complexity._gd`` is the descent loop; also count convergence."""
        inner = self.wrap("complexity.train", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.train_calls += 1
            self.train_converged += bool(out[1])
            return out

        return traced

    def to_dict(self):
        return {
            "stats": [[p, n, *v] for (p, n), v in sorted(self.stats.items())],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "train_calls": self.train_calls,
            "train_converged": self.train_converged,
        }


def _targets():
    """(owner, attribute, traced name) for every function to wrap."""
    from reachlab import action, complexity, diffusion, landscape, rates, rng, tasks
    from reachlab.harness import bundle, config, experiments, io

    out = []
    for layer, mod in (
        ("landscape", landscape), ("action", action), ("diffusion", diffusion),
        ("rates", rates), ("tasks", tasks), ("complexity", complexity), ("rng", rng),
    ):
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out.append((mod, attr, f"{layer}.{attr}"))
    # potentials: every concrete evaluation method, named by method only,
    # so DoubleWell1D.grad_many and Channel2D.grad_many share one counter
    for cls in vars(landscape).values():
        if inspect.isclass(cls) and issubclass(cls, landscape.Potential):
            for meth in POTENTIAL_METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn) and not getattr(fn, "__isabstractmethod__", False):
                    out.append((cls, meth, f"landscape.{meth}"))
    out += [
        (config, "parse_config", "harness.parse_config"),
        (experiments, "run_experiment", "harness.run_experiment"),
        (bundle.ResultBundle, "save", "harness.bundle_save"),
        (io, "write_csv", "harness.write_csv"),
        (io, "validate_csv", "harness.validate_csv"),
        (io, "validate_path_csv", "harness.validate_path_csv"),
        (io.PlotSet, "add", "harness.plot_add"),
        (io.PlotSet, "finish", "harness.plot_finish"),
    ]
    return out


def install(tracer):
    import reachlab.harness.cli  # noqa: F401  (loads every module the CLI uses)
    from reachlab import complexity

    replaced = {}
    for owner, attr, name in _targets():
        orig = owner.__dict__[attr]
        replaced[id(orig)] = (orig, tracer.wrap(name, orig))
        setattr(owner, attr, replaced[id(orig)][1])
    orig_gd = complexity._gd
    replaced[id(orig_gd)] = (orig_gd, tracer.wrap_train(orig_gd))
    complexity._gd = replaced[id(orig_gd)][1]
    # rebind names imported elsewhere (from .rng import stream, ...)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "reachlab" or modname.startswith("reachlab.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


# -- analysis (run by the benchmark parent on the dumped trace) ---------------

SCALAR_METHODS = ("value", "grad", "hessian", "laplacian", "grad_laplacian")


def layer_metrics(trace, wall_s, baseline_wall_s, bundle):
    """Per-layer metrics of one traced run.

    ``calls`` and busy time of a function count only calls from another
    function: a nested call under the same name (Channel2D.grad_many
    calling its profile's grad_many) is already inside the outer busy
    time.  Self time and the layer totals count every call.  A layer's
    share is its self time over the traced process's wall time.
    """
    agg = {}  # name -> [outer calls, outer busy s, self s, all calls]
    pair = {}  # (parent, name) -> calls
    for parent, fn, calls, busy, self_s in trace["stats"]:
        a = agg.setdefault(fn, [0, 0.0, 0.0, 0])
        a[2] += self_s
        a[3] += calls
        if parent != fn:
            a[0] += calls
            a[1] += busy
        pair[(parent, fn)] = pair.get((parent, fn), 0) + calls
    zero = [0, 0.0, 0.0, 0]

    def calls(fn):
        return agg.get(fn, zero)[0]

    def busy(fn):
        return agg.get(fn, zero)[1]

    def self_s(fn):
        return agg.get(fn, zero)[2]

    def us_per(total_s, n):
        return total_s / n * 1e6 if n else 0.0

    def us_per_call(fn):
        return us_per(busy(fn), calls(fn))

    # one SGD step = one minibatch gradient; one ensemble step = one grad_many
    sgd_steps = pair.get(("diffusion.convergence_time", "tasks.batch_loss_grad"), 0)
    walker_steps = pair.get(("diffusion.first_passage", "landscape.grad_many"), 0)
    recs = bundle.get("records", [])
    n_runs = sum(r.get("n_runs", 0) for r in recs)
    n_cens = sum(r.get("n_censored", 0) for r in recs)
    m = {
        "tasks.batch_loss_grad.calls": calls("tasks.batch_loss_grad"),
        "tasks.batch_loss_grad.us_per_call": us_per_call("tasks.batch_loss_grad"),
        "tasks.batch_loss_grad.self_s": self_s("tasks.batch_loss_grad"),
        "tasks.loss.calls": calls("tasks.loss"),
        "tasks.loss.us_per_call": us_per_call("tasks.loss"),
        "tasks.grad_loss.calls": calls("tasks.grad_loss"),
        "diffusion.convergence_time.self_s": self_s("diffusion.convergence_time"),
        "diffusion.convergence_time.us_per_step": us_per(busy("diffusion.convergence_time"), sgd_steps),
        "diffusion.first_passage.self_s": self_s("diffusion.first_passage"),
        "diffusion.first_passage.us_per_step": us_per(busy("diffusion.first_passage"), walker_steps),
        "diffusion.censored_frac": n_cens / n_runs if n_runs else 0.0,
        "landscape.grad_many.calls": calls("landscape.grad_many"),
        "landscape.grad_many.us_per_call": us_per_call("landscape.grad_many"),
        "landscape.hessian_many.calls": calls("landscape.hessian_many"),
        "landscape.hessian_many.us_per_call": us_per_call("landscape.hessian_many"),
        "landscape.grad_laplacian_many.calls": calls("landscape.grad_laplacian_many"),
        "landscape.grad_laplacian_many.us_per_call": us_per_call("landscape.grad_laplacian_many"),
        "landscape.scalar_calls": sum(agg.get(f"landscape.{f}", zero)[3] for f in SCALAR_METHODS),
        "action.minimum_action_path.self_s": self_s("action.minimum_action_path"),
        "action.om_action.calls": calls("action.om_action"),
        "complexity.fisher.calls": calls("complexity.fisher"),
        "complexity.fisher.us_per_call": us_per_call("complexity.fisher"),
        "complexity.optimal_sigma.us_per_call": us_per_call("complexity.optimal_sigma"),
        "complexity.train.self_s": self_s("complexity.train"),
        "complexity.train_converged_frac": (
            trace["train_converged"] / trace["train_calls"] if trace["train_calls"] else 0.0
        ),
        "rates.arrhenius_fit.us_per_call": us_per_call("rates.arrhenius_fit"),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.self_s": self_s("rng.stream"),
        "harness.parse_config_s": busy("harness.parse_config"),
        "harness.bundle_save_s": busy("harness.bundle_save"),
        "harness.write_csv_s": busy("harness.write_csv"),
        "trace.overhead_s": wall_s - baseline_wall_s,
    }
    for layer in LAYERS:
        fns = [fn for fn in agg if fn.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(agg[fn][3] for fn in fns)
        m[f"share.{layer}"] = sum(agg[fn][2] for fn in fns) / wall_s
    return m


def span_lines(trace, limit=60):
    """The entry-point spans as an indented tree, in start order."""
    depth, lines = {}, []
    for sid, parent, name, start, end in trace["spans"]:
        depth[sid] = depth.get(parent, -1) + 1
        if len(lines) < limit:
            lines.append(f"{'  ' * depth[sid]}{name} {end - start:.3f} s (at {start:.3f} s)")
    if len(trace["spans"]) > limit or trace["dropped_spans"]:
        lines.append(f"... {len(trace['spans']) - len(lines) + trace['dropped_spans']} more span(s)")
    return lines


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <reachlab cli args>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from reachlab.harness import cli

    rc = cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
