"""Warm, fixed-size timings of the kernels the experiments are built from.

    python bench/kernels.py        # prints one JSON object: name -> us per call

Inputs are fixed (seeded with constants, not with the workload seed), so
these numbers move only when the kernel's code moves.  Each kernel is
called a few times to warm up, then timed in batches of at least
``BATCH_S`` seconds; the median batch gives microseconds per call.
``KERNELS`` names the workload whose end-to-end numbers each should move.
"""

import json
import statistics
import sys
import time

BATCH_S = 0.02
BATCHES = 7

KERNELS = {
    "kernel.doublewell_grad_us": "langevin-escape",
    "kernel.doublewell_grad_many_500_us": "langevin-escape",
    "kernel.batch_loss_grad_mlp_b10_us": "sgd-label-sweep",
    "kernel.loss_mlp_n100_us": "sgd-label-sweep",
    "kernel.batch_loss_grad_mlp_n2000_us": "fullbatch-structure",
    "kernel.fisher_mlp_d300_us": "fullbatch-structure",
    "kernel.channel_hessian_many_121_us": "channel-action",
    "kernel.channel_grad_laplacian_many_121_us": "channel-action",
    "kernel.om_action_channel_61_us": "channel-action",
    "kernel.stream_new_us": "sgd-label-sweep",
}


def _us_per_call(fn):
    for _ in range(3):
        fn()
    n, t = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - t0
        if t >= BATCH_S:
            break
        n *= 2
    per = [t / n]
    for _ in range(BATCHES - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per.append((time.perf_counter() - t0) / n)
    return statistics.median(per) * 1e6


def _mlp_task(n, seed):
    from reachlab import tasks

    model = tasks.ModelSpec("mlp-1-hidden", 3, 4, hidden=50, activation="tanh")
    return tasks.Task(tasks.generate_blobs(4, n, 3, 2.5, seed), model)


def measure():
    # imported here: run.py imports this module for KERNELS only, and its
    # process must not pay for numpy or the package
    import numpy as np

    from reachlab import action, complexity, diffusion, landscape, tasks
    from reachlab.rng import stream

    dw = landscape.DoubleWell1D()
    w1 = np.array([-0.7])
    W500 = np.linspace(-1.5, 1.5, 500)[:, None]
    small, big = _mlp_task(100, 11), _mlp_task(2000, 12)
    w = 0.1 * np.random.default_rng(13).standard_normal(small.model.n_params)
    idx10 = np.arange(0, 100, 10)
    channel = landscape.from_config({
        "name": "channel_2d",
        "a": {"name": "double_well_1d"},
        "b": {"name": "polynomial_1d", "coeffs": [2.5, 0.0, 4.0]},
    })
    W121 = np.stack([np.linspace(-1.5, 1.5, 121), np.linspace(-0.3, 0.3, 121)], axis=1)
    ts = np.linspace(0.0, 4.0, 61)
    path = diffusion.Path(ts, np.stack([np.linspace(-1, 1, 61), 0.2 * np.sin(np.pi * ts / 4)], axis=1))
    calls = {
        "kernel.doublewell_grad_us": lambda: dw.grad(w1),
        "kernel.doublewell_grad_many_500_us": lambda: dw.grad_many(W500),
        "kernel.batch_loss_grad_mlp_b10_us": lambda: tasks.batch_loss_grad(small, w, idx10),
        "kernel.loss_mlp_n100_us": lambda: tasks.loss(small, w),
        "kernel.batch_loss_grad_mlp_n2000_us": lambda: tasks.batch_loss_grad(big, w),
        "kernel.fisher_mlp_d300_us": lambda: complexity.fisher(small, w),
        "kernel.channel_hessian_many_121_us": lambda: channel.hessian_many(W121),
        "kernel.channel_grad_laplacian_many_121_us": lambda: channel.grad_laplacian_many(W121),
        "kernel.om_action_channel_61_us": lambda: action.om_action(channel, path, 0.1),
        "kernel.stream_new_us": lambda: stream(7, 3),
    }
    if set(calls) != set(KERNELS):
        raise RuntimeError("kernel table and timed calls disagree")
    return {name: _us_per_call(fn) for name, fn in calls.items()}


if __name__ == "__main__":
    json.dump(measure(), sys.stdout)
    sys.stdout.write("\n")
