"""Task distances are asymmetric: specializing is cheaper than generalizing."""

import numpy as np

from reachlab import complexity, tasks

model = tasks.ModelSpec("multinomial-logistic", 3, 4)
full = tasks.generate_blobs(4, 80, 3, 2.5, seed=3)
pair = tasks.subset_classes(full, [0, 1])  # same points, two classes kept
trainer = complexity.TrainerConfig(step_size=0.3, max_iters=4000, grad_tol=1e-8)
beta, lam2 = 0.02, 1.0

d_fp = complexity.task_distance(full, pair, model, beta, lam2, trainer)
d_pf = complexity.task_distance(pair, full, model, beta, lam2, trainer)
print("4-class task vs its 2-class subset:")
print(f"  d(full -> pair) = {d_fp:8.4f}   (nothing new to learn)")
print(f"  d(pair -> full) = {d_pf:8.4f}   (two unseen classes to absorb)")

# a graded family: progressively corrupted copies of one task
labels = ["clean", "rho=0.3", "rho=0.6"]
family = [full] + [tasks.corrupt_labels(full, r, seed=11) for r in (0.3, 0.6)]
print("\ndistance matrix over a corruption-graded family (rows: from, cols: to):")
header = "          " + "".join(f"{name:>10s}" for name in labels)
print(header)
for name, d in zip(labels, family):
    cells = "".join(
        f"{complexity.task_distance(d, other, model, beta, lam2, trainer):10.4f}" for other in family
    )
    print(f"{name:>10s}{cells}")
base = [
    complexity.trained_c_beta(d, model, beta, lam2, trainer, name) for name, d in zip(labels, family)
]
print("\nbase C per task:", np.round(base, 4))
print("moving toward more corruption costs more than moving back")
