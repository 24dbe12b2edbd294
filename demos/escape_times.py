"""Escape from a double well: measured first-passage times vs the rate law.

An overdamped walker starts at the left minimum (w = -1) and diffuses
until it enters a small ball around the right minimum. The mean time to
escape grows exponentially as the noise drops; the exponent is the
barrier height, and the prefactor comes from the curvatures at the
minimum and the saddle. Run it and compare the three columns.
"""

import numpy as np

from reachlab import diffusion, landscape, rates

pot = landscape.DoubleWell1D()  # barrier 0.25, curvature 2 at the minima
w_start, w_target = np.array([-1.0]), np.array([1.0])

# the three noise levels run as one lockstep ensemble of 3 x 64 walkers
Ds = (0.25, 0.3, 0.4)
cells = [diffusion.DiffusionParams(D=D, dt=5e-3, max_steps=40000, seed=1) for D in Ds]
stats = diffusion.first_passage_many(pot, w_start, w_target, 0.2, cells, 64)

print("D        mean time   closed-form 1/k   censored")
points = []
for D, st in zip(Ds, stats):
    k = rates.kramers_double_well(pot, D, w_start, np.zeros(1))
    points.append((1.0 / D, st.mean))
    print(f"{D:<8g} {st.mean:9.2f}   {1.0 / k:15.2f}   {st.n_censored}")

fit = rates.arrhenius_fit(points)
print(f"\nlog(mean time) vs 1/D: slope {fit.slope:.4f}, r2 {fit.r2:.4f}")
print("the slope estimates the barrier height; the true barrier is 0.25")
print("(closed-form times sit below the measured ones at this noise level;")
print(" the rate formula is the small-D asymptote, not the finite-D value)")
