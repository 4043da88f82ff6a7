# How the training length scales with the user count.
#
# With the radius tied to the density through rho = delta r^2 / ln K, the
# number of colors DSATUR needs grows like ln K. Normalized by delta r^2 the
# averages sit near 4 f^-1(1/(4 rho)), the limit of the normalized largest
# served set as N grows with K: a lower bound on the normalized chromatic
# number in that limit, not a ceiling. The proven ceiling is
# 16 f^-1(1/(16 rho)). Both invert the Poisson rate function
# f(x) = 1 - x + x ln x with bisection.
#
# Run: python3 demos/03_training_length_scaling.py   (about 1 s)

# lotrain first: importing it before numpy pins one BLAS thread
from lotrain import (
    ExperimentConfig,
    chromatic_scaling_bound,
    degree_scaling_bound,
    poisson_rate_function,
    poisson_rate_inverse,
    radius_for_rho,
    run_experiment,
)

import numpy as np

rho = 0.5
print(f"rho = {rho}")
print(f"rate function at 2: {poisson_rate_function(2.0):.6f}")
print(f"inverse at 1/(4 rho): {poisson_rate_inverse(1.0 / (4 * rho)):.6f}")
print(f"served-set limit 4 f^-1(1/(4 rho)) = {chromatic_scaling_bound(rho):.4f}")
print(f"degree ceiling  16 f^-1(1/(16 rho)) = {degree_scaling_bound(rho):.4f}")

# ------------------------------------------------ desk-scale experiment
cfg = ExperimentConfig("scaling", n_rrh=200, k_grid=(100, 200, 400, 800),
                       rho=rho, side=100.0, trials=20, seed=1)
rows = run_experiment(cfg)
bound = chromatic_scaling_bound(rho)

print(f"\n{'K':>5} {'r':>6} {'colors(G)':>10} {'norm(G)':>8} {'norm(Ginf)':>10} {'limit':>8}")
for k in cfg.k_grid:
    sub = {(row.scheme, row.metric): row for row in rows if row.k == k}
    r = radius_for_rho(k, k / cfg.side**2, rho)
    print(f"{k:>5} {r:>6.2f} "
          f"{sub[('shared-rrh', 'mean_colors')].value:>10.2f} "
          f"{sub[('shared-rrh', 'normalized_colors')].value:>8.3f} "
          f"{sub[('proximity-2r', 'normalized_colors')].value:>10.3f} "
          f"{bound:>8.3f}")

under = all(row.value < bound for row in rows
            if row.metric == "normalized_colors" and row.scheme == "shared-rrh")
print(f"\nnormalized conflict-graph colors below the served-set limit at every K: {under}")
print("(the proximity graph may drift slightly above it: the coloring is greedy)")
