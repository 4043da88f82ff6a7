# Deployment geometry and ell-infinity channel sparsification.
#
# Drops RRHs and users uniformly on a square, keeps only channels with
# ell-infinity distance below a radius r, and shows what the resulting
# association looks like: who serves whom, how large the served sets are,
# and how the refinement step tops up every RRH to one user per color.
#
# Run: python3 demos/01_geometry_and_sparsification.py

# lotrain first: importing it before numpy pins one BLAS thread
from lotrain import (
    build_conflict_graph,
    dist_linf,
    dsatur,
    generate_layout,
    refine,
    sparsify,
    user_density,
)

import numpy as np

side = 60.0
n_rrh, n_user, r = 40, 120, 9.0

layout = generate_layout(n_rrh, n_user, side, seed=7)
print(f"{n_rrh} RRHs, {n_user} users on a {side:.0f} m square "
      f"(density {user_density(layout):.3f} users/m^2)")

# ------------------------------------------------ sparsified association
assoc = sparsify(layout, r)
sizes = np.array([len(u) for u in assoc.served_users])
print(f"\nradius r = {r}: served-set sizes min/mean/max = "
      f"{sizes.min()}/{sizes.mean():.2f}/{sizes.max()}")
orphans = n_user - np.unique(assoc.user).size
print(f"users with no serving RRH: {orphans} of {n_user}")

# the kept links really are the close ones
i = int(np.argmax(sizes))
dists = [dist_linf(layout.rrh_xy[i], layout.user_xy[k]) for k in assoc.served_users[i]]
print(f"busiest RRH {i} serves {sizes[i]} users, "
      f"ell-inf distances {min(dists):.2f} .. {max(dists):.2f} (all < {r})")

# ------------------------------------------------ refinement
# After coloring, each RRH can pick up the nearest user of every color it is
# not yet serving: extra estimates at zero extra training cost.
coloring = dsatur(build_conflict_graph(assoc))
refined = refine(assoc, layout, coloring)
rsizes = np.array([len(u) for u in refined.served_users])
print(f"\ncoloring needs {coloring.num_colors} colors")
print(f"after refinement every served set has exactly {coloring.num_colors} users: "
      f"{set(rsizes.tolist())}")
print(f"mean served-set size grew {sizes.mean():.2f} -> {rsizes.mean():.2f}")
