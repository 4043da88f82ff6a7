# Conflict graph, DSATUR coloring, and locally orthogonal pilot books.
#
# Two users conflict when some RRH serves both; a proper coloring of that
# graph is exactly a pilot assignment in which every RRH sees mutually
# orthogonal training sequences. The color count is the training length, so
# coloring quality is spectral efficiency. On a small instance the exact
# branch-and-bound oracle confirms the greedy result.
#
# Run: python3 demos/02_conflict_graph_and_coloring.py

import numpy as np

from lotrain import (
    build_conflict_graph,
    build_pilot_book,
    build_proximity_graph,
    check_local_orthogonality,
    dsatur,
    exact_chromatic_number,
    generate_layout,
    is_subgraph,
    max_degree,
    sparsify,
)

# ------------------------------------------------ small instance, exact oracle
layout = generate_layout(6, 12, 30.0, seed=3)
assoc = sparsify(layout, 9.0)
g = build_conflict_graph(assoc)
chi_greedy = dsatur(g).num_colors
chi_exact = exact_chromatic_number(g)
print(f"small instance: {g.n_vertices} users, {g.n_edges} conflict edges")
print(f"DSATUR colors = {chi_greedy}, exact chromatic number = {chi_exact}, "
      f"max degree + 1 = {max_degree(g) + 1}")

# ------------------------------------------------ pilots from the coloring
coloring = dsatur(g)
book = build_pilot_book(coloring)
print(f"\npilot book: {book.n_user} sequences of length {book.training_length}")
print(f"locally orthogonal at every RRH: {check_local_orthogonality(book, assoc)}")
energies = np.sum(np.abs(book.pilots) ** 2, axis=1)
print(f"per-user training energy (length): {energies[0]:.6f}, "
      f"spread {energies.max() - energies.min():.2e}")

# reusing a color between two conflicting users must break the check
bad = coloring.colors.copy()
k, m = g.edge_array[0]
bad[m] = bad[k]
from lotrain import PilotBook, dft_rows  # noqa: E402

rows = dft_rows(book.training_length)
clash = PilotBook(np.sqrt(book.training_length) * rows[bad], bad)
print(f"same color on conflict edge ({k},{m}) passes the check: "
      f"{check_local_orthogonality(clash, assoc)}")

# ------------------------------------------------ bigger instance, containment
layout = generate_layout(150, 400, 100.0, seed=11)
assoc = sparsify(layout, 10.0)
g = build_conflict_graph(assoc)
g_inf = build_proximity_graph(layout, 10.0)
print(f"\nlarger instance: conflict graph {g.n_edges} edges, "
      f"proximity graph {g_inf.n_edges} edges")
print(f"conflict graph contained in the 2r proximity graph: {is_subgraph(g, g_inf)}")
print(f"colors: conflict {dsatur(g).num_colors}, proximity {dsatur(g_inf).num_colors} "
      f"(the supergraph never needs fewer)")
