"""Greedy saturation-degree coloring of conflict graphs.

The color classes become pilot groups: the number of colors is the training
length, so fewer colors means a shorter training phase. DSATUR picks, at every
step, the uncolored vertex with the most distinctly-colored neighbors; it is
exact on bipartite graphs and never needs more than max_degree + 1 colors.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .geometry import _indices
from .graphs import ConflictGraph


@dataclass(frozen=True, eq=False)
class Coloring:
    """Proper vertex coloring with contiguous colors 0..num_colors-1."""

    colors: np.ndarray
    num_colors: int = field(init=False)  # the largest color plus one; 0 with no vertices

    def __post_init__(self):
        object.__setattr__(self, "colors", _indices(self.colors, "colors"))
        # min, max and a count rather than np.unique, whose first call imports numpy.ma (10 ms or
        # more per CLI run); more colors than vertices leave a gap, refused before the count
        c = self.colors
        object.__setattr__(self, "num_colors", int(c.max(initial=-1)) + 1)
        if c.min(initial=0) < 0 or self.num_colors > c.size or not np.bincount(c).all():
            raise ConsistencyError("colors used must be exactly 0..num_colors-1")


def dsatur(g: ConflictGraph) -> Coloring:
    """Deterministic DSATUR coloring.

    Vertex selection: maximum saturation degree (count of distinct colors on
    neighbors), ties by maximum ordinary degree, remaining ties by lowest
    index. The chosen vertex gets the smallest color unused on its neighbors.

    Each step is a fixed handful of numpy calls on the chosen vertex's arc
    slice, with no Python work per arc. In a boolean table ``free[c, m]``,
    an uncolored vertex m's entry is true while no neighbor of m has color c;
    colored vertices' entries are never read. The table is stored
    color-major, so one color's entries for a neighbor slice are one
    contiguous row. It starts 8 colors wide and doubles whenever the chosen
    color reaches its last row, which therefore stays true for every
    uncolored vertex: working memory is O(n x colors used), not
    O(n x (max_degree + 1)).

    A colored vertex is not cleared from the table, which would be a strided
    write down one column. Its key drops to a floor so far below zero that
    the at most n raises a vertex can take never lift it back to the
    uncolored keys.
    """
    n = g.n_vertices
    dst = g.dst
    start = np.searchsorted(g.src, np.arange(n + 1)).tolist()
    # composite key ranks saturation first, then degree; degree < n+1 so the
    # two never interfere. Colored vertices drop to the floor, and argmax
    # takes the first (lowest-index) maximum.
    key = np.diff(start).astype(np.int64)
    floor = np.iinfo(np.int64).min // 2
    free = np.ones((8, n), dtype=bool)
    colors = np.empty(n, dtype=np.intp)
    for _ in range(n):
        v = int(key.argmax())
        c = int(free[:, v].argmax())
        if c == free.shape[0] - 1:
            free = np.concatenate([free, np.broadcast_to(key >= 0, free.shape)])
        colors[v] = c
        key[v] = floor
        row = free[c]
        nb = dst[start[v]:start[v + 1]]
        raised = nb[row[nb]]
        row[raised] = False
        key[raised] += n + 1
    return Coloring(colors)
