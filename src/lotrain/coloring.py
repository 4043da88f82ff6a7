"""Greedy saturation-degree coloring of conflict graphs.

The color classes become pilot groups: the number of colors is the training
length, so fewer colors means a shorter training phase. DSATUR picks, at every
step, the uncolored vertex with the most distinctly-colored neighbors; it is
exact on bipartite graphs and never needs more than max_degree + 1 colors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .geometry import _frozen
from .graphs import ConflictGraph


@dataclass(frozen=True, eq=False)
class Coloring:
    """Proper vertex coloring with contiguous colors 0..num_colors-1."""

    colors: np.ndarray
    num_colors: int

    def __post_init__(self):
        object.__setattr__(self, "colors", _frozen(self.colors, np.intp))
        used = np.unique(self.colors)
        expect = np.arange(self.num_colors)
        if used.shape != expect.shape or np.any(used != expect):
            raise ConsistencyError("colors used must be exactly 0..num_colors-1")


def dsatur(g: ConflictGraph) -> Coloring:
    """Deterministic DSATUR coloring.

    Vertex selection: maximum saturation degree (count of distinct colors on
    neighbors), ties by maximum ordinary degree, remaining ties by lowest
    index. The chosen vertex gets the smallest color unused on its neighbors.
    """
    n = g.n_vertices
    arcs, start = g.dst.tolist(), np.searchsorted(g.src, np.arange(n + 1)).tolist()
    colors = [-1] * n
    # composite key ranks saturation first, then degree; degree < n+1 so the
    # two never interfere. Colored vertices drop to -1, and argmax takes the
    # first (lowest-index) maximum.
    key = np.diff(start).astype(np.int64)
    seen: list[set] = [set() for _ in range(n)]
    for _ in range(n):
        v = int(np.argmax(key))
        used = seen[v]
        c = 0
        while c in used:
            c += 1
        colors[v] = c
        key[v] = -1
        raised = [m for m in arcs[start[v]:start[v + 1]] if colors[m] < 0 and c not in seen[m]]
        if raised:
            for m in raised:
                seen[m].add(c)
            key[raised] += n + 1
    num = max(colors) + 1 if n else 0
    return Coloring(np.array(colors, dtype=np.intp), num)


def validate_coloring(g: ConflictGraph, coloring: Coloring) -> bool:
    """True iff no edge joins two same-colored vertices."""
    c = coloring.colors
    if c.shape[0] != g.n_vertices:
        raise ConsistencyError("coloring does not cover the graph's vertices")
    e = g.edge_array
    return bool(np.all(c[e[:, 0]] != c[e[:, 1]])) if e.size else True
