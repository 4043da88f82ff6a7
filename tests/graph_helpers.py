"""Build conflict graphs from edge lists for the tests."""

import numpy as np

from lotrain import ConflictGraph, ConsistencyError
from lotrain.graphs import _adjacency


def from_edges(n_vertices: int, edges) -> ConflictGraph:
    """The graph on n_vertices with the (k, m) edges given; reversed and
    repeated edges merge, and loops or out-of-range endpoints raise."""
    e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if e.size:
        if e.min() < 0 or e.max() >= n_vertices:
            raise ConsistencyError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            raise ConsistencyError("self loops are not allowed")
    return ConflictGraph(n_vertices, *_adjacency(n_vertices, e[:, 0], e[:, 1]), "custom")
