"""Pilot-conflict graphs over users.

Two users conflict when some RRH serves both; assigning them distinct pilot
colors is exactly what keeps each RRH's in-set pilots orthogonal. The
proximity graph (Chebyshev distance < 2r) is a deterministic supergraph of the
conflict graph: any shared RRH lies strictly within r of both users, so the
users are strictly within 2r of each other.
"""

from functools import cached_property

import numpy as np

from .association import AssociationMap, _same_rrh_pairs
from .errors import ConsistencyError, ParameterError
from .geometry import NetworkLayout, _frozen, _index_pairs, pairs_within


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arcs (src, dst) of the graph with edges src[e]-dst[e]: both
    directions, sorted by (src, dst), no repeats.

    Duplicate and reversed edges merge in one direction first: a sort of the
    keys ``min*n + max`` and a drop of repeats leave each edge once. Mirroring
    those and one more sort orders every arc. The keys are int32 while n*n
    fits, which sorts faster than int64. (``np.unique`` gives the same keys,
    but numpy 2.4 runs it 50x slower than a sort on 2e5 keys; on 4e5 keys
    ``np.diff`` with ``prepend`` takes 40x longer than the neighbor compare.)
    """
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    src = np.asarray(src).astype(dtype, copy=False)
    dst = np.asarray(dst).astype(dtype, copy=False)
    keys = np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))
    keys = np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])
    lo, hi = np.divmod(keys, max(n, 1))
    keys = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
    return np.divmod(keys, max(n, 1))


class ConflictGraph:
    """Undirected simple graph on user indices 0..n_vertices-1.

    Stored as its arcs: read-only intp arrays ``src`` and ``dst`` that hold
    every edge in both directions, sorted by (src, dst) with no repeats and no
    loops. The constructor checks range and order, not symmetry or loops, and
    copies.
    """

    def __init__(self, n_vertices: int, src, dst, kind: str):
        self.n_vertices = int(n_vertices)
        self.src, self.dst = _index_pairs(src, dst, self.n_vertices, self.n_vertices)
        self.kind = kind

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, ...]:
        """Per vertex, its neighbors ascending: read-only slices of ``dst``."""
        bounds = np.searchsorted(self.src, np.arange(self.n_vertices + 1))
        return tuple(self.dst[s:e] for s, e in zip(bounds, bounds[1:]))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """(E, 2) array of k < m edges in lexicographic order."""
        keep = self.src < self.dst
        return _frozen(np.column_stack((self.src[keep], self.dst[keep])))

    @property
    def n_edges(self) -> int:
        return self.edge_array.shape[0]


def build_conflict_graph(assoc: AssociationMap) -> ConflictGraph:
    """Edge between two users iff some RRH serves both."""
    p, q = _same_rrh_pairs(assoc.rrh, diagonal=False)
    return ConflictGraph(assoc.n_user, *_adjacency(assoc.n_user, assoc.user[p], assoc.user[q]), "shared-rrh")


def build_proximity_graph(layout: NetworkLayout, threshold: float) -> ConflictGraph:
    """Edge between two users iff their Chebyshev distance is < 2*threshold.

    Needs only user positions, not the association map; it upper-bounds the
    shared-RRH graph built at the same threshold.
    """
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    # the pairs come in both directions, sorted: all but the loops are arcs
    i, j = pairs_within(layout.user_xy, layout.user_xy, 2.0 * threshold)
    arc = i != j
    return ConflictGraph(layout.n_user, i[arc], j[arc], "proximity-2r")


def max_degree(g: ConflictGraph) -> int:
    """Largest vertex degree; 0 for edgeless graphs."""
    return int(np.bincount(g.src, minlength=g.n_vertices).max(initial=0))


def is_subgraph(sub: ConflictGraph, sup: ConflictGraph) -> bool:
    """True iff every edge of ``sub`` is an edge of ``sup`` (same vertex set)."""
    if sub.n_vertices != sup.n_vertices:
        raise ConsistencyError("graphs must share the same vertex count")
    # sup's arcs are sorted, so its keys src*n + dst ascend
    n = sup.n_vertices
    want, have = sub.src * n + sub.dst, sup.src * n + sup.dst
    pos = np.searchsorted(have, want)
    return bool(np.all(pos < have.size)) and np.array_equal(have[pos], want)


_VERTEX_LIMIT = 16


def find_coloring(g: ConflictGraph, n_colors: int):
    """Proper coloring with at most n_colors colors, or None if impossible.

    Complete backtracking search over canonical assignments (each new vertex
    may open at most one fresh color), so a None result is a proof of
    non-colorability, not a heuristic failure. Exponential time: graphs of
    more than 16 vertices raise ParameterError.
    """
    if g.n_vertices > _VERTEX_LIMIT:
        raise ParameterError(f"exact search on {g.n_vertices} vertices exceeds the limit {_VERTEX_LIMIT}")
    if n_colors < 0:
        raise ParameterError("n_colors must be nonnegative")
    n = g.n_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if n_colors == 0:
        return None
    # high-degree vertices first: fail early
    order = sorted(range(n), key=lambda v: -g.neighbors[v].size)
    colors = np.full(n, -1, dtype=np.intp)

    def assign(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        forbidden = {int(colors[u]) for u in g.neighbors[v] if colors[u] >= 0}
        for c in range(min(used + 1, n_colors)):
            if c in forbidden:
                continue
            colors[v] = c
            if assign(pos + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    return colors if assign(0, 0) else None


def exact_chromatic_number(g: ConflictGraph) -> int:
    """Minimum number of colors of any proper coloring, by exhaustive search."""
    if g.n_vertices == 0:
        return 0
    for m in range(1, g.n_vertices + 1):
        if find_coloring(g, m) is not None:
            return m
    raise AssertionError("unreachable: n colors always suffice")
