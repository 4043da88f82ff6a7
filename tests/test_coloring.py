"""DSATUR behavior and coloring validity."""

import tracemalloc

import numpy as np
import pytest

from lotrain import (
    Coloring,
    ConsistencyError,
    build_conflict_graph,
    build_proximity_graph,
    dsatur,
    exact_chromatic_number,
    generate_layout,
    max_degree,
    radius_for_rho,
    sparsify,
)

from graph_helpers import from_edges


def validate_coloring(g, coloring):
    """True iff no edge joins two same-colored vertices."""
    c = coloring.colors
    if c.shape[0] != g.n_vertices:
        raise ConsistencyError("coloring does not cover the graph's vertices")
    e = g.edge_array
    return bool(np.all(c[e[:, 0]] != c[e[:, 1]])) if e.size else True


def dsatur_reference(g):
    """The O(n^2) DSATUR: recompute the composite key of every vertex at every
    step and take its first argmax. Same selection rule as ``dsatur``."""
    n = g.n_vertices
    colors = np.full(n, -1, dtype=np.intp)
    degree = np.array([nb.size for nb in g.neighbors], dtype=np.int64)
    saturation = np.zeros(n, dtype=np.int64)
    seen = [set() for _ in range(n)]
    for _ in range(n):
        key = saturation * (n + 1) + degree
        key[colors >= 0] = -1
        v = int(np.argmax(key))
        c = 0
        while c in seen[v]:
            c += 1
        colors[v] = c
        for m in g.neighbors[v]:
            if colors[m] < 0 and c not in seen[m]:
                seen[m].add(c)
                saturation[m] += 1
    return colors


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += (g.edge_array + offset).tolist()
        offset += g.n_vertices
    return from_edges(offset, edges)


def random_graph(rng, n_max=14):
    n = int(rng.integers(1, n_max))
    mask = rng.random((n, n)) < rng.uniform(0.05, 0.8)
    return from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if mask[a, b]])


def test_contiguity_enforced():
    # the count is the largest color plus one
    assert Coloring(np.array([0, 1, 0])).num_colors == 2
    assert Coloring(np.array([], dtype=np.intp)).num_colors == 0
    for colors in (
        [0, 2],  # color 1 unused
        [0, 2, 2, 3],  # a gap inside
        [0, 1, 3],  # a gap just below the top color
        [-1, 0, 1],  # a negative color
        [0, 1, 5],
        [0, 10**12],  # refused before a count that long is allocated
    ):
        with pytest.raises(ConsistencyError):
            Coloring(np.array(colors, dtype=np.intp))


def test_dsatur_examples():
    tri = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert dsatur(tri).num_colors == 3
    edgeless = from_edges(5, [])
    col = dsatur(edgeless)
    assert col.num_colors == 1 and np.all(col.colors == 0)
    assert dsatur(cycle(5)).num_colors == 3 == exact_chromatic_number(cycle(5))
    star = from_edges(6, [(0, j) for j in range(1, 6)])
    assert dsatur(star).num_colors == 2


def test_dsatur_selection_order_pinned():
    # path 0-1-2: vertex 1 wins on degree, then 0 beats 2 on index
    path = from_edges(3, [(0, 1), (1, 2)])
    assert list(dsatur(path).colors) == [1, 0, 1]
    # four isolated vertices: pure index order, single color
    iso = from_edges(4, [])
    assert list(dsatur(iso).colors) == [0, 0, 0, 0]


def test_dsatur_exact_on_bipartite():
    rng = np.random.default_rng(17)
    for _ in range(60):
        left = int(rng.integers(1, 7))
        right = int(rng.integers(1, 7))
        edges = [
            (a, left + b)
            for a in range(left)
            for b in range(right)
            if rng.random() < 0.6
        ]
        if not edges:
            continue
        g = from_edges(left + right, edges)
        assert dsatur(g).num_colors == 2


def test_dsatur_valid_bounded_deterministic():
    rng = np.random.default_rng(29)
    for _ in range(150):
        g = random_graph(rng)
        col = dsatur(g)
        assert validate_coloring(g, col)
        assert col.num_colors <= max_degree(g) + 1
        assert col.num_colors >= exact_chromatic_number(g)
        again = dsatur(g)
        assert np.array_equal(col.colors, again.colors)


def test_dsatur_on_geometric_instances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        lay = generate_layout(int(rng.integers(2, 12)), int(rng.integers(2, 30)), 50.0,
                              seed=int(rng.integers(1 << 31)))
        g = build_conflict_graph(sparsify(lay, float(rng.uniform(3, 20))))
        col = dsatur(g)
        assert validate_coloring(g, col) and col.num_colors <= max_degree(g) + 1


def test_dsatur_matches_reference():
    rng = np.random.default_rng(41)
    graphs = [random_graph(rng, n_max=60) for _ in range(150)]
    graphs.append(from_edges(0, []))
    for _ in range(12):
        k = int(rng.integers(2, 400))
        lay = generate_layout(int(rng.integers(1, 200)), k, 100.0, seed=int(rng.integers(1 << 31)))
        r = float(rng.uniform(2, 15))
        graphs += [build_conflict_graph(sparsify(lay, r)), build_proximity_graph(lay, r)]
    for g in graphs:
        col = dsatur(g)
        assert np.array_equal(col.colors, dsatur_reference(g))
        assert col.colors.dtype == np.intp


def test_dsatur_cross_checked_against_networkx():
    # both implementations must give proper colorings within max-degree + 1;
    # they break ties differently, so color counts may differ and are only
    # reported (pytest -s or -rP shows them)
    nx = pytest.importorskip("networkx")
    for seed in range(4):
        lay = generate_layout(150, 300, 100.0, seed=seed)
        for g in (build_conflict_graph(sparsify(lay, 10.0)), build_proximity_graph(lay, 10.0)):
            ours = dsatur(g)
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n_vertices))
            ref.add_edges_from(g.edge_array.tolist())
            theirs = nx.greedy_color(ref, strategy="DSATUR")
            bound = max_degree(g) + 1
            assert validate_coloring(g, ours) and ours.num_colors <= bound
            assert sorted(theirs) == list(range(g.n_vertices))
            assert all(theirs[u] != theirs[v] for u, v in ref.edges)
            assert max(theirs.values()) + 1 <= bound
            if ours.num_colors != max(theirs.values()) + 1:
                print(f"seed {seed} {g.kind}: dsatur {ours.num_colors} colors, "
                      f"networkx {max(theirs.values()) + 1}, bound {bound}")


def test_validate_coloring():
    tri = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert validate_coloring(tri, Coloring(np.array([0, 1, 2])))
    assert not validate_coloring(tri, Coloring(np.array([0, 0, 1])))
    with pytest.raises(ConsistencyError):
        validate_coloring(tri, Coloring(np.array([0, 1])))


def test_dsatur_on_complete_graphs_crosses_every_table_width():
    # K_n needs exactly n colors, so K_1..K_70 take the color table through
    # every width from 8 to 128
    for n in range(1, 71):
        g = complete(n)
        col = dsatur(g)
        assert col.num_colors == n == max_degree(g) + 1
        assert np.array_equal(col.colors, dsatur_reference(g))


def test_dsatur_on_odd_cycles_unions_and_empty_graphs():
    for n in (3, 5, 7, 9, 21, 101):
        col = dsatur(cycle(n))
        assert col.num_colors == 3 and validate_coloring(cycle(n), col)
        assert np.array_equal(col.colors, dsatur_reference(cycle(n)))
    g = disjoint_union(complete(3), complete(12), complete(1), complete(9), cycle(5), complete(20))
    col = dsatur(g)
    assert col.num_colors == 20 and validate_coloring(g, col)
    assert np.array_equal(col.colors, dsatur_reference(g))
    empty = dsatur(from_edges(0, []))
    assert empty.num_colors == 0 and empty.colors.shape == (0,)
    single = dsatur(from_edges(1, []))
    assert single.num_colors == 1 and list(single.colors) == [0]
    isolated = dsatur(from_edges(40, []))
    assert isolated.num_colors == 1 and not isolated.colors.any()


@pytest.mark.parametrize("seed", [3, 8])
def test_dsatur_matches_reference_at_scaling_size(seed):
    # the scaling experiment's largest point: K = 2000 users, N = 1000 RRHs
    # at the rho-matched radius, both graph kinds
    r = radius_for_rho(2000, 1000 / 100.0**2, 0.5)
    lay = generate_layout(1000, 2000, 100.0, seed=seed)
    for g in (build_conflict_graph(sparsify(lay, r)), build_proximity_graph(lay, r)):
        assert np.array_equal(dsatur(g).colors, dsatur_reference(g))


def test_dsatur_memory_grows_with_colors_used_not_max_degree():
    # a star with 20,000 leaves has max degree 20,000 but needs 2 colors; a
    # (max_degree + 1)-wide table would take 400 MB
    leaves = 20_000
    star = from_edges(leaves + 1, [(0, j) for j in range(1, leaves + 1)])
    tracemalloc.start()
    try:
        col = dsatur(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.num_colors == 2 and col.colors[0] == 0 and np.all(col.colors[1:] == 1)
    assert peak < 16 * 2**20, f"dsatur peaked at {peak / 2**20:.1f} MB"
