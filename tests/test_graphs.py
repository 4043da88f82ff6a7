"""Conflict graphs, the proximity supergraph, and the exact-coloring oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lotrain.geometry as geometry
from lotrain import (
    AssociationMap,
    ConsistencyError,
    NetworkLayout,
    ParameterError,
    build_conflict_graph,
    build_proximity_graph,
    dist_linf,
    dsatur,
    exact_chromatic_number,
    find_coloring,
    generate_layout,
    is_subgraph,
    max_degree,
    sparsify,
)
from lotrain.graphs import _adjacency
from lotrain.scaling import radius_for_rho

from graph_helpers import from_edges


def assoc_of(served, n_user):
    rrh = [i for i, users in enumerate(served) for _ in users]
    user = [k for users in served for k in users]
    return AssociationMap(rrh, user, len(served), n_user, 1.0)


def assert_sorted_pairs(a, b, n_b):
    """Read-only intp index arrays, strictly increasing in a*n_b + b."""
    assert a.dtype == b.dtype == np.intp and not (a.flags.writeable or b.flags.writeable)
    assert np.all(np.diff(a * n_b + b) > 0)


def edge_set(g):
    return {tuple(e) for e in g.edge_array}


def test_shared_rrh_edges():
    g = build_conflict_graph(assoc_of([(1, 2)], 4))
    assert edge_set(g) == {(1, 2)}
    assert g.neighbors[3].size == 0  # isolated user conflicts with nobody


def test_empty_served_set_contributes_nothing():
    g = build_conflict_graph(assoc_of([(), (0, 1)], 3))
    assert edge_set(g) == {(0, 1)}


def test_chained_rrhs_no_transitive_edge():
    g = build_conflict_graph(assoc_of([(0, 1), (1, 2)], 3))
    assert edge_set(g) == {(0, 1), (1, 2)}
    assert 2 not in g.neighbors[0] and 0 not in g.neighbors[2]
    assert 1 in g.neighbors[2] and 2 in g.neighbors[1]


def test_duplicate_pairs_merge():
    g = build_conflict_graph(assoc_of([(0, 1), (0, 1, 2)], 3))
    assert edge_set(g) == {(0, 1), (0, 2), (1, 2)}
    assert g.n_edges == 3


def test_conflict_graph_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n, k = int(rng.integers(1, 10)), int(rng.integers(2, 18))
        lay = generate_layout(n, k, 40.0, seed=int(rng.integers(1 << 31)))
        assoc = sparsify(lay, float(rng.uniform(3, 25)))
        g = build_conflict_graph(assoc)
        for a in range(k):
            for b in range(a + 1, k):
                expect = any(a in u and b in u for u in assoc.served_users)
                assert (b in g.neighbors[a]) == expect
                assert (a in g.neighbors[b]) == expect


def test_proximity_strict_boundary():
    users = np.array([[0.0, 0.0], [10.0, 0.0], [9.9999, 5.0]])
    lay = NetworkLayout(50.0, np.array([[0.0, 0.0]]), users)
    g = build_proximity_graph(lay, 5.0)  # edges need Chebyshev distance < 10
    assert edge_set(g) == {(0, 2), (1, 2)}
    with pytest.raises(ParameterError):
        build_proximity_graph(lay, 0.0)


def test_single_user_graphs_are_edgeless():
    lay = generate_layout(3, 1, 10.0, seed=0)
    assert build_proximity_graph(lay, 5.0).n_edges == 0
    assert build_conflict_graph(sparsify(lay, 5.0)).n_edges == 0


def test_conflict_subset_of_proximity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n, k = int(rng.integers(1, 15)), int(rng.integers(2, 40))
        side = float(rng.uniform(10, 80))
        lay = generate_layout(n, k, side, seed=int(rng.integers(1 << 31)))
        r = float(rng.uniform(2, side / 2))
        g = build_conflict_graph(sparsify(lay, r))
        gi = build_proximity_graph(lay, r)
        assert is_subgraph(g, gi)


def test_is_subgraph_examples():
    tri = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    path = from_edges(3, [(0, 1), (1, 2)])
    assert is_subgraph(path, tri) and is_subgraph(tri, tri)
    assert not is_subgraph(tri, path)
    # sub's arcs past sup's last, or sup with no arcs at all
    empty = from_edges(3, [])
    assert not is_subgraph(from_edges(3, [(1, 2)]), from_edges(3, [(0, 1)]))
    assert is_subgraph(empty, path) and is_subgraph(empty, empty) and not is_subgraph(path, empty)
    with pytest.raises(ConsistencyError):
        is_subgraph(path, from_edges(4, [(0, 1)]))


def test_max_degree_examples():
    assert max_degree(from_edges(3, [(0, 1), (1, 2), (0, 2)])) == 2
    star = from_edges(6, [(0, j) for j in range(1, 6)])
    assert max_degree(star) == 5
    assert max_degree(from_edges(4, [])) == 0


def test_from_edges_validation():
    with pytest.raises(ConsistencyError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ConsistencyError):
        from_edges(3, [(0, 3)])


def test_exact_chromatic_number_examples():
    assert exact_chromatic_number(from_edges(3, [(0, 1), (1, 2), (0, 2)])) == 3
    five_cycle = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact_chromatic_number(five_cycle) == 3
    assert exact_chromatic_number(from_edges(7, [])) == 1
    k4 = from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert exact_chromatic_number(k4) == 4
    k33 = from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert exact_chromatic_number(k33) == 2


def test_exact_oracle_size_guard():
    big = from_edges(17, [(0, 1)])
    with pytest.raises(ParameterError, match="exact search on 17 vertices exceeds the limit 16"):
        exact_chromatic_number(big)
    # 16 vertices is the limit: a five-cycle and eleven isolated vertices
    assert exact_chromatic_number(from_edges(16, [(i, (i + 1) % 5) for i in range(5)])) == 3


def test_find_coloring_is_decision_procedure():
    k4 = from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert find_coloring(k4, 3) is None
    five_cycle = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    witness = find_coloring(five_cycle, 3)
    assert witness is not None
    for a, b in five_cycle.edge_array:
        assert witness[a] != witness[b]
    assert find_coloring(five_cycle, 2) is None


def test_exact_chromatic_at_most_max_degree_plus_one():
    rng = np.random.default_rng(3)
    for _ in range(120):
        n = int(rng.integers(1, 10))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if mask[a, b]]
        g = from_edges(n, edges)
        chi = exact_chromatic_number(g)
        assert 1 <= chi <= max_degree(g) + 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_rrh=st.integers(1, 8), n_user=st.integers(2, 16), seed=st.integers(0, 2**31 - 1),
       threshold=st.floats(5.0, 15.0))
def test_largest_served_set_is_at_most_chi_at_most_dsatur(n_rrh, n_user, seed, threshold):
    # each RRH's served set is a clique of the conflict graph, so no RRH
    # serves more users than a random-pilot book, DSATUR's length, has
    # pilot dimensions; the batched estimator refuses the books that do
    assoc = sparsify(generate_layout(n_rrh, n_user, 30.0, seed=seed), threshold)
    g = build_conflict_graph(assoc)
    largest = np.bincount(assoc.rrh, minlength=n_rrh).max()
    assert largest <= exact_chromatic_number(g) <= dsatur(g).num_colors


# ------------------------------------------- differential against brute force

def linf_matrix(a, b):
    return np.max(np.abs(np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]), axis=2)


def brute_served(lay, r):
    d = linf_matrix(lay.rrh_xy, lay.user_xy)
    return tuple(tuple(np.flatnonzero(row < r).tolist()) for row in d)


def brute_conflict_edges(served):
    return {(a, b) for users in served for a in users for b in users if a < b}


def brute_proximity_edges(lay, r):
    d = linf_matrix(lay.user_xy, lay.user_xy)
    k = lay.n_user
    return {(a, b) for a in range(k) for b in range(a + 1, k) if d[a, b] < 2.0 * r}


def boundary_layout():
    # users exactly r = 10 from the RRH at (50, 50), one ulp inside and one
    # outside, along x and along y; user pairs at exactly 2r and one ulp off
    up, down = np.nextafter(60.0, np.inf), np.nextafter(60.0, 0.0)
    lo_in, lo_out = np.nextafter(40.0, np.inf), np.nextafter(40.0, 0.0)
    users = [(x, 50.0) for x in (60.0, up, down, 40.0, lo_in, lo_out)]
    users += [(50.0, y) for y in (60.0, up, down, 40.0, lo_in, lo_out)]
    users += [(30.0, 50.0), (np.nextafter(30.0, np.inf), 45.0), (80.0, 50.0)]
    rrhs = [(50.0, 50.0), (0.0, 100.0)]  # the second serves nobody
    return NetworkLayout(100.0, np.array(rrhs), np.array(users)), 10.0


def grid_layout():
    # integer grid: repeated x coordinates and exact ties at distance r
    g = np.arange(0.0, 12.0, 2.0)
    users = np.array([(x, y) for x in g for y in g] + [(4.0, 4.0), (4.0, 5.0)])
    rrhs = np.array([(x, y) for x in (1.0, 4.0, 7.0) for y in (1.0, 4.0, 30.0)])
    return NetworkLayout(40.0, rrhs, users), 2.0


def random_layouts():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 120))
        side = float(rng.uniform(10, 100))
        yield (generate_layout(n, k, side, seed=int(rng.integers(1 << 31))),
               float(rng.uniform(0.5, side / 2)))
    # dense enough that the sweep checks its candidates in many blocks
    yield generate_layout(200, 700, 100.0, seed=5), 20.0


EDGE_CASES = [boundary_layout(), grid_layout(),
              (generate_layout(4, 1, 10.0, seed=3), 6.0),   # K = 1
              (NetworkLayout(10.0, np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]])), 0.5)]


@pytest.mark.parametrize("block", [None, 1, 7])
def test_sparsify_and_graphs_match_brute_force(block, monkeypatch):
    if block is not None:  # the block size must not change any result
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    for lay, r in [*EDGE_CASES, *random_layouts()]:
        assoc = sparsify(lay, r)
        served = brute_served(lay, r)
        assert assoc.served_users == served
        assert_sorted_pairs(assoc.rrh, assoc.user, lay.n_user)
        g = build_conflict_graph(assoc)
        p = build_proximity_graph(lay, r)
        assert edge_set(g) == brute_conflict_edges(served)
        assert edge_set(p) == brute_proximity_edges(lay, r)
        for graph in (g, p):
            assert graph.n_vertices == lay.n_user
            assert_sorted_pairs(graph.src, graph.dst, lay.n_user)
            for nb in graph.neighbors:
                assert nb.dtype == np.intp and not nb.flags.writeable
                assert np.all(np.diff(nb) > 0)


def test_boundary_layout_edges_are_pinned():
    lay, r = boundary_layout()
    assoc = sparsify(lay, r)
    # inside: one ulp short of 60 and one ulp above 40, along each axis
    assert assoc.served_users == ((2, 4, 8, 10), ())
    assert assoc.rrh.tolist() == [0] * 4 and assoc.user.tolist() == [2, 4, 8, 10]
    p = edge_set(build_proximity_graph(lay, r))
    # 80 - 60 is exactly 2r: no edge; one ulp closer: edge; one ulp farther: none
    assert (0, 14) not in p and (1, 14) in p and (2, 14) not in p
    # 30 to 50 along x is exactly 2r; one ulp above 30 is inside
    assert (9, 12) not in p and (9, 13) in p


def test_from_edges_merges_reversed_and_repeated_edges():
    g = from_edges(4, [(2, 0), (0, 2), (3, 1), (0, 2), (1, 3)])
    assert edge_set(g) == {(0, 2), (1, 3)}
    assert [nb.tolist() for nb in g.neighbors] == [[2], [3], [0], [1]]


# ------------------------------------------ the cell sweep's edge cases

def cell_boundary_points():
    # pairs_within's cells are `half` high for these points, whose largest
    # coordinate is 10: rows on the cell boundaries, one ulp either side, and
    # r above and below them; x on a grid of r / 2, so x ties at exactly r
    r, top = 1.0, 10.0
    half = r + 1e-9 * (r + 2 * top)
    ys = np.arange(int(top / half) + 1) * half
    ys = np.clip(np.concatenate([ys, np.nextafter(ys, np.inf), np.nextafter(ys, -np.inf),
                                 ys + r, ys - r]), 0.0, top)
    xs = np.arange(len(ys)) % 5 * (r / 2)
    pts = np.column_stack([xs, ys])
    return pts, np.vstack([pts[::-1], [[top, top]]]), r


def tiny_radius_points():
    # r = 1e-9 on a 100 m square: about 5e8 cells of height ~2e-7, nearly all empty
    rng = np.random.default_rng(8)
    a = rng.uniform(0.0, 100.0, size=(300, 2))
    b = np.vstack([rng.uniform(0.0, 100.0, size=(300, 2)),
                   a[:40] + 5e-10, a[40:80] - [0.0, 5e-10], a[80:120] + 2e-9])
    return a, b, 1e-9


def pair_cases():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.0, 10.0, size=(60, 2))
    dup = np.repeat(rng.uniform(0.0, 20.0, size=(15, 2)), 3, axis=0)
    far = 1e9 + rng.uniform(0.0, 100.0, size=(150, 2))
    empty = np.empty((0, 2))
    return {
        "cell-boundaries": cell_boundary_points(),
        "tiny-r": tiny_radius_points(),
        "r-above-spread": (pts, pts[::-1], 1000.0),
        "offset-1e9": (far[:70], far[70:], 7.0),
        "duplicates": (dup, dup, 1.5),
        "duplicates-to-distinct": (dup, pts, 3.0),
        "empty-a": (empty, pts, 2.0),
        "empty-b": (pts, empty, 2.0),
        "both-empty": (empty, empty, 2.0),
    }


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(pair_cases()))
def test_pairs_within_edge_cases_match_brute_force(case, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    a, b, r = pair_cases()[case]
    i, j = geometry.pairs_within(a, b, r)
    want_i, want_j = np.nonzero(linf_matrix(a, b) < r)
    assert i.dtype == j.dtype == np.intp
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    if case == "r-above-spread":
        assert i.size == len(a) * len(b)
    if case == "tiny-r":
        assert i.size == 80  # the pairs 5e-10 apart, not those 2e-9 apart


@pytest.mark.parametrize("block", [None, 7])
def test_pairs_within_allocates_nothing_per_empty_cell(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    a, b, r = tiny_radius_points()
    tracemalloc.start()
    try:
        i, _ = geometry.pairs_within(a, b, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i.size == 80
    # one byte per cell would be about 500 MB
    assert peak < 2**20, f"pairs_within peaked at {peak / 2**20:.1f} MB"


# ------------------------------------------ arcs from an edge multiset

def oracle_arcs(u, v):
    return sorted({(a, b) for a, b in zip(u, v)} | {(b, a) for a, b in zip(u, v)})


def test_adjacency_matches_a_set_oracle():
    rng = np.random.default_rng(13)
    for n in (0, 1, 5):  # no edges
        src, dst = _adjacency(n, np.empty(0, np.intp), np.empty(0, np.intp))
        assert src.size == dst.size == 0
    for _ in range(300):
        n = int(rng.integers(2, 40))
        u, v = rng.integers(0, n, size=(2, int(rng.integers(0, 60))))
        u, v = u[u != v], v[u != v]
        # every edge repeated up to 8 times, each copy reversed at random, shuffled
        reps = rng.integers(1, 9, size=u.size)
        u, v = np.repeat(u, reps), np.repeat(v, reps)
        flip = rng.random(u.size) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        perm = rng.permutation(u.size)
        src, dst = _adjacency(n, u[perm], v[perm])
        assert list(zip(src.tolist(), dst.tolist())) == oracle_arcs(u.tolist(), v.tolist())


def test_adjacency_keys_do_not_overflow_past_int32():
    # n*n above 2**31: the keys must widen to int64
    n = 50_000
    u = np.array([n - 1, 0, n - 2, n - 1, 46_341])
    v = np.array([n - 2, n - 1, n - 1, 0, 46_340])
    src, dst = _adjacency(n, u, v)
    assert list(zip(src.tolist(), dst.tolist())) == oracle_arcs(u.tolist(), v.tolist())


def test_graphs_match_brute_force_at_scaling_size():
    # the scaling experiment's largest point: N = 1000, K = 2000, rho-matched r
    r = radius_for_rho(2000, 1000 / 100.0**2, 0.5)
    lay = generate_layout(1000, 2000, 100.0, seed=9)

    def linf(p, q):
        return np.maximum(np.abs(p[:, None, 0] - q[None, :, 0]), np.abs(p[:, None, 1] - q[None, :, 1]))

    served = (linf(lay.rrh_xy, lay.user_xy) < r).astype(np.float32)
    shared = served.T @ served > 0  # counts below 2**24 are exact in float32
    near = linf(lay.user_xy, lay.user_xy) < 2.0 * r
    for g, adj in ((build_conflict_graph(sparsify(lay, r)), shared),
                   (build_proximity_graph(lay, r), near)):
        np.fill_diagonal(adj, False)
        src, dst = np.nonzero(adj)
        assert np.array_equal(g.src, src) and np.array_equal(g.dst, dst)
    assert g.n_edges > 100_000  # the proximity graph is dense enough to matter
