"""Sparsification and color-guided refinement of the association map."""

from types import SimpleNamespace

import numpy as np
import pytest

from lotrain import (
    AssociationMap,
    Coloring,
    ConsistencyError,
    NetworkLayout,
    ParameterError,
    dist_linf,
    generate_layout,
    refine,
    sparsify,
)
from lotrain.association import _same_rrh_pairs
from lotrain.geometry import abs_offsets


def layout_from(rrh, users, side=100.0):
    return NetworkLayout(side, np.asarray(rrh, float), np.asarray(users, float))


def assert_pair_format(assoc):
    """The served pairs are read-only intp arrays, strictly increasing in
    rrh*n_user + user."""
    for a in (assoc.rrh, assoc.user):
        assert a.dtype == np.intp and not a.flags.writeable
    assert np.all(np.diff(assoc.rrh * assoc.n_user + assoc.user) > 0)


def test_strict_boundary():
    lay = layout_from([[0.0, 0.0]], [[10.0, 0.0], [9.9999999, 0.0], [0.0, 10.0]])
    assoc = sparsify(lay, 10.0)
    # users exactly on the ball boundary are not served
    assert assoc.served_users == ((1,),)
    assert assoc.rrh.tolist() == [0] and assoc.user.tolist() == [1]
    assert assoc.threshold == 10.0


def test_chebyshev_not_euclidean():
    # (7, 7) has Euclidean distance ~9.9 but Chebyshev distance 7
    lay = layout_from([[0.0, 0.0]], [[7.0, 7.0], [9.0, 1.0]])
    assert sparsify(lay, 8.0).served_users == ((0,),)


def test_threshold_domain():
    lay = generate_layout(3, 3, 10.0, seed=0)
    for bad in (0.0, -2.0):
        with pytest.raises(ParameterError):
            sparsify(lay, bad)


def test_empty_sides_are_legal():
    lay = layout_from([[0.0, 0.0]], [[90.0, 90.0]])
    assoc = sparsify(lay, 5.0)
    assert assoc.served_users == ((),)
    assert assoc.rrh.size == assoc.user.size == 0 and (assoc.n_rrh, assoc.n_user) == (1, 1)


def test_pairs_are_checked_and_copied():
    rrh, user = np.array([0, 0, 1]), np.array([1, 2, 0])
    assoc = AssociationMap(rrh, user, 2, 3, 1.0)
    rrh[0], user[0] = 1, 0
    assert assoc.served_users == ((1, 2), (0,))
    assert_pair_format(assoc)
    for bad_rrh, bad_user in (([0, 0], [2, 1]),   # unsorted
                              ([0, 0], [1, 1]),   # repeated
                              ([0, 2], [0, 0]),   # RRH out of range
                              ([0, 1], [0, 3]),   # user out of range
                              ([-1, 0], [0, 0]),  # negative
                              ([0, 1], [0])):     # lengths differ
        with pytest.raises(ConsistencyError):
            AssociationMap(bad_rrh, bad_user, 2, 3, 1.0)


def test_matches_brute_force_and_bipartite_consistency():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 25))
        side = float(rng.uniform(10, 60))
        lay = generate_layout(n, k, side, seed=int(rng.integers(1 << 31)))
        r = float(rng.uniform(2, side))
        assoc = sparsify(lay, r)
        pairs = []
        for i in range(n):
            expect = tuple(
                u for u in range(k) if dist_linf(lay.rrh_xy[i], lay.user_xy[u]) < r
            )
            assert assoc.served_users[i] == expect
            assert list(assoc.served_users[i]) == sorted(assoc.served_users[i])
            pairs += [(i, u) for u in expect]
        assert_pair_format(assoc)
        assert list(zip(assoc.rrh.tolist(), assoc.user.tolist())) == pairs


# --------------------------------------------------------------- refinement

def test_refine_adds_closest_of_missing_color():
    # RRH serves user 0 (color 0); users 1, 2 share color 1 at distances 3, 5
    lay = layout_from([[0.0, 0.0]], [[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
    assoc = sparsify(lay, 2.0)
    assert assoc.served_users == ((0,),)
    col = Coloring(np.array([0, 1, 1]))
    ref = refine(assoc, lay, col)
    assert ref.served_users == ((0, 1),)
    assert ref.rrh.tolist() == [0, 0] and ref.user.tolist() == [0, 1]


def test_refine_tie_breaks_to_lower_index():
    # users 2 and 1 both at Chebyshev distance 5 with the missing color
    lay = layout_from([[0.0, 0.0]], [[1.0, 1.0], [0.0, 5.0], [5.0, 0.0]])
    col = Coloring(np.array([0, 1, 1]))
    ref = refine(sparsify(lay, 2.0), lay, col)
    assert ref.served_users == ((0, 1),)


def test_refine_no_missing_colors_is_identity():
    lay = layout_from([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    assoc = sparsify(lay, 2.0)
    col = Coloring(np.array([0, 1]))
    assert refine(assoc, lay, col).served_users == assoc.served_users


def test_refine_properties_against_brute_force():
    from lotrain import build_conflict_graph, dsatur

    rng = np.random.default_rng(5)
    for _ in range(100):
        n, k = int(rng.integers(1, 8)), int(rng.integers(2, 20))
        side = float(rng.uniform(20, 60))
        lay = generate_layout(n, k, side, seed=int(rng.integers(1 << 31)))
        r = float(rng.uniform(4, side / 2))
        assoc = sparsify(lay, r)
        col = dsatur(build_conflict_graph(assoc))
        ref = refine(assoc, lay, col)
        for i in range(n):
            before, after = set(assoc.served_users[i]), set(ref.served_users[i])
            assert before <= after  # never removes
            got = [int(col.colors[u]) for u in ref.served_users[i]]
            assert len(set(got)) == len(got)  # still one user per color
            assert len(after) == col.num_colors  # one user for every color
            for q in range(col.num_colors):
                if any(int(col.colors[u]) == q for u in before):
                    continue
                cls = [u for u in range(k) if int(col.colors[u]) == q]
                dists = [dist_linf(lay.rrh_xy[i], lay.user_xy[u]) for u in cls]
                best = min(zip(dists, cls))[1]  # min distance, then min index
                assert best in after
        # idempotent: nothing is missing the second time around
        assert refine(ref, lay, col).served_users == ref.served_users


def test_refine_rejects_same_colored_pair():
    lay = layout_from([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    assoc = sparsify(lay, 2.0)
    with pytest.raises(ConsistencyError):
        refine(assoc, lay, Coloring(np.array([0, 0])))


def test_refine_rejects_coverage_mismatch():
    lay = layout_from([[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    assoc = sparsify(lay, 2.0)
    with pytest.raises(ConsistencyError):
        refine(assoc, lay, Coloring(np.array([0])))


def refine_loop(assoc, layout, coloring):
    """The reference refinement: one RRH and one missing color at a time."""
    colors = np.asarray(coloring.colors)
    if colors.shape[0] != layout.n_user or assoc.n_user != layout.n_user:
        raise ConsistencyError("coloring/association must cover exactly the layout's users")
    if assoc.n_rrh != layout.n_rrh:
        raise ConsistencyError("association and layout disagree on the RRH count")
    classes = [np.flatnonzero(colors == q) for q in range(coloring.num_colors)]
    dists = np.maximum(*abs_offsets(layout.rrh_xy, layout.user_xy))
    served = []
    for i, users in enumerate(assoc.served_users):
        have = [int(colors[k]) for k in users]
        if len(set(have)) != len(have):
            raise ConsistencyError(f"RRH {i} serves two users of the same color")
        extra = []
        for q in range(coloring.num_colors):
            if q in have or classes[q].size == 0:
                continue
            # cls is ascending, argmin returns its first minimum: lowest index wins ties
            extra.append(int(classes[q][np.argmin(dists[i, classes[q]])]))
        served.append(sorted(set(users) | set(extra)))
    rrh = [i for i, users in enumerate(served) for _ in users]
    user = [k for users in served for k in users]
    return AssociationMap(rrh, user, layout.n_rrh, layout.n_user, assoc.threshold)


def assert_refine_matches_loop(assoc, lay, col):
    try:
        want = refine_loop(assoc, lay, col)
    except ConsistencyError as exc:
        with pytest.raises(ConsistencyError) as got:
            refine(assoc, lay, col)
        assert str(got.value) == str(exc)
        return
    got = refine(assoc, lay, col)
    assert_pair_format(got)
    for name in ("rrh", "user", "n_rrh", "n_user", "threshold"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_refine_matches_the_per_rrh_loop():
    from lotrain import build_conflict_graph, dsatur

    rng = np.random.default_rng(51)
    for trial in range(200):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        if trial % 2:  # integer coordinates: many equidistant users
            lay = layout_from(rng.integers(0, 8, (n, 2)), rng.integers(0, 8, (k, 2)), side=8.0)
        else:
            lay = generate_layout(n, k, 40.0, seed=int(rng.integers(1 << 31)))
        assoc = sparsify(lay, float(rng.uniform(1.0, 15.0)))
        col = dsatur(build_conflict_graph(assoc))
        assert_refine_matches_loop(assoc, lay, col)
        # a random coloring may put two users of one color at an RRH
        q = int(rng.integers(1, 5))
        assert_refine_matches_loop(assoc, lay, SimpleNamespace(colors=rng.integers(0, q, k),
                                                               num_colors=q))


def test_refine_matches_the_loop_on_edge_cases():
    # ties: users 1 and 2 (color 1) both at Chebyshev distance 3 from RRH 0
    lay = layout_from([[0.0, 0.0], [9.0, 9.0]], [[1.0, 0.0], [3.0, 3.0], [0.0, 3.0], [9.0, 8.0]])
    assoc = sparsify(lay, 2.0)
    assert assoc.served_users == ((0,), (3,))
    col = Coloring(np.array([0, 1, 1, 0]))
    assert_refine_matches_loop(assoc, lay, col)
    assert refine(assoc, lay, col).served_users == ((0, 1), (1, 3))
    # an empty color class (2), which a Coloring cannot hold
    empty = SimpleNamespace(colors=np.array([0, 1, 1, 0]), num_colors=3)
    assert_refine_matches_loop(assoc, lay, empty)
    assert refine(assoc, lay, empty).served_users == ((0, 1), (1, 3))
    # an RRH serving nobody takes the nearest user of every color
    far = layout_from([[0.0, 0.0], [50.0, 50.0]], [[1.0, 0.0], [3.0, 3.0], [0.0, 3.0]])
    bare = sparsify(far, 2.0)
    assert bare.served_users == ((0,), ())
    col3 = Coloring(np.array([0, 1, 1]))
    assert_refine_matches_loop(bare, far, col3)
    assert refine(bare, far, col3).served_users == ((0, 1), (0, 1))
    # K = 1, served or not
    one = layout_from([[0.0, 0.0], [30.0, 30.0]], [[1.0, 1.0]])
    for r in (2.0, 100.0):
        assert_refine_matches_loop(sparsify(one, r), one, Coloring(np.array([0])))
    assert refine(sparsify(one, 2.0), one, Coloring(np.array([0]))).served_users == ((0,), (0,))
    # the error names the lowest RRH serving two users of one color
    two = AssociationMap([0, 1, 1, 2, 2], [0, 1, 2, 0, 1], 3, 3, 1.0)
    lay3 = layout_from([[0.0, 0.0]] * 3, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ConsistencyError, match="RRH 1 serves two users"):
        refine(two, lay3, Coloring(np.array([0, 1, 1])))
    assert_refine_matches_loop(two, lay3, Coloring(np.array([0, 1, 1])))


@pytest.mark.parametrize("diagonal", [False, True])
def test_same_rrh_pairs_match_a_per_rrh_loop(diagonal):
    # the set sizes of the batched estimator's set-size test (0, 1, 2, 3, 4,
    # 6 and 8), RRHs with no pairs at either end, and no pairs at all
    for sizes in ([0, 1, 2, 3, 4, 6, 0, 8, 1, 3, 0], [5], [1, 1, 1], [0, 0], []):
        rrh = np.repeat(np.arange(len(sizes)), sizes).astype(np.intp)
        want = []
        for i in range(len(sizes)):
            at = np.flatnonzero(rrh == i).tolist()
            want += [(p, q) for p in at for q in at if p < q or (diagonal and p == q)]
        p, q = _same_rrh_pairs(rrh, diagonal)
        assert list(zip(p.tolist(), q.tolist())) == want
