"""Layout generation, the Chebyshev metric, and the rule the pipeline's
values keep: they hold read-only copies of their arrays and compare by
identity."""

import numpy as np
import pytest

from lotrain import (
    AssociationMap,
    ChannelRealization,
    Coloring,
    ConflictGraph,
    EstimationResult,
    NetworkLayout,
    ParameterError,
    PilotBook,
    dft_rows,
    dist_linf,
    generate_layout,
    user_density,
)


def test_shapes_and_bounds():
    lay = generate_layout(30, 50, 100.0, seed=0)
    assert lay.rrh_xy.shape == (30, 2)
    assert lay.user_xy.shape == (50, 2)
    assert lay.n_rrh == 30 and lay.n_user == 50
    for xy in (lay.rrh_xy, lay.user_xy):
        assert np.all(xy >= 0.0) and np.all(xy <= 100.0)


def test_determinism_and_seed_sensitivity():
    a = generate_layout(10, 20, 50.0, seed=123)
    b = generate_layout(10, 20, 50.0, seed=123)
    c = generate_layout(10, 20, 50.0, seed=124)
    assert np.array_equal(a.rrh_xy, b.rrh_xy) and np.array_equal(a.user_xy, b.user_xy)
    assert not np.array_equal(a.user_xy, c.user_xy)


def built_values():
    """One value of each type that copies its arrays, built from fresh
    writeable arrays: (value, {field: the array passed for it}) pairs."""
    rng = np.random.default_rng(0)
    rrh_xy, user_xy = rng.uniform(0.0, 10.0, (2, 2)), rng.uniform(0.0, 10.0, (3, 2))
    rrh, user, colors = np.array([0, 0, 1]), np.array([0, 1, 2]), np.array([0, 1, 0])
    src, dst = np.array([0, 1]), np.array([1, 0])
    # a colored book's rows keep the color contract: a complex scale per user
    # times its color's DFT row
    pilots = (rng.standard_normal(3) + 1j)[:, None] * dft_rows(2)[colors]
    small, large = rng.standard_normal((2, 3)) + 0j, rng.uniform(0.1, 1.0, (2, 3))
    return [
        (NetworkLayout(10.0, rrh_xy, user_xy), {"rrh_xy": rrh_xy, "user_xy": user_xy}),
        (AssociationMap(rrh, user, 2, 3, 5.0), {"rrh": rrh, "user": user}),
        (ConflictGraph(2, src, dst, "custom"), {"src": src, "dst": dst}),
        (Coloring(colors, 2), {"colors": colors}),
        (PilotBook(pilots, colors), {"pilots": pilots, "color_of": colors}),
        (ChannelRealization(small, large), {"small_scale": small, "large_scale": large}),
    ]


def test_layout_arrays_immutable():
    lay = generate_layout(5, 5, 10.0, seed=1)
    with pytest.raises(ValueError):
        lay.rrh_xy[0, 0] = 99.0
    # every value holds read-only copies: no caller can change it afterwards
    for value, given in built_values():
        for name, a in given.items():
            held = getattr(value, name)
            assert not held.flags.writeable and not np.shares_memory(held, a), (type(value), name)
            assert np.array_equal(held, a)


def test_values_hash_and_compare_by_identity():
    # == is identity and hash() works, though the fields are arrays: two
    # values built from equal arrays are still two values
    def values():
        est = EstimationResult(np.zeros((2, 3), complex), np.ones((2, 3)), 0.1)
        return [value for value, _ in built_values()] + [est]

    for a, b in zip(values(), values()):
        assert a == a and a != b and not a == b, type(a)
        assert hash(a) == hash(a) and len({a, b, a}) == 2


@pytest.mark.parametrize("n_rrh,n_user,side", [(0, 5, 10.0), (5, 0, 10.0), (5, 5, 0.0), (5, 5, -1.0)])
def test_bad_parameters(n_rrh, n_user, side):
    with pytest.raises(ParameterError):
        generate_layout(n_rrh, n_user, side, seed=0)


def test_uniformity_smoke():
    # mean coordinate of U(0, side) is side/2 with sd side/sqrt(12)
    lay = generate_layout(2, 20000, 100.0, seed=7)
    se = 100.0 / np.sqrt(12 * 20000 * 2)
    assert abs(lay.user_xy.mean() - 50.0) < 3 * se


def test_dist_linf_examples():
    assert dist_linf((0.0, 0.0), (3.0, 4.0)) == 4.0
    assert dist_linf((1.0, 1.0), (1.0, 1.0)) == 0.0
    assert dist_linf((-2.0, 0.0), (2.0, 1.0)) == 4.0


def test_dist_linf_metric_properties():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-50, 50, size=(10000, 3, 2))
    for a, b, c in pts:
        dab, dba = dist_linf(a, b), dist_linf(b, a)
        assert dab == dba >= 0.0
        assert dist_linf(a, c) <= dab + dist_linf(b, c) + 1e-12
        l2 = float(np.hypot(*(a - b)))
        assert dab <= l2 + 1e-12 <= np.sqrt(2) * dab + 1e-9


def test_user_density():
    lay = generate_layout(10, 1000, 100.0, seed=0)
    assert user_density(lay) == pytest.approx(0.1, rel=1e-15)
    manual = NetworkLayout(20.0, lay.rrh_xy, lay.user_xy[:80])
    assert user_density(manual) == pytest.approx(0.2, rel=1e-15)
