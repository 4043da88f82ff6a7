"""RRH-user association by Chebyshev-ball sparsification.

An RRH serves exactly the users strictly inside its l-infinity ball of radius
``threshold``; everything outside is treated as unknown interference by the
estimator. ``refine`` widens each RRH's set with the nearest user of every
pilot color it is missing, which preserves local orthogonality while letting
the RRH estimate (and so cancel) more interferers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, ParameterError
from .geometry import NetworkLayout, _index_pairs, abs_offsets, pairs_within

if TYPE_CHECKING:
    from .coloring import Coloring


@dataclass(frozen=True, eq=False)
class AssociationMap:
    """Bipartite RRH-user association, stored as its served pairs.

    Attributes:
        rrh, user: read-only intp arrays; RRH ``rrh[p]`` serves user
            ``user[p]``. Sorted by (RRH, user) with no repeats. The
            constructor checks and copies them, so a map never changes.
        n_rrh, n_user: the number of RRHs and users.
        threshold: the sparsification radius the map was built with.
    """

    rrh: np.ndarray
    user: np.ndarray
    n_rrh: int
    n_user: int
    threshold: float

    def __post_init__(self):
        rrh, user = _index_pairs(self.rrh, self.user, self.n_rrh, self.n_user)
        object.__setattr__(self, "rrh", rrh)
        object.__setattr__(self, "user", user)

    @cached_property
    def served_users(self) -> tuple[tuple[int, ...], ...]:
        """Per RRH, a tuple of its served user indices, ascending."""
        users = self.user.tolist()
        bounds = np.searchsorted(self.rrh, np.arange(self.n_rrh + 1)).tolist()
        return tuple(tuple(users[s:e]) for s, e in zip(bounds, bounds[1:]))


def sparsify(layout: NetworkLayout, threshold: float) -> AssociationMap:
    """Associate each RRH with the users at Chebyshev distance < threshold.

    The inequality is strict: a user exactly on the ball boundary is not
    served. Users served by nobody and RRHs serving nobody are legal.
    """
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    rrh, user = pairs_within(layout.rrh_xy, layout.user_xy, threshold)
    return AssociationMap(rrh, user, layout.n_rrh, layout.n_user, float(threshold))


def color_slots(assoc: AssociationMap, colors: np.ndarray, n_colors: int) -> np.ndarray:
    """The slot rrh * n_colors + color of every served pair; two pairs in
    one slot, an RRH serving two users of one color, raise ConsistencyError."""
    at = assoc.rrh * n_colors + colors[assoc.user]
    twice = np.flatnonzero(np.bincount(at) > 1)
    if twice.size:
        raise ConsistencyError(f"RRH {twice[0] // n_colors} serves two users of the same color")
    return at


def _same_rrh_pairs(rrh: np.ndarray, diagonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every two served pairs at one RRH, as index arrays p < q (p <= q
    with the diagonal) ordered by (p, q); ``rrh`` is sorted."""
    sizes = np.bincount(rrh)
    ends = np.repeat(np.cumsum(sizes), sizes)  # one past each pair's RRH
    start = np.arange(rrh.size) + (not diagonal)  # pair p meets q = start[p]..ends[p] - 1
    count = ends - start
    p = np.repeat(np.arange(rrh.size), count)
    q = np.arange(p.size) + np.repeat(start - (np.cumsum(count) - count), count)
    return p, q


def refine(assoc: AssociationMap, layout: NetworkLayout, coloring: "Coloring") -> AssociationMap:
    """Extend each RRH's set with its nearest user of every missing color.

    After refinement each RRH serves exactly one user per pilot color (when every
    color class is nonempty), so it can estimate one channel per orthogonal
    pilot. Existing associations are never removed. Distance ties break toward
    the lower user index.

    Raises:
        ConsistencyError: if the coloring does not cover the layout's users,
            the map and layout disagree on the RRH count, or two same-colored
            users already share an RRH in ``assoc``.
    """
    colors = np.asarray(coloring.colors)
    if colors.shape[0] != layout.n_user or assoc.n_user != layout.n_user:
        raise ConsistencyError("coloring/association must cover exactly the layout's users")
    if assoc.n_rrh != layout.n_rrh:
        raise ConsistencyError("association and layout disagree on the RRH count")
    n_rrh, n_colors = assoc.n_rrh, coloring.num_colors
    missing = np.ones(n_rrh * n_colors, dtype=bool)  # (RRH, color) slots nobody fills
    missing[color_slots(assoc, colors, n_colors)] = False
    # every RRH's nearest user of each color; a class is ascending and argmin
    # returns its first minimum, so the lowest index wins ties
    dists = np.maximum(*abs_offsets(layout.rrh_xy, layout.user_xy))
    nearest = np.full((n_rrh, n_colors), -1, dtype=np.intp)
    for q in range(n_colors):
        cls = np.flatnonzero(colors == q)
        if cls.size:
            nearest[:, q] = cls[np.argmin(dists[:, cls], axis=1)]
    add_rrh, add_color = np.nonzero(missing.reshape(n_rrh, n_colors) & (nearest >= 0))
    rrh = np.concatenate([assoc.rrh, add_rrh])
    user = np.concatenate([assoc.user, nearest[add_rrh, add_color]])
    order = np.argsort(rrh * layout.n_user + user)  # keys are distinct
    return AssociationMap(rrh[order], user[order], n_rrh, layout.n_user, assoc.threshold)
