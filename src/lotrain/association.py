"""RRH-user association by Chebyshev-ball sparsification.

An RRH serves exactly the users strictly inside its l-infinity ball of radius
``threshold``; everything outside is treated as unknown interference by the
estimator. ``refine`` widens each RRH's set with the nearest user of every
pilot color it is missing, which preserves local orthogonality while letting
the RRH estimate (and so cancel) more interferers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, ParameterError
from .geometry import NetworkLayout, abs_offsets, pairs_within

if TYPE_CHECKING:
    from .coloring import Coloring


@dataclass(frozen=True)
class AssociationMap:
    """Bipartite RRH-user association.

    Attributes:
        served_users: per RRH, a tuple of served user indices, ascending.
        serving_rrhs: per user, a tuple of serving RRH indices, ascending.
        threshold: the sparsification radius the map was built with.
    """

    served_users: tuple[tuple[int, ...], ...]
    serving_rrhs: tuple[tuple[int, ...], ...]
    threshold: float

    @property
    def n_rrh(self) -> int:
        return len(self.served_users)

    @property
    def n_user(self) -> int:
        return len(self.serving_rrhs)


def _split(values: np.ndarray, counts: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Consecutive runs of ``values`` with the given lengths, as int tuples."""
    v = values.tolist()
    bounds = [0, *np.cumsum(counts).tolist()]
    return tuple(tuple(v[s:e]) for s, e in zip(bounds, bounds[1:]))


def _from_pairs(rrh: np.ndarray, user: np.ndarray, n_rrh: int, n_user: int,
                threshold: float) -> AssociationMap:
    """Association map from served (RRH, user) pairs sorted by (RRH, user)."""
    by_user = np.argsort(user, kind="stable")  # keeps RRHs ascending per user
    return AssociationMap(
        _split(user, np.bincount(rrh, minlength=n_rrh)),
        _split(rrh[by_user], np.bincount(user, minlength=n_user)),
        float(threshold),
    )


def sparsify(layout: NetworkLayout, threshold: float) -> AssociationMap:
    """Associate each RRH with the users at Chebyshev distance < threshold.

    The inequality is strict: a user exactly on the ball boundary is not
    served. Users served by nobody and RRHs serving nobody are legal.
    """
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    rrh, user = pairs_within(layout.rrh_xy, layout.user_xy, threshold)
    return _from_pairs(rrh, user, layout.n_rrh, layout.n_user, threshold)


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
    rrh = np.repeat(np.arange(n_rrh), [len(u) for u in assoc.served_users])
    user = np.fromiter(chain.from_iterable(assoc.served_users), dtype=np.intp, count=rrh.size)
    # (n_rrh, n_colors): how many users of each color every RRH serves
    have = np.bincount(rrh * n_colors + colors[user],
                       minlength=n_rrh * n_colors).reshape(n_rrh, n_colors)
    twice = np.flatnonzero(have.max(axis=1, initial=0) > 1)
    if twice.size:
        raise ConsistencyError(f"RRH {twice[0]} serves two users of the same color")
    # every RRH's nearest user of each color; a class is ascending and argmin
    # returns its first minimum, so the lowest index wins ties
    dists = np.maximum(*abs_offsets(layout.rrh_xy, layout.user_xy))
    nearest = np.full((n_rrh, n_colors), -1, dtype=np.intp)
    for q in range(n_colors):
        cls = np.flatnonzero(colors == q)
        if cls.size:
            nearest[:, q] = cls[np.argmin(dists[:, cls], axis=1)]
    add_rrh, add_color = np.nonzero((have == 0) & (nearest >= 0))
    rrh = np.concatenate([rrh, add_rrh])
    user = np.concatenate([user, nearest[add_rrh, add_color]])
    order = np.argsort(rrh * layout.n_user + user)  # keys are distinct
    return _from_pairs(rrh[order], user[order], layout.n_rrh, layout.n_user, assoc.threshold)
