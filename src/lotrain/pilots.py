"""Pilot sequence assignment from a conflict-graph coloring.

Users of one color share one row of an orthonormal base; the training length
equals the number of colors. Because conflicting users never share a color,
every RRH sees mutually orthogonal pilots among the users it serves, which is
all the orthogonality the per-RRH estimator needs.
"""

from dataclasses import dataclass, field

import numpy as np

from .association import AssociationMap
from .coloring import Coloring
from .errors import ConsistencyError
from .geometry import _frozen, _indices
from .graphs import build_conflict_graph

_ORTHOGONALITY_TOL = 1e-10  # of the largest pilot energy: a correlation this small is zero


def dft_rows(length: int) -> np.ndarray:
    """Rows of the unitary DFT matrix: an orthonormal base of C^length."""
    j, t = np.meshgrid(np.arange(length), np.arange(length), indexing="ij")
    return np.exp(-2j * np.pi * j * t / length) / np.sqrt(length) if length else np.empty((0, 0), complex)


@dataclass(frozen=True, eq=False)
class PilotBook:
    """Per-user training sequences.

    Attributes:
        pilots: (n_user, length) complex rows, one per user. A book from
            ``build_pilot_book`` gives every row energy length: unit power
            over the whole training phase.
        color_of: pilot color per user for books built from a coloring,
            None for free-form books (e.g. the random baseline).
        rows, coef: a colored book's color contract (None if free-form):
            user k sends coef[k] * rows[color_of[k]], one orthonormal row
            per color, its strongest user's pilot normalized (zero if all
            are silent). Energy off a user's row, or a correlation of two
            colors' rows, above ``_ORTHOGONALITY_TOL`` times the largest
            pilot energy raises ConsistencyError naming the user or colors.
    """

    pilots: np.ndarray
    color_of: np.ndarray | None = None
    rows: np.ndarray | None = field(default=None, init=False, repr=False)
    coef: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pilots", _frozen(self.pilots))
        if self.color_of is None:
            return
        x, colors = self.pilots, _indices(self.color_of, "color_of")
        if colors.shape != x.shape[:1] or colors.min(initial=0) < 0:
            raise ConsistencyError(f"color_of must give each of the {x.shape[0]} users one nonnegative color")
        energy = np.sum(np.abs(x) ** 2, axis=1)
        order = np.lexsort((-energy, colors))  # by color, strongest first
        lead = order[np.diff(colors[order], prepend=-1) != 0]
        norm = np.sqrt(energy[lead])
        rows = np.zeros((int(colors.max(initial=-1)) + 1, x.shape[1]), dtype=complex)
        rows[colors[lead]] = x[lead] / np.where(norm > 0, norm, 1.0)[:, None]
        coef = np.sum(x * rows[colors].conj(), axis=1)
        limit = _ORTHOGONALITY_TOL * energy.max(initial=0.0)
        off = np.flatnonzero(energy - np.abs(coef) ** 2 > limit)
        if off.size:
            raise ConsistencyError(f"user {off[0]}'s pilot has energy off its color's row ({colors[off[0]]})")
        i, j = colors[lead[np.argwhere(np.triu(np.abs(x[lead] @ x[lead].conj().T) > limit, 1))]].T
        if i.size:
            raise ConsistencyError(f"the rows of colors {i[0]} and {j[0]} correlate")
        for name, a in (("color_of", colors), ("rows", _frozen(rows)), ("coef", _frozen(coef))):
            object.__setattr__(self, name, a)

    @property
    def n_user(self) -> int:
        return self.pilots.shape[0]

    @property
    def training_length(self) -> int:
        return self.pilots.shape[1]


def build_pilot_book(coloring: Coloring) -> PilotBook:
    """Scaled orthonormal pilots: user k sends sqrt(length) times the DFT
    row of its color."""
    length = coloring.num_colors
    return PilotBook(np.sqrt(length) * dft_rows(length)[coloring.colors], coloring.colors)


def check_local_orthogonality(book: PilotBook, assoc: AssociationMap) -> bool:
    """True iff, at every RRH, served users' pilots are pairwise orthogonal.

    Orthogonality is only required within each RRH's served set, that is
    along the edges of the conflict graph; users served by no common RRH may
    correlate arbitrarily. A cross-correlation counts as zero when it is at
    most ``_ORTHOGONALITY_TOL`` (1e-10) times the largest pilot energy in the
    book, so the verdict does not depend on the power scale.
    """
    if book.n_user != assoc.n_user:
        raise ConsistencyError("pilot book and association disagree on the user count")
    x = book.pilots
    limit = _ORTHOGONALITY_TOL * float(np.max(np.sum(np.abs(x) ** 2, axis=1), initial=0.0))
    k, m = build_conflict_graph(assoc).edge_array.T
    return not np.any(np.abs(np.sum(x[k] * x[m].conj(), axis=1)) > limit)
