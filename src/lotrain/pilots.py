"""Pilot sequence assignment from a conflict-graph coloring.

Users of one color share one row of an orthonormal base; the training length
equals the number of colors. Because conflicting users never share a color,
every RRH sees mutually orthogonal pilots among the users it serves, which is
all the orthogonality the per-RRH estimator needs.
"""

from dataclasses import dataclass

import numpy as np

from .association import AssociationMap
from .coloring import Coloring
from .errors import ConsistencyError, ParameterError
from .geometry import _frozen
from .graphs import build_conflict_graph


def dft_rows(length: int) -> np.ndarray:
    """Rows of the unitary DFT matrix: an orthonormal base of C^length."""
    j, t = np.meshgrid(np.arange(length), np.arange(length), indexing="ij")
    return np.exp(-2j * np.pi * j * t / length) / np.sqrt(length) if length else np.empty((0, 0), complex)


@dataclass(frozen=True, eq=False)
class PilotBook:
    """Per-user training sequences.

    Attributes:
        pilots: (n_user, length) complex rows, one per user; row k carries
            energy length * beta[k] * p0 (training power constraint met with
            equality over the training phase).
        beta: per-user training power coefficients.
        p0: power budget per channel use.
        color_of: pilot color per user for books built from a coloring,
            None for free-form books (e.g. the random baseline). Users of
            one color send scaled copies of one row and rows of different
            colors are orthogonal; ``mmse_estimate`` relies on this.
    """

    pilots: np.ndarray
    beta: np.ndarray
    p0: float
    color_of: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "pilots", _frozen(self.pilots))
        object.__setattr__(self, "beta", _frozen(self.beta))
        if self.color_of is not None:
            object.__setattr__(self, "color_of", _frozen(self.color_of))

    @property
    def n_user(self) -> int:
        return self.pilots.shape[0]

    @property
    def training_length(self) -> int:
        return self.pilots.shape[1]


def _beta_array(beta, n_user: int, name: str = "beta") -> np.ndarray:
    """Per-user power coefficients from a scalar or a length-n_user vector."""
    b = np.asarray(beta, dtype=float)
    if b.ndim == 0:
        b = np.full(n_user, float(b))
    if b.shape != (n_user,):
        raise ConsistencyError(f"{name} must be scalar or length {n_user}")
    if np.any(b < 0):
        raise ParameterError(f"{name} coefficients must be nonnegative")
    return b


def build_pilot_book(coloring: Coloring, beta=1.0, p0: float = 1.0) -> PilotBook:
    """Scaled orthonormal pilots: user k sends sqrt(length * beta_k * p0)
    times the DFT row of its color."""
    if not p0 > 0:
        raise ParameterError(f"p0 must be positive, got {p0}")
    n_user = coloring.colors.shape[0]
    b = _beta_array(beta, n_user)
    length = coloring.num_colors
    rows = dft_rows(length)
    pilots = np.sqrt(length * b * p0)[:, None] * rows[coloring.colors]
    return PilotBook(pilots, b, float(p0), coloring.colors)


def check_local_orthogonality(book: PilotBook, assoc: AssociationMap, tol: float = 1e-10) -> bool:
    """True iff, at every RRH, served users' pilots are pairwise orthogonal.

    Orthogonality is only required within each RRH's served set, that is
    along the edges of the conflict graph; users served by no common RRH may
    correlate arbitrarily. A cross-correlation counts as zero when it is at
    most ``tol`` times the largest pilot energy in the book, so the verdict
    does not depend on the power scale.
    """
    if book.n_user != assoc.n_user:
        raise ConsistencyError("pilot book and association disagree on the user count")
    x = book.pilots
    limit = tol * float(np.max(np.sum(np.abs(x) ** 2, axis=1), initial=0.0))
    k, m = build_conflict_graph(assoc).edge_array.T
    return not np.any(np.abs(np.sum(x[k] * x[m].conj(), axis=1)) > limit)
