"""Random network layouts on a square service area.

RRHs and users are drawn independently and uniformly on [0, side]^2. All
coordinates are plain (x, y) float pairs; layouts store them as (n, 2) arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError

# Bit generator used everywhere randomness is needed; recorded in config
# echoes so runs can be replayed.
RNG_ALGORITHM = "PCG64"

# pairs_within checks its candidate pairs in blocks of about this many, so its
# temporaries stay a few MB however dense the layout is.
_PAIR_BLOCK = 1 << 15


def _rng(seed) -> np.random.Generator:
    """Generator from an int seed or a SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed))


def _frozen(a, dtype=None) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``. The values the pipeline hands
    from stage to stage take their arrays through here, so each owns its
    data and never changes."""
    a = np.array(a, dtype=dtype, order="C")
    a.flags.writeable = False
    return a


def _index_pairs(a, b, n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only intp copies of the index pairs (a[p], b[p]), which must lie
    in range and be sorted by (a, b) with no repeats, as ``pairs_within``
    returns them."""
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if a.ndim != 1 or a.shape != b.shape:
        raise ConsistencyError("index pairs need two 1-D arrays of one length")
    # with b in range, keys a*n_b + b rising strictly from -1 to n_a*n_b put a in range
    keys = np.concatenate([[-1], a * n_b + b, [n_a * n_b]])
    if np.any((b < 0) | (b >= n_b)) or np.any(np.diff(keys) <= 0):
        raise ConsistencyError("index pairs must lie in range, sorted, with no repeats")
    return _frozen(a), _frozen(b)


@dataclass(frozen=True, eq=False)
class NetworkLayout:
    """One realization of RRH and user positions.

    Attributes:
        side: edge length of the square service area (meters).
        rrh_xy: (n_rrh, 2) RRH positions.
        user_xy: (n_user, 2) user positions.
    """

    side: float
    rrh_xy: np.ndarray
    user_xy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rrh_xy", _frozen(self.rrh_xy))
        object.__setattr__(self, "user_xy", _frozen(self.user_xy))

    @property
    def n_rrh(self) -> int:
        return self.rrh_xy.shape[0]

    @property
    def n_user(self) -> int:
        return self.user_xy.shape[0]


def generate_layout(n_rrh: int, n_user: int, side: float, seed) -> NetworkLayout:
    """Draw a layout with i.i.d. uniform positions on [0, side]^2.

    Deterministic: the same (n_rrh, n_user, side, seed) reproduces the same
    layout bit for bit. RRH positions are drawn before user positions.
    """
    if n_rrh < 1 or n_user < 1:
        raise ParameterError(f"need at least one RRH and one user, got {n_rrh}, {n_user}")
    if not side > 0:
        raise ParameterError(f"side must be positive, got {side}")
    rng = _rng(seed)
    return NetworkLayout(float(side), rng.uniform(0.0, side, size=(n_rrh, 2)),
                         rng.uniform(0.0, side, size=(n_user, 2)))


def dist_linf(a, b) -> float:
    """Chebyshev distance max(|ax - bx|, |ay - by|) between two points."""
    return float(max(abs(a[0] - b[0]), abs(a[1] - b[1])))


def abs_offsets(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(len(a), len(b)) arrays |ax - bx| and |ay - by| over all point pairs."""
    return np.abs(a[:, :1] - b[:, 0]), np.abs(a[:, 1:] - b[:, 1])


def pairs_within(a: np.ndarray, b: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair with max|a[i] - b[j]| < r (Chebyshev),
    sorted by (i, j).

    Sweep over b sorted by x: each a[i] takes the b points in an x-window a
    little wider than r, so rounding in the window bounds cannot drop a pair,
    and the strict check on both coordinates keeps exactly the pairs within r.
    """
    order = np.argsort(b[:, 0], kind="stable")
    bx, by = b[order, 0], b[order, 1]
    ax, ay = a[:, 0], a[:, 1]
    scale = r + float(np.max(np.abs(a), initial=0.0)) + float(np.max(np.abs(b), initial=0.0))
    half = r + 1e-9 * scale
    lo = np.searchsorted(bx, ax - half, side="left")
    counts = np.searchsorted(bx, ax + half, side="right") - lo
    ends = np.cumsum(counts)
    n = b.shape[0]
    keys = [np.empty(0, dtype=np.intp)]
    start = 0
    while start < a.shape[0]:
        # whole rows of a, about _PAIR_BLOCK candidates (at least one row) per block
        done = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")), start + 1)
        c = counts[start:stop]
        first = ends[start:stop] - c - done  # block position of each row's first candidate
        i = np.repeat(np.arange(start, stop), c)
        j = np.arange(int(ends[stop - 1]) - done) + np.repeat(lo[start:stop] - first, c)
        # y first: the x-window has already ruled out nearly all that x would
        near = np.abs(ay[i] - by[j]) < r
        i, j = i[near], j[near]
        near = np.abs(ax[i] - bx[j]) < r
        key = i[near] * n + order[j[near]]
        key.sort()  # rows come in order; this orders each row's b indices
        keys.append(key)
        start = stop
    return np.divmod(np.concatenate(keys), max(n, 1))


def user_density(layout: NetworkLayout) -> float:
    """Users per unit area: n_user / side**2."""
    return layout.n_user / layout.side**2
