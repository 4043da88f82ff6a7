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


def _indices(a, name: str) -> np.ndarray:
    """A read-only intp copy of the index array ``a``. A float or boolean
    array raises ConsistencyError naming it rather than being truncated or
    read as 0/1; an empty one (an empty list reads as float) is accepted."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ConsistencyError(f"{name} must hold integers, got dtype {a.dtype}")
    return _frozen(a, np.intp)


def _index_pairs(a, b, n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only intp copies of the index pairs (a[p], b[p]), which must lie
    in range and be sorted by (a, b) with no repeats, as ``pairs_within``
    returns them."""
    a, b = _indices(a, "index pairs"), _indices(b, "index pairs")
    if a.ndim != 1 or a.shape != b.shape:
        raise ConsistencyError("index pairs need two 1-D arrays of one length")
    # with b in range, keys a*n_b + b rising strictly from -1 to n_a*n_b put a in range
    keys = np.concatenate([[-1], a * n_b + b, [n_a * n_b]])
    if np.any((b < 0) | (b >= n_b)) or np.any(np.diff(keys) <= 0):
        raise ConsistencyError("index pairs must lie in range, sorted, with no repeats")
    return a, b


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

    Cell sweep: b is bucketed by y into cells of height ``half``, a little more
    than r, and sorted by (cell, x). Each a[i] takes, in its own cell and the
    two cells beside it, the b points in an x-window of half-width ``half``.
    The margin ``half - r`` outgrows any rounding in the cell indices and the
    window bounds, so no pair within r is missed, and the strict check on both
    coordinates keeps exactly the pairs within r. Only occupied cells are
    located, by search, so memory is O(len(a) + len(b)) however small r is.
    Candidates are checked in blocks of whole rows of a, about ``_PAIR_BLOCK``
    at a time.
    """
    n = b.shape[0]
    scale = r + float(np.max(np.abs(a), initial=0.0)) + float(np.max(np.abs(b), initial=0.0))
    half = r + 1e-9 * scale
    # |y| / half is at most 1e9, so the cell indices are exact in int64
    bcell = np.floor(b[:, 1] / half).astype(np.int64)
    order = np.lexsort((b[:, 0], bcell))
    bx, by, bcell = b[order, 0], b[order, 1], bcell[order]
    # integer sort keys of b: its cell's first position, then the rank of its x
    # among all of b's x (ties share a rank), so keys ascend along b and a
    # key search finds one cell's x-window without scanning the cell
    xs = np.sort(bx)
    width = n + 1
    bkey = np.searchsorted(bcell, bcell) * width + np.searchsorted(xs, bx)
    ax, ay = a[:, 0], a[:, 1]
    acell = np.floor(ay / half).astype(np.int64)
    # bounds of the cells below, at and above each a[i]: (len(a), 3) each
    edges = np.searchsorted(bcell, acell[:, None] + np.arange(-1, 3))
    cell_lo, cell_hi = edges[:, :3], edges[:, 1:]
    x_lo = np.searchsorted(xs, ax - half, side="left")[:, None]
    x_hi = np.searchsorted(xs, ax + half, side="right")[:, None]
    lo = np.searchsorted(bkey, cell_lo * width + x_lo)
    # an empty cell has cell_lo == cell_hi, and its key search lands in the next cell
    counts = np.where(cell_hi > cell_lo, np.searchsorted(bkey, cell_lo * width + x_hi) - lo, 0).ravel()
    lo, rows = lo.ravel(), counts.reshape(-1, 3).sum(axis=1)
    seg_ends, ends = np.cumsum(counts), np.cumsum(rows)
    keys = [np.empty(0, dtype=np.intp)]
    start = 0
    while start < a.shape[0]:
        # whole rows of a, about _PAIR_BLOCK candidates (at least one row) per block
        done = int(ends[start - 1]) if start else 0
        stop = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")), start + 1)
        c = counts[3 * start:3 * stop]
        first = seg_ends[3 * start:3 * stop] - c - done  # block position of each segment's first candidate
        i = np.repeat(np.arange(start, stop), rows[start:stop])
        j = np.arange(int(ends[stop - 1]) - done) + np.repeat(lo[3 * start:3 * stop] - first, c)
        # y first: the cells leave about a third of the candidates out of reach in y
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
