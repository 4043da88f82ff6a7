"""Block-fading channel model, per-RRH MMSE estimation, and throughput.

Frames of T channel uses split into a training phase of length alpha*T and a
data phase of length (1-alpha)*T. During training each RRH correlates its
received signal against the pilots of the users it serves; channels of users
it does not serve are never estimated (estimate 0, error variance 1) and their
pilot energy enters the estimator as colored interference. The throughput
metric treats channel-estimation error as additional Gaussian noise, so it is
a lower bound on the ergodic achievable sum rate.

All rates are in nats per channel use; CSV emission converts to bits.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, DegenerateGeometryError, ParameterError
from .geometry import NetworkLayout, abs_offsets, _frozen, _rng
from .pilots import _ORTHOGONALITY_TOL, PilotBook, _beta_array

# SeedSequence spawn-key salts; shared with the experiment harness so every
# consumer of a master seed draws from disjoint streams.
LAYOUT_SALT = 1
FADING_SALT = 2
NOISE_SALT = 3
SCHEME_SALT = 4


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries of unit variance."""
    z = rng.standard_normal(size=(2,) + tuple(shape))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def snr_db_to_noise_power(snr_db: float, p0: float = 1.0) -> float:
    """Noise power N0 with SNR defined as p0 / N0."""
    return p0 * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One block-fading draw.

    small_scale: (n_rrh, n_user) unit-variance complex fading.
    large_scale: (n_rrh, n_user) amplitude gains distance**(-eta/2).
    It also keeps the last plan ``mmse_estimate`` made on it.
    """

    small_scale: np.ndarray
    large_scale: np.ndarray
    pathloss_exponent: float
    seed: object = None
    _last_plan: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "small_scale", _frozen(self.small_scale))
        object.__setattr__(self, "large_scale", _frozen(self.large_scale))

    def __getstate__(self):  # the plan's closures do not pickle; a copy plans afresh
        return {**self.__dict__, "_last_plan": None}

    @property
    def n_rrh(self) -> int:
        return self.small_scale.shape[0]

    @property
    def n_user(self) -> int:
        return self.small_scale.shape[1]


def generate_channel(layout: NetworkLayout, eta: float, seed, min_distance: float = 1.0) -> ChannelRealization:
    """Draw small-scale fading and compute large-scale gains for a layout.

    Path loss uses the Euclidean distance, floored at ``min_distance`` so a
    user standing almost on top of an RRH cannot produce an unbounded gain.
    Exactly co-located pairs are rejected.
    """
    if not eta > 0:
        raise ParameterError(f"pathloss exponent must be positive, got {eta}")
    if not min_distance > 0:
        raise ParameterError(f"min_distance must be positive, got {min_distance}")
    dx, dy = abs_offsets(layout.rrh_xy, layout.user_xy)
    d = np.sqrt(dx * dx + dy * dy)
    if np.any(d == 0.0):
        raise DegenerateGeometryError("a user coincides exactly with an RRH")
    gains = np.maximum(d, min_distance) ** (-eta / 2.0)
    h = complex_gaussian(_rng(seed), (layout.n_rrh, layout.n_user))
    return ChannelRealization(h, gains, float(eta), seed)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Per-(RRH, user) channel estimates and their error variances.

    Users outside an RRH's served set keep estimate 0 and error variance 1
    (the prior): nothing about them was learned during training.

    ``mmse_estimate`` also records its plan, which the rate takes the
    pattern and the level plan from, and makes ``h_hat`` and ``mse``
    read-only. An estimate built by hand has no plan, so the rate plans the
    nonzeros of its ``h_hat`` on each call, whatever was written into it.
    """

    h_hat: np.ndarray
    mse: np.ndarray
    noise_power: float
    plan: "_Plan | None" = None


def mmse_estimate(
    chan: ChannelRealization,
    book: PilotBook,
    assoc,
    n0: float,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> EstimationResult:
    """Per-RRH linear MMSE estimation of served users' channels.

    Each RRH models only its served set (its pairs in ``assoc``, an
    ``AssociationMap``); out-of-set users' pilots act as unmodeled
    interference whose full covariance is charged to the error variance.

    Two paths compute the same estimator. When the book carries a
    ``color_of``, its rows keep the color contract (see ``PilotBook``) and no
    RRH serves two users of one color, the served pilots are orthogonal at
    every RRH, so each weight decouples to gamma_k x_k^* / (gamma_k^2 E_k + n0)
    and only same-colored users outside the set leak in: all RRHs are
    estimated at once in closed form, from one correlation per color. Any
    other book (free-form, or colored but not so) takes a dual-form LMMSE
    that assumes nothing about the pilots: the RRHs are grouped by the size
    of their served sets and each group's gain-scaled served pilots take one
    stacked SVD, after which each noise power is a diagonal rescaling. The
    tests check both paths against a per-RRH regularized solve.

    The work that does not depend on the noise is planned once per book and
    association: the channel keeps its last plan and reuses it while the
    same book and association come back, so a scheme evaluated over an SNR
    grid pays for it once. Each call then works on the served pairs only,
    apart from filling the dense ``h_hat`` and ``mse``. The result carries
    the plan, and its ``h_hat`` and ``mse`` are read-only.

    The training observation is synthesized internally. Pass ``noise``
    (shape (n_rrh, training_length), entries of variance n0) to pin the noise
    draw, or ``rng`` to control its source; otherwise a stream derived from
    the channel's seed is used.
    """
    if not n0 > 0:
        raise ParameterError(f"noise power must be positive, got {n0}")
    n_rrh, n_user = chan.small_scale.shape
    if book.n_user != n_user or assoc.n_user != n_user or assoc.n_rrh != n_rrh:
        raise ConsistencyError("channel, pilot book and association sizes disagree")
    length = book.training_length
    if noise is None:
        if rng is None:
            if chan.seed is None:
                raise ParameterError("pass rng or noise when the channel carries no seed")
            rng = _rng(np.random.SeedSequence(chan.seed, spawn_key=(NOISE_SALT,)))
        noise = np.sqrt(n0) * complex_gaussian(rng, (n_rrh, length))
    if noise.shape != (n_rrh, length):
        raise ConsistencyError(f"noise must have shape {(n_rrh, length)}")
    # keyed by identity: the book and the association hold read-only copies
    # of their arrays, so the same objects mean the same values
    last = chan._last_plan
    if last is not None and last[0] is book and last[1] is assoc:
        plan = last[2]
    else:
        object.__setattr__(chan, "_last_plan", None)  # drop the old plan before the next is built
        plan = _plan(chan, book, assoc)
        object.__setattr__(chan, "_last_plan", (book, assoc, plan))
    h, e = plan.estimate(noise, n0)
    h_hat = _scatter(np.zeros((n_rrh, n_user), dtype=complex), plan.flat, h)
    mse = _scatter(np.ones((n_rrh, n_user)), plan.flat, e)
    return EstimationResult(h_hat, mse, float(n0), plan)


def _scatter(out: np.ndarray, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out`` with ``values`` written at the flat indices, made read-only."""
    out.ravel()[flat] = values
    out.flags.writeable = False
    return out


class _Plan:
    """The noise-independent work on one (channel, book, association):
    ``estimate(noise, n0)`` gives the values on the served pairs ``rrh``,
    ``user`` (flat indices ``flat``), and ``logdet`` is the rate's level
    plan of that pattern, made on first use. It refers to none of the three
    objects, so the channel that keeps it forms no reference cycle."""

    def __init__(self, estimate, shape: tuple, rrh: np.ndarray, user: np.ndarray):
        self.estimate, self.shape, self.rrh, self.user = estimate, shape, rrh, user
        self.flat = rrh * shape[1] + user

    def __reduce__(self):  # the closure does not pickle; an estimate's rate reads the pattern only
        return _Plan, (None, self.shape, self.rrh, self.user)

    @cached_property
    def logdet(self):
        return _level_plan(self.shape, self.flat)


def _plan(chan, book, assoc) -> _Plan:
    """Plan the estimator of (chan, book, assoc)."""
    rows, cols = assoc.rrh, assoc.user
    clean = (chan.small_scale * chan.large_scale) @ book.pilots  # noiseless received signal
    estimate = None if book.color_of is None else _decoupled_plan(chan, book, rows, cols, clean)
    if estimate is None:
        estimate = _batched_plan(chan, book, rows, cols, clean)
    return _Plan(estimate, chan.small_scale.shape, rows, cols)


def _decoupled_plan(chan, book, rows, cols, clean):
    """Closed-form estimator for a colored, locally orthogonal book; None
    if some RRH serves two users of one color (an exact integer count) or
    the book breaks its color contract.

    By that contract user k sends x_k = coef_k base[c_k], where base[c] is a
    unit row (its color's strongest pilot, normalized; zero for a color whose
    users all send nothing) and rows of different colors are orthogonal. Both
    are checked: no row's energy off its color's row, and no correlation of
    two colors' strongest rows, may pass _ORTHOGONALITY_TOL times the largest
    pilot energy. So an RRH correlates its signal once per color, and with
    a = gamma^2 E and den = a + n0, h_hat = gamma conj(coef) (y base[c]^H) / den
    and mse = n0 / den + a (S[i, c] - a) / den^2, where S[i, c] is the pilot
    energy RRH i receives on color c.
    """
    x = book.pilots
    colors = book.color_of
    n_user, length = x.shape
    n_colors = int(colors.max(initial=-1)) + 1
    energy = np.sum(np.abs(x) ** 2, axis=1)
    order = np.lexsort((-energy, colors))  # by color, strongest first
    lead = order[np.diff(colors[order], prepend=-1) != 0]
    norm = np.sqrt(energy[lead])
    base = np.zeros((n_colors, length), dtype=complex)
    base[colors[lead]] = x[lead] / np.where(norm > 0, norm, 1.0)[:, None]
    coef = np.sum(x * base[colors].conj(), axis=1)  # one per user
    at = rows * n_colors + colors[cols]  # flat (RRH, color) of each pair
    cross = x[lead] @ x[lead].conj().T
    np.fill_diagonal(cross, 0.0)
    off = max(np.max(energy - np.abs(coef) ** 2, initial=0.0), np.max(np.abs(cross), initial=0.0))
    if np.bincount(at).max(initial=0) > 1 or off > _ORTHOGONALITY_TOL * energy.max(initial=0.0):
        return None
    base_h = np.ascontiguousarray(base.conj().T)
    # (n_user, n_colors): each user's pilot energy in its color's column
    by_color = np.zeros((n_user, n_colors))
    by_color[np.arange(n_user), colors] = energy
    color_energy = chan.large_scale**2 @ by_color
    g = chan.large_scale[rows, cols]
    a = g * g * energy[cols]
    w = g * coef[cols].conj()
    leak = a * (np.take(color_energy, at) - a)

    def estimate(noise, n0):
        den = a + n0
        # (n_rrh x length) @ (length x n_colors), then one entry per pair
        h = w * np.take((clean + noise) @ base_h, at) / den
        return h, n0 / den + leak / den**2

    return estimate


def _batched_plan(chan, book, rows, cols, clean):
    """Dual-form LMMSE at every RRH; assumes nothing about the pilots.

    RRH i stacks its served users' scaled pilots as A = diag(g) X_in, and
    RRHs serving equally many users share one stacked SVD. With
    A = U diag(s) W^H, its weights (A^H A + n0 I)^-1 A^H are B D U^H with
    B = W diag(s) and D = diag(1 / (s^2 + n0)), so h_hat = conj(U D) (y B).
    The error variance is 1 - aligned + leak. Its first part equals
    |U|^2 (n0 d), plus, where the served pilots are dependent, the weight
    of the columns of U that have no singular value; this form does not
    cancel digits the way 1 - |U|^2 (s^2 d) does. A set of m users on L < m
    pilot dimensions therefore takes the full SVD, whose last m - L columns
    of U are those columns; a set of m <= L takes the thin one, which has
    none. Out-of-set users leak diag(U D P D U^H) with P = B^H Q B and
    Q = sum_{k not served} gamma_k^2 x_k^H x_k. Only d depends on n0.
    Taking B from the SVD, not from an eigendecomposition of A A^H, keeps
    exact zeros where A A^H is singular, so those directions add nothing
    instead of rounding residue times 1 / n0.
    """
    x = book.pilots
    length = x.shape[1]
    sizes = np.bincount(rows, minlength=chan.n_rrh)
    first = np.cumsum(sizes) - sizes  # each RRH's first pair
    q = _out_of_set_covariance(chan, x, rows, cols)
    groups = []
    for m in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():  # the sizes that occur, 0 aside
        rrh = np.flatnonzero(sizes == m)
        pair = (first[rrh, None] + np.arange(m)).ravel()  # pairs come sorted by RRH
        a = (chan.large_scale[rows[pair], cols[pair], None] * x[cols[pair]]).reshape(rrh.size, m, length)
        u, s, wh = np.linalg.svd(a, full_matrices=m > length)
        rank = s.shape[1]  # min(m, length)
        rest = np.sum(np.abs(u[:, :, rank:]) ** 2, axis=2)
        u = np.ascontiguousarray(u[:, :, :rank])
        b = _herm(wh) * s[:, None, :]  # wh has rank rows either way
        p = _herm(b) @ (q[rrh] @ b)
        groups.append((rrh, pair, u, np.abs(u) ** 2, s * s, b, rest, p))
    n_pairs = rows.size

    def estimate(noise, n0):
        y = clean + noise
        h = np.empty(n_pairs, dtype=complex)
        e = np.empty(n_pairs)
        for rrh, pair, u, u_abs2, s2, b, rest, p in groups:
            d = 1.0 / (s2 + n0)
            ud = u * d[:, None, :]
            ud_conj = ud.conj()
            yb = (y[rrh, None, :] @ b).swapaxes(1, 2)
            h[pair] = (ud_conj @ yb).ravel()
            leak = np.real(np.sum((ud @ p) * ud_conj, axis=2))
            e[pair] = (rest + (u_abs2 @ (n0 * d)[:, :, None])[:, :, 0] + leak).ravel()
        return h, e

    return estimate


def _out_of_set_covariance(chan, x, rows, cols):
    """Per RRH, sum_k gamma_ik^2 x_k^H x_k over the users it does not serve:
    one (n_rrh x n_user) @ (n_user x length^2) product. The served pairs are
    masked out of the sum rather than subtracted after it, so no served
    user's energy is added and then cancelled."""
    n_user, length = x.shape
    g2 = chan.large_scale**2
    g2[rows, cols] = 0.0
    outer = (x.conj()[:, :, None] * x[:, None, :]).reshape(n_user, length * length)
    # a real matrix times complex columns: multiply the interleaved floats
    q = (g2 @ outer.view(np.float64)).view(complex)
    return q.reshape(g2.shape[0], length, length)


def _herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack, made contiguous: numpy
    multiplied a stack of 300 matrices of about 20 x 20 2.4 to 3.4 times
    faster that way than through the strided view."""
    return np.ascontiguousarray(a.conj().swapaxes(-1, -2))


def interference_variance(est: EstimationResult, chan: ChannelRealization, beta_prime, p0: float) -> np.ndarray:
    """Per-RRH variance of estimation-error interference plus noise during the
    data phase: sum_k gamma_ik^2 * beta'_k * p0 * mse_ik + n0."""
    bp = _beta_array(beta_prime, chan.n_user, "beta_prime")
    if not p0 > 0:
        raise ParameterError(f"p0 must be positive, got {p0}")
    return (chan.large_scale**2 * est.mse) @ (bp * p0) + est.noise_power


def throughput_lower_bound(
    est: EstimationResult,
    chan: ChannelRealization,
    alpha: float,
    beta_prime,
    p0: float,
) -> float:
    """Achievable sum rate in nats per channel use for one realization.

    (1 - alpha) * logdet(I + R_v^-1 H_hat R_x H_hat^H) with H_hat the
    estimated effective channel (estimate times large-scale gain), R_x the
    diagonal of data powers beta'_k * p0, and R_v the diagonal of
    interference-plus-noise variances. Nonnegative by construction.

    Only the pairs of the estimate's plan enter, scaled into S, and the
    plan's level plan (``_level_plan``) gives log det(I + S^H S); the plan
    makes it once, so a scheme's SNR grid pays for it once. An estimate
    built by hand gets a plan of the nonzeros of its h_hat on each call.
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    bp = _beta_array(beta_prime, chan.n_user, "beta_prime")
    sigma2 = interference_variance(est, chan, bp, p0)
    plan = est.plan if est.plan is not None else _Plan(None, est.h_hat.shape, *np.nonzero(est.h_hat))
    s = (np.take(est.h_hat, plan.flat) * np.take(chan.large_scale, plan.flat)
         * np.sqrt(bp * p0)[plan.user] / np.sqrt(sigma2)[plan.rrh])
    return (1.0 - alpha) * plan.logdet(s)


def _level_plan(shape: tuple, flat: np.ndarray):
    """log det(I + S^H S) as a function of the values S takes on one
    sparsity pattern: ascending flat indices into an (n_rrh, n_user) array.

    Users are ordered by their BFS level in the co-service graph, where users
    estimated by one RRH are adjacent. An RRH's users form a clique, on one
    level or two adjacent ones, and the RRH is grouped at the lower. S is
    scattered into one zeroed matrix whose rows are the RRHs with pairs, by
    (group, index), and whose columns are the users with pairs, by (level,
    index); window l is the slice of group l's rows and levels l and l + 1's
    columns. Its Gram [[A, C], [C^H, F]] adds A to diagonal block l, C to
    block (l, l + 1) and F to block l + 1, so I + S^H S is block tridiagonal.
    With Z_l the Schur complement reached at level l (Z_0 = I + A_0), the
    Cholesky factor of [[Z_l, C], [C^H, I + F]] has Z_l's factor on top and,
    bottom right, a factor R of I + F - C^H Z_l^-1 C, so Z_{l+1} =
    A_{l+1} + R R^H; the log-det sums those of the Z_l (George & Liu 1981).
    A last level with no RRH of its own is covered by the window before it.
    """
    n_rrh, n_user = shape
    rows, cols = np.divmod(flat, n_user)
    level = _bfs_levels(rows, cols, n_rrh, n_user)
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # pairs come sorted by RRH
    group = np.minimum.reduceat(level[cols], first)
    users = np.flatnonzero(level >= 0)
    size = np.bincount(level[users])
    # each user's column and each RRH's row; stable sorts keep index order
    col_of = np.empty(n_user, dtype=np.intp)
    col_of[users[np.argsort(level[users], kind="stable")]] = np.arange(users.size)
    row_of = np.empty(n_rrh, dtype=np.intp)
    row_of[rows[first][np.argsort(group, kind="stable")]] = np.arange(first.size)
    # each call overwrites the same cells, so one matrix serves every call;
    # a fresh one per call had the heap re-fault megabytes
    mat = np.zeros((first.size, users.size), dtype=complex)
    index = row_of[rows] * users.size + col_of[cols]
    col = np.append(0, np.cumsum(size)).tolist()  # level l's columns: col[l]:col[l + 1]
    row = np.append(0, np.cumsum(np.bincount(group, minlength=size.size))).tolist()
    windows = [(mat[row[l]:row[l + 1], col[l]:col[min(l + 2, size.size)]], col[l], m)
               for l, m in enumerate(size.tolist())]
    if len(windows) > 1 and row[-2] == row[-1]:
        windows.pop()
    eye = np.eye(size[:1].sum())  # Z_0 = I + A_0

    def logdet(s: np.ndarray) -> float:
        mat.ravel()[index] = s
        diag = np.empty(users.size)
        r = eye
        for b, start, m in windows:
            width = b.shape[1]
            window = b.conj().T @ b
            window[:m, :m] += r @ r.conj().T
            window.flat[m * (width + 1)::width + 1] += 1.0
            chol = np.linalg.cholesky(window)
            # past m the diagonal is Z_{l+1}'s only in the last window;
            # otherwise the next window overwrites it
            diag[start:start + width] = chol.diagonal().real
            r = chol[m:, m:]
        return 2.0 * float(np.sum(np.log(diag)))

    return logdet


def _bfs_levels(rows: np.ndarray, cols: np.ndarray, n_rrh: int, n_user: int) -> np.ndarray:
    """Level of every user in a BFS of the co-service graph of the (RRH,
    user) pairs, -1 for users in no pair.

    Each connected component is rooted at a peripheral-leaning user: root
    the BFS at the component's lowest index, then move the root once, to
    the user of the last level with the fewest co-served users (pairs at its
    RRHs; ties to the lower index), and keep the moved BFS where it is
    deeper. Deep, narrow levels keep the blocks small; on the shipped
    configs, repeating the move while the BFS deepens (George and Liu 1981)
    changed the total window cost by under 0.1 %. Each BFS is one
    multi-source BFS over all components at once.
    """
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # pairs come sorted by RRH
    counts = np.diff(first, append=rows.size)
    users = np.flatnonzero(np.bincount(cols, minlength=n_user))
    # components: each user takes the least index it reaches
    label = np.arange(n_user)
    while True:
        new = label.copy()
        np.minimum.at(new, cols, np.repeat(np.minimum.reduceat(label[cols], first), counts))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    comp = label[users]
    heads = users[comp == users]  # one per component, which it names
    degree = np.zeros(n_user, dtype=np.intp)
    np.add.at(degree, cols, np.repeat(counts, counts))

    def bfs(roots):
        level = np.full(n_user, -1, dtype=np.intp)
        level[roots] = 0
        front = level == 0
        done = np.zeros(n_rrh, dtype=bool)
        depth = 0
        while True:
            hit = np.zeros(n_rrh, dtype=bool)
            hit[rows[front[cols]]] = True
            hit &= ~done
            done |= hit
            front = np.zeros(n_user, dtype=bool)
            front[cols[hit[rows]]] = True
            front &= level < 0
            if not front.any():
                return level
            depth += 1
            level[front] = depth

    def depths(level):  # indexed by component
        out = np.zeros(n_user, dtype=np.intp)
        np.maximum.at(out, comp, level[users])
        return out

    level = bfs(heads)
    depth = depths(level)
    last = users[level[users] == depth[comp]]
    key = np.full(n_user, np.iinfo(np.intp).max)
    np.minimum.at(key, label[last], degree[last] * n_user + last)
    moved = bfs(key[heads] % n_user)
    return np.where((depths(moved) > depth)[label], moved, level)


def data_power_coefficients(beta, alpha: float, n_user: int) -> np.ndarray:
    """Data-phase coefficients beta'_k = (1 - alpha*beta_k) / (1 - alpha):
    energy unspent during training is spent during data."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    bp = (1.0 - alpha * _beta_array(beta, n_user)) / (1.0 - alpha)
    if np.any(bp < 0):
        raise ParameterError("beta_k exceeds 1/alpha: training energy overdrawn")
    return bp
