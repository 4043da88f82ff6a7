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

from .association import _same_rrh_pairs, color_slots
from .errors import ConsistencyError, ParameterError
from .geometry import NetworkLayout, abs_offsets, _frozen, _rng
from .pilots import PilotBook


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian entries of unit variance."""
    z = rng.standard_normal(size=(2,) + tuple(shape))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def snr_db_to_noise_power(snr_db: float) -> float:
    """Noise power N0 with SNR defined as 1 / N0, at unit power."""
    return 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One block-fading draw.

    small_scale: (n_rrh, n_user) unit-variance complex fading.
    large_scale: (n_rrh, n_user) amplitude gains distance**(-eta/2).
    It also keeps the last plan ``mmse_estimate`` made on it. It carries no
    seed: the training noise is the estimator caller's to pass.
    """

    small_scale: np.ndarray
    large_scale: np.ndarray
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


def generate_channel(layout: NetworkLayout, eta: float, seed) -> ChannelRealization:
    """Draw small-scale fading and compute large-scale gains for a layout.

    ``seed`` (an int or a SeedSequence) seeds the fading draw only; the
    channel does not keep it. Path loss uses the Euclidean distance, floored
    at 1 so a user standing almost on top of an RRH cannot produce an
    unbounded gain. Exactly co-located pairs raise ParameterError.
    """
    if not eta > 0:
        raise ParameterError(f"pathloss exponent must be positive, got {eta}")
    dx, dy = abs_offsets(layout.rrh_xy, layout.user_xy)
    d = np.sqrt(dx * dx + dy * dy)
    if np.any(d == 0.0):
        raise ParameterError("a user coincides exactly with an RRH")
    gains = np.maximum(d, 1.0) ** (-eta / 2.0)
    return ChannelRealization(complex_gaussian(_rng(seed), (layout.n_rrh, layout.n_user)), gains)


@dataclass(frozen=True, eq=False)
class EstimationResult:
    """Per-(RRH, user) channel estimates and their error variances.

    Users outside an RRH's served set keep estimate 0 and error variance 1
    (the prior): nothing about them was learned during training.

    ``mmse_estimate`` also records its plan, which the rate takes the
    pattern and the Gram plan from, and makes ``h_hat`` and ``mse``
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

    The book picks the path. A colored book keeps its color contract
    (``PilotBook`` checks it), so unless an RRH serves two users of one
    color (ConsistencyError, as from ``refine``) every RRH's served pilots
    are orthogonal, and all RRHs are estimated at once in closed form from
    one correlation per color. A free-form book (``color_of`` None) takes a
    dual-form LMMSE that assumes nothing about the pilots: RRHs with equally
    many served users share one stacked SVD. It needs a training length of
    at least every RRH's served-set size, and raises ParameterError naming
    an RRH that serves more users. The tests check both paths against a
    per-RRH regularized solve.

    The work that does not depend on the noise is planned once per book and
    association: the channel keeps its last plan and reuses it while the
    same book and association come back, so a scheme evaluated over an SNR
    grid pays for it once. Each call then works on the served pairs only,
    apart from filling the dense ``h_hat`` and ``mse``. The result carries
    the plan, and its ``h_hat`` and ``mse`` are read-only.

    The training observation is synthesized internally, and its noise comes
    from the caller: ``noise`` (shape (n_rrh, training_length), entries of
    variance n0), or else a draw from ``rng``. With neither, ParameterError.
    """
    if not n0 > 0:
        raise ParameterError(f"noise power must be positive, got {n0}")
    n_rrh, n_user = chan.small_scale.shape
    if book.n_user != n_user or assoc.n_user != n_user or assoc.n_rrh != n_rrh:
        raise ConsistencyError("channel, pilot book and association sizes disagree")
    length = book.training_length
    if noise is None:
        if rng is None:
            raise ParameterError("pass the training noise as noise= or its source as rng=")
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
    ``user`` (flat indices ``flat``), and ``logdet`` is the rate's Gram
    plan of that pattern, made on first use. It refers to none of the three
    objects, so the channel that keeps it forms no reference cycle."""

    def __init__(self, estimate, shape: tuple, rrh: np.ndarray, user: np.ndarray):
        self.estimate, self.shape, self.rrh, self.user = estimate, shape, rrh, user
        self.flat = rrh * shape[1] + user

    def __reduce__(self):  # the closure does not pickle; an estimate's rate reads the pattern only
        return _Plan, (None, self.shape, self.rrh, self.user)

    @cached_property
    def logdet(self):
        return _gram_plan(self.shape, self.flat)


def _plan(chan, book, assoc) -> _Plan:
    """Plan the estimator of (chan, book, assoc): the closed form for a
    colored book, the batched solve for a free-form one."""
    clean = (chan.small_scale * chan.large_scale) @ book.pilots  # noiseless received signal
    estimate = (_batched_plan if book.color_of is None else _decoupled_plan)(chan, book, assoc, clean)
    return _Plan(estimate, chan.small_scale.shape, assoc.rrh, assoc.user)


def _decoupled_plan(chan, book, assoc, clean):
    """Closed-form estimator for a colored book, whose user k sends
    x_k = coef_k rows[c_k]: each weight decouples, and an RRH correlates its
    signal once per color. With a = gamma^2 E and den = a + n0, h_hat =
    gamma conj(coef) (y rows[c]^H) / den and mse = n0 / den + a (S[i, c] -
    a) / den^2, where S[i, c] is the pilot energy RRH i receives on color c.
    """
    rows, cols, colors = assoc.rrh, assoc.user, book.color_of
    n_user, n_colors = colors.size, book.rows.shape[0]
    energy = np.sum(np.abs(book.pilots) ** 2, axis=1)
    at = color_slots(assoc, colors, n_colors)  # raises if an RRH serves one color twice
    base_h = np.ascontiguousarray(book.rows.conj().T)
    # (n_user, n_colors): each user's pilot energy in its color's column
    by_color = np.zeros((n_user, n_colors))
    by_color[np.arange(n_user), colors] = energy
    color_energy = chan.large_scale**2 @ by_color
    g = chan.large_scale[rows, cols]
    a = g * g * energy[cols]
    w = g * book.coef[cols].conj()
    leak = a * (np.take(color_energy, at) - a)

    def estimate(noise, n0):
        den = a + n0
        # (n_rrh x length) @ (length x n_colors), then one entry per pair
        h = w * np.take((clean + noise) @ base_h, at) / den
        return h, n0 / den + leak / den**2

    return estimate


def _batched_plan(chan, book, assoc, clean):
    """Dual-form LMMSE at every RRH; assumes nothing about the pilots.

    RRH i stacks its served users' scaled pilots as A = diag(g) X_in, and
    RRHs serving equally many users share one stacked SVD. With
    A = U diag(s) W^H, its weights (A^H A + n0 I)^-1 A^H are B D U^H with
    B = W diag(s) and D = diag(1 / (s^2 + n0)), so h_hat = conj(U D) (y B).
    The error variance is 1 - aligned + leak. Its first part equals
    |U|^2 (n0 d), a form that does not cancel digits the way
    1 - |U|^2 (s^2 d) does. An RRH serving m users needs m <= L pilot
    dimensions, or ParameterError names it: then the thin SVD gives U one
    column per served user, and served pilots that are dependent show as
    zero singular values. Out-of-set users leak diag(U D P D U^H) with
    P = B^H Q B and Q = sum_{k not served} gamma_k^2 x_k^H x_k. Only d
    depends on n0.
    Taking B from the SVD, not from an eigendecomposition of A A^H, keeps
    exact zeros where A A^H is singular, so those directions add nothing
    instead of rounding residue times 1 / n0.
    """
    rows, cols = assoc.rrh, assoc.user
    x = book.pilots
    length = x.shape[1]
    sizes = np.bincount(rows, minlength=chan.n_rrh)
    if sizes.max(initial=0) > length:
        i = int(np.argmax(sizes))
        raise ParameterError(f"RRH {i} serves {sizes[i]} users but the free-form book has training "
                             f"length {length}: the estimator needs one pilot dimension per served user")
    first = np.cumsum(sizes) - sizes  # each RRH's first pair
    q = _out_of_set_covariance(chan, x, rows, cols)
    groups = []
    for m in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():  # the sizes that occur, 0 aside
        rrh = np.flatnonzero(sizes == m)
        pair = (first[rrh, None] + np.arange(m)).ravel()  # pairs come sorted by RRH
        a = (chan.large_scale[rows[pair], cols[pair], None] * x[cols[pair]]).reshape(rrh.size, m, length)
        u, s, wh = np.linalg.svd(a, full_matrices=False)
        b = _herm(wh) * s[:, None, :]
        p = _herm(b) @ (q[rrh] @ b)
        groups.append((rrh, pair, u, np.abs(u) ** 2, s * s, b, p))
    n_pairs = rows.size

    def estimate(noise, n0):
        y = clean + noise
        h = np.empty(n_pairs, dtype=complex)
        e = np.empty(n_pairs)
        for rrh, pair, u, u_abs2, s2, b, p in groups:
            d = 1.0 / (s2 + n0)
            ud = u * d[:, None, :]
            ud_conj = ud.conj()
            yb = (y[rrh, None, :] @ b).swapaxes(1, 2)
            h[pair] = (ud_conj @ yb).ravel()
            leak = np.real(np.sum((ud @ p) * ud_conj, axis=2))
            e[pair] = ((u_abs2 @ (n0 * d)[:, :, None])[:, :, 0] + leak).ravel()
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

    Only the pairs of the estimate's plan enter, scaled into S; its Gram
    plan (``_gram_plan``, made once per plan) sums their pair products into
    I + S^H S and factors it with one Cholesky. An estimate built by hand
    gets a plan of the nonzeros of its h_hat per call.
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    bp = _beta_array(beta_prime, chan.n_user, "beta_prime")
    sigma2 = interference_variance(est, chan, bp, p0)
    plan = est.plan if est.plan is not None else _Plan(None, est.h_hat.shape, *np.nonzero(est.h_hat))
    s = (np.take(est.h_hat, plan.flat) * np.take(chan.large_scale, plan.flat)
         * np.sqrt(bp * p0)[plan.user] / np.sqrt(sigma2)[plan.rrh])
    return (1.0 - alpha) * plan.logdet(s)


def _gram_plan(shape: tuple, flat: np.ndarray):
    """log det(I + S^H S) as a function of the values S takes on one
    sparsity pattern: ascending flat indices into an (n_rrh, n_user) array.

    G = I + S^H S has one column per user in a pair, in index order. The
    plan keeps every two pairs p <= q of one RRH and the cell of G's lower
    triangle that conj(s_q) s_p adds to; a call sums them into one G with
    one np.add.at. A complete pattern (global-orthogonal's: every RRH with
    pairs serves every user with pairs) fills G with one matrix product
    instead. The log-det sums the logs of the pivots of one Cholesky
    factor, which reads G's lower triangle only.
    """
    rows, cols = np.divmod(flat, shape[1])
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # pairs come sorted by RRH
    users = np.flatnonzero(np.bincount(cols, minlength=shape[1]))
    w = users.size
    # each call refills the same G; a fresh one per call had the heap re-fault megabytes
    gram = np.zeros((w, w), dtype=complex)
    if flat.size == first.size * w:
        def fill(s):
            np.matmul(s.reshape(first.size, w).conj().T, s.reshape(first.size, w), out=gram)
    else:
        col_of = np.empty(shape[1], dtype=np.intp)
        col_of[users] = np.arange(w)
        p, q = _same_rrh_pairs(rows, diagonal=True)  # within an RRH, cols[p] <= cols[q]
        target = col_of[cols[q]] * w + col_of[cols[p]]

        def fill(s):
            gram.fill(0.0)
            np.add.at(gram.ravel(), target, s[q].conj() * s[p])

    def logdet(s: np.ndarray) -> float:
        fill(s)
        gram.flat[::w + 1] += 1.0
        return 2.0 * float(np.sum(np.log(np.linalg.cholesky(gram).diagonal().real)))

    return logdet


def data_power_coefficients(beta, alpha: float, n_user: int) -> np.ndarray:
    """Data-phase coefficients beta'_k = (1 - alpha*beta_k) / (1 - alpha):
    energy unspent during training is spent during data."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    bp = (1.0 - alpha * _beta_array(beta, n_user)) / (1.0 - alpha)
    if np.any(bp < 0):
        raise ParameterError("beta_k exceeds 1/alpha: training energy overdrawn")
    return bp
