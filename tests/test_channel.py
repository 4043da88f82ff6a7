"""Channel draws, MMSE estimation, interference variance, and throughput.

The single-user closed form n0 / (n0 + gamma^2 * pilot_energy) used as the
estimation oracle follows from a rank-one matrix-inversion identity and was
frozen before the implementation existed; the log-det oracles reduce the
matrix rate to scalar arithmetic.
"""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import lotrain.channel as channel_mod
import lotrain.experiments as experiments_mod
from lotrain import (
    AssociationMap,
    ChannelRealization,
    Coloring,
    ConsistencyError,
    EstimationResult,
    ExperimentConfig,
    NetworkLayout,
    ParameterError,
    PilotBook,
    build_conflict_graph,
    build_pilot_book,
    data_power_coefficients,
    dft_rows,
    dsatur,
    generate_channel,
    generate_layout,
    interference_variance,
    mmse_estimate,
    refine,
    run_experiment,
    snr_db_to_noise_power,
    sparsify,
    throughput_lower_bound,
)
from lotrain.experiments import SCHEMES, _throughput_trial, baseline_global_orthogonal, baseline_random_pilots

GAMMA_AT_10_ETA_35 = 0.017782794100389228  # 10 ** -1.75


def layout_from(rrh, users, side=100.0):
    return NetworkLayout(side, np.asarray(rrh, float), np.asarray(users, float))


def one_rrh(n_user):
    """A one-RRH channel: all a caller needs for global-orthogonal's book."""
    return ChannelRealization(np.ones((1, n_user), dtype=complex), np.ones((1, n_user)))


# ------------------------------------------------------------------ fading

def test_large_scale_gains():
    lay = layout_from([[0.0, 0.0]], [[1.0, 0.0], [4.0, 0.0], [10.0, 0.0]])
    ch = generate_channel(lay, 2.0, seed=0)
    assert ch.large_scale[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert ch.large_scale[0, 1] == pytest.approx(0.25, rel=1e-15)
    ch35 = generate_channel(lay, 3.5, seed=0)
    assert ch35.large_scale[0, 2] == pytest.approx(GAMMA_AT_10_ETA_35, rel=1e-12)


def test_large_scale_gains_match_cdist_bits():
    # the distances of the former scipy implementation, bit for bit
    distance = pytest.importorskip("scipy.spatial.distance")
    for seed in range(5):
        lay = generate_layout(40, 70, 100.0, seed=seed)
        ch = generate_channel(lay, 3.5, seed=0)
        d = distance.cdist(lay.rrh_xy, lay.user_xy)
        assert np.array_equal(ch.large_scale, np.maximum(d, 1.0) ** -1.75)


def test_distance_floor_and_degenerate():
    lay = layout_from([[0.0, 0.0]], [[0.25, 0.0]])
    assert generate_channel(lay, 3.5, seed=0).large_scale[0, 0] == 1.0
    co = layout_from([[2.0, 2.0]], [[2.0, 2.0]])
    with pytest.raises(ParameterError, match="a user coincides exactly with an RRH"):
        generate_channel(co, 3.5, seed=0)


def test_channel_parameter_domains():
    lay = generate_layout(2, 2, 10.0, seed=0)
    for eta in (0.0, -1.0, float("nan")):
        with pytest.raises(ParameterError):
            generate_channel(lay, eta, seed=0)


def test_small_scale_unit_variance_and_determinism():
    lay = generate_layout(60, 300, 100.0, seed=1)
    ch = generate_channel(lay, 3.5, seed=9)
    power = np.abs(ch.small_scale) ** 2
    # |h|^2 is Exp(1): sd 1, so the mean of n samples has se 1/sqrt(n)
    assert abs(power.mean() - 1.0) < 3.0 / np.sqrt(power.size)
    again = generate_channel(lay, 3.5, seed=9)
    assert np.array_equal(ch.small_scale, again.small_scale)


# -------------------------------------------------------------- estimation

def single_user_setup(d, n0, beta, p0):
    lay = layout_from([[0.0, 0.0]], [[d, 0.0]])
    assoc = sparsify(lay, d + 1.0)
    book = scaled(build_pilot_book(Coloring(np.array([0]))), beta * p0)
    ch = generate_channel(lay, 3.5, seed=5)
    est = mmse_estimate(ch, book, assoc, n0, rng=np.random.default_rng(0))
    return ch, est


@pytest.mark.parametrize("d,n0,beta,p0", [
    (10.0, 0.1, 1.0, 1.0),
    (3.0, 1.0, 0.5, 2.0),
    (25.0, 0.01, 2.0, 0.3),
])
def test_single_user_closed_form(d, n0, beta, p0):
    ch, est = single_user_setup(d, n0, beta, p0)
    gamma2 = float(ch.large_scale[0, 0]) ** 2
    want = n0 / (n0 + gamma2 * 1 * beta * p0)  # pilot energy = length*beta*p0
    assert est.mse[0, 0] == pytest.approx(want, rel=1e-10)


def test_out_of_set_entries_are_prior():
    lay = layout_from([[0.0, 0.0]], [[1.0, 0.0], [50.0, 50.0]])
    assoc = sparsify(lay, 5.0)
    assert assoc.served_users == ((0,),)
    book = build_pilot_book(Coloring(np.array([0, 0])))
    ch = generate_channel(lay, 3.5, seed=2)
    est = mmse_estimate(ch, book, assoc, 0.1, rng=np.random.default_rng(1))
    assert est.h_hat[0, 1] == 0.0 and est.mse[0, 1] == 1.0


def fully_served_instance(seed, k=6, book_kind="dft"):
    rng = np.random.default_rng(seed)
    users = rng.uniform(5, 45, size=(k, 2))
    lay = layout_from([[25.0, 25.0]], users, side=50.0)
    assoc = sparsify(lay, 100.0)  # the RRH serves everyone: no unmodeled users
    assert assoc.served_users == (tuple(range(k)),)
    if book_kind == "dft":
        col = dsatur(build_conflict_graph(assoc))
        book = build_pilot_book(col)
    else:
        book = baseline_random_pilots(k + 2, k, rng=np.random.default_rng(seed + 1))
    ch = generate_channel(lay, 3.5, seed=seed + 100)
    return lay, assoc, book, ch


@pytest.mark.parametrize("book_kind", ["dft", "random"])
def test_mse_vanishes_and_grows_with_noise_when_fully_served(book_kind):
    for seed in range(8):
        _, assoc, book, ch = fully_served_instance(seed, book_kind=book_kind)
        zeros = np.zeros((1, book.training_length), complex)
        prev = None
        for n0 in (1e-12, 1e-8, 1e-4, 1e-2, 1.0):
            est = mmse_estimate(ch, book, assoc, n0, noise=zeros)
            assert np.all(est.mse > 0.0)
            if n0 == 1e-12:
                assert est.mse.max() < 1e-6  # estimation becomes exact
            if prev is not None:
                assert np.all(est.mse >= prev - 1e-15)  # noise never helps
            prev = est.mse


def test_orthogonal_pilots_decouple_served_users():
    lay = generate_layout(3, 12, 60.0, seed=21)
    assoc = sparsify(lay, 18.0)
    col = dsatur(build_conflict_graph(assoc))
    book = build_pilot_book(col)
    ch = generate_channel(lay, 3.5, seed=22)
    n0 = 0.05
    noise = np.sqrt(n0) * channel_mod.complex_gaussian(np.random.default_rng(3), (3, col.num_colors))
    est = mmse_estimate(ch, book, assoc, n0, noise=noise)
    for i in range(3):
        for k in assoc.served_users[i]:
            # silence every other served user's pilot; same noise
            pilots = book.pilots.copy()
            for m in assoc.served_users[i]:
                if m != k:
                    pilots[m] = 0.0
            alone = type(book)(pilots, book.color_of)
            est_alone = mmse_estimate(ch, alone, assoc, n0, noise=noise)
            assert abs(est.h_hat[i, k] - est_alone.h_hat[i, k]) < 1e-10


def test_mse_nonnegative_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(25):
        lay = generate_layout(int(rng.integers(2, 15)), int(rng.integers(3, 30)), 70.0,
                              seed=int(rng.integers(1 << 31)))
        assoc = sparsify(lay, float(rng.uniform(5, 25)))
        col = dsatur(build_conflict_graph(assoc))
        book = build_pilot_book(col)
        ch = generate_channel(lay, 3.5, seed=int(rng.integers(1 << 31)))
        est = mmse_estimate(ch, book, assoc, float(rng.uniform(1e-4, 1.0)),
                            rng=np.random.default_rng(int(rng.integers(1 << 31))))
        assert np.all(est.mse > 0.0)
        served = np.zeros(est.mse.shape, bool)
        for i, users in enumerate(assoc.served_users):
            served[i, list(users)] = True
        assert np.all(est.mse[~served] == 1.0)
        assert np.all(est.h_hat[~served] == 0.0)


def test_analytic_mse_matches_empirical():
    lay = generate_layout(4, 7, 50.0, seed=31)
    assoc = sparsify(lay, 14.0)
    col = dsatur(build_conflict_graph(assoc))
    book = build_pilot_book(col)
    gamma = generate_channel(lay, 3.5, seed=0).large_scale
    n0 = 0.05
    rng = np.random.default_rng(8)
    trials = 4000
    acc = np.zeros((4, 7))
    analytic = None
    for _ in range(trials):
        h = channel_mod.complex_gaussian(rng, (4, 7))
        ch = ChannelRealization(h, gamma)
        noise = np.sqrt(n0) * channel_mod.complex_gaussian(rng, (4, book.training_length))
        est = mmse_estimate(ch, book, assoc, n0, noise=noise)
        acc += np.abs(h - est.h_hat) ** 2
        analytic = est.mse
    emp = acc / trials
    # per-entry MC se is about mse/sqrt(trials); allow 6 of them
    assert np.max(np.abs(emp - analytic)) < 6.0 * analytic.max() / np.sqrt(trials)


def test_estimation_validation_errors():
    lay = generate_layout(2, 3, 20.0, seed=0)
    assoc = sparsify(lay, 30.0)
    col = dsatur(build_conflict_graph(assoc))
    book = build_pilot_book(col)
    ch = generate_channel(lay, 3.5, seed=1)
    with pytest.raises(ParameterError):
        mmse_estimate(ch, book, assoc, 0.0)
    bad = np.zeros((2, book.training_length + 1), complex)
    with pytest.raises(ConsistencyError):
        mmse_estimate(ch, book, assoc, 0.1, noise=bad)
    # the training noise is the caller's: a channel from an int seed or from
    # a SeedSequence, the harness's seed type, carries no noise source
    for seed in (5, np.random.SeedSequence(5)):
        with pytest.raises(ParameterError, match=r"noise= .* rng="):
            mmse_estimate(generate_channel(lay, 3.5, seed), book, assoc, 0.1)
    short = generate_layout(2, 2, 20.0, seed=0)
    with pytest.raises(ConsistencyError):
        mmse_estimate(generate_channel(short, 3.5, seed=0), book, assoc, 0.1)


def per_rrh_solve(chan, book, assoc, n0, noise):
    """The reference estimator: a regularized LMMSE solve at each RRH, which
    assumes nothing about the pilots."""
    n_rrh, n_user = chan.small_scale.shape
    x = book.pilots
    received = (chan.small_scale * chan.large_scale) @ x + noise
    h_hat = np.zeros((n_rrh, n_user), dtype=complex)
    mse = np.ones((n_rrh, n_user))
    eye = np.eye(book.training_length)
    for i in range(n_rrh):
        users = assoc.served_users[i]
        if not users:
            continue
        u = np.asarray(users, dtype=np.intp)
        g = chan.large_scale[i, u]
        x_in = x[u]
        # regularized in-set pilot covariance, (length x length) Hermitian
        cov = (x_in.conj().T * g**2) @ x_in + n0 * eye
        # column k holds the conjugated weight vector for served user k
        wh = np.linalg.solve(cov, x_in.conj().T * g)
        h_hat[i, u] = received[i] @ wh
        aligned = np.real(g * np.einsum("kl,lk->k", x_in, wh))
        out = np.ones(n_user, dtype=bool)
        out[u] = False
        cross = np.abs(x[out] @ wh) ** 2
        leakage = chan.large_scale[i, out] ** 2 @ cross
        mse[i, u] = 1.0 - aligned + leakage
    return EstimationResult(h_hat, mse, float(n0))


COMPARE_SNR_DB = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)  # configs/compare.cfg's grid


def scaled(book, beta):
    """The book with user k's pilot scaled to energy beta_k times its own: a
    per-user training power, by hand. Scalar beta scales every user."""
    return PilotBook(np.sqrt(np.broadcast_to(beta, (book.n_user,)))[:, None] * book.pilots, book.color_of)


def training_beta(book):
    """Each user's pilot energy over the training length: the per-user
    training power of a hand-scaled book."""
    return np.sum(np.abs(book.pilots) ** 2, axis=1) / book.training_length


def assert_matches_per_rrh_solve(ch, book, assoc, z0, t_coh=100):
    """mmse_estimate against the per-RRH solve over 0-50 dB, on the same
    noise: 1e-8 relative in mse, 1e-9 of the largest |h_hat|, 1e-12
    relative in the rate, whose data powers spend what training leaves."""
    alpha = book.training_length / t_coh
    bp = data_power_coefficients(training_beta(book), alpha, book.n_user)
    for snr in COMPARE_SNR_DB:
        n0 = snr_db_to_noise_power(snr)
        fast = mmse_estimate(ch, book, assoc, n0, noise=np.sqrt(n0) * z0)
        slow = per_rrh_solve(ch, book, assoc, n0, np.sqrt(n0) * z0)
        assert np.all(np.abs(fast.mse - slow.mse) <= 1e-8 * slow.mse)
        assert np.max(np.abs(fast.h_hat - slow.h_hat)) <= 1e-9 * np.max(np.abs(slow.h_hat))
        rate = throughput_lower_bound(slow, ch, alpha, bp, 1.0)
        assert abs(throughput_lower_bound(fast, ch, alpha, bp, 1.0) - rate) <= 1e-12 * rate


@pytest.mark.parametrize("per_user_beta", [False, True])
@pytest.mark.parametrize("scheme", ["proposed", "refined", "global-orthogonal"])
def test_closed_form_matches_per_rrh_solve(scheme, per_user_beta):
    # colored books take the closed form; the per-RRH solve is the reference
    n, k, t_coh = 300, 300, 100
    lay = generate_layout(n, k, 100.0, seed=7)
    assoc = sparsify(lay, 10.0)
    col = dsatur(build_conflict_graph(assoc))
    rng = np.random.default_rng(8)
    beta = rng.uniform(0.5, 1.5, k) if per_user_beta else 1.0
    ch = generate_channel(lay, 3.5, seed=9)
    if scheme == "global-orthogonal":
        active, sub, sub_assoc, book = baseline_global_orthogonal(ch, t_coh, rng)
        book = scaled(book, np.broadcast_to(beta, (k,))[active])
        z0 = channel_mod.complex_gaussian(rng, (n, book.training_length))
        # the padded oracle's inactive users are silent: zero pilots, zero beta
        assert_matches_per_rrh_solve(ch, *padded_global_orthogonal(book, active, n, k), z0, t_coh)
        ch, assoc = sub, sub_assoc
    else:
        book = scaled(build_pilot_book(col), beta)
        if scheme == "refined":
            assoc = refine(assoc, lay, col)
        z0 = channel_mod.complex_gaussian(rng, (n, book.training_length))
    assert_matches_per_rrh_solve(ch, book, assoc, z0, t_coh)


def padded_global_orthogonal(book, active, n_rrh, n_user):
    """The zero-padded formulation of global-orthogonal training: the book
    and association over all n_user users, where the users outside
    ``active`` are silent (zero pilot, color 0) and every RRH estimates
    every active user. The oracle of the active users' problem."""
    pilots = np.zeros((n_user, book.training_length), dtype=complex)
    pilots[active] = book.pilots
    colors = np.zeros(n_user, dtype=np.intp)
    colors[active] = book.color_of
    assoc = AssociationMap(np.repeat(np.arange(n_rrh), active.size), np.tile(active, n_rrh),
                           n_rrh, n_user, float("inf"))
    return PilotBook(pilots, colors), assoc


def padded_rate(chan, book, active, n0, noise, alpha, p0=1.0):
    """The rate of the zero-padded formulation on the full channel, with the
    data powers zeroed off the active set."""
    padded, assoc = padded_global_orthogonal(book, active, chan.n_rrh, chan.n_user)
    bp = np.zeros(chan.n_user)
    bp[active] = data_power_coefficients(1.0, alpha, book.n_user)
    est = mmse_estimate(chan, padded, assoc, n0, noise=noise)
    return throughput_lower_bound(est, chan, alpha, bp, p0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_global_orthogonal_matches_the_padded_book(seed):
    # the active users' problem against the old formulation over all K users
    n, k, t_coh = 300, 300, 100
    ch = generate_channel(generate_layout(n, k, 100.0, seed=seed), 3.5, seed=seed + 10)
    rng = np.random.default_rng(seed + 20)
    active, sub, assoc, book = baseline_global_orthogonal(ch, t_coh, rng)
    assert active.size == t_coh // 2
    alpha = book.training_length / t_coh
    bp = data_power_coefficients(1.0, alpha, book.n_user)
    z0 = channel_mod.complex_gaussian(rng, (n, book.training_length))
    for snr in COMPARE_SNR_DB:
        n0 = snr_db_to_noise_power(snr)
        noise = np.sqrt(n0) * z0
        want = padded_rate(ch, book, active, n0, noise, alpha)
        got = throughput_lower_bound(mmse_estimate(sub, book, assoc, n0, noise=noise), sub, alpha, bp, 1.0)
        assert abs(got - want) <= 1e-12 * want, (snr, got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trial_global_orthogonal_matches_the_padded_book(monkeypatch, seed):
    # the kernel's rates against the padded formulation on the kernel's own
    # channel, active set and noise
    def capture(name):
        out, real = [], getattr(experiments_mod, name)
        monkeypatch.setattr(experiments_mod, name,
                            lambda *a, **kw: out.append((a, kw, real(*a, **kw))) or out[-1][2])
        return out

    channels, baselines, estimates = map(capture, ("generate_channel", "baseline_global_orthogonal",
                                                   "mmse_estimate"))
    cfg = ExperimentConfig("compare", n_rrh=300, n_user=300, side=100.0, threshold=10.0,
                           t_coherence=100, snr_db=COMPARE_SNR_DB, schemes=("global-orthogonal",),
                           seed=seed)
    rates = _throughput_trial((cfg, 300, 10.0, 0))["rates"]
    ((_, _, ch),), ((_, _, (active, sub, assoc, book)),) = channels, baselines
    assert len(estimates) == len(COMPARE_SNR_DB) and active.size == 50
    assert np.array_equal(sub.large_scale, ch.large_scale[:, active])
    for snr, ((est_sub, est_book, est_assoc, n0), kw, _) in zip(COMPARE_SNR_DB, estimates):
        assert est_sub is sub and est_book is book and est_assoc is assoc
        want = padded_rate(ch, book, active, n0, kw["noise"], book.training_length / cfg.t_coherence)
        got = rates[("global-orthogonal", snr)]
        assert abs(got - want) <= 1e-12 * want, (snr, got, want)


def overloaded_instance():
    # RRH 0 serves 8 users, RRH 1 serves 2, RRH 2 nobody, and user 10 no RRH
    # at all
    rng = np.random.default_rng(12)
    users = np.vstack([rng.uniform(2.0, 8.0, size=(8, 2)), [[43.0, 4.0], [47.0, 6.0], [40.0, 40.0]]])
    lay = layout_from([[5.0, 5.0], [45.0, 5.0], [25.0, 45.0]], users, side=50.0)
    assoc = sparsify(lay, 6.0)
    assert assoc.served_users == (tuple(range(8)), (8, 9), ())
    assert 10 not in assoc.user
    return lay, assoc


@pytest.mark.parametrize("per_user_beta", [False, True])
@pytest.mark.parametrize("case", ["n300", "overloaded", "single-user"])
def test_batched_estimate_matches_per_rrh_solve(case, per_user_beta):
    # free-form books take the batched dual form; the per-RRH solve is the
    # reference
    if case == "n300":
        lay = generate_layout(300, 300, 100.0, seed=7)
        assoc = sparsify(lay, 10.0)
        length = dsatur(build_conflict_graph(assoc)).num_colors
    elif case == "overloaded":
        lay, assoc = overloaded_instance()
        length = 8
    else:
        lay = layout_from([[0.0, 0.0], [30.0, 30.0]], [[3.0, 4.0]])
        assoc = sparsify(lay, 10.0)
        length = 1
    k = lay.n_user
    rng = np.random.default_rng(8)
    beta = rng.uniform(0.5, 1.5, k) if per_user_beta else 1.0
    book = baseline_random_pilots(length, k, rng)
    if case == "overloaded":
        # RRH 0's 8 users send on 3 of the 8 pilot dimensions, so its Gram
        # matrix is rank deficient
        x = book.pilots.copy()
        x[:8, 3:] = 0.0
        book = PilotBook(x)
    book = scaled(book, beta)
    ch = generate_channel(lay, 3.5, seed=9)
    z0 = channel_mod.complex_gaussian(rng, (lay.n_rrh, length))
    assert_matches_per_rrh_solve(ch, book, assoc, z0)
    est = mmse_estimate(ch, book, assoc, 0.1, noise=np.sqrt(0.1) * z0)
    served = np.zeros((lay.n_rrh, k), dtype=bool)
    for i, users in enumerate(assoc.served_users):
        served[i, list(users)] = True
    assert np.all(est.mse[~served] == 1.0) and np.all(est.h_hat[~served] == 0.0)
    assert np.all(est.mse[served] > 0.0)


def test_colored_book_with_shared_color_at_an_rrh_raises():
    # two users of one color served by one RRH: the closed form would be
    # wrong, so the colored book is refused with refine's error and the
    # channel keeps no plan; the same rows without colors take the batched
    # solve and agree with the per-RRH solve
    lay = generate_layout(3, 12, 60.0, seed=21)
    assoc = sparsify(lay, 18.0)
    col = dsatur(build_conflict_graph(assoc))
    k, m = assoc.served_users[0][:2]
    colors = col.colors.copy()
    colors[m] = colors[k]
    shared = Coloring(colors)
    book = build_pilot_book(shared)
    ch = generate_channel(lay, 3.5, seed=22)
    noise = np.sqrt(0.05) * channel_mod.complex_gaussian(np.random.default_rng(3), (3, col.num_colors))
    with pytest.raises(ConsistencyError) as refused:
        refine(assoc, lay, shared)
    with pytest.raises(ConsistencyError) as raised:
        mmse_estimate(ch, book, assoc, 0.05, noise=noise)
    assert str(raised.value) == str(refused.value) == "RRH 0 serves two users of the same color"
    assert ch._last_plan is None
    free = dataclasses.replace(book, color_of=None)
    assert free.rows is None and free.coef is None
    est = mmse_estimate(ch, free, assoc, 0.05, noise=noise)
    slow = per_rrh_solve(ch, free, assoc, 0.05, noise)
    assert np.all(np.abs(est.mse - slow.mse) <= 1e-8 * slow.mse)
    assert np.max(np.abs(est.h_hat - slow.h_hat)) <= 1e-9 * np.max(np.abs(slow.h_hat))


def contract_breaking_book(case, col, rng):
    """Free-form rows that break the color contract of ``col`` although no
    RRH serves two users of one color: random unit rows (both parts broken),
    a DFT book with one served user moved halfway onto another color's row
    (that user off its color's row), or one random unit row per color that
    its users share (rows of different colors not orthogonal). Returns the
    free-form book and the error a colored book of those rows raises."""
    k, length = col.colors.size, col.num_colors
    if case == "random":
        x = channel_mod.complex_gaussian(rng, (k, length))
    elif case == "off-row":
        x = build_pilot_book(col).pilots.copy()
        u = next(u for u in range(k) if np.any(col.colors[:u] == col.colors[u]))  # not its color's lead
        x[u] = x[u] + x[int(np.flatnonzero(col.colors != col.colors[u])[0])]
    else:
        x = channel_mod.complex_gaussian(rng, (length, length))[col.colors]
    x = x / np.linalg.norm(x, axis=1)[:, None]
    error = (r"the rows of colors \d+ and \d+ correlate" if case == "crossed"
             else r"user \d+'s pilot has energy off its color's row \(\d+\)")
    return PilotBook(x), error


@pytest.mark.parametrize("case", ["random", "off-row", "crossed"])
def test_colored_book_that_breaks_the_color_contract_raises(monkeypatch, case):
    # the closed form would be wrong for these rows, so a colored book of
    # them is refused where it is built, naming the user or the colors; the
    # rows take the batched solve as a free-form book and agree with the
    # per-RRH solve, and the package's book on the same coloring keeps the
    # closed form
    lay = generate_layout(20, 30, 50.0, seed=3)
    assoc = sparsify(lay, 10.0)
    col = dsatur(build_conflict_graph(assoc))
    assert col.num_colors == 11 and set(assoc.user.tolist()) == set(range(30))
    rng = np.random.default_rng(13)
    book, error = contract_breaking_book(case, col, rng)
    with pytest.raises(ConsistencyError, match=error):
        PilotBook(book.pilots, col.colors)
    ch = generate_channel(lay, 3.5, seed=14)
    noise = np.sqrt(0.01) * channel_mod.complex_gaussian(rng, (20, col.num_colors))
    batched = spy(monkeypatch, channel_mod, "_batched_plan")
    assert_matches_per_rrh_solve(ch, book, assoc, noise / np.sqrt(0.01))
    assert len(batched) == 1
    batched.clear()
    mmse_estimate(ch, build_pilot_book(col), assoc, 0.01, noise=noise)
    assert batched == []


def contract_keeping_book(case):
    """One book of each kind that keeps the color contract at its edges."""
    rng = np.random.default_rng(71)
    col = dsatur(build_conflict_graph(sparsify(generate_layout(20, 30, 50.0, seed=3), 10.0)))
    if case == "beta-zero":
        return scaled(build_pilot_book(col), 0.0)
    if case == "global-orthogonal":
        return baseline_global_orthogonal(one_rrh(300), 100, rng)[3]
    if case == "phased-and-silent":
        scale = rng.uniform(0.3, 1.7, 30) * np.exp(2j * np.pi * rng.random(30))
        scale[np.flatnonzero(col.colors == 1)] = 0.0  # every user of one color
        scale[np.flatnonzero(col.colors == 0)[0]] = 0.0  # and the first of another
        return PilotBook(scale[:, None] * build_pilot_book(col).pilots, col.colors)
    if case == "padded-oracle":
        active, _, _, book = baseline_global_orthogonal(one_rrh(300), 100, rng)
        return padded_global_orthogonal(book, active, 300, 300)[0]
    # criterion 01's shorter DFT books: any colors, some rows unused
    assign = rng.integers(0, 6, size=30)
    return PilotBook(np.sqrt(6.0) * dft_rows(6)[assign], assign)


# books from build_pilot_book at the edges of the accepted powers build in
# test_experiments.py::test_accepted_snr_range_gives_finite_rates
CONTRACT_CASES = ["beta-zero", "global-orthogonal", "phased-and-silent", "padded-oracle", "shorter-dft"]


@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_books_at_the_edges_of_the_color_contract_construct(case):
    # each builds, and its rows and coefficients give back its pilots
    book = contract_keeping_book(case)
    assert not book.rows.flags.writeable and not book.coef.flags.writeable
    rebuilt = book.coef[:, None] * book.rows[book.color_of]
    scale = np.max(np.abs(book.pilots))
    assert np.max(np.abs(rebuilt - book.pilots), initial=0.0) <= 1e-14 * scale
    norms = np.linalg.norm(book.rows, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-14) | (norms == 0.0))


def test_global_orthogonal_book_keeps_its_rows_bit_for_bit():
    # built from the coloring that gives active user j color j, the book
    # holds the rows the scheme was defined with
    for t_coh, n_user in ((100, 300), (20, 6), (2, 1)):
        active, _, _, book = baseline_global_orthogonal(one_rrh(n_user), t_coh, np.random.default_rng(5))
        length = active.size
        assert np.array_equal(book.pilots, np.sqrt(length) * dft_rows(length))
        assert np.array_equal(book.color_of, np.arange(length))


def test_trial_takes_the_solve_for_free_form_books_only(monkeypatch):
    # across every scheme of one trial, the batched solve plans the random
    # pilots alone, and every colored book takes the closed form
    batched = spy(monkeypatch, channel_mod, "_batched_plan")
    decoupled = spy(monkeypatch, channel_mod, "_decoupled_plan")
    cfg = ExperimentConfig("compare", n_rrh=20, n_user=30, side=40.0, threshold=10.0,
                           snr_db=(0.0, 20.0, 40.0), schemes=SCHEMES, t_coherence=60)
    _throughput_trial((cfg, 30, 10.0, 0))
    assert [args[1].color_of is None for args in batched] == [True]
    assert len(decoupled) == 3 and all(args[1].color_of is not None for args in decoupled)


def spy(monkeypatch, owner, name):
    """Record the positional arguments of every call to owner.name."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_decoupled_plan_on_phased_and_silent_users(monkeypatch):
    # the color contract allows any complex scale per user: give every user
    # its own phase and amplitude, silence a few served users (among them the
    # lowest-indexed user of a color, and every user of another color), and
    # the closed form still agrees with the per-RRH solve at 0-50 dB
    n, k = 60, 80
    lay = generate_layout(n, k, 50.0, seed=51)
    assoc = sparsify(lay, 9.0)
    col = dsatur(build_conflict_graph(assoc))
    rng = np.random.default_rng(52)
    scale = rng.uniform(0.3, 1.7, k) * np.exp(2j * np.pi * rng.random(k))
    silent = [int(np.flatnonzero(col.colors == 0)[0]), *np.flatnonzero(col.colors == 1).tolist()]
    scale[silent] = 0.0
    assert set(silent) <= set(assoc.user.tolist()) and col.num_colors > 2
    base = build_pilot_book(col)
    book = PilotBook(scale[:, None] * base.pilots, col.colors)
    ch = generate_channel(lay, 3.5, seed=53)
    z0 = channel_mod.complex_gaussian(rng, (n, col.num_colors))
    plans = spy(monkeypatch, channel_mod, "_decoupled_plan")
    batched = spy(monkeypatch, channel_mod, "_batched_plan")
    assert_matches_per_rrh_solve(ch, book, assoc, z0)
    assert len(plans) == 1 and batched == []  # the closed form, planned once for six SNRs
    est = mmse_estimate(ch, book, assoc, 1e-3, noise=np.sqrt(1e-3) * z0)
    assert np.all(est.h_hat[:, silent] == 0.0) and np.all(est.mse[:, silent] == 1.0)
    # the silent users' pairs stay in the plan's pattern, with zero values; a
    # hand-built copy's pattern, its nonzeros, leaves them out
    bp = data_power_coefficients(np.abs(scale) ** 2, 0.2, k)
    rate = assert_rate_matches_dense(est, ch, bp, 0.2)
    assert np.array_equal(est.plan.flat, assoc.rrh * k + assoc.user)
    grams = spy(monkeypatch, channel_mod, "_gram_plan")
    by_hand = manual_est(est.h_hat.copy(), est.mse.copy(), 1e-3)
    assert abs(throughput_lower_bound(by_hand, ch, 0.2, bp, 1.0) - rate) <= 1e-12 * rate
    ((rows, cols, _),) = grams
    assert rows.size == cols.size == assoc.rrh.size - np.isin(assoc.user, silent).sum()


def set_size_instance():
    """Ten RRHs on L = 4 pilot dimensions whose served sets hold 0, 1, 2, 3
    and 4 users, with repeated pilots inside sets of 2, 3 and 4 (rank
    deficient), one user who sends nothing and one no RRH serves."""
    served = [[], [0], [1, 2], [3, 4, 5, 6], [8, 9, 10, 11], [12, 13, 14], [],
              [14], [2, 9, 15], [1, 2, 3]]
    rrh = np.repeat(np.arange(len(served)), [len(s) for s in served])
    assoc = AssociationMap(rrh, np.concatenate([np.array(s, np.intp) for s in served]),
                           len(served), 16, 1.0)
    rng = np.random.default_rng(61)
    x = baseline_random_pilots(4, 16, rng).pilots.copy()
    x[2] = np.exp(0.7j) * x[1]  # one direction at RRHs 2, 8 and 9
    x[9] = 0.5 * x[8]  # two pairs of one direction at RRH 4
    x[11] = x[10]
    x[12] = 0.0  # silent, at RRH 5; user 7 is served by nobody
    book = PilotBook(x)
    ch = generate_channel(generate_layout(10, 16, 30.0, seed=62), 3.5, seed=63)
    return ch, book, assoc, channel_mod.complex_gaussian(rng, (10, 4))


def test_batched_plan_on_every_set_size(monkeypatch):
    ch, book, assoc, z0 = set_size_instance()
    svds = spy(monkeypatch, np.linalg, "svd")
    assert_matches_per_rrh_solve(ch, book, assoc, z0)
    # one SVD per set size that occurs, each on the true size: (size, RRHs)
    assert sorted(a[0].shape[1::-1] for a in svds) == [(1, 2), (2, 1), (3, 3), (4, 2)]
    est = mmse_estimate(ch, book, assoc, 1e-4, noise=1e-2 * z0)
    assert np.all(est.mse[[0, 6]] == 1.0) and np.all(est.h_hat[[0, 6]] == 0.0)
    for user in (7, 12):
        assert np.all(est.h_hat[:, user] == 0.0) and np.all(est.mse[:, user] == 1.0)
    assert np.all(est.mse[assoc.rrh, assoc.user] > 0.0)


@pytest.mark.parametrize("case", ["overloaded", "set-sizes-6-and-8", "set-size-6"])
def test_batched_plan_refuses_more_users_than_pilot_dimensions(monkeypatch, case):
    # an RRH that serves m users on L < m pilot dimensions is refused before
    # any SVD, naming the largest such RRH, m and L. A trial never gets
    # here: random-pilot's length is DSATUR's color count, and each served
    # set is a clique of the conflict graph, so m <= chi <= L
    if case == "overloaded":
        lay, assoc = overloaded_instance()
        ch = generate_channel(lay, 3.5, seed=9)
        book = baseline_random_pilots(3, lay.n_user, np.random.default_rng(8))
        want = "RRH 0 serves 8 users but the free-form book has training length 3"
    else:
        ch, book, _, _ = set_size_instance()
        served = [[], [0], list(range(8)), list(range(8, 14)), [1, 2, 3]]
        want = "RRH 2 serves 8 users but the free-form book has training length 4"
        if case == "set-size-6":
            served[2] = [14, 15]
            want = "RRH 3 serves 6 users but the free-form book has training length 4"
        served += [[]] * (ch.n_rrh - len(served))
        rrh = np.repeat(np.arange(ch.n_rrh), [len(u) for u in served])
        assoc = AssociationMap(rrh, np.concatenate([np.array(u, np.intp) for u in served]),
                               ch.n_rrh, ch.n_user, 1.0)
    svds = spy(monkeypatch, np.linalg, "svd")
    noise = np.zeros((ch.n_rrh, book.training_length), complex)
    with pytest.raises(ParameterError, match=want):
        mmse_estimate(ch, book, assoc, 0.1, noise=noise)
    assert svds == [] and ch._last_plan is None


def test_estimate_records_its_pairs_and_is_read_only():
    ch, cases, z0 = memo_instance()
    for book, assoc in cases.values():
        est = mmse_estimate(ch, book, assoc, 0.01, noise=0.1 * z0)
        assert est.plan.rrh is assoc.rrh and est.plan.user is assoc.user
        for a in (est.h_hat, est.mse):
            with pytest.raises(ValueError):
                a[0, 0] = 0.5
        # the rate reads the plan's pairs; a hand-built copy, the nonzeros
        bp = data_power_coefficients(1.0, 0.25, book.n_user)
        rate = assert_rate_matches_dense(est, ch, bp, 0.25)
        by_hand = manual_est(est.h_hat.copy(), est.mse.copy(), 0.01)
        assert by_hand.plan is None
        assert throughput_lower_bound(by_hand, ch, 0.25, bp, 1.0) == rate
        # a pickled estimate keeps its plan's pattern, for the rate; a
        # pickled channel leaves its plan behind and plans afresh
        chan, book2, assoc2, est2 = pickle.loads(pickle.dumps((ch, book, assoc, est)))
        assert chan._last_plan is None and np.array_equal(est2.plan.flat, est.plan.flat)
        assert throughput_lower_bound(est2, chan, 0.25, bp, 1.0) == rate
        again = mmse_estimate(chan, book2, assoc2, 0.01, noise=0.1 * z0)
        assert np.array_equal(again.h_hat, est.h_hat) and np.array_equal(again.mse, est.mse)


def memo_instance():
    """A channel and, per scheme, the (book, association) a trial would
    build: every array read-only. Proposed and refined share the book."""
    lay = generate_layout(40, 60, 50.0, seed=3)
    assoc = sparsify(lay, 10.0)
    col = dsatur(build_conflict_graph(assoc))
    ch = generate_channel(lay, 3.5, seed=4)
    book = build_pilot_book(col)
    cases = {"proposed": (book, assoc), "refined": (book, refine(assoc, lay, col)),
             "random": (baseline_random_pilots(col.num_colors, 60, rng=np.random.default_rng(5)), assoc)}
    z0 = channel_mod.complex_gaussian(np.random.default_rng(6), (40, col.num_colors))
    return ch, cases, z0


MEMO_SEQUENCE = (("proposed", 10.0), ("random", 10.0), ("proposed", 10.0), ("proposed", 30.0),
                 ("refined", 30.0), ("random", 30.0), ("random", 10.0))


def memo_sequence(fresh: bool) -> list:
    """h_hat and mse of each call in MEMO_SEQUENCE; with ``fresh`` every
    call gets a new copy of the channel, which holds no plan yet, so each
    one plans from scratch."""
    ch, cases, z0 = memo_instance()
    out = []
    for name, snr in MEMO_SEQUENCE:
        n0 = snr_db_to_noise_power(snr)
        chan = dataclasses.replace(ch) if fresh else ch
        est = mmse_estimate(chan, *cases[name], n0, noise=np.sqrt(n0) * z0)
        out += [est.h_hat, est.mse]
    return out


def test_memo_matches_a_fresh_process_bit_for_bit(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
    out = tmp_path / "fresh.npz"
    script = f"import numpy, test_channel; numpy.savez({str(out)!r}, *test_channel.memo_sequence(True))"
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300)
    fresh = np.load(out)
    ours = memo_sequence(False)
    assert len(ours) == len(fresh.files) == 2 * len(MEMO_SEQUENCE)
    for j, arr in enumerate(ours):
        assert np.array_equal(arr, fresh[f"arr_{j}"])


def test_memo_plans_once_per_run_and_holds_one_plan(monkeypatch):
    ch, cases, z0 = memo_instance()
    names = {(id(b), id(a)): name for name, (b, a) in cases.items()}
    planned = []
    plan = channel_mod._plan
    monkeypatch.setattr(channel_mod, "_plan",
                        lambda c, b, a: planned.append(names.get((id(b), id(a)))) or plan(c, b, a))
    for name, snr in MEMO_SEQUENCE:
        mmse_estimate(ch, *cases[name], snr_db_to_noise_power(snr), noise=z0)
    # a new plan only where the book or the association changes
    assert planned == ["proposed", "random", "proposed", "refined", "random"]
    last = ch._last_plan
    assert last[0] is cases["random"][0] and last[1] is cases["random"][1]
    # each channel keeps its own plan: another one plans afresh and leaves it
    other = dataclasses.replace(ch)
    assert other._last_plan is None
    mmse_estimate(other, *cases["random"], 0.01, noise=z0)
    assert len(planned) == 6 and ch._last_plan is last and other._last_plan[2] is not last[2]
    book = weakref.ref(cases.pop("proposed")[0])
    del cases["refined"]
    gc.collect()
    assert book() is None  # no earlier plan keeps its book alive
    # a trial plans once per scheme, however many SNRs it runs
    planned.clear()
    cfg = ExperimentConfig("compare", n_rrh=20, n_user=30, side=40.0, threshold=10.0,
                           snr_db=(0.0, 20.0, 40.0), schemes=SCHEMES, t_coherence=60)
    _throughput_trial((cfg, 30, 10.0, 0))
    assert len(planned) == len(SCHEMES)


@pytest.mark.parametrize("book_kind", ["proposed", "random"])
@pytest.mark.parametrize("changed", ["small_scale", "large_scale", "pilots", "viewed"])
def test_memo_sees_arrays_changed_in_place(changed, book_kind):
    # a source array, or a read-only view of a writeable one, may change in
    # place between calls: values built from it afterwards must see the new
    # entries, while the values built before keep the old ones and their plan
    ch, cases, z0 = memo_instance()
    book, assoc = cases[book_kind]
    arrays = {"small_scale": ch.small_scale, "large_scale": ch.large_scale, "pilots": book.pilots}
    key = "small_scale" if changed == "viewed" else changed
    target = arrays[key] = arrays[key].copy()
    if changed == "viewed":
        arrays[key] = target.view()
        arrays[key].flags.writeable = False

    def build():
        return (ChannelRealization(arrays["small_scale"], arrays["large_scale"]),
                dataclasses.replace(book, pilots=arrays["pilots"]))

    old = build()
    noise = 0.1 * z0
    before = mmse_estimate(*old, assoc, 0.01, noise=noise)
    target *= 0.5
    after = mmse_estimate(*build(), assoc, 0.01, noise=noise)
    again = mmse_estimate(*old, assoc, 0.01, noise=noise)
    want = mmse_estimate(*build(), assoc, 0.01, noise=noise)
    assert np.array_equal(after.h_hat, want.h_hat) and np.array_equal(after.mse, want.mse)
    assert not (np.array_equal(before.h_hat, after.h_hat) and np.array_equal(before.mse, after.mse))
    assert np.array_equal(again.h_hat, before.h_hat) and np.array_equal(again.mse, before.mse)


SOURCE_CASES = [(source, kind) for source in ("small_scale", "large_scale", "pilots", "color_of",
                                              "rrh", "user")
                for kind in ("proposed", "random") if (source, kind) != ("color_of", "random")]


@pytest.mark.parametrize("source,book_kind", SOURCE_CASES, ids=["-".join(c) for c in SOURCE_CASES])
def test_memo_holds_values_whose_source_arrays_change(source, book_kind):
    # the channel keys its plan on the identity of the book and the
    # association, which is sound only because every constructor copies the
    # arrays it is given: a source array changed afterwards reaches neither
    # the value nor its plan
    ch, cases, z0 = memo_instance()
    book, assoc = cases[book_kind]
    given = {"small_scale": ch.small_scale, "large_scale": ch.large_scale, "pilots": book.pilots,
             "color_of": book.color_of, "rrh": assoc.rrh, "user": assoc.user}
    given = {name: a.copy() for name, a in given.items() if a is not None}
    ch = ChannelRealization(given["small_scale"], given["large_scale"])
    book = PilotBook(given["pilots"], given.get("color_of"))
    assoc = AssociationMap(given["rrh"], given["user"], assoc.n_rrh, assoc.n_user, assoc.threshold)
    owner = {"small_scale": ch, "large_scale": ch, "rrh": assoc, "user": assoc}.get(source, book)
    held = getattr(owner, source)
    kept = held.copy()
    noise = 0.1 * z0
    before = mmse_estimate(ch, book, assoc, 0.01, noise=noise)
    given[source] += 1
    assert np.array_equal(held, kept)
    after = mmse_estimate(ch, book, assoc, 0.01, noise=noise)
    fresh = mmse_estimate(dataclasses.replace(ch), book, assoc, 0.01, noise=noise)
    for est in (after, fresh):
        assert np.array_equal(est.h_hat, before.h_hat) and np.array_equal(est.mse, before.mse)


# ------------------------------------------------- variance and throughput

def manual_est(h_hat, mse, n0):
    return EstimationResult(np.asarray(h_hat, complex), np.asarray(mse, float), n0)


def manual_chan(gamma):
    g = np.asarray(gamma, float)
    return ChannelRealization(np.zeros_like(g, dtype=complex), g)


def test_interference_variance_hand_example():
    est = manual_est([[0.0, 0.0]], [[0.2, 0.5]], n0=0.1)
    chan = manual_chan([[2.0, 3.0]])
    got = interference_variance(est, chan, np.array([1.0, 2.0]), p0=0.5)
    # 4*1*0.5*0.2 + 9*2*0.5*0.5 + 0.1
    assert got.shape == (1,) and got[0] == pytest.approx(5.0, rel=1e-14)


def test_interference_variance_validation():
    est = manual_est([[0.0]], [[0.5]], n0=0.1)
    chan = manual_chan([[1.0]])
    with pytest.raises(ParameterError):
        interference_variance(est, chan, -1.0, p0=1.0)
    with pytest.raises(ConsistencyError):
        interference_variance(est, chan, np.array([1.0, 1.0]), p0=1.0)


def test_throughput_zero_estimate_zero_rate():
    est = manual_est(np.zeros((3, 4)), np.ones((3, 4)), n0=0.2)
    chan = manual_chan(np.full((3, 4), 0.1))
    assert throughput_lower_bound(est, chan, 0.25, 1.0, 1.0) == 0.0


def test_throughput_scalar_oracle():
    h_hat, gamma, mse, n0, alpha, bp, p0 = 1.3 - 0.4j, 0.7, 0.3, 0.05, 0.2, 1.25, 2.0
    est = manual_est([[h_hat]], [[mse]], n0)
    chan = manual_chan([[gamma]])
    sigma2 = gamma**2 * bp * p0 * mse + n0
    want = (1 - alpha) * np.log(1 + abs(h_hat * gamma) ** 2 * bp * p0 / sigma2)
    got = throughput_lower_bound(est, chan, alpha, bp, p0)
    assert got == pytest.approx(want, rel=1e-8)


def test_throughput_block_diagonal_oracle():
    h_hat = np.array([[0.9 + 0.2j, 0.0], [0.0, 1.4 - 1.0j]])
    mse = np.array([[0.1, 0.8], [0.7, 0.05]])
    gamma = np.array([[0.5, 0.2], [0.1, 0.6]])
    bp = np.array([1.0, 1.5])
    n0, alpha, p0 = 0.02, 0.3, 1.2
    est = manual_est(h_hat, mse, n0)
    chan = manual_chan(gamma)
    sigma2 = (gamma**2 * mse) @ (bp * p0) + n0
    want = sum(
        (1 - alpha) * np.log(1 + abs(h_hat[i, i] * gamma[i, i]) ** 2 * bp[i] * p0 / sigma2[i])
        for i in range(2)
    )
    assert throughput_lower_bound(est, chan, alpha, bp, p0) == pytest.approx(want, rel=1e-8)


def test_throughput_alpha_domain_and_nonnegativity():
    est = manual_est([[1.0]], [[0.5]], 0.1)
    chan = manual_chan([[1.0]])
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ParameterError):
            throughput_lower_bound(est, chan, alpha, 1.0, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        est = manual_est(channel_mod.complex_gaussian(rng, (n, k)), rng.uniform(0.01, 1.0, (n, k)), 0.1)
        chan = manual_chan(rng.uniform(0.05, 1.0, (n, k)))
        assert throughput_lower_bound(est, chan, 0.3, 1.0, 1.0) >= 0.0


def dense_rate(est, chan, alpha, beta_prime, p0):
    """The reference rate: the dense Gram of the scaled effective channel,
    on its smaller side, and one Cholesky."""
    bp = np.broadcast_to(np.asarray(beta_prime, float), (chan.n_user,))
    sigma2 = interference_variance(est, chan, bp, p0)
    s = est.h_hat * chan.large_scale * np.sqrt(bp * p0)[None, :] / np.sqrt(sigma2)[:, None]
    s = s[:, np.any(s != 0, axis=0)]
    if s.shape[1] == 0:
        return 0.0
    gram = s.conj().T @ s if s.shape[1] <= s.shape[0] else s @ s.conj().T
    chol = np.linalg.cholesky(np.eye(gram.shape[0]) + gram)
    return (1.0 - alpha) * 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def assert_rate_matches_dense(est, chan, bp, alpha=0.3, p0=1.0):
    want = dense_rate(est, chan, alpha, bp, p0)
    got = throughput_lower_bound(est, chan, alpha, bp, p0)
    assert abs(got - want) <= 1e-12 * want, (got, want)
    return got


def pattern_instance(rng, mask, n0=1e-5):
    """A hand-built estimate that is nonzero exactly on mask, with gains and
    data powers to match. The default n0 is 50 dB, where the Gram is far
    from the identity."""
    n, k = mask.shape
    h_hat = np.where(mask, channel_mod.complex_gaussian(rng, (n, k)), 0.0)
    mse = np.where(mask, rng.uniform(0.01, 1.0, (n, k)), 1.0)
    est = manual_est(h_hat, mse, n0)
    return est, manual_chan(rng.uniform(0.05, 2.0, (n, k))), rng.uniform(0.5, 1.5, k)


def components_mask(rng, n, k, n_parts):
    """A random pattern of n_parts disconnected parts, among them one RRH
    serving a user alone, with rows and columns shuffled."""
    rrh_part = np.sort(np.append(rng.integers(0, n_parts, n - 1), 0))
    user_part = np.sort(np.append(rng.integers(0, n_parts, k - 1), 0))
    mask = (rrh_part[:, None] == user_part[None, :]) & (rng.random((n, k)) < 0.4)
    mask[0] = False
    mask[:, 0] = False
    mask[0, 0] = True  # RRH 0 serves user 0 and nobody else serves either
    return mask[rng.permutation(n)][:, rng.permutation(k)]


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (1, 9), (20, 35), (35, 20), (60, 60)])
@pytest.mark.parametrize("density", [0.02, 0.08, 0.3, 1.0])  # 1.0: a dense book, one product
def test_rate_matches_dense_cholesky_on_random_patterns(shape, density):
    rng = np.random.default_rng(hash((shape, density)) % 2**32)
    for n0 in (1e-5, 1.0):
        for _ in range(5):
            mask = rng.random(shape) < density
            assert_rate_matches_dense(*pattern_instance(rng, mask, n0))


def test_rate_matches_dense_cholesky_on_disconnected_patterns():
    rng = np.random.default_rng(31)
    for n, k, parts in ((40, 50, 12), (60, 40, 30), (30, 90, 8), (80, 80, 80)):
        for _ in range(4):
            assert_rate_matches_dense(*pattern_instance(rng, components_mask(rng, n, k, parts)))


def test_rate_matches_dense_cholesky_with_empty_rows_and_columns():
    rng = np.random.default_rng(32)
    for _ in range(10):
        mask = rng.random((40, 50)) < 0.1
        mask[rng.choice(40, 12, replace=False)] = False
        mask[:, rng.choice(50, 15, replace=False)] = False
        assert_rate_matches_dense(*pattern_instance(rng, mask))
    est, chan, bp = pattern_instance(rng, np.zeros((5, 6), dtype=bool))
    assert throughput_lower_bound(est, chan, 0.3, bp, 1.0) == 0.0


@pytest.mark.parametrize("band", [2, 3, 5])
def test_rate_matches_dense_cholesky_on_a_chain(band):
    # RRH i serves users i .. i + band - 1: the co-service graph is a path of
    # cliques, and shuffled columns scatter each RRH's products across G
    n, k = 60, 60 + band - 1
    mask = np.zeros((n, k), dtype=bool)
    for i in range(n):
        mask[i, i:i + band] = True
    rng = np.random.default_rng(band)
    for perm in (np.arange(k), rng.permutation(k)):
        est, chan, bp = pattern_instance(rng, mask[:, perm])
        assert_rate_matches_dense(est, chan, bp)


def test_rate_matches_dense_cholesky_with_products_in_the_lower_triangle():
    # RRH 2 serves users 0, 3 and 5, RRH 0 users 1 and 3, RRH 1 users 1, 2
    # and 4: every product of two users of one RRH must land in G's lower
    # triangle, the only one the Cholesky factor reads, and users 1 and 3,
    # served twice, sum two products on the diagonal
    mask = np.zeros((3, 6), dtype=bool)
    for rrh, users in ((2, [0, 3, 5]), (0, [1, 3]), (1, [1, 2, 4])):
        mask[rrh, users] = True
    rng = np.random.default_rng(37)
    for n0 in (1e-5, 1.0):
        for _ in range(5):
            assert_rate_matches_dense(*pattern_instance(rng, mask, n0))


@pytest.mark.parametrize("scheme", ["proposed", "refined", "random-pilot", "global-orthogonal"])
def test_rate_matches_dense_cholesky_on_each_scheme(scheme):
    n, k, t_coh = 300, 300, 100
    lay = generate_layout(n, k, 100.0, seed=41)
    assoc = sparsify(lay, 10.0)
    col = dsatur(build_conflict_graph(assoc))
    rng = np.random.default_rng(42)
    ch = generate_channel(lay, 3.5, seed=43)
    if scheme == "global-orthogonal":
        _, ch, assoc, book = baseline_global_orthogonal(ch, t_coh, rng)
    elif scheme == "random-pilot":
        book = baseline_random_pilots(col.num_colors, k, rng=rng)
    else:
        book = build_pilot_book(col)
        if scheme == "refined":
            assoc = refine(assoc, lay, col)
    alpha = book.training_length / t_coh
    bp = data_power_coefficients(1.0, alpha, book.n_user)
    z0 = channel_mod.complex_gaussian(rng, (n, book.training_length))
    for snr in (0.0, 50.0):
        n0 = snr_db_to_noise_power(snr)
        est = mmse_estimate(ch, book, assoc, n0, noise=np.sqrt(n0) * z0)
        assert_rate_matches_dense(est, ch, bp, alpha)


def gram_fills(monkeypatch):
    """The Gram fill of every log-det call, in call order: ("pairs",) where
    it summed pair products with np.add.at, ("product",) where it took one
    np.matmul. Channel's numpy is replaced by a recording stand-in."""
    fills, calls = [], []
    real = channel_mod._gram_plan

    class Add:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def at(self, *args):
            calls.append("pairs")
            return np.add.at(*args)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, *args, **kwargs):
            calls.append("product")
            return np.matmul(*args, **kwargs)

    def plan(rows, cols, n_user):
        logdet = real(rows, cols, n_user)

        def spied(s):
            calls.clear()  # only the calls of this log-det count
            value = logdet(s)
            fills.append(tuple(calls))
            return value

        return spied

    monkeypatch.setattr(channel_mod, "np", Numpy())
    monkeypatch.setattr(channel_mod, "_gram_plan", plan)
    return fills


def planned_est(rng, mask, n0=1e-5):
    """pattern_instance's estimate, carrying a plan of its mask as an
    estimator's plan would, so values of one pattern share one Gram plan."""
    est, chan, bp = pattern_instance(rng, mask, n0)
    return dataclasses.replace(est, plan=channel_mod._Plan(None, mask.shape, *np.nonzero(mask))), chan, bp


@pytest.mark.parametrize("complete", [False, True])
def test_gram_plan_called_again_gives_the_same_bits(complete):
    # s1, s2, s1 on one plan: the third value equals the first bit for bit,
    # so no product of s2 and no factor stays in the plan's reused G
    rng = np.random.default_rng(38)
    if complete:
        mask = np.ones((12, 9), dtype=bool)
    else:
        mask = np.zeros((40, 42), dtype=bool)
        for i in range(40):
            mask[i, i:i + 3] = True
        mask = mask[:, rng.permutation(42)]
    est, chan, bp = planned_est(rng, mask)
    other = dataclasses.replace(est, h_hat=est.h_hat * rng.uniform(0.1, 10.0, mask.shape))
    first = assert_rate_matches_dense(est, chan, bp)
    assert assert_rate_matches_dense(other, chan, bp) != first
    assert assert_rate_matches_dense(est, chan, bp) == first


def test_rate_takes_one_product_on_complete_patterns_only(monkeypatch):
    # one RRH serves every user beside RRHs that serve a few: not complete,
    # so its G sums pair products. Every RRH with pairs serving every user
    # with pairs, here beside an idle RRH and an unserved user, makes it
    # complete: its G is one product. Either way each call factors G once
    fills = gram_fills(monkeypatch)
    factors = spy(monkeypatch, np.linalg, "cholesky")
    rng = np.random.default_rng(39)
    hub = rng.random((30, 25)) < 0.08
    hub[7] = True
    complete = np.ones((30, 25), dtype=bool)
    complete[4] = False
    complete[:, 11] = False
    for mask, path in ((hub, "pairs"), (complete, "product")):
        for n0 in (1e-5, 1.0):
            fills.clear()
            est, chan, bp = planned_est(rng, mask, n0)
            for _ in range(2):
                factors.clear()
                assert_rate_matches_dense(est, chan, bp)
                assert len(factors) == 2  # the rate's and the dense oracle's
            assert fills == [(path,), (path,)]


def test_trial_takes_one_product_for_global_orthogonal_alone(monkeypatch):
    # refined's co-service graph is nearly complete at full size, yet only
    # global-orthogonal's pattern (every RRH serves every active user) is
    cfg = ExperimentConfig("compare", n_rrh=300, n_user=300, side=100.0, threshold=10.0,
                           snr_db=(0.0, 50.0), schemes=SCHEMES, t_coherence=100)
    fills = gram_fills(monkeypatch)
    _throughput_trial((cfg, 300, 10.0, 0))
    paths = [("product",) if s == "global-orthogonal" else ("pairs",) for s in SCHEMES for _ in cfg.snr_db]
    assert fills == paths


def test_gram_plan_belongs_to_the_estimator_plan(monkeypatch):
    # the estimator's plan makes the Gram plan of its pairs on first use and
    # keeps it for every SNR; an estimate built by hand has no plan, so its
    # nonzeros are planned on each call
    planned = spy(monkeypatch, channel_mod, "_gram_plan")
    ch, cases, z0 = memo_instance()
    book, assoc = cases["proposed"]
    bp = data_power_coefficients(1.0, 0.25, book.n_user)
    ests = [mmse_estimate(ch, book, assoc, n0, noise=np.sqrt(n0) * z0) for n0 in (0.1, 0.01)]
    assert planned == []
    for est in ests + ests:
        assert_rate_matches_dense(est, ch, bp, 0.25)
    ((rows, cols, _),) = planned
    assert rows is ests[0].plan.rrh and cols is ests[0].plan.user
    # new values on the same plan keep its Gram plan
    assert_rate_matches_dense(dataclasses.replace(ests[0], h_hat=2.0 * ests[0].h_hat), ch, bp, 0.25)
    by_hand = manual_est(ests[0].h_hat.copy(), ests[0].mse.copy(), 0.1)
    assert_rate_matches_dense(by_hand, ch, bp, 0.25)
    assert_rate_matches_dense(by_hand, ch, bp, 0.25)
    assert len(planned) == 3
    # the Gram plan lives as long as its estimator plan: once the channel
    # moves to another plan, only the estimates hold it
    held = weakref.ref(ests[0].plan.logdet)
    mmse_estimate(ch, *cases["refined"], 0.1, noise=np.sqrt(0.1) * z0)
    assert held() is not None
    del ests, est
    assert held() is None


def test_gram_plan_sees_h_hat_changed_in_place():
    rng = np.random.default_rng(35)
    est, chan, bp = pattern_instance(rng, rng.random((30, 40)) < 0.1)
    assert_rate_matches_dense(est, chan, bp)
    h = est.h_hat
    h[tuple(np.argwhere(h)[:3].T)] = 0.0  # a new pattern in the same array
    h[rng.integers(0, 30, 6), rng.integers(0, 40, 6)] = 1.0 - 0.5j
    assert_rate_matches_dense(est, chan, bp)
    h *= 3.0
    assert_rate_matches_dense(est, chan, bp)


def test_trial_plans_the_rate_once_per_scheme(monkeypatch):
    planned = spy(monkeypatch, channel_mod, "_gram_plan")
    cfg = ExperimentConfig("compare", n_rrh=20, n_user=30, side=40.0, threshold=10.0,
                           snr_db=(0.0, 20.0, 40.0), schemes=SCHEMES, t_coherence=60)
    _throughput_trial((cfg, 30, 10.0, 0))
    assert len(planned) == len(SCHEMES)
    # random pilots estimate the pairs proposed does, but on their own plan
    planned.clear()
    _throughput_trial((dataclasses.replace(cfg, schemes=("proposed", "random-pilot")), 30, 10.0, 0))
    assert len(planned) == 2


def test_channel_plan_dies_with_the_channel():
    # a plan refers to neither the channel nor the book nor the association,
    # so it and its Gram plan die with the last channel or estimate that
    # holds them, without the cycle collector
    ch, cases, z0 = memo_instance()
    for book, assoc in cases.values():
        chan = dataclasses.replace(ch)
        est = mmse_estimate(chan, book, assoc, 0.01, noise=0.1 * z0)
        throughput_lower_bound(est, chan, 0.25, 1.0, 1.0)
        assert chan._last_plan[2] is est.plan
        refs = [weakref.ref(v) for v in (chan, est.plan, est.plan.logdet)]
        gc.disable()
        try:
            del est
            assert all(r() is not None for r in refs)  # the channel keeps its plan
            del chan
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


def test_data_power_coefficients():
    assert np.allclose(data_power_coefficients(1.0, 0.25, 3), 1.0)
    assert np.allclose(data_power_coefficients(0.0, 0.2, 2), 1.25)
    assert np.allclose(data_power_coefficients(0.5, 0.2, 1), (1 - 0.1) / 0.8)
    with pytest.raises(ParameterError):
        data_power_coefficients(3.0, 0.5, 2)  # training energy overdrawn
    with pytest.raises(ParameterError):
        data_power_coefficients(1.0, 0.0, 2)


# ---------------------------------------------- trial kernel and runner

def rate_rows(rows):
    return [row for row in rows if row.metric == "throughput_bits_per_use"]


def kernel_rates(cfg, scheme, snr):
    """Per-trial rates (nats) of one scheme at one SNR, from the trial kernel."""
    return np.array([
        _throughput_trial((cfg, cfg.n_user, cfg.threshold, t))["rates"][(scheme, snr)]
        for t in range(cfg.trials)
    ])


def test_throughput_runner_deterministic_and_sane():
    cfg = ExperimentConfig("compare", n_rrh=10, n_user=12, side=60.0, threshold=12.0,
                           trials=5, seed=11, snr_db=(15.0,), t_coherence=50)
    a = run_experiment(cfg)
    assert a == run_experiment(cfg)
    (row,) = rate_rows(a)
    rates = kernel_rates(cfg, "proposed", 15.0)
    assert row.value == pytest.approx(float(np.mean(rates)) / np.log(2.0))
    assert np.all(rates >= 0.0) and row.stderr >= 0.0
    assert (row.seed, row.trials) == (11, 5)


def test_throughput_point_mass_hook(monkeypatch):
    # force every Gaussian draw to a point mass and every trial onto one
    # layout: all trials coincide and the standard error collapses to
    # exactly zero. The kernel draws noise through the experiments module's
    # name and fading through the channel module's.
    def point(rng, shape):
        return np.full(shape, (1.0 + 1.0j) / np.sqrt(2))

    monkeypatch.setattr(channel_mod, "complex_gaussian", point)
    monkeypatch.setattr(experiments_mod, "complex_gaussian", point)
    monkeypatch.setattr(experiments_mod, "generate_layout",
                        lambda n_rrh, n_user, side, seed: generate_layout(n_rrh, n_user, side, 0))
    cfg = ExperimentConfig("compare", n_rrh=5, n_user=6, side=40.0, threshold=10.0,
                           trials=4, seed=0, snr_db=(10.0,), t_coherence=30)
    (row,) = rate_rows(run_experiment(cfg))
    assert row.stderr == 0.0 and row.value > 0.0
    rates = kernel_rates(cfg, "proposed", 10.0)
    assert np.all(rates == rates[0])


def test_throughput_self_consistency():
    kw = dict(n_rrh=6, n_user=6, side=30.0, threshold=10.0, snr_db=(10.0,), t_coherence=20)
    (small,) = rate_rows(run_experiment(ExperimentConfig("compare", trials=300, seed=1, **kw)))
    (big,) = rate_rows(run_experiment(ExperimentConfig("compare", trials=3000, seed=2, **kw)))
    gap = abs(small.value - big.value)
    assert gap <= 3.0 * np.hypot(small.stderr, big.stderr)


def test_trial_builds_one_pilot_book_for_proposed_and_refined(monkeypatch):
    built = []
    real = experiments_mod.build_pilot_book
    monkeypatch.setattr(experiments_mod, "build_pilot_book", lambda *a: built.append(a) or real(*a))
    cfg = ExperimentConfig("compare", n_rrh=20, n_user=25, side=80.0, threshold=12.0, trials=3,
                           seed=5, snr_db=(10.0, 30.0), schemes=SCHEMES, t_coherence=60)
    run_experiment(cfg)
    # per trial, proposed's and refined's shared book and global-orthogonal's own
    assert len(built) == 2 * cfg.trials
    built.clear()
    run_experiment(dataclasses.replace(cfg, schemes=("global-orthogonal",)))
    assert [np.array_equal(col.colors, np.arange(25)) for (col,) in built] == [True] * cfg.trials
    built.clear()
    run_experiment(dataclasses.replace(cfg, schemes=("random-pilot",)))
    assert built == []


def test_refined_beats_plain_on_shared_draws():
    cfg = ExperimentConfig("compare", n_rrh=20, n_user=25, side=80.0, threshold=12.0,
                           trials=10, seed=5, snr_db=(30.0,), schemes=("proposed", "refined"))
    for t in range(cfg.trials):
        rates = _throughput_trial((cfg, 25, 12.0, t))["rates"]
        assert rates[("refined", 30.0)] >= rates[("proposed", 30.0)] - 1e-9
