"""Acceptance suite: one numbered pass/fail test per release criterion.

Conventions: every test fixes its own seeds and tolerances; the Monte-Carlo
criteria go through the public experiment runners (or their trial kernels) so
that what is certified is exactly what the command line produces. Where a
criterion pins a wall-clock budget the test asserts it too. This file is the
contract: numbers here do not move without a decision.
"""

import subprocess
import sys
import time

import numpy as np

from lotrain import (
    AssociationMap,
    ChannelRealization,
    Coloring,
    EstimationResult,
    ExperimentConfig,
    PilotBook,
    build_conflict_graph,
    build_pilot_book,
    build_proximity_graph,
    check_local_orthogonality,
    chromatic_scaling_bound,
    dft_rows,
    dsatur,
    exact_chromatic_number,
    find_coloring,
    generate_layout,
    is_subgraph,
    max_degree,
    mmse_estimate,
    run_experiment,
    sparsify,
    throughput_lower_bound,
)
from lotrain.experiments import _throughput_trial


def test_criterion_01_minimum_training_length_is_exact():
    """A coloring of the conflict graph with chi colors gives locally
    orthogonal pilots, and no assignment with chi-1 sequences can: the
    complete backtracking search proves chi-1 colors infeasible, and sampled
    chi-1 sequence assignments all fail the orthogonality check directly."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    total = nontrivial = 0
    while total < 200:
        n_rrh = int(rng.integers(1, 9))
        k = int(rng.integers(2, 13))
        layout = generate_layout(n_rrh, k, 30.0, seed=int(rng.integers(1 << 31)))
        assoc = sparsify(layout, float(rng.uniform(5.0, 15.0)))
        g = build_conflict_graph(assoc)
        chi = exact_chromatic_number(g)
        witness = find_coloring(g, chi)
        book = build_pilot_book(Coloring(witness))
        assert check_local_orthogonality(book, assoc)
        greedy = build_pilot_book(dsatur(g))
        assert check_local_orthogonality(greedy, assoc)
        if chi >= 2:
            nontrivial += 1
            assert find_coloring(g, chi - 1) is None
            rows = dft_rows(chi - 1)
            for _ in range(8):
                assign = rng.integers(0, chi - 1, size=k)
                shorter = PilotBook(np.sqrt(chi - 1.0) * rows[assign], assign)
                assert not check_local_orthogonality(shorter, assoc)
        total += 1
    assert total >= 200 and nontrivial >= 100
    assert time.monotonic() - t0 < 120.0


def test_criterion_02_conflict_edges_lie_within_proximity_edges():
    """Users sharing an RRH are always within ell-infinity distance 2r of
    each other: zero violations over one thousand random (layout, r) pairs."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(2, 61))
        side = float(rng.uniform(20.0, 120.0))
        layout = generate_layout(n, k, side, seed=int(rng.integers(1 << 31)))
        r = float(rng.uniform(2.0, side / 2))
        conflict = build_conflict_graph(sparsify(layout, r))
        proximity = build_proximity_graph(layout, r)
        assert is_subgraph(conflict, proximity)
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_normalized_color_count_respects_asymptotic_bound():
    """At rho = 0.5 with 1000 RRHs, the trial-averaged DSATUR color count of
    the conflict graph, normalized by delta * r^2, stays below the chromatic
    scaling bound for every K in {200, 500, 1000, 2000}; the denser proximity
    graph may exceed the bound by at most 15 percent."""
    t0 = time.monotonic()
    cfg = ExperimentConfig("scaling", n_rrh=1000, k_grid=(200, 500, 1000, 2000),
                           rho=0.5, side=100.0, trials=100, seed=33)
    rows = run_experiment(cfg)
    bound = chromatic_scaling_bound(0.5)
    for k in cfg.k_grid:
        norm = {row.scheme: row.value for row in rows
                if row.k == k and row.metric == "normalized_colors"}
        assert norm["shared-rrh"] < bound, (k, norm["shared-rrh"], bound)
        assert norm["proximity-2r"] <= 1.15 * bound, (k, norm["proximity-2r"], bound)
    assert time.monotonic() - t0 < 600.0


def test_criterion_04_greedy_colors_never_exceed_degree_bound():
    """DSATUR uses at most max-degree + 1 colors on every generated instance."""
    rng = np.random.default_rng(404)
    violations = 0
    for i in range(500):
        n = int(rng.integers(1, 25))
        k = int(rng.integers(2, 81))
        side = float(rng.uniform(15.0, 100.0))
        layout = generate_layout(n, k, side, seed=int(rng.integers(1 << 31)))
        r = float(rng.uniform(2.0, side / 2))
        if i % 2:
            g = build_conflict_graph(sparsify(layout, r))
        else:
            g = build_proximity_graph(layout, r)
        if dsatur(g).num_colors > max_degree(g) + 1:
            violations += 1
    assert violations == 0


def test_criterion_05_single_user_estimator_matches_scalar_oracle():
    """With one served user the matrix estimator must reproduce the scalar
    error variance n0 / (n0 + gamma^2 * p), p the pilot energy, to 1e-10
    relative over a grid of gains, energies and noise powers."""
    assoc = AssociationMap([0], [0], 1, 1, 1.0)
    h = np.array([[0.3 - 1.1j]])
    for gamma in (0.005, 0.1, 1.0):
        chan = ChannelRealization(h, np.array([[gamma]]))
        for length in (1, 4):
            base = dft_rows(length)[:1]
            for beta in (0.5, 1.0):
                for p0 in (1.0, 2.0):
                    book = PilotBook(np.sqrt(length * beta * p0) * base, np.array([0]))
                    for n0 in (1e-3, 0.1, 1.0, 10.0):
                        est = mmse_estimate(chan, book, assoc, n0,
                                            noise=np.zeros((1, length), complex))
                        p = length * beta * p0
                        want = n0 / (n0 + gamma**2 * p)
                        assert abs(est.mse[0, 0] - want) <= 1e-10 * want


def test_criterion_06_logdet_rate_matches_decomposed_oracles():
    """The matrix rate reduces to the scalar formula for one link and to a
    sum of scalar formulas when the estimated channel matrix is diagonal."""
    h_hat, gamma, mse = 1.3 - 0.4j, 0.7, 0.3
    n0, alpha, bp, p0 = 0.05, 0.2, 1.25, 2.0
    est = EstimationResult(np.array([[h_hat]]), np.array([[mse]]), n0)
    chan = ChannelRealization(np.zeros((1, 1), complex), np.array([[gamma]]))
    sigma2 = gamma**2 * bp * p0 * mse + n0
    want = (1 - alpha) * np.log(1 + abs(h_hat * gamma) ** 2 * bp * p0 / sigma2)
    got = throughput_lower_bound(est, chan, alpha, bp, p0)
    assert abs(got - want) <= 1e-8 * want

    rng = np.random.default_rng(606)
    for size in (2, 3):
        hd = rng.normal(size=size) + 1j * rng.normal(size=size)
        h_hat = np.zeros((size, size), complex)
        np.fill_diagonal(h_hat, hd)
        gamma = rng.uniform(0.1, 1.0, (size, size))
        mse = rng.uniform(0.01, 0.9, (size, size))
        bp = rng.uniform(0.5, 1.5, size)
        est = EstimationResult(h_hat, mse, n0)
        chan = ChannelRealization(np.zeros((size, size), complex), gamma)
        sigma2 = (gamma**2 * mse) @ (bp * p0) + n0
        want = sum(
            (1 - alpha) * np.log(1 + abs(h_hat[i, i] * gamma[i, i]) ** 2
                                 * bp[i] * p0 / sigma2[i])
            for i in range(size)
        )
        got = throughput_lower_bound(est, chan, alpha, bp, p0)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_criterion_07_scheme_ordering_under_common_random_numbers():
    """At 300 RRHs / 300 users and 20 / 40 dB over 500 paired trials, the
    refined association beats the plain one and the plain one beats random
    pilots of the same length, each by more than 3 standard errors of the
    paired difference."""
    trials = 500
    cfg = ExperimentConfig("compare", n_rrh=300, n_user=300, side=100.0,
                           threshold=10.0, snr_db=(20.0, 40.0),
                           schemes=("proposed", "refined", "random-pilot"),
                           trials=trials, seed=77)
    results = [
        _throughput_trial((cfg, cfg.n_user, cfg.threshold, t))
        for t in range(trials)
    ]
    for snr in cfg.snr_db:
        series = {s: np.array([res["rates"][(s, snr)] for res in results])
                  for s in cfg.schemes}
        for better, worse in (("refined", "proposed"), ("proposed", "random-pilot")):
            d = series[better] - series[worse]
            se = float(np.std(d, ddof=1) / np.sqrt(trials))
            assert d.mean() > 3 * se, (snr, better, worse, d.mean(), se)


def test_criterion_08_throughput_shapes_over_load_and_radius():
    """At 0 dB the rate is non-decreasing in the user count (within two
    standard errors per step); at 50 dB the radius sweep has an interior
    maximum on a six-point grid."""
    kcfg = ExperimentConfig("sweep-k", n_rrh=300, k_grid=(75, 150, 225, 300),
                            side=100.0, threshold=10.0, trials=150, seed=88,
                            snr_db=(0.0,))
    krows = [row for row in run_experiment(kcfg) if row.metric == "throughput_bits_per_use"]
    krows.sort(key=lambda row: row.k)
    assert [row.k for row in krows] == [75, 150, 225, 300]
    for prev, cur in zip(krows, krows[1:]):
        slack = 2.0 * float(np.hypot(prev.stderr, cur.stderr))
        assert cur.value >= prev.value - slack, (prev.k, cur.k, prev.value, cur.value)

    rcfg = ExperimentConfig("sweep-r", n_rrh=300, n_user=300, side=100.0,
                            r_grid=(4.0, 7.0, 10.0, 13.0, 16.0, 19.0),
                            trials=150, seed=99, snr_db=(50.0,))
    rrows = [row for row in run_experiment(rcfg) if row.metric == "throughput_bits_per_use"]
    assert len(rrows) == 6  # every radius feasible at the reference frame
    values = [row.value for row in sorted(rrows, key=lambda row: row.r)]
    peak = int(np.argmax(values))
    assert 0 < peak < 5, values


def test_criterion_09_csv_byte_identical_at_any_worker_count(tmp_path):
    """Regenerating a CSV from the same config and seed gives identical bytes
    whether the trials run sequentially or on a worker pool."""
    cases = {
        "compare": """\
n_rrh = 8
n_user = 12
side = 30.0
threshold = 9.0
t_coherence = 30
snr_db = [10.0, 20.0]
schemes = ["proposed", "refined", "random-pilot", "global-orthogonal"]
trials = 6
seed = 5
""",
        "scaling": """\
n_rrh = 12
k_grid = [30, 60]
rho = 0.5
side = 30.0
trials = 4
seed = 6
""",
    }
    for name, text in cases.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        payloads = []
        for workers in (1, 3):
            out = tmp_path / f"{name}-{workers}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "lotrain", name, "--config", str(cfg),
                 "--out", str(out), "--workers", str(workers)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], name
