"""Config parsing, CSV emission, baselines, and the experiment runners.

The served-set-size oracle is the exact boundary-corrected mean for uniform
placements on a square: each of the K users lands in a given RRH's clipped
ell-infinity ball with probability ((2r - r^2/side)/side)^2, so
E|U_i| = K * ((2r - r^2/side)/side)^2 for r <= side/2.
"""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lotrain.experiments as experiments_mod
from lotrain import (
    ConsistencyError,
    ExperimentConfig,
    ParameterError,
    TrainingLengthError,
    baseline_global_orthogonal,
    baseline_random_pilots,
    build_conflict_graph,
    chromatic_scaling_bound,
    config_from_mapping,
    config_hash,
    degree_scaling_bound,
    dsatur,
    emit_csv,
    load_config,
    radius_for_rho,
    run_experiment,
)
from lotrain.experiments import (
    CSV_HEADER,
    RUNNERS,
    SCHEMES,
    ResultRow,
    _draw,
    _global_orthogonal_assoc,
    _grid,
    _throughput_trial,
)


# ------------------------------------------------------------------ config

def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_config_flat_json_values(tmp_path):
    p = write_cfg(tmp_path, """
# comparison on the reference square
n_rrh = 30           # comment after a value
n_user = 300
snr_db = [10.0, 20.0]
schemes = ["proposed", "random-pilot"]
threshold = 12.5
""")
    m = load_config(p)
    assert m["n_rrh"] == 30 and m["threshold"] == 12.5
    assert m["snr_db"] == [10.0, 20.0]
    cfg = config_from_mapping("compare", m)
    assert cfg.snr_db == (10.0, 20.0) and cfg.schemes == ("proposed", "random-pilot")


def test_load_config_keeps_hash_inside_strings(tmp_path):
    p = write_cfg(tmp_path, 'schemes = ["pro#posed"]  # a comment\n'
                            'seed = 3# no space before it\n')
    assert load_config(p) == {"schemes": ["pro#posed"], "seed": 3}
    bad = write_cfg(tmp_path, "n_rrh = 5 trailing words\n", name="bad.cfg")
    with pytest.raises(ParameterError, match=":1:"):
        load_config(bad)


def test_load_config_reports_offending_line(tmp_path):
    p = write_cfg(tmp_path, "n_rrh = 5\nbogus line without equals\n")
    with pytest.raises(ParameterError, match=":2:"):
        load_config(p)
    p2 = write_cfg(tmp_path, "n_rrh = not-json\n", name="bad.cfg")
    with pytest.raises(ParameterError, match=":1:"):
        load_config(p2)
    # a repeated key is refused at its second line, not silently overwritten
    p3 = write_cfg(tmp_path, "n_rrh = 5\nseed = 1\n\n# again\nn_rrh = 6\n", name="twice.cfg")
    with pytest.raises(ParameterError, match=r"twice\.cfg:5: repeated key 'n_rrh'$"):
        load_config(p3)


def test_config_from_mapping_rejects_unknown_and_bad_grids():
    with pytest.raises(ParameterError, match="n_users"):
        config_from_mapping("compare", {"n_rrh": 2, "n_users": 5})
    with pytest.raises(ParameterError, match="k_grid"):
        config_from_mapping("sweep-k", {"n_rrh": 2, "k_grid": []})
    with pytest.raises(ParameterError, match="snr_db"):
        config_from_mapping("compare", {"n_rrh": 2, "snr_db": 10.0})


def test_config_defaults():
    cfg = ExperimentConfig("compare", n_rrh=4, n_user=8, threshold=10.0)
    assert (cfg.side, cfg.t_coherence) == (100.0, 100)
    assert cfg.snr_db == (20.0,) and cfg.schemes == ("proposed",)
    assert cfg.trials == 100 and cfg.seed == 0 and cfg.workers == 1
    # the retired keys are no fields: trials run at eta = 3.5, beta = 1 and min_distance = 1
    for key in ("eta", "beta", "min_distance"):
        with pytest.raises(TypeError, match=key):
            ExperimentConfig("compare", n_rrh=4, n_user=8, threshold=10.0, **{key: 1.0})


@pytest.mark.parametrize("kw", [
    dict(trials=0),
    dict(seed=-1),
    dict(n_rrh=0),
    dict(workers=0),
    dict(snr_db=(1600.0,)),  # the square of the noise power underflows
    dict(schemes=("proposed", "genie")),
    dict(snr_db=()),
    dict(t_coherence=0),
    dict(t_coherence=2.5),
    dict(t_coherence=25, schemes=("global-orthogonal",)),
    dict(n_rrh=5.5),
    dict(n_user=0),
    dict(k_grid=(10, 20.5)),
    dict(trials=True),
    dict(seed="0"),
    dict(side=-1.0),
    dict(side=float("inf")),
    dict(side=10**400),  # an integer past the double range
    dict(side=1e-160),  # its square is subnormal, and the channel's squared distances underflow
    dict(side=9.49e153),  # twice its square, the channel's largest squared distance, overflows
    dict(threshold=-10**400),
    dict(t_coherence=10**300),  # the square of the peak training energy overflows
    dict(t_coherence=2**512),  # the smallest such power of two
    dict(t_coherence=10**400),  # too large for a double
    dict(rho=float("nan")),
    dict(threshold=0.0),
    dict(rho=-0.5),
    dict(r_grid=(5.0, float("nan"))),
    dict(snr_db=(10.0, float("nan"))),
    dict(snr_db=(float("-inf"),)),
    dict(snr_db=(-10**400,)),
    dict(snr_db=(True,)),
])
def test_config_validation(kw):
    base = dict(experiment="compare", n_rrh=4, n_user=8)
    base.update(kw)
    with pytest.raises(ParameterError, match=next(iter(kw))):
        ExperimentConfig(**base)


@pytest.mark.parametrize("name,spelled", [
    ("compare", dict(side=50, threshold=10, snr_db=[10])),
    ("sweep-r", dict(side=50, r_grid=[5, 10], snr_db=[10])),
    ("density", dict(side=50, rho=1)),
])
def test_integer_and_float_spellings_are_one_config(tmp_path, name, spelled):
    # a real written as an integer is the same value: the same trials, CSV bytes and digest
    base = dict(n_rrh=20, n_user=20, trials=2, seed=4)
    csvs, digests = [], []
    for values in (spelled, {k: [float(x) for x in v] if isinstance(v, list) else float(v)
                             for k, v in spelled.items()}):
        cfg = config_from_mapping(name, {**base, **values})
        csvs.append(tmp_path / f"{len(csvs)}.csv")
        emit_csv(run_experiment(cfg), csvs[-1])
        digests.append(config_hash(cfg))
    assert csvs[0].read_bytes() == csvs[1].read_bytes()
    assert digests[0] == digests[1]
    assert ",50.0," in csvs[0].read_text()  # the r0 cell


def test_config_hash_is_stable_digest():
    a = ExperimentConfig("compare", n_rrh=4, n_user=8, threshold=10.0, seed=3)
    b = ExperimentConfig("compare", n_rrh=4, n_user=8, threshold=10.0, seed=3)
    c = ExperimentConfig("compare", n_rrh=4, n_user=8, threshold=10.0, seed=4)
    assert config_hash(a) == config_hash(b) != config_hash(c)
    assert len(config_hash(a)) == 12
    assert set(config_hash(a)) <= set("0123456789abcdef")
    # the worker count affects scheduling only, never the numbers
    pooled = ExperimentConfig("compare", n_rrh=4, n_user=8, threshold=10.0, seed=3, workers=4)
    assert config_hash(pooled) == config_hash(a)


# --------------------------------------------------------------------- csv

def test_emit_csv_exact_bytes(tmp_path):
    rows = [
        ResultRow("compare", "proposed", 8, 6, 30.0, 10.0, 24, 3.5, 10.0, 4,
                  "throughput_bits_per_use", 1.5, 0.25, 7, "abc123def456"),
        ResultRow("density", "proposed", 30, 25, 40.0, 10.0, 100, 3.5, None, 400,
                  "mean_served_users", 5.7421875, None, 7, "abc123def456"),
    ]
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    got = out.read_text(encoding="utf-8")
    want = (
        CSV_HEADER + "\n"
        "compare,proposed,8,6,30.0,10.0,24,3.5,10.0,4,"
        "throughput_bits_per_use,1.5,0.25,7,abc123def456\n"
        "density,proposed,30,25,40.0,10.0,100,3.5,,400,"
        "mean_served_users,5.7421875,,7,abc123def456\n"
    )
    assert got == want
    assert got.startswith("experiment,scheme,K,N,r0,r,T,eta,snr_db,trials,"
                          "metric,value,stderr,seed,config_hash\n")


def test_emit_csv_refuses_empty(tmp_path):
    with pytest.raises(ConsistencyError):
        emit_csv([], tmp_path / "empty.csv")


# --------------------------------------------------------------- baselines

def test_random_pilot_baseline_energy_and_determinism():
    a = baseline_random_pilots(7, 3, np.random.default_rng(5))
    b = baseline_random_pilots(7, 3, np.random.default_rng(5))
    assert np.array_equal(a.pilots, b.pilots)
    energies = np.sum(np.abs(a.pilots) ** 2, axis=1)
    assert np.allclose(energies, 7, rtol=1e-12)  # length, as the colored books
    assert a.training_length == 7 and a.color_of is None
    with pytest.raises(ParameterError):
        baseline_random_pilots(0, 3, np.random.default_rng(5))


def test_global_orthogonal_all_users_active_when_frame_allows():
    active, book = baseline_global_orthogonal(20, 6, np.random.default_rng(0))
    assert np.array_equal(active, np.arange(6))
    assert book.training_length == 6
    gram = book.pilots @ book.pilots.conj().T
    assert np.allclose(gram, 6 * np.eye(6), atol=1e-10)


def test_global_orthogonal_selects_half_frame_subset():
    rng = np.random.default_rng(9)
    active, book = baseline_global_orthogonal(10, 12, rng)
    assert active.size == 5 and book.training_length == 5 and book.n_user == 5
    assert np.all(np.diff(active) > 0) and active.min() >= 0 and active.max() < 12
    assert np.allclose(book.pilots @ book.pilots.conj().T, 5 * np.eye(5), atol=1e-10)
    again, _ = baseline_global_orthogonal(10, 12, np.random.default_rng(9))
    assert np.array_equal(active, again)


def test_global_orthogonal_book_colors_one_per_active_user():
    # the book holds the active users alone: one color and one row of full
    # energy each, and no zero-energy rows
    for t_coh, n_user in ((20, 6), (10, 12)):
        active, book = baseline_global_orthogonal(t_coh, n_user, np.random.default_rng(9))
        assert book.n_user == active.size == min(n_user, t_coh // 2)
        assert np.array_equal(book.color_of, np.arange(active.size))
        assert np.allclose(np.sum(np.abs(book.pilots) ** 2, axis=1), active.size, rtol=1e-12)


def test_global_orthogonal_requires_even_frame():
    for t in (0, 1, 7):
        with pytest.raises(ParameterError):
            baseline_global_orthogonal(t, 4, np.random.default_rng(0))


def test_global_orthogonal_association_covers_all_rrhs():
    assoc = _global_orthogonal_assoc(3, 2)
    assert (assoc.n_rrh, assoc.n_user, assoc.threshold) == (3, 2, float("inf"))
    assert assoc.served_users == ((0, 1),) * 3
    assert assoc.rrh.tolist() == [0, 0, 1, 1, 2, 2] and assoc.user.tolist() == [0, 1] * 3
    for a in (assoc.rrh, assoc.user):
        assert a.dtype == np.intp and not a.flags.writeable
    assert np.all(np.diff(assoc.rrh * assoc.n_user + assoc.user) > 0)


# ----------------------------------------------------------------- runners

def test_density_mean_matches_uniform_placement_oracle():
    side, k = 40.0, 30
    cfg = ExperimentConfig("density", n_rrh=25, n_user=k, side=side, rho=0.5,
                           trials=400, seed=13)
    rows = run_experiment(cfg)
    r = rows[0].r  # the rho-matched radius, about 9.5, inside the oracle's r <= side/2
    assert r == pytest.approx(radius_for_rho(k, k / side**2, 0.5), rel=1e-12)
    by_metric = {row.metric: row for row in rows}
    oracle = k * ((2 * r - r**2 / side) / side) ** 2
    got = by_metric["mean_served_users"]
    assert abs(got.value - oracle) < 5 * max(got.stderr, 0.02)
    pdf_total = sum(row.value for row in rows if row.metric.startswith("served_count_pdf_"))
    assert pdf_total == pytest.approx(1.0, abs=1e-9)
    assert by_metric["mean_colors"].value >= 1.0
    assert all(row.r == r and row.r0 == side for row in rows)


def test_scaling_rows_and_theory_bounds():
    cfg = ExperimentConfig("scaling", n_rrh=20, k_grid=(40, 80), rho=0.5,
                           side=30.0, trials=6, seed=2)
    rows = run_experiment(cfg)
    assert len(rows) == 18  # 9 per grid point
    for k in (40, 80):
        sub = [row for row in rows if row.k == k]
        metrics = sorted(row.metric for row in sub)
        assert metrics == sorted([
            "mean_colors", "mean_colors", "normalized_colors", "normalized_colors",
            "normalized_max_degree_plus_one", "normalized_max_degree_plus_one",
            "dsatur_subgraph_exceeds_count", "chromatic_scaling_bound",
            "degree_scaling_bound",
        ])
        r_want = radius_for_rho(k, k / 30.0**2, 0.5)
        assert all(row.r == pytest.approx(r_want) for row in sub)
        theory = {row.metric: row.value for row in sub if row.scheme == "theory"}
        assert theory["chromatic_scaling_bound"] == pytest.approx(chromatic_scaling_bound(0.5), rel=1e-12)
        assert theory["degree_scaling_bound"] == pytest.approx(degree_scaling_bound(0.5), rel=1e-12)
        shared = [row for row in sub if row.scheme == "shared-rrh"]
        assert all(row.value > 0 for row in shared)
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig("scaling", n_rrh=4, k_grid=(10,)))
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig("scaling", n_rrh=4, rho=0.5))


COMPARE_KW = dict(n_rrh=6, n_user=8, side=30.0, threshold=10.0, t_coherence=24,
                  snr_db=(10.0, 20.0), trials=4, seed=1,
                  schemes=("proposed", "refined", "random-pilot", "global-orthogonal"))


def test_compare_emits_rate_and_length_rows():
    cfg = ExperimentConfig("compare", **COMPARE_KW)
    rows = run_experiment(cfg)
    assert len(rows) == 4 * 2 + 4
    rates = [row for row in rows if row.metric == "throughput_bits_per_use"]
    lengths = {row.scheme: row.value for row in rows if row.metric == "training_length"}
    assert all(row.value > 0 for row in rates)
    assert all(row.stderr is not None and row.stderr >= 0 for row in rates)
    assert lengths["global-orthogonal"] == 8.0  # min(n_user, t/2), every trial
    assert lengths["random-pilot"] == lengths["proposed"]  # matched length
    digest = config_hash(cfg)
    assert all(row.config_hash == digest for row in rows)


def test_compare_deterministic_across_calls_and_workers():
    rows_a = run_experiment(ExperimentConfig("compare", **COMPARE_KW))
    rows_b = run_experiment(ExperimentConfig("compare", **COMPARE_KW))
    assert rows_a == rows_b
    kw = dict(COMPARE_KW, workers=2)
    rows_par = run_experiment(ExperimentConfig("compare", **kw))
    assert rows_par == rows_a


def test_compare_propagates_training_length_overflow():
    cfg = ExperimentConfig("compare", n_rrh=4, n_user=10, side=20.0, threshold=19.0,
                           t_coherence=6, trials=2, seed=0)
    with pytest.raises(TrainingLengthError):
        run_experiment(cfg)


def test_compare_global_only_ignores_coloring_feasibility():
    cfg = ExperimentConfig("compare", n_rrh=4, n_user=10, side=20.0, threshold=19.0,
                           t_coherence=6, trials=2, seed=0,
                           schemes=("global-orthogonal",), snr_db=(10.0,))
    rows = run_experiment(cfg)
    lengths = [row.value for row in rows if row.metric == "training_length"]
    assert lengths == [3.0]  # half of t_coherence, fewer than the user count


def test_sweep_k_rows_per_grid_point():
    cfg = ExperimentConfig("sweep-k", n_rrh=6, k_grid=(6, 12), side=30.0,
                           threshold=8.0, t_coherence=20, trials=3, seed=4,
                           snr_db=(10.0,))
    rows = run_experiment(cfg)
    assert [row.k for row in rows] == [6, 6, 12, 12]
    assert {row.metric for row in rows} == {"throughput_bits_per_use", "training_length"}
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig("sweep-k", n_rrh=4))


def test_sweep_r_marks_infeasible_radii():
    cfg = ExperimentConfig("sweep-r", n_rrh=4, n_user=10, side=20.0,
                           r_grid=(2.0, 19.0), t_coherence=6, trials=3, seed=0,
                           snr_db=(10.0,))
    rows = run_experiment(cfg)
    small = [row for row in rows if row.r == 2.0]
    big = [row for row in rows if row.r == 19.0]
    assert {row.metric for row in small} == {"throughput_bits_per_use", "training_length"}
    assert len(big) == 1 and big[0].metric == "infeasible_training_length"
    assert big[0].value >= 6 and big[0].stderr is None and big[0].snr_db is None
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig("sweep-r", n_rrh=4, n_user=5))
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig("sweep-r", n_rrh=4, n_user=5, r_grid=(0.0,)))


@st.composite
def small_configs(draw, experiment):
    """A throughput config small enough that its colorings land on both
    sides of a coherence time of 2 to 10."""
    schemes = tuple(draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=2, unique=True)))
    t_coh = draw(st.integers(2, 10))
    if "global-orthogonal" in schemes:
        t_coh += t_coh % 2
    kw = dict(n_rrh=draw(st.integers(1, 6)), side=draw(st.floats(10.0, 30.0)), t_coherence=t_coh,
              trials=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)),
              schemes=schemes, snr_db=(10.0,))
    radius = st.floats(2.0, 25.0)
    if experiment == "sweep-k":
        kw.update(k_grid=tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))),
                  threshold=draw(radius))
    elif experiment == "sweep-r":
        kw.update(n_user=draw(st.integers(1, 12)),
                  r_grid=tuple(draw(st.lists(radius, min_size=1, max_size=3, unique=True))))
    else:
        kw.update(n_user=draw(st.integers(1, 12)), threshold=draw(radius))
    return ExperimentConfig(experiment, **kw)


def colorings_reaching_t(cfg) -> list:
    """Per grid point, the DSATUR color counts of the trials whose coloring
    reaches the coherence time; empty where no colored scheme runs."""
    if all(s == "global-orthogonal" for s in cfg.schemes):
        return [[] for _ in _grid(cfg)]
    counts = [[dsatur(build_conflict_graph(_draw(cfg, k, r, t)[1])).num_colors
               for t in range(cfg.trials)] for k, r in _grid(cfg)]
    return [[c for c in point if c >= cfg.t_coherence] for point in counts]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cfg=st.sampled_from(["compare", "sweep-k"]).flatmap(small_configs))
def test_only_a_coloring_reaching_the_coherence_time_raises(cfg):
    if any(colorings_reaching_t(cfg)):
        with pytest.raises(TrainingLengthError):
            run_experiment(cfg)
    else:
        assert run_experiment(cfg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cfg=small_configs("sweep-r"))
def test_sweep_r_marks_exactly_the_radii_whose_coloring_reaches_the_coherence_time(cfg):
    rows = run_experiment(cfg)
    for (_, r), reaching in zip(_grid(cfg), colorings_reaching_t(cfg)):
        at = [row for row in rows if row.r == r]
        if reaching:
            (row,) = at
            assert row.metric == "infeasible_training_length" and row.value == max(reaching)
        else:
            assert at and all(row.metric != "infeasible_training_length" for row in at)


def test_runner_registry():
    assert sorted(RUNNERS) == ["compare", "density", "scaling", "sweep-k", "sweep-r"]
    assert all(runner is run_experiment for runner in RUNNERS.values())
    with pytest.raises(ParameterError, match="unknown experiment"):
        run_experiment(ExperimentConfig("sweep-x", n_rrh=4, n_user=5))


DESK_CONFIGS = {
    "scaling": dict(n_rrh=12, k_grid=(30, 60), rho=0.5, side=30.0, trials=4, seed=6),
    "density": dict(n_rrh=25, n_user=30, side=40.0, rho=0.5, trials=4, seed=13),
    "compare": COMPARE_KW,
    "sweep-k": dict(n_rrh=6, k_grid=(6, 12), side=30.0, threshold=8.0, t_coherence=20,
                    trials=3, seed=4, snr_db=(10.0,)),
    # r = 19 is infeasible at T = 6, so the infeasible row is covered too
    "sweep-r": dict(n_rrh=4, n_user=10, side=20.0, r_grid=(2.0, 19.0), t_coherence=6,
                    trials=3, seed=0, snr_db=(10.0,)),
}


@pytest.mark.parametrize("name", sorted(DESK_CONFIGS))
def test_worker_count_invariance(name):
    rows = [run_experiment(ExperimentConfig(name, **dict(DESK_CONFIGS[name], workers=w)))
            for w in (1, 2)]
    assert rows[0] and rows[0] == rows[1]


def test_a_trial_leaves_no_module_state():
    # no attribute of any lotrain module is created or rebound by a compare
    # trial: whatever a trial keeps lives in objects it creates, so one run
    # cannot reach the next
    def state():
        return {(name, attr): value for name, module in list(sys.modules.items())
                if name == "lotrain" or name.startswith("lotrain.")
                for attr, value in vars(module).items()}

    before = state()
    run_experiment(ExperimentConfig("compare", n_rrh=20, n_user=30, side=40.0, threshold=10.0,
                                    trials=1, snr_db=(0.0, 20.0), schemes=SCHEMES, t_coherence=60))
    after = state()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


# ------------------------------------------------------------- SNR range

# the power repro: all four schemes, where a noise power whose square left
# the double range once wrote NaN rows
SMALL_COMPARE = dict(n_rrh=20, n_user=20, side=50.0, threshold=10.0, t_coherence=40,
                     schemes=SCHEMES, trials=2, seed=0)


def accepted_snr_edge(bad: float) -> tuple[float, float]:
    """The accepted snr_db nearest to bad, and the next double past it,
    bisected from 0 dB down to adjacent doubles."""
    def accepted(snr):
        try:
            ExperimentConfig("compare", snr_db=(snr,), **SMALL_COMPARE)
        except ParameterError:
            return False
        return True

    good = 0.0
    while True:
        mid = 0.5 * (good + bad)
        if mid in (good, bad):
            return good, bad
        good, bad = (mid, bad) if accepted(mid) else (good, mid)


def test_accepted_snr_range_gives_finite_rates():
    # the config bounds snr_db where the estimator's squares leave the double
    # range: N0 = 10^(-snr/10) squared must stay normal, and N0 plus the peak
    # training energy T = 40 (at unit power and gain) squared must stay finite
    (low, below), (high, above) = accepted_snr_edge(-1e4), accepted_snr_edge(1e4)
    assert -1542.0 < low < -1541.0 and 1538.0 < high < 1539.0
    assert below == math.nextafter(low, -math.inf) and above == math.nextafter(high, math.inf)
    for snr in (below, above):
        with pytest.raises(ParameterError, match="snr_db"):
            ExperimentConfig("compare", snr_db=(snr,), **SMALL_COMPARE)
    # the edges themselves run every scheme without a warning
    for snr in (low, high):
        assert_finite_rates(snr)


def assert_finite_rates(snr: float) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = ExperimentConfig("compare", snr_db=(snr,), **SMALL_COMPARE)
        rates = _throughput_trial((cfg, 20, 10.0, 0))["rates"]
    assert len(rates) == 4 and all(map(math.isfinite, rates.values())), (snr, rates)


@pytest.mark.parametrize("snr", [-20.0, 10.0, 60.0])
def test_accepted_powers_give_finite_rates(snr):
    # trials run at unit power, so the SNR alone sets the noise power
    # N0 = 10^(-snr/10) the estimator sees; inside the accepted range every
    # scheme runs without a warning
    assert_finite_rates(snr)


SHIPPED_HASHES = {"scaling": "9a01bb71e99d", "density": "bcf1298c118d", "compare": "ed9ca154bc76",
                  "sweep-k": "1e40d17d3c2e", "sweep-r": "87fb97ebfb3a"}


def shipped_config(name: str) -> Path:
    return Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_hash_is_pinned(name):
    # the digest every CSV row carries; retiring a config key must not move it
    assert config_hash(config_from_mapping(name, load_config(shipped_config(name)))) == SHIPPED_HASHES[name]


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_saved_with_a_byte_order_mark_loads_the_same(name, tmp_path):
    # some editors save UTF-8 with a BOM, which would stick to the first line
    path = shipped_config(name)
    bom = tmp_path / path.name
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_config(bom) == load_config(path)


def test_trial_refuses_a_non_finite_rate(monkeypatch):
    # whatever slips past the config, no NaN reaches a CSV
    monkeypatch.setattr(experiments_mod, "throughput_lower_bound", lambda *a: math.nan)
    cfg = ExperimentConfig("compare", snr_db=(10.0,), **SMALL_COMPARE)
    with pytest.raises(ConsistencyError, match=r"proposed at snr_db 10.0, K = 20, r = 10.0: the rate is nan"):
        _throughput_trial((cfg, 20, 10.0, 0))
