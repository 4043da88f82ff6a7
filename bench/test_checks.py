"""Each benchmark check passes on lotrain's output and fails on a broken copy.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from lotrain import (  # noqa: E402
    build_conflict_graph,
    build_pilot_book,
    config_from_mapping,
    data_power_coefficients,
    dsatur,
    emit_csv,
    generate_channel,
    generate_layout,
    mmse_estimate,
    snr_db_to_noise_power,
    sparsify,
    throughput_lower_bound,
)
from lotrain.experiments import RUNNERS  # noqa: E402

R = 12.0


@pytest.fixture(scope="module")
def trial():
    layout = generate_layout(n_rrh=40, n_user=40, side=60.0, seed=3)
    assoc = sparsify(layout, R)
    coloring = dsatur(build_conflict_graph(assoc))
    book = build_pilot_book(coloring)
    chan = generate_channel(layout, 3.5, seed=3)
    n0 = snr_db_to_noise_power(30.0)
    est = mmse_estimate(chan, book, assoc, n0, rng=np.random.default_rng(3))
    return layout, assoc, coloring, chan, n0, est


def test_coloring_check_rejects_one_conflicting_pair(trial):
    layout, assoc, coloring, *_ = trial
    served = checks.served_by_brute_force(layout.rrh_xy, layout.user_xy, R)
    checks.check_association(assoc.served_users, served)
    conflict = checks.conflicts_by_brute_force(served)
    checks.check_coloring(coloring.colors, coloring.num_colors, conflict, served)
    k, m = np.argwhere(conflict)[0]
    broken = coloring.colors.copy()
    broken[m] = broken[k]
    with pytest.raises(checks.CheckError, match="conflict"):
        checks.check_coloring(broken, coloring.num_colors, conflict, served)


def test_mse_check_rejects_one_entry_off_by_1e6_relative(trial):
    _, assoc, coloring, chan, n0, est = trial
    energy = np.full(chan.n_user, float(coloring.num_colors))
    ref = checks.mse_closed_form(chan.large_scale, energy, coloring.colors, assoc.served_users, n0)
    checks.check_mse(est.mse, ref, "mse")
    i = next(i for i, u in enumerate(assoc.served_users) if u)
    broken = est.mse.copy()
    broken[i, assoc.served_users[i][0]] *= 1 + 1e-6
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.check_mse(broken, ref, "mse")


def test_rate_check_rejects_rate_off_by_1e6_relative(trial):
    _, _, coloring, chan, n0, est = trial
    alpha = coloring.num_colors / 100
    bp = data_power_coefficients(1.0, alpha, chan.n_user)
    rate = throughput_lower_bound(est, chan, alpha, bp, 1.0)
    ref = checks.rate_by_slogdet(est.h_hat, est.mse, chan.large_scale, alpha, bp, 1.0, n0)
    checks.check_rate(rate, ref, "rate")
    with pytest.raises(checks.CheckError, match="rate"):
        checks.check_rate(rate * (1 + 1e-6), ref, "rate")


def _csv_rows(tmp_path, experiment, mapping):
    path = tmp_path / f"{experiment}.csv"
    emit_csv(RUNNERS[experiment](config_from_mapping(experiment, mapping)), path)
    return checks.parse_csv(path.read_text(encoding="utf-8"))


def test_throughput_csv_check_rejects_a_dropped_row(tmp_path):
    cfg = {"n_rrh": 30, "n_user": 30, "side": 60.0, "threshold": R, "t_coherence": 100,
           "snr_db": [0.0, 20.0], "schemes": ["proposed", "global-orthogonal"], "trials": 2, "seed": 1}
    rows = _csv_rows(tmp_path, "compare", cfg)
    out = checks.check_throughput_csv(rows, cfg, [R])
    assert len(out["rates"]) == 4 and out["lengths"][(R, "global-orthogonal")] == 30
    for drop in (0, len(rows) - 1):
        with pytest.raises(checks.CheckError, match="rows"):
            checks.check_throughput_csv(rows[:drop] + rows[drop + 1:], cfg, [R])


def test_scaling_csv_check_rejects_a_dropped_row(tmp_path):
    cfg = {"n_rrh": 60, "k_grid": [20, 40], "rho": 0.5, "side": 100.0, "trials": 2, "seed": 1}
    rows = _csv_rows(tmp_path, "scaling", cfg)
    checks.check_scaling_csv(rows, cfg)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_scaling_csv(rows[:-1], cfg)


def test_csv_check_rejects_a_changed_header():
    with pytest.raises(checks.CheckError, match="header"):
        checks.parse_csv(checks.CSV_HEADER.replace("snr_db", "snr") + "\n")
