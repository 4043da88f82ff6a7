"""Correctness checks that the benchmark applies to lotrain's outputs.

Every check recomputes its reference apart from the program: conflicts and
proximity by brute force over all positions, estimator error variances by the
decoupled closed form of a locally orthogonal book, rates by an independent
``numpy.linalg.slogdet``, and the scaling ceilings by ``scipy.optimize.brentq``.
A failed check raises ``CheckError`` with a message naming what disagreed.
"""

import math

import numpy as np
from scipy.optimize import brentq

CSV_HEADER = "experiment,scheme,K,N,r0,r,T,eta,snr_db,trials,metric,value,stderr,seed,config_hash"
MSE_RTOL = 1e-8
RATE_RTOL = 1e-9
CSV_RTOL = 1e-12
BOUND_RTOL = 1e-9


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def check_close(value: float, ref: float, rtol: float, what: str) -> None:
    """Raise unless ``value`` is finite and within ``rtol`` of ``ref``."""
    if not math.isfinite(value) or abs(value - ref) > rtol * abs(ref):
        raise CheckError(f"{what}: got {value!r}, expected {ref!r} (rtol {rtol:g})")


# ------------------------------------------------------------ geometry

def served_by_brute_force(rrh_xy, user_xy, r: float) -> np.ndarray:
    """(N, K) bool: user k lies at Chebyshev distance < r from RRH i."""
    gap = np.abs(rrh_xy[:, None, :] - user_xy[None, :, :]).max(axis=2)
    return gap < r


def conflicts_by_brute_force(served: np.ndarray) -> np.ndarray:
    """(K, K) bool: two distinct users share at least one serving RRH."""
    a = served.astype(np.float32)
    c = (a.T @ a) > 0.5
    np.fill_diagonal(c, False)
    return c


def proximity_by_brute_force(user_xy, r: float) -> np.ndarray:
    """(K, K) bool: two distinct users lie at Chebyshev distance < 2r."""
    gap = np.abs(user_xy[:, None, :] - user_xy[None, :, :]).max(axis=2)
    p = gap < 2.0 * r
    np.fill_diagonal(p, False)
    return p


def dense_adjacency(neighbors) -> np.ndarray:
    """(K, K) bool adjacency from per-vertex neighbor index arrays."""
    n = len(neighbors)
    adj = np.zeros((n, n), dtype=bool)
    for k, nb in enumerate(neighbors):
        adj[k, np.asarray(nb, dtype=np.intp)] = True
    return adj


def check_association(served_users, served: np.ndarray) -> None:
    """The program's per-RRH served sets equal the brute-force ones."""
    for i, users in enumerate(served_users):
        if tuple(users) != tuple(np.flatnonzero(served[i]).tolist()):
            raise CheckError(f"RRH {i}: served set differs from the brute-force ball")


def check_graph(adj: np.ndarray, ref: np.ndarray, what: str) -> None:
    """A graph's edges equal the brute-force relation."""
    if adj.shape != ref.shape or not np.array_equal(adj, adj.T):
        raise CheckError(f"{what}: adjacency is not a symmetric {ref.shape} relation")
    wrong = np.argwhere(adj != ref)
    if wrong.size:
        k, m = wrong[0]
        raise CheckError(f"{what}: {wrong.shape[0] // 2} edges differ, first ({k}, {m})")


def check_coloring(colors, num_colors: int, conflict: np.ndarray, served: np.ndarray | None = None) -> None:
    """Proper on the brute-force relation, colors exactly 0..num_colors-1, and
    max_i |U_i| <= num_colors <= max degree + 1."""
    c = np.asarray(colors)
    if c.shape != (conflict.shape[0],):
        raise CheckError(f"coloring covers {c.shape} users, expected {conflict.shape[0]}")
    clash = np.argwhere(conflict & (c[:, None] == c[None, :]))
    if clash.size:
        k, m = clash[0]
        raise CheckError(f"users {k} and {m} conflict but share color {c[k]}")
    if c.size and (c.min() != 0 or np.unique(c).size != num_colors or c.max() != num_colors - 1):
        raise CheckError(f"colors used are not exactly 0..{num_colors - 1}")
    max_degree = int(conflict.sum(axis=1).max()) if c.size else 0
    if num_colors > max_degree + 1:
        raise CheckError(f"{num_colors} colors exceed max degree + 1 = {max_degree + 1}")
    if served is not None:
        largest = int(served.sum(axis=1).max())
        if num_colors < largest:
            raise CheckError(f"{num_colors} colors are fewer than the largest served set {largest}")


# ----------------------------------------------------------- estimation

def mse_closed_form(large_scale, energy, colors, served_users, n0: float) -> np.ndarray:
    """Error variances of per-RRH MMSE with a locally orthogonal book.

    Served user k of color c at RRH i: with a = g^2 E and den = a + n0,
    mse = 1 - a/den + a (S[i, c] - a) / den^2, where S[i, c] is the pilot
    energy RRH i receives on color c. Unserved pairs keep the prior, 1.
    """
    colors = np.asarray(colors)
    g2e = large_scale**2 * np.asarray(energy)[None, :]
    onehot = np.zeros((colors.size, int(colors.max()) + 1))
    onehot[np.arange(colors.size), colors] = 1.0
    s = g2e @ onehot
    mse = np.ones_like(large_scale)
    for i, users in enumerate(served_users):
        u = np.asarray(users, dtype=np.intp)
        if len(set(colors[u].tolist())) != u.size:
            raise CheckError(f"RRH {i} serves two users of one color: book is not locally orthogonal")
        a = g2e[i, u]
        den = a + n0
        mse[i, u] = 1.0 - a / den + a * (s[i, colors[u]] - a) / den**2
    return mse


def check_mse(mse, ref, what: str) -> None:
    bad = np.abs(mse - ref) > MSE_RTOL * np.abs(ref)
    if bad.any() or not np.all(np.isfinite(mse)):
        i, k = np.argwhere(bad | ~np.isfinite(mse))[0]
        raise CheckError(f"{what}: mse[{i}, {k}] = {mse[i, k]!r}, closed form {ref[i, k]!r}")


def rate_by_slogdet(h_hat, mse, large_scale, alpha: float, beta_prime, p0: float, n0: float) -> float:
    """(1 - alpha) ln det(I + R_v^-1 H R_x H^H), H the estimated effective channel."""
    px = np.broadcast_to(np.asarray(beta_prime, dtype=float), (large_scale.shape[1],)) * p0
    sigma2 = (large_scale**2 * mse) @ px + n0
    h = h_hat * large_scale
    m = np.eye(h.shape[0]) + ((h * px) @ h.conj().T) / sigma2[:, None]
    sign, logabs = np.linalg.slogdet(m)
    if abs(sign) == 0:
        raise CheckError("I + R_v^-1 H R_x H^H is singular")
    return (1.0 - alpha) * float(logabs)


def check_rate(rate: float, ref: float, what: str) -> None:
    check_close(rate, ref, RATE_RTOL, what)


# ------------------------------------------------------------------ CSV

def chromatic_bound(rho: float) -> float:
    """4 f^-1(1/(4 rho)) with f(x) = 1 - x + x ln x on [1, inf)."""
    return 4.0 * _rate_inverse(1.0 / (4.0 * rho))


def degree_bound(rho: float) -> float:
    """16 f^-1(1/(16 rho))."""
    return 16.0 * _rate_inverse(1.0 / (16.0 * rho))


def _rate_inverse(y: float) -> float:
    hi = 2.0
    while 1.0 - hi + hi * math.log(hi) < y:
        hi *= 2.0
    return brentq(lambda x: 1.0 - x + x * math.log(x) - y, 1.0, hi, xtol=1e-15, rtol=1e-15)


def parse_csv(text: str) -> list:
    """Rows of a lotrain CSV as dicts; the header must be the pinned one."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckError(f"CSV header is {lines[0] if lines else None!r}, expected the pinned header")
    keys = CSV_HEADER.split(",")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(keys):
            raise CheckError(f"CSV line {n} has {len(cells)} cells, expected {len(keys)}")
        rows.append(dict(zip(keys, cells)))
    return rows


def _num(row: dict, key: str) -> float:
    v = float(row[key])
    if not math.isfinite(v):
        raise CheckError(f"{row['metric']} {key} is not finite")
    return v


def check_throughput_csv(rows: list, cfg: dict, radii: list) -> dict:
    """Shape and invariants of a compare or sweep-r CSV over ``radii``.

    Each radius carries either one ``infeasible_training_length`` row, or one
    throughput row per (scheme, SNR) and one ``training_length`` row per
    scheme. Returns {(r, scheme, snr): throughput in bits},
    {(r, scheme): training length} and {r: infeasible length}, keyed under
    "rates", "lengths" and "infeasible".
    """
    schemes, snrs, t, k = cfg["schemes"], cfg["snr_db"], cfg["t_coherence"], cfg["n_user"]
    rates, lengths, infeasible, pos = {}, {}, {}, 0
    for r in map(float, radii):
        if pos < len(rows) and rows[pos]["metric"] == "infeasible_training_length":
            chi = _num(rows[pos], "value")
            if chi < t:
                raise CheckError(f"r={r}: infeasible length {chi} is below T = {t}")
            infeasible[r] = chi
            pos += 1
            continue
        want = [w for s in schemes for w in
                [(s, snr, "throughput_bits_per_use") for snr in snrs] + [(s, None, "training_length")]]
        got = rows[pos:pos + len(want)]
        if len(got) != len(want):
            raise CheckError(f"r={r}: {len(got)} rows, expected {len(want)}")
        for row, (s, snr, metric) in zip(got, want):
            if (row["scheme"], row["metric"]) != (s, metric):
                raise CheckError(f"r={r}: row {row['scheme']}/{row['metric']}, expected {s}/{metric}")
            if int(row["K"]) != k or float(row["r"]) != r or int(row["T"]) != t:
                raise CheckError(f"r={r}: K, r or T column disagrees with the config")
            value = _num(row, "value")
            if metric == "training_length":
                lengths[(r, s)] = value
                if s == "global-orthogonal" and value != min(k, t // 2):
                    raise CheckError(f"global-orthogonal trains {value} symbols, expected min(K, T/2)")
                if not 1 <= value < t:
                    raise CheckError(f"{s} training length {value} outside [1, T)")
            else:
                if float(row["snr_db"]) != snr:
                    raise CheckError(f"r={r}: SNR column {row['snr_db']}, expected {snr}")
                if not value > 0 or _num(row, "stderr") < 0:
                    raise CheckError(f"{s} at {snr} dB: throughput {value} is not positive")
                rates[(r, s, snr)] = value
        pos += len(want)
    if pos != len(rows):
        raise CheckError(f"CSV has {len(rows)} rows, expected {pos}")
    return {"rates": rates, "lengths": lengths, "infeasible": infeasible}


SCALING_ROWS = (
    ("shared-rrh", "mean_colors"), ("shared-rrh", "normalized_colors"),
    ("proximity-2r", "mean_colors"), ("proximity-2r", "normalized_colors"),
    ("shared-rrh", "normalized_max_degree_plus_one"),
    ("proximity-2r", "normalized_max_degree_plus_one"),
    ("diagnostic", "dsatur_subgraph_exceeds_count"),
    ("theory", "chromatic_scaling_bound"), ("theory", "degree_scaling_bound"),
)


def check_scaling_csv(rows: list, cfg: dict) -> dict:
    """Shape and invariants of a scaling CSV; returns {(K, scheme, metric): value}."""
    rho, side = cfg["rho"], cfg["side"]
    want = len(cfg["k_grid"]) * len(SCALING_ROWS)
    if len(rows) != want:
        raise CheckError(f"CSV has {len(rows)} rows, expected {want}")
    chrom, deg = chromatic_bound(rho), degree_bound(rho)
    out = {}
    for j, k in enumerate(cfg["k_grid"]):
        got = rows[j * len(SCALING_ROWS):(j + 1) * len(SCALING_ROWS)]
        for row, (scheme, metric) in zip(got, SCALING_ROWS):
            if (row["scheme"], row["metric"], int(row["K"])) != (scheme, metric, k):
                raise CheckError(f"K={k}: row {row['scheme']}/{row['metric']}, expected {scheme}/{metric}")
            out[(k, scheme, metric)] = _num(row, "value")
        check_close(float(got[0]["r"]), math.sqrt(rho * math.log(k) * side**2 / k), CSV_RTOL, f"K={k} radius")
        norm = rho * math.log(k)
        for scheme in ("shared-rrh", "proximity-2r"):
            mean = out[(k, scheme, "mean_colors")]
            check_close(out[(k, scheme, "normalized_colors")], mean / norm, CSV_RTOL,
                   f"K={k} {scheme} normalized_colors")
            if mean / norm > out[(k, scheme, "normalized_max_degree_plus_one")] * (1 + CSV_RTOL):
                raise CheckError(f"K={k} {scheme}: mean colors exceed mean max degree + 1")
        check_close(out[(k, "theory", "chromatic_scaling_bound")], chrom, BOUND_RTOL, "chromatic_scaling_bound")
        check_close(out[(k, "theory", "degree_scaling_bound")], deg, BOUND_RTOL, "degree_scaling_bound")
    return out
