"""Experiment harness: reproducible studies behind each figure-style result.

One runner, ``run_experiment``, serves every CLI subcommand. Each experiment
is a grid of (K, r) points, a trial kernel and a per-point aggregation:

  scaling   K over k_grid, r tracking rho; DSATUR colors vs the bounds
  density   one point; distribution of per-RRH served-set sizes
  compare   one point; throughput of the configured schemes over SNR
  sweep-k   K over k_grid at fixed (or rho-matched) radius; throughput
  sweep-r   r over r_grid; throughput, flagging infeasible radii

The runner maps independent (config, K, r, trial) items (seeded by (master
seed, trial index) only) and aggregates in grid and trial order, so output is
byte-identical at any worker count. Schemes inside one trial share the
layout, small-scale fading, and training noise draws: paired comparisons,
not independent ones.
"""

import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import partial

import numpy as np

from . import _BLAS_PINNED, _BLAS_VARS, pilots
from ._parallel import pool_map
from .association import AssociationMap, refine, sparsify
from .channel import (
    FADING_SALT,
    LAYOUT_SALT,
    NOISE_SALT,
    SCHEME_SALT,
    complex_gaussian,
    data_power_coefficients,
    generate_channel,
    mmse_estimate,
    snr_db_to_noise_power,
    throughput_lower_bound,
)
from .coloring import Coloring, dsatur
from .errors import ConsistencyError, ParameterError, TrainingLengthError
from .geometry import RNG_ALGORITHM, _rng, generate_layout
from .graphs import build_conflict_graph, build_proximity_graph, max_degree
from .pilots import PilotBook, _beta_array, build_pilot_book
from .scaling import chromatic_scaling_bound, degree_scaling_bound, radius_for_rho

NATS_TO_BITS = 1.0 / np.log(2.0)

SCHEMES = ("proposed", "refined", "random-pilot", "global-orthogonal")
_SCHEME_STREAM = {"random-pilot": 1, "global-orthogonal": 2}

CSV_HEADER = "experiment,scheme,K,N,r0,r,T,eta,snr_db,trials,metric,value,stderr,seed,config_hash"


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of one experiment run.

    Defaults follow the reference simulation setup: a 100 m square, path-loss
    exponent 3.5, coherence time 100, load factor rho = 0.5. Trials run at
    unit power p0 = 1, so snr_db alone sets the noise power. Fields irrelevant
    to a given experiment may stay None; the runner validates what each
    experiment needs.
    """

    experiment: str
    n_rrh: int
    n_user: int | None = None
    k_grid: tuple[int, ...] | None = None
    side: float = 100.0
    threshold: float | None = None
    r_grid: tuple[float, ...] | None = None
    rho: float | None = None
    t_coherence: int = 100
    eta: float = 3.5
    beta: float = 1.0
    snr_db: tuple[float, ...] = (20.0,)
    schemes: tuple[str, ...] = ("proposed",)
    trials: int = 100
    seed: int = 0
    min_distance: float = 1.0
    workers: int = 1

    def __post_init__(self):
        for key, low in (("n_rrh", 1), ("trials", 1), ("seed", 0), ("workers", 1),
                         ("t_coherence", 2)):
            _check_int(key, getattr(self, key), low)
        if self.n_user is not None:
            _check_int("n_user", self.n_user, 1)
        for k in self.k_grid or ():
            _check_int("k_grid entry", k, 1)
        for key in ("side", "eta", "min_distance"):
            _check_real(key, getattr(self, key))
        _check_real("beta", self.beta, inclusive=True)
        for key in ("threshold", "rho"):
            if getattr(self, key) is not None:
                _check_real(key, getattr(self, key))
        for r in self.r_grid or ():
            _check_real("r_grid entry", r)
        if not self.snr_db:
            raise ParameterError("snr_db grid must be nonempty")
        # the estimator squares den = gamma^2 E + n0, whose training energy E
        # reaches T beta (at p0 = 1) and gain gamma^2 min_distance^-eta
        try:
            peak = self.t_coherence * self.beta * self.min_distance ** -self.eta
        except OverflowError:
            peak = math.inf
        for snr in self.snr_db:
            _check_real("snr_db entry", snr, floor=-math.inf)
            try:
                n0 = snr_db_to_noise_power(snr)
            except OverflowError:
                n0 = math.inf
            if not (n0 * n0 >= sys.float_info.min and (peak + n0) * (peak + n0) < math.inf):
                raise ParameterError(f"snr_db entry {snr!r} puts the noise power at {n0:.3g} and the "
                                     f"received training energy at up to {peak:.3g}; the estimator "
                                     "squares both, and each square must stay a normal double")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ParameterError(f"schemes: unknown scheme {s!r}; choose from {SCHEMES}")
        for key in ("k_grid", "r_grid", "snr_db", "schemes"):
            values = getattr(self, key) or ()
            if len(set(values)) < len(values):
                raise ParameterError(f"{key} must not list an entry twice, got {list(values)!r}")
        if "global-orthogonal" in self.schemes and self.t_coherence % 2:
            raise ParameterError(
                f"t_coherence must be even for global-orthogonal (half the frame trains), "
                f"got {self.t_coherence}")
        k = max(self.k_grid) if self.experiment == "sweep-k" and self.k_grid else self.n_user
        if "global-orthogonal" in self.schemes and k is not None:  # it trains min(K, T/2) uses
            _check_beta(self.beta, min(k, self.t_coherence // 2), self.t_coherence,
                        f"for global-orthogonal at K = {k}")


def _check_int(key: str, value, low: int) -> None:
    """Reject anything but an integer >= low; JSON true/false are not integers."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ParameterError(f"{key} must be an integer >= {low}, got {value!r}")


def _check_beta(beta: float, length: int, t_coh: int, where: str) -> None:
    """Reject beta above 1/alpha = T / length, which leaves negative data power."""
    if length / t_coh * beta > 1.0:  # data_power_coefficients' test, term for term
        raise ParameterError(f"beta = {beta!r} exceeds 1/alpha = {t_coh}/{length} {where}: "
                             "training overdraws the energy")


def _check_real(key: str, value, floor: float = 0.0, inclusive: bool = False) -> None:
    """Reject anything but a finite number above floor (or at it, if inclusive)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < floor
            or (value == floor and not inclusive)):
        bound = f" {'>=' if inclusive else '>'} {floor}" if math.isfinite(floor) else ""
        raise ParameterError(f"{key} must be a finite number{bound}, got {value!r}")


_TUPLE_FIELDS = {"k_grid", "r_grid", "snr_db", "schemes"}


def load_config(path) -> dict:
    """Parse a flat ``key = value`` file with JSON-typed values, # comments.

    A ``#`` starts a comment only on a line of its own or after the complete
    JSON value, so it may appear inside a JSON string. A key may appear once.
    A UTF-8 byte-order mark at the start of the file is skipped.
    """
    mapping = {}
    decoder = json.JSONDecoder()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            val = val.strip()
            try:
                value, end = decoder.raw_decode(val)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"{path}:{lineno}: bad value: {exc}") from exc
            rest = val[end:].strip()
            if rest and not rest.startswith("#"):
                raise ParameterError(f"{path}:{lineno}: unexpected text after the value: {rest!r}")
            key = key.strip()
            if key in mapping:
                raise ParameterError(f"{path}:{lineno}: repeated key {key!r}")
            mapping[key] = value
    return mapping


def config_from_mapping(experiment: str, mapping: dict) -> ExperimentConfig:
    """Build a config for one experiment kind, rejecting unknown keys."""
    known = {f.name for f in fields(ExperimentConfig)} - {"experiment"}
    unknown = set(mapping) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    payload = dict(mapping)
    for key in _TUPLE_FIELDS & set(payload):
        val = payload[key]
        if not isinstance(val, (list, tuple)) or not val:
            raise ParameterError(f"{key} must be a nonempty list")
        payload[key] = tuple(val)
    return ExperimentConfig(experiment=experiment, **payload)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the fully resolved config, for replay audits."""
    payload = asdict(cfg)
    # worker count never changes the numbers, so it must not change the hash
    payload.pop("workers")
    # the retired keys' one value each, so every digest made before they went stays
    payload.update(p0=1.0, resample_layout="per-trial")
    blob = json.dumps({**payload, "rng": RNG_ALGORITHM}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ResultRow:
    """One CSV record; field order matches the CSV schema."""

    experiment: str
    scheme: str
    k: int
    n: int
    r0: float
    r: float
    t: int
    eta: float
    snr_db: float | None
    trials: int
    metric: str
    value: float
    stderr: float | None
    seed: int
    config_hash: str


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def emit_csv(rows: list, path) -> None:
    """Write rows under the pinned header. Refuses an empty row list."""
    if not rows:
        raise ConsistencyError("refusing to write a CSV with no result rows")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, astuple(row))) + "\n")


def _mean_se(values) -> tuple[float, float]:
    a = np.asarray(values, dtype=float)
    se = float(np.std(a, ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0
    return float(np.mean(a)), se


# ---------------------------------------------------------------- baselines

def baseline_random_pilots(length: int, n_user: int, rng: np.random.Generator,
                           beta=1.0, p0: float = 1.0) -> PilotBook:
    """Independent CSCG pilot per user, matched in length and training power.

    Each row is normalized so the power constraint is met with equality, like
    the structured pilots; only the (local) orthogonality is given up.
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if not p0 > 0:
        raise ParameterError(f"p0 must be positive, got {p0}")
    b = _beta_array(beta, n_user)
    g = complex_gaussian(rng, (n_user, length))
    pilots = g * (np.sqrt(length * b * p0) / np.linalg.norm(g, axis=1))[:, None]
    return PilotBook(pilots, b, float(p0), None)


def baseline_global_orthogonal(t_coherence: int, n_user: int, rng: np.random.Generator,
                               beta: float = 1.0, p0: float = 1.0):
    """Classical network-wide orthogonal training.

    Half the frame is training, so at most t_coherence/2 users can be active:
    a uniformly random subset that size (all users when fewer). The scheme
    is the problem of its active users alone, and its book is the pilot book
    of the coloring that gives active user j color j. The other users
    neither train nor send data.

    Returns (active_indices, PilotBook); the book has one row per active user.
    """
    if t_coherence < 2 or t_coherence % 2:
        raise ParameterError(f"t_coherence must be even and >= 2, got {t_coherence}")
    cap = t_coherence // 2
    active = (np.arange(n_user) if n_user <= cap
              else np.sort(rng.choice(n_user, size=cap, replace=False))).astype(np.intp)
    # through its module: the kernels' own build_pilot_book is the shared colored book
    return active, pilots.build_pilot_book(Coloring(np.arange(active.size), active.size), beta, p0)


def _global_orthogonal_assoc(n_rrh: int, n_user: int) -> AssociationMap:
    # every RRH estimates every user; the infinite radius marks the scheme
    return AssociationMap(np.repeat(np.arange(n_rrh), n_user), np.tile(np.arange(n_user), n_rrh),
                          n_rrh, n_user, float("inf"))


# ------------------------------------------------------------ trial kernels
#
# Each kernel takes one (cfg, K, r, trial) item and draws everything it needs
# from (cfg.seed, trial), so items are independent and order-free.

def _draw(cfg: ExperimentConfig, k: int, r: float, trial: int) -> tuple:
    """The trial's layout of K users and its association at radius r."""
    layout = generate_layout(cfg.n_rrh, k, cfg.side,
                             np.random.SeedSequence(cfg.seed, spawn_key=(LAYOUT_SALT, trial)))
    return layout, sparsify(layout, r)


def _coloring_trial(item) -> dict:
    layout, assoc = _draw(*item)
    shared = build_conflict_graph(assoc)
    prox = build_proximity_graph(layout, assoc.threshold)
    return {
        "colors_shared": dsatur(shared).num_colors,
        "colors_prox": dsatur(prox).num_colors,
        "maxdeg_shared": max_degree(shared),
        "maxdeg_prox": max_degree(prox),
    }


def _density_trial(item) -> dict:
    _, assoc = _draw(*item)
    counts = np.bincount(assoc.rrh, minlength=assoc.n_rrh)
    return {
        "histogram": np.bincount(counts),
        "mean_served": float(np.mean(counts)),
        "colors": dsatur(build_conflict_graph(assoc)).num_colors,
    }


def _throughput_trial(item) -> dict:
    """All configured schemes at all SNRs on shared random draws. Each scheme
    resolves to one (channel, association, pilot book) triple, and
    global-orthogonal's holds its active users alone. Every scheme runs at
    unit power. Only sweep-r returns an infeasible coloring instead of raising."""
    cfg, n_user, r, trial = item
    seed, t_coh = cfg.seed, cfg.t_coherence
    layout, assoc = _draw(*item)
    col = dsatur(build_conflict_graph(assoc))
    chi = col.num_colors
    needs_coloring = any(s != "global-orthogonal" for s in cfg.schemes)
    if needs_coloring and chi >= t_coh:
        if cfg.experiment == "sweep-r":
            return {"infeasible": chi}
        raise TrainingLengthError(f"training length {chi} reaches the coherence time {t_coh}")
    if needs_coloring:
        _check_beta(cfg.beta, chi, t_coh, f"at K = {n_user}, r = {r!r}, where chi = {chi}")
    chan = generate_channel(layout, cfg.eta,
                            np.random.SeedSequence(seed, spawn_key=(FADING_SALT, trial)),
                            cfg.min_distance)
    # one standard-normal noise block per trial; schemes slice their training
    # length and scale by sqrt(n0), so comparisons are paired
    z0 = complex_gaussian(_rng(np.random.SeedSequence(seed, spawn_key=(NOISE_SALT, trial))),
                          (cfg.n_rrh, t_coh))
    # proposed and refined differ only in association: they share one book
    colored = (build_pilot_book(col, cfg.beta)
               if {"proposed", "refined"} & set(cfg.schemes) else None)
    rates: dict = {}
    lengths: dict = {}
    for scheme in cfg.schemes:
        rng_s = (_rng(np.random.SeedSequence(seed, spawn_key=(SCHEME_SALT, trial, _SCHEME_STREAM[scheme])))
                 if scheme in _SCHEME_STREAM else None)
        chan_s, a_s, book = chan, assoc, colored
        if scheme == "refined":
            a_s = refine(assoc, layout, col)
        elif scheme == "random-pilot":
            book = baseline_random_pilots(chi, n_user, rng_s, cfg.beta)
        elif scheme == "global-orthogonal":
            active, book = baseline_global_orthogonal(t_coh, n_user, rng_s, cfg.beta)
            chan_s = replace(chan, small_scale=chan.small_scale[:, active],
                             large_scale=chan.large_scale[:, active])
            a_s = _global_orthogonal_assoc(cfg.n_rrh, active.size)
        length = book.training_length
        alpha = length / t_coh
        bp = data_power_coefficients(cfg.beta, alpha, book.n_user)
        lengths[scheme] = length
        for snr in cfg.snr_db:
            n0 = snr_db_to_noise_power(snr)
            est = mmse_estimate(chan_s, book, a_s, n0, noise=np.sqrt(n0) * z0[:, :length])
            # p0 = 1 stays positional: bench/run.py reads the rate call's fifth argument
            rate = rates[(scheme, snr)] = throughput_lower_bound(est, chan_s, alpha, bp, 1.0)
            if not math.isfinite(rate):  # no NaN may reach a CSV
                raise ConsistencyError(f"{scheme} at snr_db {snr!r}, K = {n_user}, r = {r!r}: the rate is {rate}")
    return {"rates": rates, "lengths": lengths}


# ----------------------------------------------------------------- runner

def _grid(cfg: ExperimentConfig) -> list:
    """The (K, r) points of cfg.experiment in grid order. The radius is an
    r_grid entry for sweep-r, else the fixed threshold if configured, else
    (and always for scaling) the density-matched radius for rho at each K."""
    name = cfg.experiment
    key = "k_grid" if name in ("scaling", "sweep-k") else "n_user"
    ks = cfg.k_grid if key == "k_grid" else (cfg.n_user,)
    if not ks or ks[0] is None:
        raise ParameterError(f"{name} requires {key}")
    if name == "sweep-r":
        if not cfg.r_grid:
            raise ParameterError("sweep-r requires r_grid")
        return [(cfg.n_user, float(r)) for r in cfg.r_grid]
    if cfg.threshold is not None and name != "scaling":
        return [(k, float(cfg.threshold)) for k in ks]
    if cfg.rho is None:
        raise ParameterError(f"{name} requires " + ("rho (the radius tracks each K)"
                                                   if name == "scaling" else "threshold or rho"))
    if min(ks) < 2:
        raise ParameterError(f"{key}: a radius matched to rho needs at least 2 users, got {min(ks)}")
    return [(k, radius_for_rho(k, k / cfg.side**2, cfg.rho)) for k in ks]


def _row(cfg: ExperimentConfig, digest: str, k: int, r: float, scheme: str,
         metric: str, value: float, stderr: float | None, snr: float | None = None) -> ResultRow:
    return ResultRow(cfg.experiment, scheme, k, cfg.n_rrh, cfg.side, r, cfg.t_coherence,
                     cfg.eta, snr, cfg.trials, metric, value, stderr, cfg.seed, digest)


def _scaling_rows(cfg: ExperimentConfig, k: int, r: float, results: list, row) -> list:
    """DSATUR color counts on both graphs, normalized by delta*r**2, alongside
    the asymptotic bounds."""
    norm = (k / cfg.side**2) * r**2  # equals rho * ln(k)
    rows = []
    for scheme, key in (("shared-rrh", "colors_shared"), ("proximity-2r", "colors_prox")):
        vals = [c[key] for c in results]
        rows.append(row(scheme, "mean_colors", *_mean_se(vals)))
        rows.append(row(scheme, "normalized_colors", *_mean_se([v / norm for v in vals])))
    for scheme, key in (("shared-rrh", "maxdeg_shared"), ("proximity-2r", "maxdeg_prox")):
        rows.append(row(scheme, "normalized_max_degree_plus_one",
                        *_mean_se([(c[key] + 1) / norm for c in results])))
    exceed = sum(1 for c in results if c["colors_shared"] > c["colors_prox"])
    rows.append(row("diagnostic", "dsatur_subgraph_exceeds_count", float(exceed), None))
    rows.append(row("theory", "chromatic_scaling_bound", chromatic_scaling_bound(cfg.rho), None))
    rows.append(row("theory", "degree_scaling_bound", degree_scaling_bound(cfg.rho), None))
    return rows


def _density_rows(cfg: ExperimentConfig, k: int, r: float, results: list, row) -> list:
    """Empirical distribution of served-set sizes |U_i| plus the mean color
    count of the plain scheme at the same radius."""
    width = max(res["histogram"].size for res in results)
    pdf = np.zeros((len(results), width))
    for i, res in enumerate(results):
        h = res["histogram"]
        pdf[i, : h.size] = h / h.sum()
    rows = [row("proposed", f"served_count_pdf_{j}", *_mean_se(pdf[:, j])) for j in range(width)]
    rows.append(row("proposed", "mean_served_users", *_mean_se([res["mean_served"] for res in results])))
    rows.append(row("proposed", "mean_colors", *_mean_se([res["colors"] for res in results])))
    return rows


def _throughput_rows(cfg: ExperimentConfig, k: int, r: float, results: list, row) -> list:
    """Rates (in bits) and training lengths of every scheme, or one
    infeasible-training-length row if any trial's coloring reached T."""
    feasible = [res for res in results if "infeasible" not in res]
    if len(feasible) < len(results):
        boundary = max(res["infeasible"] for res in results if "infeasible" in res)
        return [row("proposed", "infeasible_training_length", float(boundary), None)]
    rows = []
    for scheme in cfg.schemes:
        for snr in cfg.snr_db:
            m, se = _mean_se([res["rates"][(scheme, snr)] for res in feasible])
            rows.append(row(scheme, "throughput_bits_per_use", m * NATS_TO_BITS,
                            se * NATS_TO_BITS, snr))
        rows.append(row(scheme, "training_length",
                        *_mean_se([res["lengths"][scheme] for res in feasible])))
    return rows


# experiment -> (trial kernel, per-point aggregation)
_STUDIES = {
    "scaling": (_coloring_trial, _scaling_rows),
    "density": (_density_trial, _density_rows),
    "compare": (_throughput_trial, _throughput_rows),
    "sweep-k": (_throughput_trial, _throughput_rows),
    "sweep-r": (_throughput_trial, _throughput_rows),
}


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run cfg.experiment's trials at every grid point and aggregate them
    into CSV rows, point by point in grid order.

    Only sweep-r records a point whose coloring reaches the coherence time
    as infeasible; every other experiment raises TrainingLengthError.
    """
    if cfg.experiment not in _STUDIES:
        raise ParameterError(f"unknown experiment {cfg.experiment!r}; choose from {sorted(_STUDIES)}")
    if not _BLAS_PINNED and any(os.environ.get(v) != "1" for v in _BLAS_VARS):
        import logging  # here alone: every CLI start would pay for it

        logging.getLogger(__name__).warning(
            "numpy was imported before lotrain with %s not all 1: BLAS may run several threads, and the "
            "CSV bytes can differ from a one-thread run; import lotrain first", ", ".join(_BLAS_VARS))
    kernel, aggregate = _STUDIES[cfg.experiment]
    points = _grid(cfg)
    items = [(cfg, k, r, t) for k, r in points for t in range(cfg.trials)]
    results = pool_map(kernel, items, cfg.workers)
    digest = config_hash(cfg)
    rows = []
    for j, (k, r) in enumerate(points):
        row = partial(_row, cfg, digest, k, r)
        rows.extend(aggregate(cfg, k, r, results[j * cfg.trials:(j + 1) * cfg.trials], row))
    return rows


# bench/run.py replays every experiment through this mapping
RUNNERS = {name: run_experiment for name in _STUDIES}
