"""Benchmark of the lotrain CLI on three shipped configs.

Run from the repository root:

    python3 bench/run.py --workload compare --seed 1 --seconds 30 --trace 0

Workloads are ``compare``, ``scaling`` and ``sweep-r``: the shipped
``configs/<workload>.cfg``, cut only through the CLI's ``--trials``, with the
benchmark's ``--seed`` passed on as the CLI's ``--seed``. ``sweep-r`` runs
two worker processes that oversubscribe the BLAS threads, so its timings
spread too widely for a bound; it is kept for manual runs and is not listed
in BENCHMARK.json (see bench/README.md).

``--trace 0`` measures set-up time in fresh interpreters, then runs
``python -m lotrain`` again and again for ``--seconds`` and reports the
end-to-end metrics as medians over those runs. ``--trace 1`` runs the CLI
once, replays the same trials in this process with a span around every layer,
checks every captured output against the benchmark's own references, and
reports the per-layer metrics. The line before the last on stdout is the run
record (versions, thread variables, seed); the last line is the result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# checks and tracing import numpy, scipy and lotrain, so they are imported
# inside functions: a traced run times lotrain's import before they load.

# trials per CLI run; sweep-r is the only workload that runs worker processes
WORKLOADS = {
    "compare": {"trials": 2, "workers": 1},
    "scaling": {"trials": 2, "workers": 1},
    "sweep-r": {"trials": 2, "workers": 2},
}
CONFIG_DEFAULTS = {"side": 100.0, "t_coherence": 100, "eta": 3.5, "beta": 1.0, "p0": 1.0,
                   "min_distance": 1.0, "schemes": ["proposed"], "snr_db": [20.0]}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 2
MIN_ROUNDS = 3
DEADLINE_S = 165.0  # a run must end within 180 s; CLI runs past this are killed
SETUP_CODE = (
    "import json, sys, lotrain\n"
    "from lotrain.experiments import config_from_mapping, load_config\n"
    "m = load_config(sys.argv[2])\n"
    "m.update(json.loads(sys.argv[3]))\n"
    "config_from_mapping(sys.argv[1], m)\n"
)
E2E_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "cpu_s_per_trial": "s", "peak_rss_mb": "MB"}
MMSE_SCHEMES = ("proposed", "refined", "random-pilot", "global-orthogonal")
LAYER_SPANS = (
    "geometry.generate_layout", "association.sparsify", "association.refine",
    "graphs.build_conflict_graph", "graphs.build_proximity_graph", "coloring.dsatur",
    "pilots.build_pilot_book", "channel.generate_channel",
    *(f"channel.mmse_estimate.{s}" for s in MMSE_SCHEMES),
    "channel.throughput_lower_bound",
    "experiments.baseline_random_pilots", "experiments.baseline_global_orthogonal",
)


def read_config(path: Path, overrides: dict) -> dict:
    """The workload's config as the CLI resolves it: file values over the
    documented defaults, then the command-line overrides."""
    cfg = dict(CONFIG_DEFAULTS)
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            cfg[key.strip()] = json.loads(value)
    cfg.update(overrides)
    return cfg


def calls_per_run(workload: str, cfg: dict) -> int:
    """Trial-kernel calls one CLI run makes: one per trial and grid point."""
    grid = {"scaling": "k_grid", "sweep-r": "r_grid"}.get(workload)
    return cfg["trials"] * (len(cfg[grid]) if grid else 1)


def cli_env() -> dict:
    """The caller's environment with the checkout's sources first on the
    path. BLAS thread variables are passed through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def machine_speed_s() -> float:
    """Best of three timings of a fixed pure-Python loop. Recorded beside
    the metrics so that drift in the machine's own speed can be told apart
    from a change in the program; it enters no metric."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def run_record(args, spec: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a plain checkout carries no git metadata
    digest = hashlib.sha256()
    for f in sorted((SRC / "lotrain").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "trials": spec["trials"],
        "workers": spec["workers"],
        "trace": args.trace,
        "seconds": args.seconds,
    }


# ------------------------------------------------------------- processes

def run_child(cmd: list, deadline: float, log: Path) -> dict:
    """Run cmd to its end; wall time, CPU and peak RSS of it and every
    descendant it waited for. Killed at ``deadline`` (perf_counter time)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def cli_command(workload: str, cfg_path: Path, csv: Path, spec: dict, seed: int) -> list:
    return [sys.executable, "-m", "lotrain", workload, "--config", str(cfg_path), "--out", str(csv),
            "--trials", str(spec["trials"]), "--seed", str(seed), "--workers", str(spec["workers"])]


def radii(workload: str, cfg: dict) -> list:
    """Grid of a throughput workload: sweep-r's radii, or compare's one."""
    return [float(r) for r in cfg["r_grid"]] if workload == "sweep-r" else [float(cfg["threshold"])]


def check_csv(workload: str, cfg: dict, text: str) -> dict:
    import checks

    rows = checks.parse_csv(text)
    if workload == "scaling":
        return checks.check_scaling_csv(rows, cfg)
    return checks.check_throughput_csv(rows, cfg, radii(workload, cfg))


def measure(args, spec: dict, cfg_path: Path, cfg: dict, record: dict) -> tuple:
    """Untraced: set-up medians, then whole CLI runs until --seconds is used."""
    import checks

    deadline = time.perf_counter() + DEADLINE_S
    overrides = json.dumps({"trials": spec["trials"], "seed": args.seed, "workers": spec["workers"]})
    setup_cmd = [sys.executable, "-c", SETUP_CODE, args.workload, str(cfg_path), overrides]
    log = OUT / f"{args.workload}-seed{args.seed}.log"
    run_child(setup_cmd, deadline, log)  # writes the bytecode caches; not timed
    # set-up is timed before the first CLI run and after each one, so that its
    # median spans the same stretch of time as the CLI runs
    setups = [run_child(setup_cmd, deadline, log) for _ in range(SETUP_REPS)]
    calls = calls_per_run(args.workload, cfg)
    csv = OUT / f"{args.workload}-seed{args.seed}.csv"
    rounds, runs, failed, first_text, correct, errors = [], 0, 0, None, True, []
    start = time.perf_counter()
    speeds = [machine_speed_s()]
    while True:
        r = run_child(cli_command(args.workload, cfg_path, csv, spec, args.seed), deadline, log)
        speeds.append(machine_speed_s())
        r["speed"] = (speeds[-2] + speeds[-1]) / 2
        setups.append(run_child(setup_cmd, deadline, log))
        if r["code"] != 0:
            failed += calls
            errors.append(f"CLI exited {r['code']}; see {log}")
        else:
            rounds.append(r)
            text = csv.read_text(encoding="utf-8")
            try:
                if first_text is None:
                    first_text = text
                    check_csv(args.workload, cfg, text)
                elif text != first_text:
                    raise checks.CheckError("CSV differs between runs of the same seed")
            except checks.CheckError as exc:
                correct = False
                errors.append(str(exc))
        runs += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median([x["wall"] for x in rounds]) if rounds else elapsed / runs
        if runs >= MIN_ROUNDS and elapsed + typical > args.seconds:
            break
        if time.perf_counter() + typical > deadline:
            break
    if any(s["code"] for s in setups):
        raise SystemExit(f"set-up failed; see {log}")
    record.update(runs=runs, calls_per_run=calls, errors=errors,
                  round_speeds=[round(x["speed"], 5) for x in rounds],
                  round_walls=[round(x["wall"], 4) for x in rounds],
                  setup_walls=[round(s["wall"], 4) for s in setups])
    med = lambda xs: statistics.median(xs) if xs else 0.0
    metrics = {
        "trials_per_s": med([calls / x["wall"] for x in rounds]),
        "setup_s": med([s["wall"] for s in setups]),
        "cpu_s_per_trial": med([x["cpu"] / calls for x in rounds]),
        "peak_rss_mb": med([x["rss_mb"] for x in rounds]),
    }
    return correct and bool(rounds), calls * runs, failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


# ---------------------------------------------------------------- replay

def replay(args, spec: dict, cfg_path: Path, cfg: dict, record: dict) -> tuple:
    """Traced: one untraced CLI run, then the same trials in-process with
    spans; checks every captured output and the CLI's CSV against them."""
    deadline = time.perf_counter() + DEADLINE_S
    csv = OUT / f"{args.workload}-seed{args.seed}.csv"
    log = OUT / f"{args.workload}-seed{args.seed}.log"
    cli = run_child(cli_command(args.workload, cfg_path, csv, spec, args.seed), deadline, log)
    calls = calls_per_run(args.workload, cfg)
    if cli["code"] != 0:
        record["errors"] = [f"CLI exited {cli['code']}; see {log}"]
        return False, calls, calls, {}

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lotrain.cli  # noqa: F401  (the import a CLI run pays for)
    t1 = time.perf_counter()
    from lotrain import _parallel, experiments

    mapping = experiments.load_config(cfg_path)
    mapping.update(trials=spec["trials"], seed=args.seed, workers=spec["workers"])
    run_cfg = experiments.config_from_mapping(args.workload, mapping)
    t2 = time.perf_counter()
    import checks
    import tracing

    tracing.install()
    rep = tracing.Replay(_parallel.pool_map)
    experiments.pool_map = rep.pool_map
    t3 = time.perf_counter()
    rows = experiments.RUNNERS[args.workload](run_cfg)
    t4 = time.perf_counter()
    replay_csv = OUT / f"{args.workload}-seed{args.seed}.replay.csv"
    experiments.emit_csv(rows, replay_csv)
    t5 = time.perf_counter()
    traced_wall = (t1 - t0) + (t2 - t1) + (t5 - t3)

    correct, errors = True, []
    try:
        summaries = [check_trial(t, cfg) for t in rep.trials]
        text = csv.read_text(encoding="utf-8")
        check_against_replay(args.workload, cfg, check_csv(args.workload, cfg, text), rep.trials, summaries)
        if replay_csv.read_text(encoding="utf-8") != text:
            raise checks.CheckError("replayed CSV differs from the CLI's")
    except checks.CheckError as exc:
        correct = False
        errors.append(str(exc))
    record.update(errors=errors, cli_wall=round(cli["wall"], 4), traced_wall=round(traced_wall, 4),
                  checked_trials=len(rep.trials))
    write_spans(args, rep, t3)

    busy, direct, trial_s = defaultdict(float), 0.0, 0.0
    counts = defaultdict(int)
    for t in rep.trials:
        trial_s += t["end"] - t["start"]
        for label, s, e, depth in t["spans"]:
            busy[label] += e - s
            if depth == 0:
                direct += e - s
        for tag, _args, _kw, out in t["calls"]:
            if tag.startswith("channel.mmse_estimate."):
                counts["channel.mmse_estimate.calls"] += 1
            elif tag == "graphs.build_conflict_graph":
                counts["graphs.conflict_edges"] += sum(nb.size for nb in out.neighbors) // 2
            elif tag == "coloring.dsatur":
                counts["coloring.colors"] += out.num_colors
            elif tag == "association.sparsify":
                counts["association.served_pairs"] += sum(len(u) for u in out.served_users)
    metrics = {f"{name}_s": (busy[name], "s") for name in LAYER_SPANS}
    metrics.update({k: (counts[k], "count") for k in (
        "channel.mmse_estimate.calls", "graphs.conflict_edges", "coloring.colors",
        "association.served_pairs")})
    metrics.update({
        "experiments.trial.calls": (len(rep.trials), "count"),
        "experiments.trial_s": (trial_s, "s"),
        "experiments.trial_self_s": (trial_s - direct, "s"),
        "experiments.runner_self_s": (t4 - t3 - rep.pool_map_s, "s"),
        "experiments.emit_csv_s": (t5 - t4, "s"),
        "experiments.load_config_s": (t2 - t1, "s"),
        "cli.import_s": (t1 - t0, "s"),
        "parallel.pool_map_s": (rep.pool_map_s, "s"),
        "parallel.worker_busy_ratio": (trial_s / (rep.workers * rep.pool_map_s), "ratio"),
        "trace.overhead_s": (traced_wall - cli["wall"], "s"),
    })
    return correct, len(rep.trials), 0, metrics


def write_spans(args, rep, origin: float) -> None:
    spans = []
    for n, t in enumerate(rep.trials):
        spans.append(["experiments.trial", n, -1, t["start"] - origin, t["end"] - origin])
        spans.extend([label, n, depth, s - origin, e - origin] for label, s, e, depth in t["spans"])
    path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    path.write_text(json.dumps({"fields": ["name", "trial", "depth", "start_s", "end_s"],
                                "spans": spans}), encoding="utf-8")


def check_trial(trial: dict, cfg: dict) -> dict:
    """Check one replayed trial's captured calls against brute force and
    closed forms. Returns the brute-force colors and max degrees per graph kind."""
    import numpy as np

    import checks

    served, relation, summary = {}, {}, {"colors": {}, "maxdeg": {}}
    conflict = coloring = None
    rates = []
    for tag, args, _kw, out in trial["calls"]:
        if tag == "association.sparsify":
            layout, r = args[0], args[1]
            a = checks.served_by_brute_force(layout.rrh_xy, layout.user_xy, r)
            checks.check_association(out.served_users, a)
            served[id(out)] = a
        elif tag == "graphs.build_conflict_graph":
            a = served[id(args[0])]
            conflict = checks.conflicts_by_brute_force(a)
            checks.check_graph(checks.dense_adjacency(out.neighbors), conflict, "conflict graph")
            relation[id(out)] = (conflict, a)
        elif tag == "graphs.build_proximity_graph":
            prox = checks.proximity_by_brute_force(args[0].user_xy, args[1])
            checks.check_graph(checks.dense_adjacency(out.neighbors), prox, "proximity graph")
            if conflict is None or np.any(conflict & ~prox):
                raise checks.CheckError("conflict graph is not a subgraph of the proximity graph")
            relation[id(out)] = (prox, a)
        elif tag == "coloring.dsatur":
            rel, a = relation[id(args[0])]
            checks.check_coloring(out.colors, out.num_colors, rel, a)
            summary["colors"][args[0].kind] = out.num_colors
            summary["maxdeg"][args[0].kind] = int(rel.sum(axis=1).max())
            if args[0].kind == "shared-rrh":
                coloring = out
        elif tag == "channel.generate_channel":
            layout = args[0]
            d = np.sqrt(((layout.rrh_xy[:, None, :] - layout.user_xy[None, :, :]) ** 2).sum(axis=2))
            gains = np.maximum(d, cfg["min_distance"]) ** (-cfg["eta"] / 2.0)
            if not np.allclose(out.large_scale, gains, rtol=1e-12, atol=0.0):
                raise checks.CheckError("large-scale gains differ from distance ** (-eta / 2)")
        elif tag in ("channel.mmse_estimate.proposed", "channel.mmse_estimate.refined"):
            chan, _book, assoc, n0 = args[:4]
            energy = np.full(chan.n_user, coloring.num_colors * cfg["beta"] * cfg["p0"])
            ref = checks.mse_closed_form(chan.large_scale, energy, coloring.colors, assoc.served_users, n0)
            checks.check_mse(out.mse, ref, tag)
        elif tag == "channel.throughput_lower_bound":
            est, chan, alpha, bp, p0 = args[:5]
            ref = checks.rate_by_slogdet(est.h_hat, est.mse, chan.large_scale, alpha, bp, p0, est.noise_power)
            checks.check_rate(out, ref, f"rate {len(rates)} of a trial")
            rates.append(out)
    result = trial["result"]
    if "rates" in result and list(result["rates"].values()) != rates:
        raise checks.CheckError("trial result rates differ from the checked rate calls")
    if "colors_shared" in result and (result["colors_shared"], result["colors_prox"]) != (
            summary["colors"]["shared-rrh"], summary["colors"]["proximity-2r"]):
        raise checks.CheckError("trial result colors differ from the checked colorings")
    return summary


def check_against_replay(workload: str, cfg: dict, csv: dict, trials: list, summaries: list) -> None:
    """The CLI's aggregates equal the means of the checked replayed trials."""
    import checks

    n = cfg["trials"]
    if workload == "scaling":
        for j, k in enumerate(cfg["k_grid"]):
            chunk = summaries[j * n:(j + 1) * n]
            norm = cfg["rho"] * math.log(k)
            for kind in ("shared-rrh", "proximity-2r"):
                checks.check_close(csv[(k, kind, "mean_colors")], math.fsum(s["colors"][kind] for s in chunk) / n,
                              checks.CSV_RTOL, f"K={k} {kind} mean_colors against the replay")
                checks.check_close(csv[(k, kind, "normalized_max_degree_plus_one")],
                              math.fsum((s["maxdeg"][kind] + 1) / norm for s in chunk) / n,
                              checks.CSV_RTOL, f"K={k} {kind} max degree against brute force")
            exceed = sum(s["colors"]["shared-rrh"] > s["colors"]["proximity-2r"] for s in chunk)
            if csv[(k, "diagnostic", "dsatur_subgraph_exceeds_count")] != exceed:
                raise checks.CheckError(f"K={k}: exceed count differs from the replay")
        return
    for j, point in enumerate(radii(workload, cfg)):
        results = [t["result"] for t in trials[j * n:(j + 1) * n]]
        infeasible = [r["infeasible"] for r in results if "infeasible" in r]
        if infeasible:
            if csv["infeasible"].get(point) != max(infeasible):
                raise checks.CheckError(f"point {point}: infeasible row disagrees with the replay")
            continue
        for s in cfg["schemes"]:
            for snr in cfg["snr_db"]:
                nats = math.fsum(r["rates"][(s, snr)] for r in results) / n
                checks.check_close(csv["rates"][(point, s, snr)] * math.log(2.0), nats, checks.CSV_RTOL,
                              f"{s} at {snr} dB, point {point}: CSV mean against the replay")
            length = math.fsum(r["lengths"][s] for r in results) / n
            checks.check_close(csv["lengths"][(point, s)], length, checks.CSV_RTOL, f"{s} training length")


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    cfg_path = ROOT / "configs" / f"{args.workload}.cfg"
    for need in (SRC / "lotrain" / "__main__.py", cfg_path):
        if not need.is_file():
            print(f"error: {need} is missing; run from a lotrain checkout", file=sys.stderr)
            return 2
    spec = WORKLOADS[args.workload]
    cfg = read_config(cfg_path, {"trials": spec["trials"], "seed": args.seed, "workers": spec["workers"]})
    OUT.mkdir(exist_ok=True)
    record = run_record(args, spec)
    run = replay if args.trace else measure
    correct, attempted, failed, metrics = run(args, spec, cfg_path, cfg, record)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
