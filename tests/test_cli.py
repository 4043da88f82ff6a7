"""End-to-end command-line runs in a subprocess, pinned to the exit-code and
CSV contracts: 0 success, 1 bad parameters, 2 infeasible training length,
3 I/O failure."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lotrain import cli as cli_mod
from lotrain.experiments import CSV_HEADER

COMPARE_CFG = """\
n_rrh = 6
n_user = 8
side = 30.0
threshold = 10.0
t_coherence = 24
snr_db = [10.0]
schemes = ["proposed", "global-orthogonal"]
trials = 3
seed = 1
"""


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "lotrain", *argv],
                          capture_output=True, text=True, timeout=300)


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "compare" in proc.stdout and "sweep-r" in proc.stdout


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2  # argparse usage error, before our handling
    assert "usage" in proc.stderr.lower()


def test_compare_writes_csv(tmp_path):
    cfg = write(tmp_path, COMPARE_CFG)
    out = tmp_path / "rows.csv"
    proc = run_cli("compare", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 1 + 2  # rate row per scheme x snr, length per scheme
    assert all(line.startswith("compare,") for line in lines[1:])


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = write(tmp_path, COMPARE_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("compare", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("compare", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_overrides_change_seed_and_trials(tmp_path):
    cfg = write(tmp_path, COMPARE_CFG)
    base, seeded = tmp_path / "base.csv", tmp_path / "seeded.csv"
    assert run_cli("compare", "--config", cfg, "--out", str(base)).returncode == 0
    assert run_cli("compare", "--config", cfg, "--out", str(seeded),
                   "--seed", "99").returncode == 0
    assert base.read_bytes() != seeded.read_bytes()
    assert ",99," in seeded.read_text(encoding="utf-8").splitlines()[1]

    trimmed = tmp_path / "trimmed.csv"
    assert run_cli("compare", "--config", cfg, "--out", str(trimmed),
                   "--trials", "2").returncode == 0
    row = trimmed.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert row[9] == "2"  # trials column


def test_unknown_config_key_exits_one(tmp_path):
    cfg = write(tmp_path, COMPARE_CFG + "mystery_knob = 3\n")
    proc = run_cli("compare", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert "mystery_knob" in proc.stderr


def test_malformed_value_exits_one(tmp_path):
    cfg = write(tmp_path, "n_rrh = five\n")
    proc = run_cli("compare", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.parametrize("line,key", [
    ("t_coherence = 0", "t_coherence"),
    ("n_rrh = 5.5", "n_rrh"),
    ("trials = true", "trials"),
    ("side = -1.0", "side"),
    ("eta = 0.0", "eta"),
    ("snr_db = [NaN]", "snr_db"),
    ("snr_db = [4000.0]", "snr_db"),  # the noise power underflows to 0
    ("snr_db = [-4000.0]", "snr_db"),  # and here overflows
    ("p0 = 1.0", "p0"),  # retired: trials run at unit power, and snr_db sets the noise
    ('resample_layout = "fixed"', "resample_layout"),  # retired: every trial draws its layout
    ('schemes = ["proposed", 3]', "schemes"),
    ('schemes = ["proposed", "proposed"]', "schemes"),
    ("seed = 2", "seed"),  # appended to COMPARE_CFG's own seed line: a repeated key
])
def test_bad_value_exits_one_naming_the_key(tmp_path, line, key):
    repeat = key == "seed"
    # a bad value replaces the key's line in COMPARE_CFG, so it reaches
    # ExperimentConfig's checks rather than the repeated-key check
    kept = [l for l in COMPARE_CFG.splitlines()
            if repeat or l.partition("=")[0].strip() != key]
    cfg = write(tmp_path, "\n".join(kept + [line]) + "\n")
    out = tmp_path / "x.csv"
    proc = run_cli("compare", "--config", cfg, "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert key in proc.stderr and "Traceback" not in proc.stderr
    assert ("repeated" in proc.stderr) == repeat
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("scheme,named", [
    ("global-orthogonal", "1/alpha = 24/8 for global-orthogonal at K = 8"),  # known to the config
    ("proposed", "at K = 8, r = 10.0, where chi = "),  # chi is known in the trial
], ids=["global-orthogonal", "proposed"])
def test_beta_above_one_over_alpha_exits_one_naming_beta(tmp_path, scheme, named, workers):
    # beta above 1/alpha would leave a negative data power; the message names
    # beta and what bounds it, also when a worker process raises it
    text = COMPARE_CFG.replace('["proposed", "global-orthogonal"]', f'["{scheme}"]') + "beta = 30.0\n"
    out = tmp_path / "x.csv"
    proc = run_cli("compare", "--config", write(tmp_path, text), "--out", str(out), "--workers", workers)
    assert proc.returncode == 1, proc.stderr
    assert "beta = 30.0" in proc.stderr and named in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


@pytest.mark.parametrize("name,cfg_text,key", [
    ("scaling", "n_rrh = 10\nk_grid = [1, 20]\nrho = 0.5\nside = 30.0\ntrials = 1\n", "k_grid"),
    ("density", "n_rrh = 8\nn_user = 1\nrho = 0.5\nside = 30.0\ntrials = 1\n", "n_user"),
], ids=["scaling", "density"])
def test_rho_matched_radius_for_one_user_exits_one_naming_the_key(tmp_path, name, cfg_text, key):
    # ln K is 0 at K = 1, so no radius matches rho there
    out = tmp_path / "x.csv"
    proc = run_cli(name, "--config", write(tmp_path, cfg_text), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert key in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_infeasible_training_length_exits_two(tmp_path):
    cfg = write(tmp_path, """\
n_rrh = 4
n_user = 10
side = 20.0
threshold = 19.0
t_coherence = 6
trials = 2
seed = 0
""")
    proc = run_cli("compare", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "coherence" in proc.stderr


def test_missing_config_file_exits_three(tmp_path):
    proc = run_cli("compare", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3


def test_unwritable_output_exits_three(tmp_path, monkeypatch, capsys):
    # a missing directory or a directory as --out fails before any trial
    # runs, names the path and creates nothing
    cfg = write(tmp_path, COMPARE_CFG)
    monkeypatch.setattr(cli_mod, "run_experiment", lambda cfg: pytest.fail("a trial ran"))
    for path in (str(tmp_path / "no" / "such" / "dir" / "x.csv"), str(tmp_path)):
        assert cli_mod.main(["compare", "--config", cfg, "--out", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
        proc = run_cli("compare", "--config", cfg, "--out", path)
        assert proc.returncode == 3 and path in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("name,cfg_text", [
    ("scaling", "n_rrh = 10\nk_grid = [30, 60]\nrho = 0.5\nside = 30.0\ntrials = 3\n"),
    ("density", "n_rrh = 8\nn_user = 20\nside = 30.0\nthreshold = 8.0\ntrials = 5\n"),
    ("sweep-k", "n_rrh = 5\nk_grid = [5, 10]\nside = 30.0\nthreshold = 8.0\n"
                "t_coherence = 20\ntrials = 2\nsnr_db = [10.0]\n"),
    ("sweep-r", "n_rrh = 5\nn_user = 8\nside = 30.0\nr_grid = [5.0, 9.0]\n"
                "t_coherence = 20\ntrials = 2\nsnr_db = [10.0]\n"),
])
def test_every_subcommand_runs(tmp_path, name, cfg_text):
    cfg = write(tmp_path, cfg_text)
    out = tmp_path / f"{name}.csv"
    proc = run_cli(name, "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER and len(lines) > 1


def test_cli_import_loads_no_scipy():
    # importing scipy.spatial added about 0.4 s and 30 MB to every run; the package needs numpy only
    code = "import sys, lotrain.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # multiprocessing and concurrent.futures cost about 20 ms per start; only --workers > 1 needs them
    code = ("import sys, lotrain.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name,cfg_text", [
    ("scaling", "n_rrh = 10\nk_grid = [30, 60]\nrho = 0.5\nside = 30.0\ntrials = 3\n"),
    ("compare", COMPARE_CFG),
], ids=["scaling", "compare"])
def test_cli_run_loads_no_numpy_ma(tmp_path, name, cfg_text):
    # the first np.unique call imports numpy.ma, which cost 10-26 ms per run
    cfg = write(tmp_path, cfg_text)
    out = str(tmp_path / f"{name}.csv")
    code = ("import sys; from lotrain.cli import main; "
            f"code = main([{name!r}, '--config', {cfg!r}, '--out', {out!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


# SHA-256 of the shipped configs' CSVs at --trials 2 --seed 4 --workers 1. Both
# hold only counts and floats derived from them with math, so the bytes pin
# every DSATUR coloring of the run and do not depend on the BLAS library.
PINNED_CSV_SHA256 = {
    "scaling": "ca867f432a0e7769e7228a66bfe9f305e5fb43d498778e4b4b0e05823611cce6",
    "density": "5927d72d4235b98b1a0fc33b7a81c74aff8f75186403d5b95e3bdc82ea44a6d1",
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV_SHA256))
def test_shipped_config_csv_bytes_are_pinned(tmp_path, name):
    cfg = Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg"
    out = tmp_path / f"{name}.csv"
    proc = run_cli(name, "--config", str(cfg), "--out", str(out),
                   "--trials", "2", "--seed", "4", "--workers", "1")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_SHA256[name]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # with BLAS at its default of one thread per core, three rates of this run
    # moved in the last digit on a 2-core machine; lotrain pins one thread
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    cfg = Path(__file__).resolve().parents[1] / "configs" / "sweep-r.cfg"
    digests = []
    for extra in ({}, dict.fromkeys(BLAS_VARS, "1")):
        out = tmp_path / f"run{len(digests)}.csv"
        proc = subprocess.run([sys.executable, "-m", "lotrain", "sweep-r", "--config", str(cfg),
                               "--out", str(out), "--trials", "1", "--seed", "4", "--workers", "1"],
                              env={**base, **extra}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    # a thread count the user set is kept
    code = "import os, lotrain; print(*(os.environ[k] for k in %r))" % (BLAS_VARS,)
    proc = subprocess.run([sys.executable, "-c", code], env={**base, "OPENBLAS_NUM_THREADS": "2"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "1", "1"]


def test_suite_runs_one_blas_thread(tmp_path):
    # conftest.py imports lotrain before any test module imports numpy, so a
    # suite started with the variables unset pins one thread, as the CLI does;
    # a probe suite beside a copy of it reads the variables
    tests = Path(__file__).resolve().parent
    shutil.copy(tests / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(
        "import os\n\nimport numpy  # noqa: F401\n\n\ndef test_probe():\n"
        f"    assert [os.environ.get(k) for k in {BLAS_VARS!r}] == ['1'] * 3\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("first,pinned,warns", [("numpy", False, True), ("numpy", True, False),
                                                ("lotrain", False, False)])
def test_a_late_blas_pin_warns_on_stderr(first, pinned, warns):
    # numpy imported before lotrain keeps its own BLAS thread count unless the
    # variables say one thread, and run_experiment warns through logging
    tests = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(dict.fromkeys(BLAS_VARS, "1") if pinned else {})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tests.parent / "src"), env.get("PYTHONPATH")) if p)
    script = (f"import {first}\nimport lotrain\n"
              "lotrain.run_experiment(lotrain.ExperimentConfig('density', n_rrh=3, n_user=5, "
              "threshold=10.0, trials=1))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ("numpy was imported before lotrain" in proc.stderr) == warns, proc.stderr
