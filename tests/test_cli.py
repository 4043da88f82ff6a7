"""End-to-end command-line runs in a subprocess, pinned to the exit-code and
CSV contracts: 0 success, 1 bad parameters, 2 infeasible training length,
3 I/O failure."""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lotrain import cli as cli_mod
from lotrain.experiments import CSV_HEADER, _COMMON, _STUDIES

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


def test_readme_table_and_subcommands_match_the_experiment_table(capsys):
    # experiments._STUDIES is the experiment table; README's CLI table and the
    # cli's subcommands each restate it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    cells = [[re.findall(r"`([^`]+)`", c) for c in line.strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| ")]
    assert cells[0][-1] == list(_COMMON)
    assert {row[0][0]: row[-1] for row in cells[1:]} == {name: list(s[2]) for name, s in _STUDIES.items()}
    with pytest.raises(SystemExit):
        cli_mod.main(["--help"])
    subcommands = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(subcommands) == sorted(_STUDIES)


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
    ("eta = 3.5", "eta"),  # retired, like beta and min_distance: the reference value is refused too
    ("beta = 1.0", "beta"),
    ("min_distance = 1.0", "min_distance"),
    pytest.param("t_coherence = 1" + "0" * 400, "t_coherence",  # no double holds it
                 id="t_coherence = 1e400-t_coherence"),
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


def test_integer_past_the_digit_limit_exits_one_naming_the_file_and_line(tmp_path):
    # json parses integers with int(), which refuses more than 4,300 digits
    # with a ValueError that is not a JSONDecodeError
    kept = [l for l in COMPARE_CFG.splitlines() if not l.startswith("t_coherence")]
    cfg = write(tmp_path, "\n".join(kept + ["t_coherence = 1" + "0" * 5000]) + "\n")
    proc = run_cli("compare", "--config", cfg, "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 1, proc.stderr
    assert f"{cfg}:{len(kept) + 1}: bad value for 't_coherence'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_retired_keys_exit_one_naming_each_at_two_workers(tmp_path):
    # the config is refused before any worker process starts
    text = COMPARE_CFG + "eta = 3.5\nbeta = 1.0\nmin_distance = 1.0\n"
    out = tmp_path / "x.csv"
    proc = run_cli("compare", "--config", write(tmp_path, text), "--out", str(out), "--workers", "2")
    assert proc.returncode == 1, proc.stderr
    assert "['beta', 'eta', 'min_distance']" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


def test_config_that_is_not_utf8_exits_one_naming_the_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(COMPARE_CFG.encode() + 'side = "café"\n'.encode("latin-1"))
    out = tmp_path / "x.csv"
    proc = run_cli("compare", "--config", str(path), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert f"{path}:10: not UTF-8 text: byte 0xe9" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr and not out.exists()


SCALING_CFG = "n_rrh = 10\nk_grid = [30, 60]\nrho = 0.5\nside = 30.0\ntrials = 3\n"


UNREAD_BASE = {
    "scaling": SCALING_CFG,
    "density": "n_rrh = 8\nn_user = 20\nside = 30.0\nrho = 0.5\ntrials = 2\n",
    "compare": COMPARE_CFG,
    "sweep-r": COMPARE_CFG.replace("threshold = 10.0", "r_grid = [5.0, 9.0]"),
}
UNREAD = [
    # the radius tracks each K through rho, and scaling computes no rate:
    # these four together once ran and wrote T = 7 into every row
    ("scaling", 'threshold = 3.0\nsnr_db = [99.0]\nschemes = ["refined"]\nt_coherence = 7'),
    ("scaling", "threshold = 3.0"),
    ("scaling", "snr_db = [99.0]"),
    ("scaling", 'schemes = ["refined"]'),
    ("scaling", "t_coherence = 7"),
    ("compare", "rho = 0.5"),
    ("compare", "k_grid = [8, 16]"),
    ("compare", "r_grid = [5.0]"),
    ("sweep-r", "threshold = 10.0"),
    ("sweep-r", "rho = 0.5"),
    ("sweep-r", "k_grid = [8]"),
    ("density", "threshold = 8.0"),
]


@pytest.mark.parametrize("name,extra", UNREAD,
                         ids=[f"{name}-" + "-".join(line.split()[0] for line in extra.splitlines())
                              for name, extra in UNREAD])
def test_a_key_the_experiment_does_not_read_exits_one(tmp_path, name, extra):
    keys = sorted(line.split()[0] for line in extra.splitlines())
    out = tmp_path / "x.csv"
    proc = run_cli(name, "--config", write(tmp_path, UNREAD_BASE[name] + extra + "\n"), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert f"config keys {name} does not read: {keys}" in proc.stderr, proc.stderr
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


@pytest.mark.parametrize("side,rho,keys", [
    ("1e200", "0.5", ["side"]),  # side**2 overflowed: an OverflowError traceback
    ("1e-200", "0.5", ["side"]),  # side**2 was 0: a ZeroDivisionError traceback
    ("1e-160", "0.5", ["side"]),  # the radius was 0, and the error named threshold
    ("30.0", "1e308", ["side", "rho"]),  # exited 0, writing r = inf
    ("2e-154", "0.5", ["side", "rho"]),  # a side in range whose density overflows, so r = 0
], ids=["side-1e200", "side-1e-200", "side-1e-160", "rho-1e308", "side-2e-154"])
def test_a_side_or_rho_without_a_finite_positive_radius_exits_one(tmp_path, side, rho, keys):
    text = SCALING_CFG.replace("side = 30.0", f"side = {side}").replace("rho = 0.5", f"rho = {rho}")
    out = tmp_path / "x.csv"
    proc = run_cli("scaling", "--config", write(tmp_path, text), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert all(key in proc.stderr for key in keys), proc.stderr
    assert "threshold" not in proc.stderr and "Traceback" not in proc.stderr and not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_infeasible_training_length_exits_two(tmp_path, workers):
    # at two workers the error is raised in a spawn worker and must reach the exit code
    cfg = write(tmp_path, """\
n_rrh = 4
n_user = 10
side = 20.0
threshold = 19.0
t_coherence = 6
trials = 2
seed = 0
""")
    out = tmp_path / "x.csv"
    proc = run_cli("compare", "--config", cfg, "--out", str(out), "--workers", workers)
    assert proc.returncode == 2, proc.stderr
    assert "coherence" in proc.stderr and "Traceback" not in proc.stderr and not out.exists()


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
    ("scaling", SCALING_CFG),
    ("density", "n_rrh = 8\nn_user = 20\nside = 30.0\nrho = 0.5\ntrials = 5\n"),
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
    ("scaling", SCALING_CFG),
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
              "rho=0.5, trials=1))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ("numpy was imported before lotrain" in proc.stderr) == warns, proc.stderr
