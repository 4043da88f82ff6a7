# The experiment harness: configs in, reproducible CSV out.
#
# The command line wraps exactly this: parse a flat key = value config, run
# the named experiment, write rows under a pinned CSV header. Everything is
# deterministic given (config, seed), including across worker-pool sizes, and
# each row carries a 12-hex digest of the resolved config for replay audits.
#
# Equivalent shell command for the full-size run:
#   lotrain compare --config configs/compare.cfg --out compare.csv
#
# Run: python3 demos/05_experiment_harness.py   (about 2 s)

import tempfile
from pathlib import Path

from lotrain import config_from_mapping, emit_csv, load_config, run_experiment

cfg_file = Path(__file__).resolve().parent.parent / "configs" / "compare.cfg"
mapping = load_config(cfg_file)
print(f"loaded {cfg_file.name}: {mapping}")

# shrink the shipped full-size config to desk scale for this demo
mapping.update(n_rrh=100, n_user=100, trials=30, snr_db=[10.0, 30.0])
cfg = config_from_mapping("compare", mapping)
print(f"\nresolved config: K={cfg.n_user}, N={cfg.n_rrh}, r={cfg.threshold}, "
      f"T={cfg.t_coherence}, {cfg.trials} trials, schemes {cfg.schemes}")

rows = run_experiment(cfg)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "compare_demo.csv"
    emit_csv(rows, out)
    print(f"\nwrote {len(rows)} rows to {out}")
    print(out.read_text().splitlines()[0])

print(f"\n{'scheme':>18} {'SNR dB':>7} {'bits/use':>9} {'stderr':>7}")
for row in rows:
    if row.metric == "throughput_bits_per_use":
        print(f"{row.scheme:>18} {row.snr_db:>7.0f} {row.value:>9.2f} {row.stderr:>7.3f}")
lengths = {row.scheme: row.value for row in rows if row.metric == "training_length"}
print(f"\nmean training lengths: {lengths}")
print("(random-pilot matches the proposed length by construction; the classical")
print(" scheme burns half the frame and serves at most T/2 users)")

rerun = run_experiment(cfg)
print(f"\nsame config, same rows: {rerun == rows}")
