# One frame end to end: estimate channels during training, bound the rate.
#
# Walks a single Monte-Carlo trial through the whole receive chain, then
# averages the throughput lower bound over trials at several SNRs. The MMSE
# error variances come out of the estimator in closed form; out-of-set
# channels keep the prior variance 1 and contribute interference instead.
#
# Run: python3 demos/04_estimation_and_throughput.py   (about 1 s)

# lotrain first: importing it before numpy pins one BLAS thread
from lotrain import (
    ExperimentConfig,
    build_conflict_graph,
    build_pilot_book,
    data_power_coefficients,
    dsatur,
    generate_channel,
    generate_layout,
    interference_variance,
    mmse_estimate,
    run_experiment,
    snr_db_to_noise_power,
    sparsify,
    throughput_lower_bound,
)

import numpy as np

n_rrh, n_user, side, r, t_coh = 60, 80, 60.0, 10.0, 100

# ------------------------------------------------ a single trial, unpacked
layout = generate_layout(n_rrh, n_user, side, seed=42)
assoc = sparsify(layout, r)
coloring = dsatur(build_conflict_graph(assoc))
book = build_pilot_book(coloring)
chan = generate_channel(layout, 3.5, seed=42)
n0 = snr_db_to_noise_power(20.0)

est = mmse_estimate(chan, book, assoc, n0, rng=np.random.default_rng(42))
served = np.array([[k in set(u) for k in range(n_user)] for u in assoc.served_users])
print(f"training length chi = {book.training_length} of T = {t_coh} "
      f"(alpha = {book.training_length / t_coh:.2f})")
print(f"served links: {served.sum()} of {served.size}")
print(f"error variance, served links: mean {est.mse[served].mean():.4f}, "
      f"best {est.mse[served].min():.2e}")
print(f"unserved links keep the prior variance: {np.unique(est.mse[~served])}")

alpha = book.training_length / t_coh
bp = data_power_coefficients(1.0, alpha, n_user)
sigma2 = interference_variance(est, chan, bp, 1.0)
rate = throughput_lower_bound(est, chan, alpha, bp, 1.0)
print(f"interference-plus-noise variance across RRHs: "
      f"{sigma2.min():.4g} .. {sigma2.max():.4g}")
print(f"sum rate lower bound, this realization: {rate:.2f} nats/use "
      f"({rate / np.log(2):.2f} bits/use)")

# ------------------------------------------------ averaged over trials
# the same chain, run by the experiment runner over 40 seeded trials; both
# schemes share each trial's layout, fading and noise draws
cfg = ExperimentConfig("compare", n_rrh=n_rrh, n_user=n_user, side=side, threshold=r,
                       t_coherence=t_coh, snr_db=(0.0, 10.0, 20.0, 30.0),
                       schemes=("proposed", "refined"), trials=40, seed=7)
rates = {(row.scheme, row.snr_db): row for row in run_experiment(cfg)
         if row.metric == "throughput_bits_per_use"}

print(f"\n{'SNR dB':>7} {'rate bits/use':>14} {'stderr':>8}")
for snr in cfg.snr_db:
    row = rates[("proposed", snr)]
    print(f"{snr:>7.0f} {row.value:>14.2f} {row.stderr:>8.3f}")

# the refinement never hurts: same pilots, strictly more modeled links
plain, refined = rates[("proposed", 20.0)], rates[("refined", 20.0)]
gain = (refined.value - plain.value) / plain.value
print(f"\nrefined vs plain association at 20 dB: +{100 * gain:.1f}% "
      f"(paired draws, {cfg.trials} trials)")
