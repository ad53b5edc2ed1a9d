"""Seeded rate scans: the three exponents, reproduced end to end.

The harness sweeps one knob, runs seeded replications, and fits the slope
of log(median |error|) against the log of the knob.  Three exponents fall
out: -1/2 in n for sampling noise, 2 in eps for the debiased product bias,
and 1 in eps for the plug-in's first-order bias.  Identical configs produce
byte-identical CSVs.
"""

from debias_lab.harness import ExperimentConfig, records_to_csv, run_rate_scan

n_scan = ExperimentConfig(kind="ate", estimator="dr",
                          n_sweep=(1000, 10_000, 100_000),
                          replications=32, seed=0, x_cells=128)
result = run_rate_scan(n_scan)
print("DR-ATE sampling-noise sweep:")
for v, med in zip(result.sweep_values, result.medians):
    print(f"  n={int(v):6d}  median |error| = {med:.5f}")
print(f"  slope = {result.slope:.3f}  (target -0.5)\n")

eps_scan = ExperimentConfig(kind="ate", estimator="dml", population=True,
                            eps_sweep=((0.05, 0.05), (0.1, 0.1),
                                       (0.2, 0.2), (0.4, 0.4)),
                            replications=16, seed=0, x_cells=128)
result = run_rate_scan(eps_scan)
print("population-exact debiased eps sweep:")
for v, med in zip(result.sweep_values, result.medians):
    print(f"  eps={v:4.2f}  |bias| = {med:.5f}")
print(f"  slope = {result.slope:.3f}  (target 2.0)\n")

plug_scan = ExperimentConfig(kind="ate", estimator="plugin", population=True,
                             eps_sweep=((0.05, 0.05), (0.1, 0.1),
                                        (0.2, 0.2), (0.4, 0.4)),
                             replications=16, seed=0, x_cells=128)
result = run_rate_scan(plug_scan)
print(f"plug-in eps sweep slope = {result.slope:.3f}  (target 1.0)")

csv_text = records_to_csv(result.records)
print(f"\nfirst lines of the emitted CSV ({len(result.records)} records):")
print("\n".join(csv_text.splitlines()[:3]))
