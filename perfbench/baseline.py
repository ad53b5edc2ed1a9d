"""Re-measure the single-run baseline figures as medians of repeated calls.

    python3 perfbench/baseline.py

Each figure under a second is timed REPEATS times, the longer ones three
times, in one process (BLAS pinned to one thread, as in run.py) and reported as its median with its quartile spread
(interquartile range over median).  A figure is flagged when it differs
from the earlier single-run value by more than the benchmark's own spread:
the larger of that spread and RUN_SPREAD.  The output is a Markdown table.
"""

import statistics
import sys
import time

import run  # pins BLAS threads before numpy loads

# Largest quartile spread of the unscaled pass time over ten seeds of one
# workload when the restated figures in BASELINE.md were taken: repeats
# inside one process miss the machine's slow phases.
RUN_SPREAD = 0.17
REPEATS = 7

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from debias_lab import adversary, bounds, estimators, grid, harness, partition  # noqa: E402
from debias_lab.presets import preset  # noqa: E402


def items():
    """(label, earlier single-run seconds, callable) per baseline figure."""
    ate = preset("ate", x_cells=256)
    data_1e5 = grid.sample(ate.anchor, 100_000, 0)
    axis = ate.anchor.space.axes[0]
    two_weights = [np.ones(256), axis.coords]
    m_half, g_half = np.full(256, 0.5), np.full((256, 2), 0.5)
    families = {}
    for m in (8, 16):
        part = partition.iterated_partition([np.ones(256), 2 * m_half - 1.0], m, axis)
        families[m] = adversary.AteLocalFamily(ate.anchor.space, m_half, g_half, 0.1, 0.2, part)
    small = preset("ate", x_cells=12)
    small_part = partition.iterated_partition(
        [np.ones(12), 2 * small.extras["m_hat"] - 1.0], 4, small.anchor.space.axes[0])
    small_family = adversary.AteLocalFamily(small.anchor.space, small.extras["m_hat"],
                                            small.extras["g_hat"], 0.1, 0.1, small_part)
    instances = {n: bounds.TestingInstance(small.anchor, small_family, small.spec, n=n)
                 for n in (2, 3)}
    scan = harness.ExperimentConfig(kind="ate", n_sweep=tuple(1000 * 2 ** k for k in range(7)),
                                    replications=32, seed=0)

    def sample_and_dml():
        data = grid.sample(ate.anchor, 1_000_000, 0)
        return estimators.dml_estimate(data, ate.gamma, ate.alpha, ate.spec)

    return [
        ("grid.sample, n = 1e5", 11.8e-3, lambda: grid.sample(ate.anchor, 100_000, 0)),
        ("dml_estimate, n = 1e5", 15.0e-3,
         lambda: estimators.dml_estimate(data_1e5, ate.gamma, ate.alpha, ate.spec)),
        ("population_dml", 0.15e-3,
         lambda: estimators.population_dml(ate.anchor, ate.gamma, ate.alpha, ate.spec)),
        ("sample + dml_estimate, n = 1e6", 238e-3, sample_and_dml),
        ("run_rate_scan, ATE n-sweep 1e3..6.4e4, 32 reps", 0.76,
         lambda: harness.run_rate_scan(scan)),
        ("iterated_partition, 256 cells, {1, x}, M = 4", 43e-3,
         lambda: partition.iterated_partition(two_weights, 4, axis)),
        ("iterated_partition, 256 cells, {1, x}, M = 16", 180e-3,
         lambda: partition.iterated_partition(two_weights, 16, axis)),
        ("mixture_density, M = 8", 30e-3, lambda: adversary.mixture_density(families[8])),
        ("mixture_density, M = 16", 6.3, lambda: adversary.mixture_density(families[16])),
        ("product_mixture_hellinger, 48 atoms, M = 4, n = 2", 2e-3,
         lambda: bounds.product_mixture_hellinger(instances[2])),
        ("product_mixture_hellinger, 48 atoms, M = 4, n = 3", 10e-3,
         lambda: bounds.product_mixture_hellinger(instances[3])),
    ]


def _seconds(t: float) -> str:
    return f"{t:.3g} s" if t >= 1.0 else f"{t * 1e3:.3g} ms"


def main() -> int:
    print("| figure | single run | median | spread | n | flag |")
    print("|---|---|---|---|---|---|")
    for label, single, fn in items():
        repeats = REPEATS if single < 1.0 else 3  # the multi-second figures
        if single < 1.0:
            fn()  # warm caches and lazy imports
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4)
        spread = (q3 - q1) / median
        flag = "differs" if abs(median - single) / single > max(spread, RUN_SPREAD) else ""
        print(f"| {label} | {_seconds(single)} | {_seconds(median)} | "
              f"{spread:.1%} | {repeats} | {flag} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
