"""Plug-in vs first-order debiased estimation under controlled corruption.

Corrupting the nuisances by exactly eps in L2 along a common direction
makes the bias arithmetic visible:

* the plug-in inherits a first-order bias (slope 1 in eps),
* the debiased score's population bias is exactly the product of the two
  nuisance errors (slope 2 in eps, and equal to the closed-form integral),
* with one nuisance exact, the debiased bias is zero: double robustness,
* with exact nuisances, the sampling error shrinks like n^{-1/2}.

An optional end-to-end mode learns the outcome regression with a binned
histogram learner instead of corrupting the truth analytically.
"""

import numpy as np

from debias_lab import estimands as est, estimators as dr
from debias_lab.estimands import NuisanceField
from debias_lab.grid import l2_nuisance_distance, sample
from debias_lab.harness import fit_loglog_slope
from debias_lab.presets import preset

pre = preset(est.ATE, x_cells=128)
zs = est.z_space(est.ATE, pre.anchor.space)
pz = est.z_marginal(pre.anchor, pre.spec)
dir_g, dir_a = dr.corruption_directions(zs, "adversarial", seed=0,
                                        riesz_weight=pre.alpha)

epss = [0.05, 0.1, 0.2, 0.4]
plug, dml = [], []
for eps in epss:
    gh = dr.corrupt_nuisance(NuisanceField(zs, pre.gamma, "gamma"),
                             dr.CorruptionSpec(eps, dir_g), pz).values
    ah = dr.corrupt_nuisance(NuisanceField(zs, pre.alpha, "alpha"),
                             dr.CorruptionSpec(eps, dir_a), pz).values
    plug.append(abs(dr.population_plugin(pre.anchor, gh, pre.spec) - pre.oracle))
    dml.append(abs(dr.population_dml(pre.anchor, gh, ah, pre.spec) - pre.oracle))
print("eps-sweep population bias (exact expectations, no sampling):")
for eps, b_p, b_d in zip(epss, plug, dml):
    print(f"  eps={eps:4.2f}  plug-in {b_p:.5f}   debiased {b_d:.5f} "
          f"(= eps^2 {eps*eps:.5f})")
print("slopes: plug-in %.3f, debiased %.3f"
      % (fit_loglog_slope(epss, plug)[0], fit_loglog_slope(epss, dml)[0]))

print("\ndouble robustness (population):")
rng = np.random.default_rng(1)
wrong = 0.3 * rng.standard_normal(zs.shape)
print("  alpha wrong :", abs(dr.population_dml(pre.anchor, pre.gamma,
                                               pre.alpha + wrong, pre.spec)
                             - pre.oracle))
print("  gamma wrong :", abs(dr.population_dml(pre.anchor, pre.gamma + wrong,
                                               pre.alpha, pre.spec)
                             - pre.oracle))

print("\nsampling rate of the doubly robust ATE (exact nuisances):")
medians = []
for n in (1000, 10_000, 100_000):
    errs = [abs(dr.dr_ate_estimate(sample(pre.anchor, n, seed=rep),
                                   pre.extras["g_hat"], pre.extras["m_hat"])
                - pre.oracle) for rep in range(32)]
    medians.append(float(np.median(errs)))
    print(f"  n={n:6d}  median |error| = {medians[-1]:.5f}")
print("slope:", fit_loglog_slope([1e3, 1e4, 1e5], medians)[0])

print("\nend-to-end with the toy binned learner:")
data = sample(pre.anchor, 200_000, seed=7)
g_learned = dr.binned_learner(data, pre.spec, bins=16)
err = l2_nuisance_distance(g_learned, pre.gamma, pz)
m_exact = pre.extras["m_hat"]
point = dr.dr_ate_estimate(data, g_learned, m_exact)
print(f"  learned-gamma L2 error {err:.4f}; DR estimate {point:.5f} "
      f"vs oracle {pre.oracle:.5f}")
