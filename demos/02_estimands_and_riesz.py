"""The six estimands and their orthogonal-score ingredients.

For each supported functional the lab knows the regression nuisance gamma,
the Riesz weight alpha, the score rho, and the exact grid value of the
target.  Two identities are worth seeing with your own eyes:

* the Riesz representation  E[m1(O, h)] = E[h(Z) nu_m(Z)]  for any test
  field h, and
* the mixed-bias representation  chi(P) = E[rho_0(O) alpha(Z;P)]  for the
  affine-score kinds (for the conditional covariance it recovers the
  auxiliary piece E[Y g(X)]).
"""

import numpy as np

from debias_lab import estimands as est
from debias_lab.presets import preset

rng = np.random.default_rng(0)

for kind in est.KINDS:
    pre = preset(kind, x_cells=64, d_cells=32)
    zs = est.z_space(kind, pre.anchor.space)
    worst = max(
        abs(est.riesz_identity_residual(pre.anchor, pre.spec,
                                        rng.standard_normal(zs.shape)))
        for _ in range(25)
    )
    line = f"{kind:8s} chi = {pre.oracle:+.6f}   max Riesz residual = {worst:.2e}"
    if pre.spec.affine:
        m2 = est.mixed_bias_value(pre.anchor, pre.spec)
        if kind == est.ECC_PLM:
            ref = est.ecc_offset_population(pre.anchor, pre.spec) - pre.oracle
        else:
            ref = pre.oracle
        line += f"   mixed-bias dev = {abs(m2 - ref):.2e}"
    print(line)

# The conditional score is centered at the true nuisance, and its derivative
# weight is -1 for every kind (the curvature weight is 0 except for lod):
pre = preset(est.LOD, x_cells=64)
resid = est.rho_bar(pre.anchor, pre.spec, pre.gamma)
ups = est.upsilon_rho(pre.spec, pre.anchor)
print("\nlod: max |E[rho|Z]| at the truth:", np.max(np.abs(resid)))
print("lod: upsilon_rho = 1 - 2 E[Y|Z], range:",
      (ups.min().round(4), ups.max().round(4)))
