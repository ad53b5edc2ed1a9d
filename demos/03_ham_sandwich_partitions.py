"""Balanced partitions and sign-flip bumps.

A Borsuk-Ulam bisection splits any q weight integrals exactly in half with
a set of the form {polynomial >= 0}; iterating gives 2M blocks on which
every weight integrates to 1/(2M) of its total.  Sign-flip fields built on
paired blocks then integrate every balanced weight to zero, for all 2^M
sign vectors at once: that is the geometric trick that hides perturbations
from linear functionals.
"""

import numpy as np

from debias_lab.grid import Axis
from debias_lab.partition import all_sign_vectors, bisect, bump, iterated_partition

axis = Axis("continuous", "z1", 256)
x = axis.coords

# Split both the length and the first moment exactly in half.
inside = bisect([np.ones(256), x], axis)
cw = axis.cell_weight
print("bisected set: measure = %.9f, int z = %.9f"
      % (inside.sum() * cw, (inside * x).sum() * cw))

# Iterate to 8 blocks; every block carries 1/8 of each weight.
part = iterated_partition([np.ones(256), x], m_pairs=4, axis=axis)
print("\nblock   int 1      int z")
for j in range(part.n_blocks):
    print(" %2d    %.6f   %.6f" % (j, part.block_integral(np.ones(256), j),
                                   part.block_integral(x, j)))
print("worst balance residual:", part.residuals.max())

# Every one of the 2^4 bumps kills both weights.
worst = 0.0
for lam in all_sign_vectors(4):
    delta = bump(part, lam)
    worst = max(worst, abs((delta * 1.0).sum() * cw), abs((delta * x).sum() * cw))
print("worst |int Delta w| over all 16 sign vectors:", worst)

# Sign-flip fields are +-1-valued on whole-cell partitions.
delta = bump(part, [1, -1, -1, 1])
print("bump values are +-1:", sorted(set(np.round(delta, 12))))
