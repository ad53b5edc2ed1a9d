"""Grid measure spaces: densities, perturbations, sampling, Hellinger.

Every object in the lab lives on a finite product grid, so integrals are
finite sums and algebraic identities can be checked to machine precision.
This script walks the basic vocabulary: build a grid, put a density on it,
perturb it inside the feasible cone, marginalize, sample, and measure
distances.
"""

import numpy as np

from debias_lab.grid import (
    GridSpace, SignedDensity, add_scaled, binary, conditional,
    continuous, feasible_radius, hellinger_sq, integrate, marginal, sample,
    uniform_density,
)

# A covariate axis with 8 cells on [0,1], a binary treatment, a binary outcome.
space = GridSpace((continuous("z1", 8), binary("z2"), binary("w")))
print(f"atoms: {space.n_atoms}, atom weight: {space.atom_weight}")

p = uniform_density(space)
print("total mass:", integrate(p))

# Quadrature is midpoint and exact for the identities we care about:
x_field = space.field(lambda x, d, y: x)
print("E[X] under uniform:", integrate(p, x_field))

# A zero-mass perturbation and its feasible radius.
h_vals = space.field(lambda x, d, y: np.where(x < 0.5, 1.0, -1.0))
h = SignedDensity(space, h_vals * p.values)
r = feasible_radius(p, h)
print("feasible radius of the half-space tilt:", r)
tilted = add_scaled(p, 0.5 * r, h)
print("tilted density still integrates to", integrate(tilted))

# Marginals and conditionals compose back to the joint.
marg = marginal(tilted, [0])
cond = conditional(tilted, {0: 3})
print("marginal mass:", integrate(marg), " conditional mass:", integrate(cond))

# Sampling is seeded and deterministic; a dataset is its per-atom counts.
data = sample(tilted, 100_000, seed=42)
left = space.field(lambda x, d, y: x < 0.5)
print("sampled P(X < 1/2):", data.counts @ left.ravel() / data.n,
      " exact:", integrate(tilted, left))

# Hellinger distance between the base and the tilt.
print("H^2(p, tilted):", hellinger_sq(p, tilted))
