"""Exact testing lower bounds on enumerable instances.

At tiny sample sizes the whole n-fold observation space can be enumerated,
so the quantities the fuzzy-hypothesis method reasons about are computable
exactly: the squared Hellinger distance between the anchor's n-fold product
and the uniform mixture of alternatives' products, the chunk statistic b
feeding the product-measure Hellinger bound, the Bayes (optimal test) error,
and the risk floor (1 - sqrt(delta(1 - delta/4))) / 2 that a Hellinger
budget delta implies.  The inequality

    optimal_test_error >= fano_risk(H^2)

is a theorem, so it is asserted with no tolerance at all; the constant C in
the product-measure Hellinger bound is not pinned by theory, so the bound is
stated at C = 1 and C is only ever *fitted* over a sweep and reported, never
passed or asserted.  The minimax demonstration reports each hypothesis's
empirical 0.9-quantile risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import estimands as est
from .errors import (
    DimensionMismatchError,
    PreconditionError,
    SeparationError,
    SizeLimitError,
)
from .estimands import EstimandSpec
from .grid import Dataset, Density, _index, integrate, sample
from .partition import BumpPartition, all_sign_vectors

ENUM_TUPLE_CAP = 1_000_000
ENUM_LAMBDA_CAP = 4096
ENUM_N_CAP = 4
ENUM_ATOM_CAP = 64


@dataclass(frozen=True)
class TestingInstance:
    """An anchor, a family of alternatives around that same anchor, and a
    product sample size n <= 4."""

    anchor: Density
    family: object
    spec: EstimandSpec
    n: int
    enumerated: bool = True

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n, "the instance size n"))
        if self.n < 1 or self.n > ENUM_N_CAP:
            raise PreconditionError(f"instance n must lie in [1, {ENUM_N_CAP}]")
        if self.anchor.space != self.family.anchor.space:
            raise DimensionMismatchError("the anchor and the family are on different grids")
        if not np.array_equal(self.anchor.values, self.family.anchor.values):
            raise PreconditionError("the anchor is not the family's anchor")
        if self.enumerated:
            atoms = self.anchor.space.n_atoms
            if atoms > ENUM_ATOM_CAP:
                raise SizeLimitError(
                    f"enumerated instances cap |O| at {ENUM_ATOM_CAP} atoms"
                )
            if atoms ** self.n > ENUM_TUPLE_CAP:
                raise SizeLimitError(
                    f"{atoms}^{self.n} tuples exceed the enumeration cap"
                )
            if 2 ** self.family.m_pairs > ENUM_LAMBDA_CAP:
                raise SizeLimitError("2^M exceeds the sign-vector enumeration cap")


def _atom_probs(p: Density) -> np.ndarray:
    return p.values.ravel() * p.space.atom_weight


def member_probs(instance: TestingInstance) -> np.ndarray:
    """(2^M, atoms) atom-probability rows, one per sign vector."""
    family = instance.family
    rows = family.members(all_sign_vectors(family.m_pairs))
    return rows.reshape(len(rows), -1) * family.anchor.space.atom_weight


def _product_tensor(prob_rows: np.ndarray, n: int) -> np.ndarray:
    """Mean over rows of the n-fold outer product, flattened to atoms^n.

    One row (the anchor's law) is a chain of n - 1 outer products,
    ((P (x) P) (x) P) ..., the same products in the same order as below.
    For n >= 3 the last two factors are one matrix product per leading
    (n - 2)-tuple of atoms, sum_l (w_l P_l) (x) P_l with w_l the tuple's
    probabilities under row l, so no temporary exceeds (rows, atoms).
    """
    if len(prob_rows) == 1:
        out = prob_rows[0]
        for _ in range(n - 1):
            out = np.multiply.outer(out, prob_rows[0])
    elif n <= 2:
        letters = "abcd"[:n]
        spec = ",".join(f"l{c}" for c in letters) + "->" + letters
        out = np.einsum(spec, *([prob_rows] * n), optimize=True)
    else:
        atoms = prob_rows.shape[1]
        out = np.empty((atoms,) * n)
        for lead in np.ndindex(*(atoms,) * (n - 2)):
            w = prob_rows[:, lead].prod(axis=1)
            out[lead] = (w[:, None] * prob_rows).T @ prob_rows
    return out.ravel() / prob_rows.shape[0]


def _product_laws(instance: TestingInstance) -> tuple[np.ndarray, np.ndarray]:
    """(anchor^{(x)n}, mixture^{(x)n}) as atom-tuple probabilities."""
    if not instance.enumerated:
        raise PreconditionError("exact testing bounds need an enumerated instance")
    return (_product_tensor(_atom_probs(instance.anchor)[None, :], instance.n),
            _product_tensor(member_probs(instance), instance.n))


def product_mixture_hellinger(instance: TestingInstance) -> float:
    """Exact H^2(anchor^{(x)n}, mean_lambda member_lambda^{(x)n})."""
    anchor_n, mixture_n = _product_laws(instance)
    diff = np.sqrt(anchor_n) - np.sqrt(mixture_n)
    return float(np.sum(diff * diff))


def optimal_test_error(instance: TestingInstance) -> float:
    """Exact Bayes error (1 - TV)/2 between anchor^n and the mixture."""
    anchor_n, mixture_n = _product_laws(instance)
    tv = 0.5 * float(np.sum(np.abs(anchor_n - mixture_n)))
    return (1.0 - tv) / 2.0


def fano_risk(delta: float) -> float:
    """(1 - sqrt(delta (1 - delta/4)))/2 for a Hellinger budget delta in [0, 2)."""
    if not 0.0 <= delta < 2.0:
        raise PreconditionError("the Hellinger budget must lie in [0, 2)")
    return (1.0 - math.sqrt(delta * (1.0 - delta / 4.0))) / 2.0


def theorem21_b(instance: TestingInstance, partition: BumpPartition
                ) -> tuple[float, float]:
    """The chunk statistic b and the bound n^2 (max_j p_j) b^2 at C = 1.

    Chunks are X_j = (B_{2j-1} u B_{2j}) x (other axes); b is the worst
    normalized chi-square mass of any alternative on any chunk, so
    ``partition`` must be the family's.  The theory constant C is
    unspecified; :func:`fit_hellinger_constant` fits it.
    """
    anchor = instance.anchor
    space = anchor.space
    if partition.axis.size != space.shape[0]:
        raise DimensionMismatchError("the partition's cell count is not the anchor's Z1 size")
    if partition != instance.family.partition:
        raise PreconditionError("the chunks must be the blocks of the family's partition")
    w = space.atom_weight
    probs = member_probs(instance) / w  # back to densities
    anchor_vals = anchor.values.ravel()
    if anchor_vals.min() <= 0:
        raise PreconditionError("the chunk statistic needs a strictly positive anchor")

    n1 = space.shape[0]
    rest = anchor.space.n_atoms // n1
    chisq = (probs - anchor_vals[None, :]) ** 2 / anchor_vals[None, :]
    chisq = chisq.reshape(probs.shape[0], n1, rest)
    along_z1 = (n1,) + (1,) * (len(space.shape) - 1)
    # row j: each Z1 cell's share in B_{2j} u B_{2j+1}
    membership = partition.membership
    chunks = membership[0::2] + membership[1::2]

    b = 0.0
    p_max = 0.0
    for chunk in chunks:
        p_j = integrate(anchor, chunk.reshape(along_z1))
        p_max = max(p_max, p_j)
        mass = float(np.max(np.sum(chisq * chunk[None, :, None], axis=(1, 2))) * w)
        b = max(b, mass / p_j)
    return b, instance.n ** 2 * p_max * b * b


def fit_hellinger_constant(instances: Sequence[tuple[TestingInstance, BumpPartition]]
                           ) -> float:
    """Empirical C: the smallest constant making the bound hold on a sweep."""
    c_fit = 0.0
    for instance, partition in instances:
        b, bound = theorem21_b(instance, partition)
        if b != 0.0:
            c_fit = max(c_fit, product_mixture_hellinger(instance) / bound)
    return c_fit


# -----------------------------------------------------------------------------
# the minimax demonstration
# -----------------------------------------------------------------------------

Estimator = Callable[[Dataset, Density], float]


def constant_anchor_estimator(spec: EstimandSpec, anchor: Density) -> Estimator:
    """Always answers chi(anchor), whatever the data say."""
    value = est.functional_value(anchor, spec)

    def estimate(data: Dataset, hypothesis: Density) -> float:
        return value

    return estimate


def oracle_estimator(spec: EstimandSpec) -> Estimator:
    """Cheats: reads chi off the generating hypothesis (risk is exactly 0)."""

    def estimate(data: Dataset, hypothesis: Density) -> float:
        return est.functional_value(hypothesis, spec)

    return estimate


def minimax_demo(instance: TestingInstance, estimator: Estimator, s: float,
                 n_draw: int, replications: int = 32, seed: int = 0
                 ) -> tuple[float, dict]:
    """Worst-case empirical 0.9-quantile risk over the hypothesis set.

    Verifies the separation condition |chi(member) - chi(anchor)| >= 2 s
    before running, then plays the estimator against the anchor and every
    family member.
    """
    spec = instance.spec
    chi_anchor = est.functional_value(instance.anchor, spec)
    family = instance.family
    hypotheses: list[tuple[str, Density, float]] = [("anchor", instance.anchor, chi_anchor)]
    for k, values in enumerate(family.members(all_sign_vectors(family.m_pairs))):
        member = Density(family.anchor.space, values)
        chi_member = est.functional_value(member, spec)
        gap = abs(chi_member - chi_anchor)
        if s > 0 and gap < 2.0 * s - 1e-12:
            raise SeparationError(
                f"member {k} separates by {gap:.3e} < 2s = {2 * s:.3e}"
            )
        hypotheses.append((f"lambda{k}", member, chi_member))

    per_hypothesis = {}
    worst = 0.0
    for h, (name, hyp, chi_true) in enumerate(hypotheses):
        errors = np.empty(replications)
        for rep in range(replications):
            data = sample(hyp, n_draw, seed + 7919 * rep + 104729 * h)
            errors[rep] = abs(estimator(data, hyp) - chi_true)
        q = float(np.quantile(errors, 0.9))
        per_hypothesis[name] = q
        worst = max(worst, q)
    return worst, per_hypothesis
