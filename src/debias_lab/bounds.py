"""Exact testing lower bounds on enumerable instances.

At tiny sample sizes the whole n-fold observation space can be enumerated,
so the quantities the fuzzy-hypothesis method reasons about are computable
exactly: the squared Hellinger distance between the anchor's n-fold product
and the uniform mixture of alternatives' products, the chunk statistic b
feeding the product-measure Hellinger bound, the Bayes (optimal test) error,
and the risk floor (1 - sqrt(delta(1 - delta/4))) / 2 that a Hellinger
budget delta implies.  The n-fold laws are streamed, never stored: H^2 and
the Bayes error are summed over blocks of leading atom tuples, so no
atoms^n array exists and ENUM_TUPLE_CAP bounds a call's time, not its
memory.  The inequality

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
from .grid import Dataset, Density, _index, sample
from .partition import BumpPartition, all_sign_vectors

ENUM_TUPLE_CAP = 1_000_000
ENUM_LAMBDA_CAP = 4096
ENUM_N_CAP = 4
ENUM_ATOM_CAP = 64
_BLOCK_ELEMENTS = 1 << 14  # entries of one block's (leads, max(atoms, rows)) arrays


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


def _sorted_leads(atoms: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, T) non-decreasing k-tuples of atoms, one per column in lexicographic
    order, and (T,) how many k-tuples each one stands for: its distinct
    orderings, k! over the factorials of its runs of equal atoms.  k = 0 gives
    the one empty tuple."""
    if k == 0:
        return np.zeros((0, 1), dtype=np.intp), np.ones(1)
    leads = np.arange(atoms)[None, :]
    counts = run = np.ones(atoms)  # run: length of the run of equal atoms at the end
    for i in range(1, k):
        low = leads[-1]
        reps = atoms - low  # each tuple extends by every atom >= its last
        new = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps - low, reps)
        run = np.where(new == np.repeat(low, reps), np.repeat(run, reps) + 1.0, 1.0)
        counts = np.repeat(counts, reps) * (i + 1) / run
        leads = np.vstack([np.repeat(leads, reps, axis=1), new])
    return leads, counts


def _product_law_sum(anchor_row: np.ndarray, member_rows: np.ndarray, n: int,
                     terms: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Sum over all atom n-tuples of terms(anchor^{(x)n}, mixture^{(x)n}).

    The laws are symmetric in the tuple's order, so only tuples whose first
    n - 1 atoms (the lead) do not decrease are formed, each lead's row counted
    once per ordering of it.  Leads go in blocks of ``_BLOCK_ELEMENTS //
    max(atoms, rows)``: a block's anchor slice is its lead products times the
    anchor row, and its mixture slice one matrix product of the (block, rows)
    lead products under each member with the (rows, atoms) member rows, over
    the row count.  ``terms`` turns the two slices into per-tuple terms in
    place, so no temporary exceeds a block.  Products run in the order of the
    tuple, ((P_a P_b) P_c) P_d, and at n <= 2 no lead repeats, so a law that
    fits one block sums its terms as one flat ``np.sum`` over the tensor.
    """
    rows, atoms = member_rows.shape
    leads, counts = _sorted_leads(atoms, n - 1)
    columns = np.ascontiguousarray(member_rows.T)
    block = max(1, _BLOCK_ELEMENTS // max(atoms, rows))
    lead_products = np.empty((block, rows))
    factor = np.empty((block, rows))
    anchor_slice = np.empty((block, atoms))
    mixture_slice = np.empty((block, atoms))
    total = 0.0
    for start in range(0, leads.shape[1], block):
        lead = leads[:, start:start + block]
        size = lead.shape[1]
        products, a, m = lead_products[:size], anchor_slice[:size], mixture_slice[:size]
        if n == 1:  # the empty lead: the member rows' sum, in row order
            anchor_lead = np.ones(1)
            np.add.reduce(member_rows, axis=0, out=m[0])
        else:
            anchor_lead = anchor_row[lead[0]]
            np.take(columns, lead[0], axis=0, out=products)
            for atom in lead[1:]:
                anchor_lead = anchor_lead * anchor_row[atom]
                np.multiply(products, np.take(columns, atom, axis=0, out=factor[:size]),
                            out=products)
            np.matmul(products, member_rows, out=m)
        np.multiply(anchor_lead[:, None], anchor_row, out=a)
        np.divide(m, rows, out=m)
        d = terms(a, m)
        if n <= 2:
            total += float(np.add.reduce(d, axis=None))
        else:
            total += float(np.add.reduce(d, axis=1) @ counts[start:start + size])
    return total


def _instance_sum(instance: TestingInstance,
                  terms: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    if not instance.enumerated:
        raise PreconditionError("exact testing bounds need an enumerated instance")
    return _product_law_sum(_atom_probs(instance.anchor), member_probs(instance),
                            instance.n, terms)


def _hellinger_terms(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    np.sqrt(a, out=a)
    np.subtract(a, np.sqrt(m, out=m), out=a)
    return np.multiply(a, a, out=a)


def _variation_terms(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.abs(np.subtract(a, m, out=a), out=a)


def product_mixture_hellinger(instance: TestingInstance) -> float:
    """Exact H^2(anchor^{(x)n}, mean_lambda member_lambda^{(x)n})."""
    return _instance_sum(instance, _hellinger_terms)


def optimal_test_error(instance: TestingInstance) -> float:
    """Exact Bayes error (1 - TV)/2 between anchor^n and the mixture."""
    tv = 0.5 * _instance_sum(instance, _variation_terms)
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

    # (M, n1): each Z1 cell's share in B_{2j} u B_{2j+1}
    membership = partition.membership
    chunks = membership[0::2] + membership[1::2]
    cells = (space.shape[0], space.n_atoms // space.shape[0])
    chisq = (probs - anchor_vals[None, :]) ** 2 / anchor_vals[None, :]
    # (2^M, M): every member's chi-square mass on every chunk
    masses = chisq.reshape(len(probs), *cells).sum(axis=2) @ chunks.T * w
    p = chunks @ anchor_vals.reshape(cells).sum(axis=1) * w
    b = float(np.max(masses / p))
    return b, instance.n ** 2 * float(np.max(p)) * b * b


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
    (s >= 0; s = 0 skips it) before running, then plays the estimator
    against the anchor and every family member.
    """
    if _index(replications, "the replication count") < 1:
        raise PreconditionError(f"minimax_demo needs at least 1 replication, not {replications}")
    if not s >= 0:
        raise PreconditionError(f"the separation s must be >= 0, not {s!r}")
    family = instance.family
    if 2 ** family.m_pairs > ENUM_LAMBDA_CAP:
        raise SizeLimitError(f"the 2^M = 2^{family.m_pairs} members exceed the "
                             f"sign-vector enumeration cap ENUM_LAMBDA_CAP = {ENUM_LAMBDA_CAP}")
    spec = instance.spec
    chi_anchor = est.functional_value(instance.anchor, spec)
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
