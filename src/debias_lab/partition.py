"""Balanced partitions of the Z1 axis and sign-flip bump fields.

A Borsuk-Ulam argument guarantees that for any q integrable weight functions
there is a set of the form {h_alpha >= 0}, with h_alpha a combination of q+1
independent features, that splits every weight's integral exactly in half.
Iterating the bisection yields 2M blocks, paired as siblings, on which every
weight integrates to 1/(2M) of its total.  The sign-flip field

    Delta(lambda, z1) = sum_i lambda_i (1{z1 in B_{2i-1}} - 1{z1 in B_{2i}})

then integrates every balanced weight to zero for every sign vector, which
is what lets perturbations multiplied by Delta hide from linear functionals.

On a finite grid an exact split generally lands inside a cell, so blocks
carry fractional memberships: a cell may contribute part of its measure to
one block and the rest to another.  Bump values on split cells are the
membership-weighted average of +/-1 and so lie strictly inside (-1, 1).

The balanced set is {h >= 0} for a degree-q polynomial h, and the search
runs over the q crossing points of h in both orientations: damped least
squares (scipy's trust-region reflective ``least_squares``) from a start at
quantiles of the restricted measure and from seeded random starts.  Two
exactness fixups follow: a fast path solves proportional weight lists by an
exact prefix split, and crossings that land within a whisker of a cell edge
are snapped onto the edge when that does not hurt the residual.  Both
fixups matter: several downstream identities (exact L2 perturbation norms,
the -2*eps_m*eps_g separation) need Delta^2 == 1 almost everywhere, which
only holds when no cell is split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergenceError, PreconditionError
from .grid import Axis

RESIDUAL_TOL = 1e-6
_REFINE_TARGET = 1e-10
_EVAL_BUDGET = 10_000


@dataclass(frozen=True)
class BumpPartition:
    """2M blocks with per-atom membership weights and their balance audit.

    ``membership`` has shape (2M, n_atoms); column sums are 1.  Blocks are
    paired as (0,1), (2,3), ...; the recursive construction makes each pair
    a sibling split of one parent block.  ``residuals[w, j]`` records
    |int_{B_j} w dmu - (1/2M) int w dmu|.
    """

    axis: Axis
    membership: np.ndarray
    weights: tuple[np.ndarray, ...]
    residuals: np.ndarray

    def __post_init__(self):
        mem = np.asarray(self.membership, dtype=float)
        if mem.ndim != 2 or mem.shape[0] % 2:
            raise PreconditionError("membership must be (2M, atoms) with even 2M")
        col = mem.sum(axis=0)
        if np.max(np.abs(col - 1.0)) > 1e-12:
            raise PreconditionError("block memberships must sum to 1 per atom")
        object.__setattr__(self, "membership", mem)

    @property
    def n_pairs(self) -> int:
        return self.membership.shape[0] // 2

    @property
    def n_blocks(self) -> int:
        return self.membership.shape[0]

    def block_integral(self, w: np.ndarray, block: int) -> float:
        return float(np.sum(self.membership[block] * w) * self.axis.cell_weight)

    def to_json(self) -> dict:
        blocks = []
        for j in range(self.n_blocks):
            nz = np.flatnonzero(self.membership[j] > 0)
            blocks.append([[int(a), float(self.membership[j, a])] for a in nz])
        return {
            "cells": self.axis.size,
            "blocks": blocks,
            "residuals": self.residuals.tolist(),
        }


@dataclass(frozen=True)
class BumpField:
    """Delta(lambda, .) on the Z1 atoms for one sign vector lambda."""

    partition: BumpPartition
    lam: np.ndarray
    values: np.ndarray

    @property
    def m(self) -> int:
        return int(self.lam.size)


# -----------------------------------------------------------------------------
# bisection
# -----------------------------------------------------------------------------

def _positive_fraction(h_edges: np.ndarray) -> np.ndarray:
    """Per-cell fraction of {h >= 0} for edge values of a piecewise-linear h."""
    h_l, h_r = h_edges[:-1], h_edges[1:]
    frac = np.empty(h_l.shape)
    both_pos = (h_l >= 0) & (h_r >= 0)
    both_neg = (h_l < 0) & (h_r < 0)
    frac[both_pos] = 1.0
    frac[both_neg] = 0.0
    cross = ~(both_pos | both_neg)
    if cross.any():
        hl, hr = h_l[cross], h_r[cross]
        t = hl / (hl - hr)
        frac[cross] = np.where(hl >= 0, t, 1.0 - t)
    degenerate = (h_l == 0) & (h_r == 0)
    frac[degenerate] = 0.5
    return frac


def _weights_proportional(weights: Sequence[np.ndarray],
                          membership: np.ndarray, cw: float) -> np.ndarray | None:
    """If every restricted weight is a multiple of one of them, return it."""
    restricted = [w * membership for w in weights]
    base = None
    for w in restricted:
        if np.max(np.abs(w)) > 1e-13:
            base = w
            break
    if base is None:
        return np.ones_like(membership) * membership  # all weights vanish
    scale = float(np.max(np.abs(base)))
    for w in restricted:
        coef = float(np.vdot(base, w) / np.vdot(base, base))
        if np.max(np.abs(w - coef * base)) > 1e-12 * max(1.0, scale):
            return None
    if base.min() < -1e-13 * scale:
        base = -base
    if base.min() < -1e-13 * scale:
        return None  # sign-changing weight; no prefix split
    return base


def _prefix_split(base: np.ndarray, membership: np.ndarray) -> np.ndarray:
    """Exact half-split of a nonnegative weight by a prefix with one cut cell."""
    total = base.sum()
    target = total / 2.0
    cum = np.cumsum(base)
    k = int(np.searchsorted(cum, target))
    mem_in = np.zeros_like(membership)
    mem_in[:k] = membership[:k]
    prev = cum[k - 1] if k else 0.0
    if base[k] > 0:
        mem_in[k] = membership[k] * (target - prev) / base[k]
    return mem_in


def _snap_crossings(mem_in: np.ndarray, membership: np.ndarray,
                    weights: Sequence[np.ndarray], cw: float,
                    scales: np.ndarray, current: float) -> tuple[np.ndarray, float]:
    """Round almost-whole-cell splits onto the cell edge when that helps."""
    frac = np.divide(mem_in, membership, out=np.zeros_like(mem_in),
                     where=membership > 0)
    near = ((frac > 0) & (frac < 1e-3)) | ((frac < 1) & (frac > 1 - 1e-3))
    if not near.any():
        return mem_in, current
    snapped = mem_in.copy()
    snapped[near & (frac < 0.5)] = 0.0
    full = near & (frac >= 0.5)
    snapped[full] = membership[full]
    res = _half_split_residual(snapped, membership, weights, cw, scales)
    if res <= max(current, _REFINE_TARGET):
        return snapped, res
    return mem_in, current


def _half_split_residual(mem_in: np.ndarray, membership: np.ndarray,
                         weights: Sequence[np.ndarray], cw: float,
                         scales: np.ndarray) -> float:
    res = 0.0
    for w, s in zip(weights, scales):
        inside = float(np.sum(mem_in * w) * cw)
        total = float(np.sum(membership * w) * cw)
        res = max(res, abs(inside - total / 2.0) / s)
    return res


def bisect(weights: Sequence[np.ndarray], axis: Axis,
           membership: np.ndarray | None = None,
           budget: int = _EVAL_BUDGET,
           seed: int = 0) -> np.ndarray:
    """Membership (in [0,1] per atom) of a set splitting every weight in half.

    The returned set is {h >= 0} for a degree-q polynomial h; the search runs
    over the polynomial's crossing points (with both orientations) via damped
    least squares, which is far better conditioned than descending on the
    sphere of coefficient vectors.  Crossings within a whisker of a cell edge
    are snapped onto the edge when that does not hurt the residual, so an
    exact whole-cell bisection is returned whenever one exists nearby.
    Raises NoConvergenceError with the best scaled residual when the search
    budget is exhausted above RESIDUAL_TOL.
    """
    from scipy.optimize import least_squares

    q = len(weights)
    if q < 1:
        raise PreconditionError("bisect needs at least one weight")
    if q > 6:
        raise PreconditionError("bisect supports at most 6 weights")
    if axis.kind != "continuous":
        raise PreconditionError("partitions are built on a continuous Z1 axis")
    weights = [np.asarray(w, dtype=float) * np.ones(axis.size) for w in weights]
    if membership is None:
        membership = np.ones(axis.size)
    cw = axis.cell_weight
    scales = np.array([1.0 + float(np.sum(np.abs(w) * membership) * cw)
                       for w in weights])

    base = _weights_proportional(weights, membership, cw)
    if base is not None:
        mem_in = _prefix_split(base, membership)
        res = _half_split_residual(mem_in, membership, weights, cw, scales)
        if res <= RESIDUAL_TOL:
            return mem_in

    edges = axis.edges
    half_totals = np.array([float(np.sum(membership * w) * cw) / 2.0
                            for w in weights])

    def membership_in(crossings: np.ndarray, orientation: float) -> np.ndarray:
        h_edges = np.full(edges.size, orientation)
        for c in crossings:
            h_edges = h_edges * (edges - c)
        return _positive_fraction(h_edges) * membership

    def residual_vec(crossings: np.ndarray, orientation: float) -> np.ndarray:
        mem_in = membership_in(crossings, orientation)
        vals = np.array([float(np.sum(mem_in * w) * cw) for w in weights])
        return (vals - half_totals) / scales

    evals = 0
    rng = np.random.default_rng(0xB15EC7 + seed)
    best: tuple[float, np.ndarray, float] | None = None

    def quantile_positions(fractions: np.ndarray) -> np.ndarray:
        # crossing positions at given fractions of the restricted measure;
        # keeps starts inside the support, where the residual has slope
        cum = np.concatenate([[0.0], np.cumsum(membership)])
        total = cum[-1]
        pos = np.empty(fractions.size)
        for i, f in enumerate(fractions):
            target = np.clip(f, 0.0, 1.0) * total
            k = int(np.searchsorted(cum[1:], target))
            k = min(k, membership.size - 1)
            inside = (target - cum[k]) / membership[k] if membership[k] > 0 else 0.5
            pos[i] = edges[k] + inside * (edges[k + 1] - edges[k])
        return np.sort(pos)

    base_fracs = np.arange(1, q + 1) / (q + 1.0)
    starts: list[np.ndarray] = [quantile_positions(base_fracs)]
    n_random = max(6, min(32, budget // (80 * q)))
    for _ in range(n_random):
        starts.append(quantile_positions(np.sort(rng.uniform(0.02, 0.98, size=q))))
    for orientation in (1.0, -1.0):
        for start in starts:
            if evals >= budget:
                break
            out = least_squares(
                residual_vec, start, args=(orientation,), method="trf",
                bounds=(-0.5, 1.5), diff_step=1e-7,
                xtol=1e-15, ftol=1e-15, gtol=1e-15,
                max_nfev=min(400, budget - evals),
            )
            evals += out.nfev * (q + 1)
            res = float(np.max(np.abs(out.fun)))
            if best is None or res < best[0]:
                best = (res, np.asarray(out.x), orientation)
            if best[0] <= _REFINE_TARGET:
                break
        if best is not None and best[0] <= _REFINE_TARGET:
            break

    best_res, crossings, orientation = best
    mem_in = membership_in(crossings, orientation)
    mem_in, best_res = _snap_crossings(mem_in, membership, weights, cw,
                                       scales, best_res)
    if best_res > RESIDUAL_TOL:
        raise NoConvergenceError("bisection failed to balance the weights",
                                 best_res)
    return mem_in


def iterated_partition(weights: Sequence[np.ndarray], m_pairs: int, axis: Axis,
                       seed: int = 0) -> BumpPartition:
    """Recursively bisect into 2M blocks (2M a power of two), paired as siblings."""
    n_blocks = 2 * int(m_pairs)
    if n_blocks < 2 or n_blocks & (n_blocks - 1):
        raise PreconditionError("2M must be a power of two")
    weights = [np.asarray(w, dtype=float) * np.ones(axis.size) for w in weights]
    blocks = [np.ones(axis.size)]
    level = 0
    while len(blocks) < n_blocks:
        nxt: list[np.ndarray] = []
        for b, mem in enumerate(blocks):
            inside = bisect(weights, axis, membership=mem, seed=seed + 31 * level + b)
            nxt.extend([inside, mem - inside])
        blocks = nxt
        level += 1
    membership = np.clip(np.stack(blocks), 0.0, None)
    cw = axis.cell_weight
    totals = np.array([float(np.sum(w) * cw) for w in weights])
    residuals = np.empty((len(weights), n_blocks))
    for i, w in enumerate(weights):
        for j in range(n_blocks):
            residuals[i, j] = abs(
                float(np.sum(membership[j] * w) * cw) - totals[i] / n_blocks
            )
    part = BumpPartition(axis, membership, tuple(weights), residuals)
    scales = 1.0 + np.array([float(np.sum(np.abs(w)) * cw) for w in weights])
    worst = float(np.max(residuals / scales[:, None]))
    if worst > RESIDUAL_TOL:
        raise NoConvergenceError("partition residuals exceed tolerance", worst)
    return part


def equal_blocks(axis: Axis, n_blocks: int,
                 weight: np.ndarray | None = None) -> BumpPartition:
    """Contiguous blocks of equal measure for one nonnegative weight.

    Unlike :func:`iterated_partition` this places no power-of-two
    restriction on the block count; boundary cells are split fractionally.
    """
    if n_blocks < 2 or n_blocks % 2:
        raise PreconditionError("equal_blocks needs an even block count >= 2")
    w = np.ones(axis.size) if weight is None else \
        np.asarray(weight, dtype=float) * np.ones(axis.size)
    if w.min() < 0:
        raise PreconditionError("equal_blocks needs a nonnegative weight")
    cum = np.concatenate([[0.0], np.cumsum(w)])
    total = cum[-1]
    membership = np.zeros((n_blocks, axis.size))
    for j in range(n_blocks):
        lo, hi = total * j / n_blocks, total * (j + 1) / n_blocks
        inside = np.clip(np.minimum(cum[1:], hi) - np.maximum(cum[:-1], lo),
                         0.0, None)
        membership[j] = np.divide(inside, w, out=np.zeros_like(w), where=w > 0)
    # atoms with zero weight belong to no block yet; give them to the first
    zero_w = w == 0
    if zero_w.any():
        membership[0, zero_w] = 1.0
    cw = axis.cell_weight
    target = total * cw / n_blocks
    residuals = np.array([[abs(float(np.sum(membership[j] * w) * cw) - target)
                           for j in range(n_blocks)]])
    return BumpPartition(axis, membership, (w,), residuals)


def bump(partition: BumpPartition, lam: Sequence[int]) -> BumpField:
    """Delta(lambda, .) = sum_i lam_i (mem_{2i} - mem_{2i+1})."""
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.size != partition.n_pairs:
        raise PreconditionError(
            f"lambda needs {partition.n_pairs} signs, got {lam_arr.size}"
        )
    if not np.all(np.abs(lam_arr) == 1.0):
        raise PreconditionError("lambda entries must be +-1")
    mem = partition.membership
    values = np.zeros(mem.shape[1])
    for i, s in enumerate(lam_arr):
        values += s * (mem[2 * i] - mem[2 * i + 1])
    return BumpField(partition, lam_arr, values)


def all_sign_vectors(m: int) -> np.ndarray:
    """All 2^m sign vectors in {-1,+1}^m, lexicographic."""
    if m > 20:
        raise PreconditionError("refusing to enumerate more than 2^20 sign vectors")
    grid = np.indices((2,) * m).reshape(m, -1).T
    return (2 * grid - 1).astype(float)


def partition_json_dumps(part: BumpPartition) -> str:
    return json.dumps(part.to_json())
