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

A partition is stored as one block label per cell, with the few split
cells' shares beside it, so its size is O(cells) at any M.  The recursion
is block-local too: each block is kept as its support cells and their
shares, and each bisection sees only those cells.

A bisection lays the block's support cells end to end and cuts them at q
positions c_1 <= ... <= c_q (in cell units, a cut cell filled linearly);
the set is the last interval [c_q, K] and every other gap below it.  The
Hobby-Rice theorem (1965) says such cuts halve any q weights, and the
complement of a balanced set is balanced, so one orientation suffices.
Each weight's mass below c is piecewise linear in c, so the residual has
an exact Jacobian (a weight's mass in the cell holding each cut) and the
search is one damped Newton run from a start at quantiles of the restricted
measure.  Proportional weight lists take an exact prefix split instead, and
cuts that land within a whisker of a cell edge are snapped onto the edge
when that does not hurt the residual.  Both
matter: several downstream identities (exact L2 perturbation norms, the
-2*eps_m*eps_g separation) need Delta^2 == 1 almost everywhere, which only
holds when no cell is split.  If the start misses, the half is a vertex
of {0 <= u <= mem, W u = W mem / 2} found by purification from u = mem/2,
exact to rounding and with at most q split cells, so a bisection never
gives up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergenceError, PreconditionError
from .grid import ArrayValue, Axis

RESIDUAL_TOL = 1e-6
_REFINE_TARGET = 1e-10
_EXACT = 1e-15         # Newton stops here: the residual is at rounding level
_NEWTON_STEPS = 30
_MIN_DAMPING = 1.0 / 64
_SNAP = 1e-3           # cuts this close to a cell edge are tried on the edge


@dataclass(frozen=True, eq=False)
class BumpPartition(ArrayValue):
    """2M blocks of Z1 cells, as a block label per cell, and their balance audit.

    ``labels[c]`` is the block holding all of cell c, or -1 when c is split
    between blocks.  ``split_shares[j, s]`` is block j's share of the s-th
    split cell, in increasing cell order (``split_cells``); each column
    sums to 1.  Both are read-only copies; ``membership``, the dense
    (2M, cells) matrix, is derived on demand.  Blocks are paired as (0,1), (2,3), ...; the recursive
    construction makes each pair a sibling split of one parent block.
    ``residuals[w, j]`` records |int_{B_j} w dmu - (1/2M) int w dmu|.
    """

    axis: Axis
    labels: np.ndarray
    split_shares: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        # read-only copies: split_cells and the bump tables are derived once
        labels = np.array(self.labels, dtype=np.intp)
        shares = np.array(self.split_shares, dtype=float)
        n_split = int(np.count_nonzero(labels < 0))
        if (labels.shape != (self.axis.size,) or shares.ndim != 2
                or shares.shape[1] != n_split or shares.shape[0] < 2
                or shares.shape[0] % 2 or labels.max(initial=-1) >= shares.shape[0]):
            raise PreconditionError("a partition needs a block label per cell and "
                                    "(2M, split cells) shares with even 2M")
        if n_split and (shares.min() < 0.0
                        or np.max(np.abs(shares.sum(axis=0) - 1.0)) > 1e-12):
            raise PreconditionError("block memberships must be >= 0 and sum to 1 per atom")
        labels.flags.writeable = shares.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "split_shares", shares)

    @property
    def n_pairs(self) -> int:
        return self.n_blocks // 2

    @property
    def n_blocks(self) -> int:
        return self.split_shares.shape[0]

    @functools.cached_property
    def split_cells(self) -> np.ndarray:
        """The cells shared between blocks, in increasing order (read-only)."""
        split = np.flatnonzero(self.labels < 0)
        split.flags.writeable = False
        return split

    @functools.cached_property
    def _split_pair_diffs(self) -> list[tuple[int, np.ndarray]]:
        """(i, mem_{2i} - mem_{2i+1} on the split cells) for each pair i
        holding part of a split cell, in pair order."""
        diff = self.split_shares[0::2] - self.split_shares[1::2]
        diff.flags.writeable = False
        return [(i, diff[i]) for i in np.flatnonzero(diff.any(axis=1)).tolist()]

    @property
    def membership(self) -> np.ndarray:
        """The dense (2M, cells) block memberships, read-only; columns sum to 1."""
        mem = np.zeros((self.n_blocks, self.axis.size))
        block, cell, share = self._entries()
        mem[block, cell] = share
        mem.flags.writeable = False
        return mem

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(block, cell, share) for every share > 0: whole cells, then split."""
        whole = np.flatnonzero(self.labels >= 0)
        split_block, split_at = np.nonzero(self.split_shares > 0)
        return (np.concatenate([self.labels[whole], split_block]),
                np.concatenate([whole, self.split_cells[split_at]]),
                np.concatenate([np.ones(whole.size),
                                self.split_shares[split_block, split_at]]))

    def block_integral(self, w: np.ndarray, block: int) -> float:
        w = np.broadcast_to(np.asarray(w, dtype=float), (self.axis.size,))
        blocks, cell, share = self._entries()
        inside = blocks == block
        return float(share[inside] @ w[cell[inside]] * self.axis.cell_weight)

    def to_json(self) -> dict:
        block, cell, share = self._entries()
        order = np.lexsort((cell, block))
        ends = np.searchsorted(block[order], np.arange(self.n_blocks + 1))
        rows = [list(row) for row in zip(cell[order].tolist(), share[order].tolist())]
        return {
            "cells": self.axis.size,
            "blocks": [rows[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])],
            "residuals": self.residuals.tolist(),
        }


def _from_entries(axis: Axis, n_blocks: int, blocks: np.ndarray, cells: np.ndarray,
                  shares: np.ndarray, residuals: np.ndarray) -> BumpPartition:
    """The partition giving block ``blocks[e]`` share ``shares[e]`` > 0 of cell
    ``cells[e]``.  A cell is whole when one block holds all of it exactly."""
    held = np.bincount(cells, minlength=axis.size)
    whole = (held[cells] == 1) & (shares == 1.0)
    labels = np.full(axis.size, -1, dtype=np.intp)
    labels[cells[whole]] = blocks[whole]
    split = np.flatnonzero(labels < 0)
    split_shares = np.zeros((n_blocks, split.size))
    rest = ~whole
    split_shares[blocks[rest], np.searchsorted(split, cells[rest])] = shares[rest]
    return BumpPartition(axis, labels, split_shares, residuals)


# -----------------------------------------------------------------------------
# bisection
# -----------------------------------------------------------------------------

def _weight_matrix(weights: Sequence[np.ndarray] | np.ndarray, size: int) -> np.ndarray:
    """The weights as rows of a (q, size) array, all finite.  A 2-d array is
    taken as already stacked."""
    if isinstance(weights, np.ndarray) and weights.ndim == 2:
        if weights.shape[1] != size:
            raise PreconditionError(f"weights must be rows over {size} cells, "
                                    f"not {weights.shape[1]}")
        w = weights.astype(float, copy=False)
    else:
        w = np.stack([np.broadcast_to(np.asarray(w, dtype=float), (size,))
                      for w in weights])
    if not np.isfinite(w).all():
        i, cell = np.argwhere(~np.isfinite(w))[0]
        raise PreconditionError(f"weight {i} is {w[i, cell]} at cell {cell}; "
                                "partition weights must be finite")
    return w


def _weights_proportional(weights: np.ndarray,
                          membership: np.ndarray) -> np.ndarray | None:
    """If every restricted weight is a multiple of one of them, return it."""
    restricted = weights * membership
    peaks = np.abs(restricted).max(axis=1)
    live = np.flatnonzero(peaks > 1e-13)
    if live.size == 0:
        return membership.copy()  # all weights vanish
    base, scale = restricted[live[0]], float(peaks[live[0]])
    coefs = restricted @ base / (base @ base)
    if np.abs(restricted - coefs[:, None] * base).max() > 1e-12 * max(1.0, scale):
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


def _half_split_residual(mem_in: np.ndarray, membership: np.ndarray,
                         weights: np.ndarray, cw: float,
                         scales: np.ndarray) -> float:
    """max_i |int_in w_i - (1/2) int w_i| / scale_i."""
    gap = weights @ (mem_in - membership / 2.0) * cw
    return float((np.abs(gap) / scales).max())


class _CutSearch:
    """Half-splits of q weights over K support cells by q alternating cuts.

    ``a[i, k]`` is weight i's scaled mass on support cell k and ``cum`` its
    running sum, so the mass of [0, c] is G_i(c) = cum[i, j] + (c - j) a[i, j]
    with j = floor(c).  The set of cuts c_1 <= ... <= c_q is [c_q, K] plus
    every other gap below it, and its residual sum_k s_k G(c_k) + G(K)/2
    (signs s alternating, s_q = -1) is piecewise linear with Jacobian
    s_k a[:, floor(c_k)].
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.q, self.k = a.shape
        self.cum = np.zeros((self.q, self.k + 1))
        np.cumsum(a, axis=1, out=self.cum[:, 1:])
        self.signs = (-1.0) ** (self.q - np.arange(self.q))
        self.half = self.cum[:, -1] / 2.0

    def residual(self, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cells = np.minimum(cuts.astype(int), self.k - 1)
        mass = self.cum[:, cells] + (cuts - cells) * self.a[:, cells]
        return mass @ self.signs + self.half, cells

    def newton(self, cuts: np.ndarray) -> tuple[np.ndarray, float]:
        """Damped Newton from ``cuts``; returns the best cuts and max |r|."""
        r, cells = self.residual(cuts)
        merit = r @ r
        for _ in range(_NEWTON_STEPS):
            if np.abs(r).max() <= _EXACT:
                break
            jac = self.a[:, cells] * self.signs
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            t = 1.0
            while t >= _MIN_DAMPING:
                trial = np.sort((cuts + t * step).clip(0.0, self.k))
                r_t, cells_t = self.residual(trial)
                if r_t @ r_t < merit:
                    break
                t *= 0.5
            else:
                break
            cuts, r, cells, merit = trial, r_t, cells_t, r_t @ r_t
        return cuts, float(np.abs(r).max())

    def fraction(self, cuts: np.ndarray) -> np.ndarray:
        """Share of each support cell inside the set (cut cells filled linearly)."""
        cover = (cuts[:, None] - np.arange(self.k)).clip(0.0, 1.0)
        return 1.0 + self.signs @ cover

    def gap(self, frac: np.ndarray) -> float:
        return float(np.abs(self.a @ frac - self.half).max())


def _vertex_half(a: np.ndarray) -> np.ndarray:
    """A vertex of {0 <= f <= 1, a f = a 1 / 2} with at most q fractional cells.

    Purification from f = 1/2: sweep the cells keeping q+1 fractional ones
    active, and move them along a null vector of a[:, active] until one
    reaches 0 or 1.  Each move keeps a f fixed, so the result is exact up to
    rounding.
    """
    q, k = a.shape
    frac = np.full(k, 0.5)
    active: list[int] = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for cell in range(k):
            active.append(cell)
            if len(active) <= q:
                continue
            idx = np.array(active)
            v = np.linalg.svd(a[:, idx])[2][-1]
            f = frac[idx]
            room = np.where(v > 0, (1.0 - f) / v, np.where(v < 0, -f / v, np.inf))
            hit = int(np.argmin(room))
            f = (f + room[hit] * v).clip(0.0, 1.0)
            f[hit] = 1.0 if v[hit] > 0 else 0.0
            frac[idx] = f
            active = [c for c in active if 0.0 < frac[c] < 1.0]
    return frac


def bisect(weights: Sequence[np.ndarray] | np.ndarray, axis: Axis,
           membership: np.ndarray | None = None) -> np.ndarray:
    """Membership (in [0,1] per cell) of a set splitting every weight in half.

    The set lies inside the block ``membership`` (shares per cell, the whole
    axis when None), and the weights are rows over the same cells as
    ``membership``: a block-local caller hands over only its block's cells.
    Weights proportional to one nonnegative weight are split exactly by a
    prefix.  Otherwise the block's support cells are laid end to end and
    the set is cut by q positions c_1 <= ... <= c_q in cell units:
    it is [c_q, K] plus every other gap below, and a cell holding a cut is
    filled linearly.  By the Hobby-Rice theorem such cuts always exist, and
    one orientation suffices since the complement only negates the residual.
    The residual is piecewise linear with an exact Jacobian, so damped
    Newton runs once, from cuts at quantiles i/(q+1) of the restricted
    measure.  Cuts within a whisker of a cell edge are snapped onto it when
    that does not hurt the residual, so a whole-cell bisection is returned
    whenever one lies nearby.  If the start misses, the set is a vertex of
    {0 <= u <= mem, W u = W mem / 2}, found by purification; it has at most
    q split cells.  Raises NoConvergenceError with the scaled residual if
    the result is still above RESIDUAL_TOL.
    """
    if len(weights) < 1:
        raise PreconditionError("bisect needs at least one weight")
    if axis.kind != "continuous":
        raise PreconditionError("partitions are built on a continuous Z1 axis")
    membership = (np.ones(axis.size) if membership is None
                  else np.asarray(membership, dtype=float))
    w = _weight_matrix(weights, membership.size)
    support = np.flatnonzero(membership > 0)
    if support.size == 0:
        return np.zeros_like(membership)
    cw = axis.cell_weight
    scales = 1.0 + np.abs(w) @ membership * cw

    base = _weights_proportional(w, membership)
    if base is not None:
        prefix = _prefix_split(base, membership)
        if _half_split_residual(prefix, membership, w, cw, scales) <= RESIDUAL_TOL:
            return prefix

    mem_s = membership[support]
    search = _CutSearch(w[:, support] * mem_s * cw / scales[:, None])
    q, k = search.q, search.k

    # the start: cuts at quantiles i/(q+1) of the restricted measure
    cum_mem = np.concatenate([[0.0], np.cumsum(mem_s)])
    target = np.arange(1, q + 1) / (q + 1.0) * cum_mem[-1]
    cell = np.minimum(np.searchsorted(cum_mem[1:], target), k - 1)
    cuts, res = search.newton(
        np.clip(cell + (target - cum_mem[cell]) / mem_s[cell], 0.0, k))
    if res <= _REFINE_TARGET:
        frac = search.fraction(cuts)
        edge = np.round(cuts)
        near = np.abs(cuts - edge) < _SNAP
        if near.any():
            snapped = search.fraction(np.where(near, edge, cuts))
            if search.gap(snapped) <= max(search.gap(frac), _REFINE_TARGET):
                frac = snapped
    else:
        frac = _vertex_half(search.a)
    mem_in = np.zeros_like(membership)
    mem_in[support] = mem_s * frac
    res = _half_split_residual(mem_in, membership, w, cw, scales)
    if res > RESIDUAL_TOL:
        raise NoConvergenceError("bisection failed to balance the weights", res)
    return mem_in


def iterated_partition(weights: Sequence[np.ndarray], m_pairs: int,
                       axis: Axis) -> BumpPartition:
    """Recursively bisect into 2M blocks (2M a power of two), paired as siblings.

    Each block is kept as its support cells and their shares, and each
    bisection is handed that block's cells only, so a level costs O(cells)
    however many blocks it has; the residuals are block sums.

    Siblings can be identical.  On a block with k <= q support cells where
    the q weights have rank k, u = mem/2 is the only half that balances
    them (the vertex fallback starts there and moves cells only once more
    than q are active), so both siblings get half of every cell and Delta
    is 0 on that pair for every lambda.  On the 4-cell ATE preset at M = 2
    every family member then equals the anchor.
    """
    n_blocks = 2 * int(m_pairs)
    if n_blocks < 2 or n_blocks & (n_blocks - 1):
        raise PreconditionError("2M must be a power of two")
    w = _weight_matrix(weights, axis.size)
    blocks = [(np.arange(axis.size), np.ones(axis.size))]
    while len(blocks) < n_blocks:
        nxt: list[tuple[np.ndarray, np.ndarray]] = []
        for cells, mem in blocks:
            inside = bisect(w[:, cells], axis, membership=mem)
            for half in (inside, mem - inside):
                keep = half > 0
                nxt.append((cells[keep], half[keep]))
        blocks = nxt
    cells = np.concatenate([c for c, _ in blocks])
    shares = np.concatenate([m for _, m in blocks])
    block = np.repeat(np.arange(n_blocks), [c.size for c, _ in blocks])
    cw = axis.cell_weight
    sums = np.stack([np.bincount(block, row[cells] * shares, minlength=n_blocks)
                     for row in w])
    residuals = np.abs(sums - w.sum(axis=1)[:, None] / n_blocks) * cw
    part = _from_entries(axis, n_blocks, block, cells, shares, residuals)
    scales = 1.0 + np.abs(w).sum(axis=1) * cw
    worst = float(np.max(residuals / scales[:, None]))
    if worst > RESIDUAL_TOL:
        raise NoConvergenceError("partition residuals exceed tolerance", worst)
    return part


def equal_blocks(axis: Axis, n_blocks: int) -> BumpPartition:
    """Contiguous blocks of equal base measure.

    Unlike :func:`iterated_partition` this places no power-of-two
    restriction on the block count; boundary cells are split fractionally.
    """
    if n_blocks < 2 or n_blocks % 2:
        raise PreconditionError("equal_blocks needs an even block count >= 2")
    w = np.ones(axis.size)
    cum = np.concatenate([[0.0], np.cumsum(w)])
    total = cum[-1]
    membership = np.zeros((n_blocks, axis.size))
    for j in range(n_blocks):
        lo, hi = total * j / n_blocks, total * (j + 1) / n_blocks
        membership[j] = np.clip(np.minimum(cum[1:], hi) - np.maximum(cum[:-1], lo),
                                0.0, None)
    cw = axis.cell_weight
    target = total * cw / n_blocks
    residuals = np.array([[abs(float(np.sum(membership[j] * w) * cw) - target)
                           for j in range(n_blocks)]])
    blocks, cells = np.nonzero(membership > 0)
    return _from_entries(axis, n_blocks, blocks, cells, membership[blocks, cells],
                         residuals)


def bumps(partition: BumpPartition, lams: np.ndarray) -> np.ndarray:
    """Delta(lambda, .) for each row of the (L, M) sign array ``lams``: (L, atoms).

    A whole cell in block j gets lam_{j // 2} (j even) or -lam_{j // 2} (j
    odd), a gather over the labels.  A split cell adds lam_i (mem_{2i} -
    mem_{2i+1}) in pair order, skipping the pairs that hold none of the
    split cells, so every row equals the dense pair-order sum bit for bit.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2 or lams.shape[1] != partition.n_pairs:
        raise PreconditionError(
            f"lambda needs {partition.n_pairs} signs per row, got shape {lams.shape}"
        )
    if not np.all(np.abs(lams) == 1.0):
        raise PreconditionError("lambda entries must be +-1")
    # +lam_i for block 2i, -lam_i for block 2i+1; split cells (label -1) are
    # set below.  take, not [:, labels], keeps the rows C-contiguous.
    per_block = np.empty((lams.shape[0], partition.n_blocks))
    per_block[:, 0::2] = lams
    per_block[:, 1::2] = -lams
    values = per_block.take(partition.labels, axis=1)
    split = partition.split_cells
    if split.size:
        acc = np.zeros((lams.shape[0], split.size))
        for i, diff in partition._split_pair_diffs:
            acc += lams[:, i, None] * diff
        values[:, split] = acc
    return values


def bump(partition: BumpPartition, lam: Sequence[int]) -> np.ndarray:
    """Delta(lambda, .) = sum_i lam_i (mem_{2i} - mem_{2i+1}) on the Z1 atoms."""
    return bumps(partition, np.reshape(lam, (1, -1)))[0]


def all_sign_vectors(m: int) -> np.ndarray:
    """All 2^m sign vectors in {-1,+1}^m, lexicographic, for 1 <= m <= 20."""
    if m < 1:
        raise PreconditionError(f"sign vectors need m >= 1 signs, not {m}")
    if m > 20:
        raise PreconditionError("refusing to enumerate more than 2^20 sign vectors")
    grid = np.indices((2,) * m).reshape(m, -1).T
    return (2 * grid - 1).astype(float)

