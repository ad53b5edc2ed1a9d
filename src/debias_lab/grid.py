"""Finite measure spaces: grids, densities, perturbations, sampling.

Everything downstream lives on a product grid O = Z1 x Z2 x W.  Binary axes
carry counting measure (weight 1 per atom); continuous axes are the unit
interval cut into equal cells with midpoint quadrature (weight 1/cells per
atom).  The base measure mu is the product, so the atom weight is one scalar
shared by every atom and every integral is a finite weighted sum.  That makes
each algebraic identity we need to check a matter of exact floating-point
arithmetic rather than quadrature accuracy.  ``integrate`` is the one
quadrature against a density, sum values * f * atom_weight, and every
integral against a density outside this module goes through it.

Densities are stored per atom with respect to mu.  A probability density
integrates to 1, a signed perturbation to 0.  Feasibility of a perturbation h
at p means p + t*h stays a density for all |t| up to the feasible radius.
A Density's values are read-only, so what derives from the density alone
(its marginals, conditional means) is computed once per density and kept
with it (``Density.derived``); a grid computes its shape, weights and
sub-grids once, and an axis its read-only coordinates.  Integrals,
nuisance distances and density checks reduce with the ufunc's own
``reduce``, which gives ``np.sum``'s bytes without its wrapper's per-call
cost; a density with a NaN or infinite atom is refused.

Conventions: values arrays always have shape ``space.shape`` (one dimension
per axis; a flat atom index is row-major), and per-atom "fields"
(nuisances, weights, test functions) are plain ndarrays on the same grid or
on a sub-grid of it.  A sampled dataset is its vector of per-atom counts in
that flat order, drawn by one multinomial draw, so sampling and every sample
mean cost O(atoms) whatever the sample size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from .errors import (
    DegenerateSliceError,
    DimensionMismatchError,
    InfeasibleRadiusError,
    PreconditionError,
)

MASS_TOL = 1e-12

_T = TypeVar("_T")

Role = str  # "z1" | "z2" | "w"
_ROLES = ("z1", "z2", "w")


def _index(value, what: str) -> int:
    """``value`` as an int, refusing whatever ``operator.index`` rejects: a
    float, even a whole one, or a string.  Numpy integers pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise PreconditionError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Axis:
    """One coordinate of the observation space.

    kind "binary" has atoms {0, 1} with counting measure; kind "continuous"
    has ``cells`` equal cells on [0, 1], represented by their midpoints, each
    carrying base-measure mass 1/cells.
    """

    kind: str
    role: Role
    cells: int = 2

    def __post_init__(self):
        object.__setattr__(self, "cells", _index(self.cells, "an axis cell count"))
        if self.kind not in ("binary", "continuous"):
            raise PreconditionError(f"unknown axis kind {self.kind!r}")
        if self.role not in _ROLES:
            raise PreconditionError(f"axis role must be one of {_ROLES}, got {self.role!r}")
        if self.kind == "binary" and self.cells != 2:
            raise PreconditionError("binary axes have exactly 2 atoms")
        if self.kind == "continuous" and self.cells < 2:
            raise PreconditionError("continuous axes need cell_count >= 2")

    @property
    def size(self) -> int:
        return 2 if self.kind == "binary" else self.cells

    @property
    def cell_weight(self) -> float:
        return 1.0 if self.kind == "binary" else 1.0 / self.cells

    @cached_property
    def coords(self) -> np.ndarray:
        """Atom coordinate values: {0,1} or cell midpoints, read-only and
        computed once per axis."""
        coords = (np.array([0.0, 1.0]) if self.kind == "binary"
                  else (np.arange(self.cells) + 0.5) / self.cells)
        coords.flags.writeable = False
        return coords


def binary(role: Role) -> Axis:
    return Axis("binary", role)


def continuous(role: Role, cells: int) -> Axis:
    return Axis("continuous", role, cells)


@dataclass(frozen=True)
class GridSpace:
    """Product grid with a uniform per-atom base-measure weight.

    The roles must partition the axes: every axis is tagged z1, z2 or w.
    """

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not self.axes:
            raise PreconditionError("a GridSpace needs at least one axis")

    # -- geometry (computed once per grid; equality stays on ``axes``) ---------
    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @cached_property
    def roles(self) -> tuple[str, ...]:
        return tuple(ax.role for ax in self.axes)

    @cached_property
    def continuous(self) -> tuple[bool, ...]:
        return tuple(ax.kind == "continuous" for ax in self.axes)

    @cached_property
    def n_atoms(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def atom_weight(self) -> float:
        w = 1.0
        for ax in self.axes:
            w *= ax.cell_weight
        return w

    @cached_property
    def _subgrids(self) -> dict[tuple[int, ...], "GridSpace"]:
        return {}

    def subgrid(self, keep: Sequence[int]) -> "GridSpace":
        """The grid of the axes ``keep``, built once per grid and axis list."""
        keep = tuple(keep)
        sub = self._subgrids.get(keep)
        if sub is None:
            sub = self._subgrids[keep] = GridSpace(tuple(self.axes[i] for i in keep))
        return sub

    def coords(self, axis: int) -> np.ndarray:
        return self.axes[axis].coords

    def field(self, fn: Callable[..., np.ndarray]) -> np.ndarray:
        """Evaluate ``fn(c0, c1, ...)`` on the per-axis coordinates broadcast
        to ``shape``."""
        coords = np.meshgrid(*[ax.coords for ax in self.axes], indexing="ij")
        return np.asarray(fn(*coords), dtype=float) * np.ones(self.shape)

    def check_values(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.shape:
            raise DimensionMismatchError(
                f"values shape {arr.shape} does not match grid shape {self.shape}"
            )
        return arr

    def broadcast(self, values) -> np.ndarray:
        """A scalar or an array broadcastable to ``shape``, as a read-only
        view of that shape (no per-atom copy)."""
        arr = np.asarray(values, dtype=float)
        if arr.shape == self.shape:  # a plain view costs far less than broadcast_to
            view = arr.view()
            view.flags.writeable = False
            return view
        try:
            return np.broadcast_to(arr, self.shape)
        except ValueError:
            raise DimensionMismatchError(
                f"values shape {arr.shape} does not broadcast to grid shape {self.shape}"
            ) from None


def check_density_rows(space: GridSpace, values: np.ndarray) -> np.ndarray:
    """``values`` with negative dust set to 0, after checking each density in it.

    ``values`` holds one density (shape ``space.shape``) or a stack of them
    (shape (L, *space.shape)).  Each must have no atom below -MASS_TOL and a
    finite mass 1 within MASS_TOL; the first that fails raises
    PreconditionError.  ``Density`` and the stacked family members both
    check through here.
    """
    low = np.minimum.reduce(values, axis=None)
    if low < -MASS_TOL:
        low = values.reshape(-1, space.n_atoms).min(axis=1)
        raise PreconditionError(
            f"density has a negative atom value {low[np.argmax(low < -MASS_TOL)]:.3e}"
        )
    # tolerate -1e-12-level dust from upstream arithmetic; without any, a
    # copy in the same memory order gives np.where's bytes at less cost
    arr = np.where(values < 0.0, 0.0, values) if low < 0.0 else values.copy(order="K")
    w = space.atom_weight
    for total in np.add.reduce(arr.reshape(-1, space.n_atoms), axis=1).tolist():
        m = total * w
        if not math.isfinite(m):
            raise PreconditionError(f"density mass {m!r} is non-finite: an atom is NaN or inf")
        if abs(m - 1.0) > MASS_TOL * max(1.0, abs(m)):
            raise PreconditionError(f"density mass {m!r} is not 1 within {MASS_TOL}")
    return arr


def check_signed_rows(space: GridSpace, values: np.ndarray) -> None:
    """Check that each signed density in ``values`` (one, or a stack of them)
    has a finite total variation and mass 0 within MASS_TOL relative to
    max(1, its total variation)."""
    rows = values.reshape(-1, space.n_atoms)
    w = space.atom_weight
    for total, variation in zip(rows.sum(axis=1).tolist(),
                                np.abs(rows).sum(axis=1).tolist()):
        m = total * w
        if not math.isfinite(variation):  # NaN or inf in any atom
            raise PreconditionError(f"signed density has a non-finite total variation "
                                    f"{variation!r}: an atom is NaN or inf")
        if abs(m) > MASS_TOL * max(1.0, variation * w):
            raise PreconditionError(f"signed density mass {m!r} is not 0 within {MASS_TOL}")


class ArrayValue:
    """Equality for a frozen dataclass holding arrays, declared with eq=False.

    Two objects of one class are equal when every compared field is: array
    fields by ``np.array_equal``, the others by ``==``.  The arrays are
    read-only but not hashable, so neither is the object.
    """

    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self) if f.compare)
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)


@dataclass(frozen=True, eq=False)
class Density(ArrayValue):
    """Nonnegative per-atom density with total mass 1 (w.r.t. mu).

    ``values`` is a read-only copy of the constructor's array, so a value
    derived from the density (a marginal, a conditional mean) stays valid
    for its lifetime and is computed once, by ``derived``.
    """

    space: GridSpace
    values: np.ndarray
    _memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = check_density_rows(self.space, self.space.check_values(self.values))
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def derived(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()`` on the first call for ``key``, the same object after.

        ``compute`` must depend on this density alone and return an
        immutable value (a Density or a read-only array).  Two threads that
        race on a first call may both compute; they get equal values.
        """
        memo = self._memo
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        value = memo.get(key)
        if value is None:
            value = memo.setdefault(key, compute())
        return value



@dataclass(frozen=True, eq=False)
class SignedDensity(ArrayValue):
    """Per-atom signed values with total mass 0: a perturbation direction."""

    space: GridSpace
    values: np.ndarray

    def __post_init__(self):
        arr = self.space.check_values(self.values)
        check_signed_rows(self.space, arr)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class Dataset(ArrayValue):
    """n i.i.d. observations as per-atom counts.

    ``counts[a]`` is the number of observations on flat (row-major) atom
    ``a``.  On a finite grid the counts are a sufficient statistic for every
    sample mean the estimators take, so no per-observation array is kept.
    """

    space: GridSpace
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.space.n_atoms,):
            raise DimensionMismatchError(
                f"counts shape {counts.shape} does not match the "
                f"{self.space.n_atoms} atoms of the grid"
            )
        if counts.min() < 0:
            raise PreconditionError("dataset counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


# -----------------------------------------------------------------------------
# Operations
# -----------------------------------------------------------------------------

# Every kind's grid ends in a binary W axis, and numpy runs a length-2 inner
# loop per atom for a sum over that axis or a field broadcast along it.  The
# two kernels below do that arithmetic on whole slices instead, to the bytes
# numpy gives, and hand any other shape to numpy.

def _w_sum(values: np.ndarray, axes: tuple[int, ...] = (-1,)) -> np.ndarray:
    """``values.sum(axis=axes)``, bit for bit; a sum over the trailing axis
    alone, when it has 2 atoms, is two slice adds.

    numpy adds each pair onto 0.0, so [-0.0, -0.0] sums to +0.0; adding 0.0
    after the pair gives that value for every pair.
    """
    if values.shape[-1:] == (2,) and axes in ((-1,), (values.ndim - 1,)):
        out = values[..., 0] + values[..., 1]
        out += 0.0
        return out
    return values.sum(axis=axes)


def _w_product(values: np.ndarray, field) -> np.ndarray:
    """``values * field``, bit for bit; a field constant along a trailing
    axis of 2 atoms (shape ``values.shape[:-1] + (1,)``) is first written
    into both slices of a C-order buffer, so the product is one contiguous
    multiply in the order ``np.sum`` reads it."""
    if values.shape[-1:] == (2,) and getattr(field, "shape", ()) == values.shape[:-1] + (1,):
        out = np.empty(values.shape)
        out[..., 0] = out[..., 1] = field[..., 0]
        return np.multiply(values, out, out=out)
    return values * field


def integrate(d: Density | SignedDensity, w: np.ndarray | float = 1.0) -> float:
    """Integral of w against d's measure: sum values*w*atom_weight, for a
    scalar w or a field that broadcasts to d's grid (and not beyond it)."""
    try:
        product = _w_product(d.values, w)
    except ValueError:
        product = None
    if product is None or product.shape != d.space.shape:
        raise DimensionMismatchError(
            f"field shape {np.shape(w)} does not broadcast to grid shape {d.space.shape}")
    return float(np.add.reduce(product, axis=None) * d.space.atom_weight)


def feasible_radius(p: Density, h: SignedDensity) -> float:
    """sup{r >= 0 : p + t*h >= 0 for all |t| <= r}; inf when h == 0."""
    if p.space != h.space:
        raise DimensionMismatchError("density and perturbation live on different grids")
    hv = h.values
    active = np.abs(hv) > 0.0
    if not active.any():
        return math.inf
    return float(np.min(p.values[active] / np.abs(hv[active])))


def add_scaled(p: Density, t: float, h: SignedDensity) -> Density:
    """p + t*h as a Density; errors with the feasible radius when infeasible."""
    if p.space != h.space:
        raise DimensionMismatchError("density and perturbation live on different grids")
    out = p.values + t * h.values
    if out.min() < -MASS_TOL:
        raise InfeasibleRadiusError(t, feasible_radius(p, h))
    return Density(p.space, out)


def marginal(p: Density, keep_axes: Sequence[int]) -> Density:
    """Sum out every axis not in keep_axes (with base-measure weights).

    Computed once per density and axis set; later calls return that object.
    """
    keep = tuple(sorted(set(map(int, keep_axes))))
    if keep and (keep[0] < 0 or keep[-1] >= len(p.space.axes)):  # sorted: ends suffice
        raise PreconditionError("marginal axes outside the grid")

    def compute() -> Density:
        drop = tuple(a for a in range(len(p.space.axes)) if a not in keep)
        values = (_w_sum(p.values, drop) * p.space.subgrid(drop).atom_weight
                  if drop else p.values)
        return Density(p.space.subgrid(keep), values)

    return p.derived(("marginal", keep), compute)


def conditional(p: Density, fixed: dict[int, int]) -> Density:
    """Condition on given axis=cell assignments and renormalize the slice."""
    idx: list = [slice(None)] * len(p.space.axes)
    for a, cell in fixed.items():
        a = _index(a, "a conditioning axis")
        cell = _index(cell, f"the cell on axis {a}")
        if a < 0 or a >= len(p.space.axes):
            raise PreconditionError("conditioning axis outside the grid")
        if not 0 <= cell < p.space.shape[a]:
            raise PreconditionError(f"cell {cell} is outside axis {a}, which has "
                                    f"{p.space.shape[a]} cells")
        idx[a] = cell
    keep = [a for a in range(len(p.space.axes)) if a not in fixed]
    sub = p.space.subgrid(keep)
    slab = p.values[tuple(idx)]
    mass = float(slab.sum()) * sub.atom_weight
    if mass <= 0.0:
        raise DegenerateSliceError(f"conditioning slice {fixed} has zero mass")
    return Density(sub, slab / mass)


def sample(p: Density, n: int, seed: int) -> Dataset:
    """n i.i.d. atom draws from the categorical law values*atom_weight, as
    one multinomial draw of the per-atom counts (O(atoms) at any n)."""
    n = _index(n, "the sample size n")
    if not 0 <= n <= 2 ** 63 - 1:
        raise PreconditionError(f"sample size n must be >= 0 and at most the int64 "
                                f"limit 2**63 - 1, got {n}")
    probs = p.values.ravel() * p.space.atom_weight
    rng = np.random.default_rng(seed)
    return Dataset(p.space, rng.multinomial(n, probs / probs.sum()))


def hellinger_sq(p: Density, q: Density) -> float:
    """Squared Hellinger distance: sum (sqrt p - sqrt q)^2 * atom_weight, in [0,2]."""
    if p.space != q.space:
        raise DimensionMismatchError("densities live on different grids")
    diff = np.sqrt(p.values) - np.sqrt(q.values)
    return float(np.sum(diff * diff) * p.space.atom_weight)


def ess_sup_distance(p: Density, q: Density) -> float:
    """d_{mu,inf}: max over atoms of |p - q| (discrete ess-sup)."""
    if p.space != q.space:
        raise DimensionMismatchError("densities live on different grids")
    return float(np.max(np.abs(p.values - q.values)))


def l2_nuisance_distance(f: np.ndarray, g: np.ndarray, p_z: Density) -> float:
    """||f - g||_{P_Z,2} = sqrt( sum (f-g)^2 p_z * atom_weight )."""
    diff = p_z.space.broadcast(f) - p_z.space.broadcast(g)
    diff *= diff
    diff *= p_z.values
    return float(np.sqrt(np.add.reduce(diff, axis=None) * p_z.space.atom_weight))


def uniform_density(space: GridSpace) -> Density:
    total = space.n_atoms * space.atom_weight
    return Density(space, np.full(space.shape, 1.0 / total))


def point_mass(space: GridSpace, atom: int) -> Density:
    values = np.zeros(space.shape)
    values.ravel()[atom] = 1.0 / space.atom_weight
    return Density(space, values)
