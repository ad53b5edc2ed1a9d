"""Finite measure spaces: grids, densities, perturbations, sampling.

Everything downstream lives on a product grid O = Z1 x Z2 x W.  Binary axes
carry counting measure (weight 1 per atom); continuous axes are the unit
interval cut into equal cells with midpoint quadrature (weight 1/cells per
atom).  The base measure mu is the product, so the atom weight is one scalar
shared by every atom and every integral is a finite weighted sum.  That makes
each algebraic identity we need to check a matter of exact floating-point
arithmetic rather than quadrature accuracy.

Densities are stored per atom with respect to mu.  A probability density
integrates to 1, a signed perturbation to 0.  Feasibility of a perturbation h
at p means p + t*h stays a density for all |t| up to the feasible radius.

Conventions: values arrays always have shape ``space.shape`` (one dimension
per axis, row-major flattening for serialization), and per-atom "fields"
(nuisances, weights, test functions) are plain ndarrays on the same grid or
on a sub-grid of it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateSliceError,
    DimensionMismatchError,
    InfeasibleRadiusError,
    PreconditionError,
)

MASS_TOL = 1e-12

Role = str  # "z1" | "z2" | "w"
_ROLES = ("z1", "z2", "w")


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

    @property
    def coords(self) -> np.ndarray:
        """Atom coordinate values: {0,1} or cell midpoints."""
        if self.kind == "binary":
            return np.array([0.0, 1.0])
        return (np.arange(self.cells) + 0.5) / self.cells

    @property
    def edges(self) -> np.ndarray:
        """Cell edges (continuous axes only)."""
        if self.kind == "binary":
            raise PreconditionError("binary axes have no cell edges")
        return np.arange(self.cells + 1) / self.cells


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

    # -- geometry -------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def n_atoms(self) -> int:
        return int(np.prod(self.shape))

    @property
    def atom_weight(self) -> float:
        w = 1.0
        for ax in self.axes:
            w *= ax.cell_weight
        return w

    def axis_indices(self, role: Role) -> tuple[int, ...]:
        return tuple(i for i, ax in enumerate(self.axes) if ax.role == role)

    def subgrid(self, keep: Sequence[int]) -> "GridSpace":
        return GridSpace(tuple(self.axes[i] for i in keep))

    def coords(self, axis: int) -> np.ndarray:
        return self.axes[axis].coords

    def meshgrid(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays broadcast to ``shape``."""
        return list(np.meshgrid(*[ax.coords for ax in self.axes], indexing="ij"))

    def field(self, fn: Callable[..., np.ndarray]) -> np.ndarray:
        """Evaluate ``fn(c0, c1, ...)`` on the coordinate meshgrid."""
        return np.asarray(fn(*self.meshgrid()), dtype=float) * np.ones(self.shape)

    def check_values(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.shape != self.shape:
            raise DimensionMismatchError(
                f"values shape {arr.shape} does not match grid shape {self.shape}"
            )
        return arr

    # -- serialization ----------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "axes": [
                {"kind": ax.kind, "role": ax.role, "cells": ax.size} for ax in self.axes
            ]
        }

    @staticmethod
    def from_json(doc: dict) -> "GridSpace":
        return GridSpace(
            tuple(Axis(a["kind"], a["role"], a.get("cells", 2)) for a in doc["axes"])
        )


def _mass(space: GridSpace, values: np.ndarray) -> float:
    return float(values.sum() * space.atom_weight)


@dataclass(frozen=True)
class Density:
    """Nonnegative per-atom density with total mass 1 (w.r.t. mu)."""

    space: GridSpace
    values: np.ndarray

    def __post_init__(self):
        arr = self.space.check_values(self.values)
        if arr.min() < -MASS_TOL:
            raise PreconditionError(
                f"density has a negative atom value {arr.min():.3e}"
            )
        # tolerate -1e-12-level dust from upstream arithmetic
        arr = np.where(arr < 0.0, 0.0, arr)
        m = _mass(self.space, arr)
        if abs(m - 1.0) > MASS_TOL * max(1.0, abs(m)):
            raise PreconditionError(f"density mass {m!r} is not 1 within {MASS_TOL}")
        object.__setattr__(self, "values", arr)

    def to_json(self) -> dict:
        return {"space": self.space.to_json(), "values": self.values.ravel().tolist()}

    @staticmethod
    def from_json(doc: dict) -> "Density":
        space = GridSpace.from_json(doc["space"])
        return Density(space, np.asarray(doc["values"], dtype=float).reshape(space.shape))


@dataclass(frozen=True)
class SignedDensity:
    """Per-atom signed values with total mass 0: a perturbation direction."""

    space: GridSpace
    values: np.ndarray

    def __post_init__(self):
        arr = self.space.check_values(self.values)
        m = _mass(self.space, arr)
        scale = max(1.0, float(np.abs(arr).sum() * self.space.atom_weight))
        if abs(m) > MASS_TOL * scale:
            raise PreconditionError(f"signed density mass {m!r} is not 0 within {MASS_TOL}")
        object.__setattr__(self, "values", arr)

    def to_json(self) -> dict:
        return {"space": self.space.to_json(), "values": self.values.ravel().tolist()}

    @staticmethod
    def from_json(doc: dict) -> "SignedDensity":
        space = GridSpace.from_json(doc["space"])
        return SignedDensity(
            space, np.asarray(doc["values"], dtype=float).reshape(space.shape)
        )


@dataclass(frozen=True)
class Dataset:
    """n i.i.d. observations, each stored as a flat atom index."""

    space: GridSpace
    rows: np.ndarray
    seed: int

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 1:
            raise DimensionMismatchError("rows must be a 1-d array of atom indices")
        if rows.size and (rows.min() < 0 or rows.max() >= self.space.n_atoms):
            raise PreconditionError("dataset row indexes an atom outside the grid")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return int(self.rows.size)

    def axis_indices(self) -> np.ndarray:
        """(n, n_axes) integer cell indices per observation."""
        return np.stack(np.unravel_index(self.rows, self.space.shape), axis=1)

    def axis_coords(self) -> np.ndarray:
        """(n, n_axes) coordinate values per observation."""
        idx = self.axis_indices()
        cols = [self.space.coords(a)[idx[:, a]] for a in range(len(self.space.axes))]
        return np.stack(cols, axis=1) if cols else np.zeros((self.n, 0))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        names = [f"axis{i}" for i in range(len(self.space.axes))]
        writer.writerow(["row"] + names)
        idx = self.axis_indices()
        for r in range(self.n):
            writer.writerow([r] + [int(v) for v in idx[r]])
        return buf.getvalue()

    @staticmethod
    def from_csv(space: GridSpace, text: str, seed: int = 0) -> "Dataset":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        n_axes = len(header) - 1
        if n_axes != len(space.axes):
            raise DimensionMismatchError("CSV column count does not match the grid")
        idx = np.array([[int(v) for v in row[1:]] for row in reader], dtype=np.int64)
        if idx.size == 0:
            return Dataset(space, np.zeros(0, dtype=np.int64), seed)
        flat = np.ravel_multi_index(tuple(idx[:, a] for a in range(n_axes)), space.shape)
        return Dataset(space, flat, seed)


# -----------------------------------------------------------------------------
# Operations
# -----------------------------------------------------------------------------

def integrate(d: Density | SignedDensity, w: np.ndarray | float = 1.0) -> float:
    """Integral of w against d's measure: sum values*w*atom_weight."""
    w_arr = np.asarray(w, dtype=float)
    if w_arr.ndim and w_arr.shape != d.space.shape:
        raise DimensionMismatchError(
            f"weight shape {w_arr.shape} does not match grid shape {d.space.shape}"
        )
    return float(np.sum(d.values * w_arr) * d.space.atom_weight)


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
    """Sum out every axis not in keep_axes (with base-measure weights)."""
    keep = sorted(set(int(a) for a in keep_axes))
    if any(a < 0 or a >= len(p.space.axes) for a in keep):
        raise PreconditionError("marginal axes outside the grid")
    drop = tuple(a for a in range(len(p.space.axes)) if a not in keep)
    w_drop = 1.0
    for a in drop:
        w_drop *= p.space.axes[a].cell_weight
    values = p.values.sum(axis=drop) * w_drop if drop else p.values.copy()
    return Density(p.space.subgrid(keep), values)


def conditional(p: Density, fixed: dict[int, int]) -> Density:
    """Condition on given axis=cell assignments and renormalize the slice."""
    idx: list = [slice(None)] * len(p.space.axes)
    for a, cell in fixed.items():
        if a < 0 or a >= len(p.space.axes):
            raise PreconditionError("conditioning axis outside the grid")
        idx[a] = int(cell)
    keep = [a for a in range(len(p.space.axes)) if a not in fixed]
    sub = p.space.subgrid(keep)
    slab = p.values[tuple(idx)]
    mass = float(slab.sum()) * sub.atom_weight
    if mass <= 0.0:
        raise DegenerateSliceError(f"conditioning slice {fixed} has zero mass")
    return Density(sub, slab / mass)


def sample(p: Density, n: int, seed: int) -> Dataset:
    """n i.i.d. atom draws from the categorical law values*atom_weight."""
    probs = p.values.ravel() * p.space.atom_weight
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    rows = rng.choice(p.space.n_atoms, size=int(n), p=probs) if n else np.zeros(0, int)
    return Dataset(p.space, rows, seed)


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
    f_arr = p_z.space.check_values(np.asarray(f, dtype=float) * np.ones(p_z.space.shape))
    g_arr = p_z.space.check_values(np.asarray(g, dtype=float) * np.ones(p_z.space.shape))
    diff = f_arr - g_arr
    return float(np.sqrt(np.sum(diff * diff * p_z.values) * p_z.space.atom_weight))


def uniform_density(space: GridSpace) -> Density:
    total = space.n_atoms * space.atom_weight
    return Density(space, np.full(space.shape, 1.0 / total))


def point_mass(space: GridSpace, atom: int) -> Density:
    values = np.zeros(space.shape)
    values.ravel()[atom] = 1.0 / space.atom_weight
    return Density(space, values)
