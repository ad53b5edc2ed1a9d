"""Plug-in and first-order debiased estimators, with population-exact twins.

The sampled estimators average a per-observation score; every estimator also
has a population variant that replaces the sample average by the exact grid
expectation under a supplied density.  The population variants isolate the
bias algebra (double robustness, the product-of-errors factorization, the
curvature term of the non-affine kinds) from Monte Carlo noise, so those
identities can be asserted at 1e-10 rather than eyeballed through sampling
error.

One score serves every kind (gamma_hat, alpha_hat are fields on the Z grid;
offset and sign come from the kind table in ``estimands``):

  generic   psi(o) = offset(o) + sign * (m1(o, gamma_hat)
                     + alpha_hat(z) rho(o, gamma_hat(z)))
  dr-ate    the classic doubly robust score with the propensity clipped to
            [c, 1-c]; algebraically identical to the generic score with
            alpha_hat(x, d) = d/m_hat - (1-d)/(1-m_hat).

Controlled corruption adds eps * (direction / ||direction||_{P_Z,2}) to a
truth field, so the corrupted field misses the truth by exactly eps in
L2(P_Z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimands as est
from .errors import (
    ClippedCorruptionError,
    EmptyDataError,
    PreconditionError,
)
from .estimands import EstimandSpec, NuisanceField
from .grid import Dataset, Density, GridSpace, l2_nuisance_distance
from .partition import BumpField


# -----------------------------------------------------------------------------
# controlled nuisance corruption
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class CorruptionSpec:
    """Target L2(P_Z) error, corruption direction, and alignment tag.

    ``direction`` is a per-Z-atom field or a BumpField on the Z1 axis
    (broadcast over the remaining Z axes).  ``alignment`` records whether
    gamma- and alpha-corruptions share one bump (adversarial) or use
    independent ones (random); the tag is bookkeeping for reports, the
    direction itself carries the geometry.
    """

    eps: float
    direction: np.ndarray | BumpField
    alignment: str = "adversarial"

    def __post_init__(self):
        if self.eps < 0:
            raise PreconditionError("corruption eps must be nonnegative")
        if self.alignment not in ("adversarial", "random"):
            raise PreconditionError("alignment must be 'adversarial' or 'random'")


def _direction_on(space: GridSpace, direction: np.ndarray | BumpField) -> np.ndarray:
    if isinstance(direction, BumpField):
        vals = direction.values
        shape = [1] * len(space.shape)
        shape[0] = vals.size
        return vals.reshape(shape) * np.ones(space.shape)
    return space.check_values(np.asarray(direction, dtype=float) * np.ones(space.shape))


def corrupt_nuisance(truth: NuisanceField, spec: CorruptionSpec,
                     p_z: Density) -> NuisanceField:
    """truth + eps * direction / ||direction||_{P_Z,2}; exact L2 error eps."""
    direction = _direction_on(truth.space, spec.direction)
    norm = l2_nuisance_distance(direction, np.zeros_like(direction), p_z)
    if norm == 0.0:
        if spec.eps == 0.0:
            return truth
        raise PreconditionError("cannot corrupt along a zero direction")
    unit = direction / norm
    corrupted = truth.values + spec.eps * unit
    if truth.bounds is not None:
        lo, hi = truth.bounds
        if corrupted.min() < lo - 1e-12 or corrupted.max() > hi + 1e-12:
            room = np.full_like(unit, np.inf)
            pos = unit > 0
            neg = unit < 0
            room[pos] = (hi - truth.values[pos]) / unit[pos]
            room[neg] = (lo - truth.values[neg]) / unit[neg]
            raise ClippedCorruptionError(spec.eps, float(room.min()))
    return NuisanceField(truth.space, corrupted, truth.role, truth.bounds)


def corruption_directions(z_grid: GridSpace, alignment: str, seed: int = 0,
                          riesz_weight: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """A pair of corruption directions on the Z grid.

    Adversarial alignment corrupts gamma and alpha along one common
    direction, so their error product integrates to exactly eps_g * eps_a;
    when the Riesz weight nu_m is supplied the common direction is nu_m
    itself, which also maximizes the plug-in's first-order bias.  Random
    alignment draws independent +-1 patterns per Z1 cell.
    """
    rng = np.random.default_rng(seed)
    n1 = z_grid.shape[0]

    def bump_like(r: np.random.Generator) -> np.ndarray:
        signs = 2.0 * r.integers(0, 2, size=n1) - 1.0
        shape = [1] * len(z_grid.shape)
        shape[0] = n1
        return signs.reshape(shape) * np.ones(z_grid.shape)

    if alignment == "adversarial":
        if riesz_weight is not None:
            first = z_grid.check_values(np.asarray(riesz_weight, dtype=float)
                                        * np.ones(z_grid.shape)).copy()
        else:
            first = bump_like(rng)
        return first, first.copy()
    return bump_like(rng), bump_like(rng)


# -----------------------------------------------------------------------------
# sampled estimators
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateReport:
    point: float
    n: int
    clip_constant: float
    folds: int
    seed: int

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "n": self.n,
            "clip_constant": self.clip_constant,
            "folds": self.folds,
            "seed": self.seed,
        }


def _score_rows(spec: EstimandSpec, space: GridSpace, rows: np.ndarray,
                gamma_hat: np.ndarray, alpha_hat: np.ndarray) -> np.ndarray:
    alpha_at = est.z_to_grid(spec, space, alpha_hat).ravel()[rows]
    core = (est.m1_rows(spec, space, rows, gamma_hat)
            + alpha_at * est.rho_rows(spec, space, rows, gamma_hat))
    return est.chi_rows_from_linear(spec, space, rows, core)


def plugin_estimate(data: Dataset, gamma_hat: np.ndarray,
                    spec: EstimandSpec) -> float:
    """(1/n) sum m1(O_i, gamma_hat), with the kind's offset and sign."""
    if data.n == 0:
        raise EmptyDataError("plug-in estimate needs at least one observation")
    vals = est.m1_rows(spec, data.space, data.rows, gamma_hat)
    return float(est.chi_rows_from_linear(spec, data.space, data.rows, vals).mean())


def dml_estimate(data: Dataset, gamma_hat: np.ndarray, alpha_hat: np.ndarray,
                 spec: EstimandSpec, folds: int = 2) -> float:
    """Cross-fitted orthogonal-score average.

    With externally supplied fields the folds only group the averaging, so
    the estimate is identical for every fold count; the fold machinery is
    exercised so that an attached learner slots in without changing callers.
    """
    if data.n == 0:
        raise EmptyDataError("dml estimate needs at least one observation")
    if folds < 1:
        raise PreconditionError("folds must be >= 1")
    folds = min(folds, data.n)
    scores = _score_rows(spec, data.space, data.rows, gamma_hat, alpha_hat)
    fold_of = np.arange(data.n) % folds
    total = 0.0
    for k in range(folds):
        members = scores[fold_of == k]
        if members.size == 0:
            raise EmptyDataError(f"fold {k} is empty")
        total += members.sum()
    return float(total / data.n)


def ate_alpha_from_propensity(m_hat: np.ndarray, clip: float = 0.05) -> np.ndarray:
    """alpha(x, d) = d/m - (1-d)/(1-m) with m clipped to [clip, 1-clip]."""
    m = np.clip(np.asarray(m_hat, dtype=float), clip, 1.0 - clip)
    return np.stack([-1.0 / (1.0 - m), 1.0 / m], axis=1)


def dr_ate_estimate(data: Dataset, g_hat: np.ndarray, m_hat: np.ndarray,
                    clip: float = 0.05) -> float:
    """The doubly robust ATE score averaged over the sample.

    g_hat has shape (n_x, 2); m_hat is clipped to [clip, 1-clip] before use.
    """
    if data.n == 0:
        raise EmptyDataError("doubly robust estimate needs at least one observation")
    m = np.clip(np.asarray(m_hat, dtype=float), clip, 1.0 - clip)
    g = np.asarray(g_hat, dtype=float)
    idx = np.stack(np.unravel_index(data.rows, data.space.shape), axis=1)
    x, d, y = idx[:, 0], idx[:, 1].astype(float), idx[:, 2].astype(float)
    g_at = g[x, idx[:, 1]]
    m_at = m[x]
    score = (g[x, 1] - g[x, 0]
             + (d - m_at) / (m_at * (1.0 - m_at)) * (y - g_at))
    return float(score.mean())


# -----------------------------------------------------------------------------
# population-exact (grid expectation) variants
# -----------------------------------------------------------------------------

def population_plugin(p: Density, gamma_hat: np.ndarray, spec: EstimandSpec) -> float:
    return est.chi_from_linear(p, spec, est.m1_population(p, spec, gamma_hat))


def population_dml(p: Density, gamma_hat: np.ndarray, alpha_hat: np.ndarray,
                   spec: EstimandSpec) -> float:
    """Exact E_P of the orthogonal score at the supplied nuisance fields."""
    pz = est.z_marginal(p, spec)
    zs = pz.space
    alpha_hat = zs.check_values(np.asarray(alpha_hat, dtype=float) * np.ones(zs.shape))
    correction = float(np.sum(alpha_hat * est.rho_bar(p, spec, gamma_hat)
                              * pz.values) * zs.atom_weight)
    return est.chi_from_linear(p, spec, est.m1_population(p, spec, gamma_hat) + correction)


def population_dr_ate(p: Density, g_hat: np.ndarray, m_hat: np.ndarray,
                      clip: float = 0.05) -> float:
    """Exact E_P of the doubly robust ATE score."""
    m = np.clip(np.asarray(m_hat, dtype=float), clip, 1.0 - clip)
    g = np.asarray(g_hat, dtype=float)
    pz = p.values.sum(axis=2)           # (x, d) mass
    g_true = p.values[:, :, 1] / pz     # E[Y | x, d]
    p_x = pz.sum(axis=1)
    w = p.space.atom_weight
    plug = float(np.sum(p_x * (g[:, 1] - g[:, 0])) * w)
    d_vals = np.array([0.0, 1.0])[None, :]
    weight = (d_vals - m[:, None]) / (m * (1.0 - m))[:, None]
    corr = float(np.sum(pz * weight * (g_true - g)) * w)
    return plug + corr


def bias_product_reference(p: Density, spec: EstimandSpec, gamma_hat: np.ndarray,
                           alpha_hat: np.ndarray) -> float:
    """The exact product-of-errors value the affine-kind DML bias must equal:
    sign * int (gamma_hat - gamma)(alpha_hat - alpha) nu_rho dP_Z."""
    if not spec.affine:
        raise PreconditionError("the product factorization needs an affine score")
    gamma, alpha = est.nuisances_of(p, spec)
    pz = est.z_marginal(p, spec)
    zs = pz.space
    gamma_hat = zs.check_values(np.asarray(gamma_hat, dtype=float) * np.ones(zs.shape))
    alpha_hat = zs.check_values(np.asarray(alpha_hat, dtype=float) * np.ones(zs.shape))
    nu_rho, _ = est.nu_upsilon_rho(spec, p)
    integral = float(np.sum((gamma_hat - gamma.values) * nu_rho
                            * (alpha_hat - alpha.values) * pz.values)
                     * zs.atom_weight)
    return est.score_sign_offset(spec) * integral


# -----------------------------------------------------------------------------
# toy learner
# -----------------------------------------------------------------------------

def binned_learner(data: Dataset, target_axis: int, bins: int) -> np.ndarray:
    """Histogram regression of the target coordinate on binned Z.

    The Z1 axis (axis 0) is coarsened into ``bins`` equal groups of cells;
    every other non-target axis is kept at full resolution.  Empty bins fall
    back to the global mean of the target.  Returns a field on the grid of
    non-target axes (Z1 at full resolution, values constant within bins).
    """
    space = data.space
    n1 = space.shape[0]
    if bins < 1 or n1 % bins:
        raise PreconditionError("bins must divide the Z1 cell count")
    if data.n == 0:
        raise EmptyDataError("the learner needs at least one observation")
    group_axes = [a for a in range(len(space.axes)) if a != target_axis and a != 0]
    group_shape = tuple([bins] + [space.shape[a] for a in group_axes])
    idx = data.axis_indices()
    coords = data.axis_coords()
    target = coords[:, target_axis]
    bin_ix = idx[:, 0] * bins // n1
    keys = [bin_ix] + [idx[:, a] for a in group_axes]
    flat = np.ravel_multi_index(tuple(keys), group_shape)
    sums = np.bincount(flat, weights=target, minlength=int(np.prod(group_shape)))
    counts = np.bincount(flat, minlength=int(np.prod(group_shape)))
    means = np.where(counts > 0, sums / np.maximum(counts, 1), target.mean())
    table = means.reshape(group_shape)
    expanded = np.repeat(table, n1 // bins, axis=0)
    return expanded
