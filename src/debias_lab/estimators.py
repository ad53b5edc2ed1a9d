"""Plug-in and first-order debiased estimators, with population-exact twins.

Every estimator is the mean of one per-atom score psi: a sampled estimate
is counts . psi / n over the dataset's occupied atoms (so its cost does not
grow with n), and its population twin is the exact expectation of the same
psi under a supplied density.  A sampled estimate reads psi from one
read-only table per (spec, grid, fields), ``score_table``; the last table
is kept, so the replications of an n-sweep, which score the same fields,
build it once.  The population variants isolate the bias algebra (double
robustness, the product-of-errors factorization, the curvature term of the
non-affine kinds) from Monte Carlo noise, so those identities can be
asserted at 1e-10 rather than eyeballed through sampling error.

One score serves every kind (gamma_hat, alpha_hat are fields on the Z grid;
offset and sign come from the kind table in ``estimands``):

  psi(o) = offset(o) + sign * (m1(o, gamma_hat) + alpha_hat(z) rho(o, gamma_hat(z))).

The doubly robust ATE estimator is this score on the ATE kind with
alpha_hat(x, d) = d/m_hat - (1-d)/(1-m_hat), the propensity clipped to
[c, 1-c].

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
    DimensionMismatchError,
    EmptyDataError,
    PreconditionError,
)
from .estimands import EstimandSpec, NuisanceField
from .grid import Dataset, Density, GridSpace, _index, integrate

_ATE_SPEC = EstimandSpec(est.ATE)


# -----------------------------------------------------------------------------
# controlled nuisance corruption
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class CorruptionSpec:
    """Target L2(P_Z) error, corruption direction, and alignment tag.

    ``direction`` is a field on the Z grid: any array that broadcasts to
    it, a bump on the Z1 axis as (n_z1, 1, ...), which ``corrupt_nuisance``
    keeps in that shape until it forms the corrupted field.  ``alignment``
    records whether gamma- and alpha-corruptions share one bump
    (adversarial) or use independent ones (random); the tag is bookkeeping
    for reports, the direction itself carries the geometry.
    """

    eps: float
    direction: np.ndarray
    alignment: str = "adversarial"

    def __post_init__(self):
        if not 0 <= self.eps < np.inf:
            raise PreconditionError(
                f"corruption eps must be nonnegative and finite, not {self.eps!r}")
        if self.alignment not in ("adversarial", "random"):
            raise PreconditionError("alignment must be 'adversarial' or 'random'")


def direction_norm(direction: np.ndarray, p_z: Density) -> float:
    """||direction||_{P_Z,2}, refused when it is not finite (a NaN or infinite
    entry, or squares that overflow) or when nonzero squares underflow to 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.sqrt(integrate(p_z, direction * direction)))
    if not np.isfinite(norm):
        raise PreconditionError(f"the direction's L2(P_Z) norm is {norm!r}, not finite")
    if norm == 0.0 and integrate(p_z, np.abs(direction)) > 0.0:
        raise PreconditionError("the direction is nonzero but its squares underflow to 0")
    return norm


def corrupt_nuisance(truth: NuisanceField, spec: CorruptionSpec,
                     p_z: Density, norm: float | None = None) -> NuisanceField:
    """truth + eps * direction / ||direction||_{P_Z,2}; exact L2 error eps.

    ``p_z`` is the density on the field's grid, and ``norm``, when given, the
    direction's ``direction_norm`` under it.  The direction keeps its own
    shape until the corrupted field is formed; ``integrate`` multiplies
    before it sums, so every value equals that of the direction broadcast
    to the grid first, bit for bit.
    """
    if p_z.space != truth.space:
        raise DimensionMismatchError("the field and P_Z live on different grids")
    direction = np.asarray(spec.direction, dtype=float)
    norm = direction_norm(direction, p_z) if norm is None else norm
    if not 0.0 <= norm < np.inf:
        raise PreconditionError(f"a given norm must be finite and >= 0, not {norm!r}")
    if norm == 0.0:
        if spec.eps == 0.0:
            return truth
        raise PreconditionError("cannot corrupt along a zero direction")
    unit = direction / norm
    corrupted = truth.values + spec.eps * unit
    if truth.bounds is not None:
        lo, hi = truth.bounds
        if corrupted.min() < lo - 1e-12 or corrupted.max() > hi + 1e-12:
            unit = truth.space.broadcast(unit)
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
    """A pair of corruption directions on the Z grid, read-only.

    Adversarial alignment corrupts gamma and alpha along one common
    direction, so their error product integrates to exactly eps_g * eps_a;
    when the Riesz weight nu_m is supplied the common direction is nu_m
    itself (a view of it), which also maximizes the plug-in's first-order
    bias.  Otherwise each direction is a +-1 pattern per Z1 cell drawn from
    ``seed``, one pattern for adversarial alignment and two independent
    ones for random alignment, as a compact array of shape (n_z1, 1, ...)
    that broadcasts to the Z grid.
    """
    if alignment not in ("adversarial", "random"):
        raise PreconditionError(f"alignment must be 'adversarial' or 'random', "
                                f"not {alignment!r}")
    rng = np.random.default_rng(seed)
    n1 = z_grid.shape[0]

    def bump_like(r: np.random.Generator) -> np.ndarray:
        signs = 2.0 * r.integers(0, 2, size=n1) - 1.0
        signs.flags.writeable = False
        return signs.reshape((n1,) + (1,) * (len(z_grid.shape) - 1))

    if alignment == "adversarial":
        if riesz_weight is not None:
            first = z_grid.broadcast(riesz_weight)
        else:
            first = bump_like(rng)
        return first, first
    return bump_like(rng), bump_like(rng)


# -----------------------------------------------------------------------------
# sampled estimators
# -----------------------------------------------------------------------------

# The last table score_table built, after its key: (spec, space, gamma_hat,
# alpha_hat), the fields as float64 copies so no caller can edit the key.
_last_table: tuple | None = None


def _same_field(kept: np.ndarray | None, given) -> bool:
    """Whether ``given`` holds the values of the kept key field."""
    if kept is None or given is None:
        return kept is given
    given = np.asarray(given)
    return kept.shape == given.shape and bool((kept == given).all())


def score_table(spec: EstimandSpec, space: GridSpace, gamma_hat: np.ndarray,
                alpha_hat: np.ndarray | None = None) -> np.ndarray:
    """psi at every atom of ``space`` (flat order), read-only: the orthogonal
    score at (gamma_hat, alpha_hat), or the plug-in score offset + sign * m1
    when alpha_hat is None.

    The last table is kept, keyed by value (the spec, whose params arrays
    are read-only, the grid, and copies of the fields), so consecutive calls
    with equal fields share one table and a field edited in place between
    calls is a new key.
    """
    global _last_table
    if _last_table is not None:
        k_spec, k_space, k_gamma, k_alpha, table = _last_table
        if (k_spec == spec and k_space == space and _same_field(k_gamma, gamma_hat)
                and _same_field(k_alpha, alpha_hat)):
            return table
    gamma_hat = np.array(gamma_hat, dtype=float)
    core = est.m1_rows(spec, space, gamma_hat)
    if alpha_hat is not None:
        alpha_hat = np.array(alpha_hat, dtype=float)
        rho = est.rho_rows(spec, space, gamma_hat).reshape(space.shape)
        core = core + (est.z_to_grid(spec, space, alpha_hat) * rho).ravel()
    record = est.KIND_TABLE[spec.kind]
    offset = 0.0 if record.offset is None else \
        np.broadcast_to(record.offset(space), space.shape).ravel()
    table = offset + record.sign * core
    table.flags.writeable = False
    _last_table = (spec, space, gamma_hat, alpha_hat, table)
    return table


def _sample_mean(data: Dataset, spec: EstimandSpec, gamma_hat: np.ndarray,
                 alpha_hat: np.ndarray | None = None) -> float:
    """counts . psi / n over the occupied atoms, for the orthogonal score psi
    (the plug-in score offset + sign * m1 when alpha_hat is None)."""
    if data.n == 0:
        raise EmptyDataError("an estimate needs at least one observation")
    table = score_table(spec, data.space, gamma_hat, alpha_hat)
    atoms = np.flatnonzero(data.counts)
    return float(data.counts[atoms] @ table[atoms] / data.n)


def plugin_estimate(data: Dataset, gamma_hat: np.ndarray,
                    spec: EstimandSpec) -> float:
    """(1/n) sum m1(O_i, gamma_hat), with the kind's offset and sign."""
    return _sample_mean(data, spec, gamma_hat)


def dml_estimate(data: Dataset, gamma_hat: np.ndarray, alpha_hat: np.ndarray,
                 spec: EstimandSpec) -> float:
    """(1/n) sum psi(O_i) of the orthogonal score at the supplied fields."""
    return _sample_mean(data, spec, gamma_hat, alpha_hat)


def ate_alpha_from_propensity(m_hat: np.ndarray, clip: float = 0.05) -> np.ndarray:
    """alpha(x, d) = d/m - (1-d)/(1-m) with m clipped to [clip, 1-clip], for a
    clip in (0, 1/2), as an overlap constant is."""
    if not 0.0 < clip < 0.5:
        raise PreconditionError(f"the propensity clip must lie in (0, 1/2), not {clip!r}")
    m = np.clip(np.asarray(m_hat, dtype=float), clip, 1.0 - clip)
    return np.stack([-1.0 / (1.0 - m), 1.0 / m], axis=1)


def dr_ate_estimate(data: Dataset, g_hat: np.ndarray, m_hat: np.ndarray,
                    clip: float = 0.05) -> float:
    """The doubly robust ATE estimate: the ATE DML estimate with the Riesz
    weight of the propensity m_hat clipped to [clip, 1-clip].

    g_hat has shape (n_x, 2); m_hat has shape (n_x,).
    """
    return dml_estimate(data, g_hat, ate_alpha_from_propensity(m_hat, clip), _ATE_SPEC)


# -----------------------------------------------------------------------------
# population-exact (grid expectation) variants
# -----------------------------------------------------------------------------

def population_plugin(p: Density, gamma_hat: np.ndarray, spec: EstimandSpec) -> float:
    return est.chi_from_linear(p, spec, est.m1_population(p, spec, gamma_hat))


def population_dml(p: Density, gamma_hat: np.ndarray, alpha_hat: np.ndarray,
                   spec: EstimandSpec) -> float:
    """Exact E_P of the orthogonal score at the supplied nuisance fields."""
    pz = est.z_marginal(p, spec)
    correction = integrate(pz, pz.space.broadcast(alpha_hat)
                           * est.rho_bar(p, spec, gamma_hat))
    return est.chi_from_linear(p, spec, est.m1_population(p, spec, gamma_hat) + correction)


def population_dr_ate(p: Density, g_hat: np.ndarray, m_hat: np.ndarray,
                      clip: float = 0.05) -> float:
    """Exact E_P of the doubly robust ATE score."""
    return population_dml(p, g_hat, ate_alpha_from_propensity(m_hat, clip), _ATE_SPEC)


def bias_product_reference(p: Density, spec: EstimandSpec, gamma_hat: np.ndarray,
                           alpha_hat: np.ndarray) -> float:
    """The exact product-of-errors value the affine-kind DML bias must equal:
    sign * int (gamma_hat - gamma)(alpha_hat - alpha) nu_rho dP_Z."""
    if not spec.affine:
        raise PreconditionError("the product factorization needs an affine score")
    gamma, alpha = est.nuisances_of(p, spec)
    pz = est.z_marginal(p, spec)
    zs = pz.space
    # nu_rho == -1 for every kind, and negating is exact
    integral = -integrate(pz, (zs.broadcast(gamma_hat) - gamma)
                          * (zs.broadcast(alpha_hat) - alpha))
    return est.score_sign_offset(spec) * integral


# -----------------------------------------------------------------------------
# toy learner
# -----------------------------------------------------------------------------

def binned_learner(data: Dataset, spec: EstimandSpec, bins: int) -> np.ndarray:
    """Histogram regression of the kind's regressed variable on binned Z.

    The Z1 axis (axis 0) is coarsened into ``bins`` equal groups of cells;
    the kind's other Z axes are kept at full resolution.  Empty bins fall
    back to the global mean of the target.  Returns a field on the Z grid
    (Z1 at full resolution, values constant within bins).
    """
    space = data.space
    est.check_space(spec, space)
    record = est.KIND_TABLE[spec.kind]
    n1 = space.shape[0]
    bins = _index(bins, "the bin count")
    if bins < 1 or n1 % bins:
        raise PreconditionError("bins must divide the Z1 cell count")
    if data.n == 0:
        raise EmptyDataError("the learner needs at least one observation")
    group_axes = record.z_axes[1:]
    group_shape = tuple([bins] + [space.shape[a] for a in group_axes])
    idx = np.indices(space.shape).reshape(len(space.axes), -1)  # cells per atom
    target = space.coords(record.target_axis)[idx[record.target_axis]]
    keys = [idx[0] * bins // n1] + [idx[a] for a in group_axes]
    flat = np.ravel_multi_index(tuple(keys), group_shape)
    size = int(np.prod(group_shape))
    sums = np.bincount(flat, weights=data.counts * target, minlength=size)
    counts = np.bincount(flat, weights=data.counts, minlength=size)
    global_mean = data.counts @ target / data.n
    means = np.where(counts > 0, sums / np.maximum(counts, 1), global_mean)
    return np.repeat(means.reshape(group_shape), n1 // bins, axis=0)
