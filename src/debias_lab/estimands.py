"""Estimand kinds and their orthogonal-score ingredients.

Every supported functional has the form

    chi(P) = E_P[offset(O)] + sign * E_P[m1(O, gamma(Z; P))]

with m1 linear in its second argument and the regression nuisance
gamma(.;P) solving E_P[rho(O, gamma(Z)) | Z] = 0.  The Riesz weight
alpha(.;P) = -nu_m / nu_rho represents the linear map h -> E_P[m1(O, h)]
(nu_rho == -1 for every kind, so nu_m == alpha), and one first-order
debiased score serves every kind:

    psi(o) = offset(o) + sign * (m1(o, gamma) + alpha(z) rho(o, gamma(z))).

``KIND_TABLE`` is the one place a kind is defined.  Its record holds only
what differs between kinds: the axis layout, the regressed variable, the
link, the sign and offset, the parameter class, alpha and the per-atom m1
field.  Everything else in this module (grid layouts, nuisances, m1 and rho
per atom and in expectation, the target chi, the derivative
weights) is derived from that record.

Kinds:

  ate      O = (X, D, Y), X continuous, D and Y binary.
           gamma(x,d) = E[Y|x,d], alpha = d/pi - (1-d)/(1-pi).
  ecc_plm  O = (X, T, Y) with Z = X alone; the target is the expected
           conditional covariance E[Cov(T, Y | X)] = E[TY] - E[Y g(X;P)].
           The debiased piece is the auxiliary functional E[Y g(X;P)] with
           gamma = P(T=1|x) (T is the regressed variable) and
           alpha = E[Y|x]; the offset t*y and the sign -1 carry E[TY].
  ds       O = (X, Y); gamma(x) = E[Y|x], alpha = (f2-f1)/f for two known
           reference densities on X.
  wad      O = (X, D, Y) with continuous D; m1 integrates -omega' against
           gamma(x,.); alpha = -omega'(d)/p(d|x).
  ape      like wad but m1(o,h) = h(x, tau(d)) - h(x, d) for a monotone
           cell bijection tau; alpha = p_tau(d|x)/p(d|x) - 1.
  lod      layout of ate with a logistic link: gamma is the conditional
           log-odds, rho is the logistic-weighted residual and
           upsilon_rho = 1 - 2*E[Y|Z].  It shares alpha with ate.

Everything is evaluated by exact finite sums on the grid, so the defining
identities (first-order optimality, Riesz representation, mixed-bias
representation for affine scores) hold to machine precision and are asserted
as tests rather than taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .errors import (
    ConstructionPreconditionError,
    DegenerateNuisanceError,
    DimensionMismatchError,
    PreconditionError,
)
from .grid import Density, GridSpace, _w_sum, binary, continuous, integrate, marginal

ATE = "ate"
ECC_PLM = "ecc_plm"
DS = "ds"
WAD = "wad"
APE = "ape"
LOD = "lod"
KINDS = (ATE, ECC_PLM, DS, WAD, APE, LOD)


# -----------------------------------------------------------------------------
# kind-specific parameter bundles
# -----------------------------------------------------------------------------

def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy.  Caches key a spec's params by identity (the
    density-derived alpha, the last score table), so their arrays must not
    change once built."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


class _GridParams:
    """A parameter bundle whose arrays each hold one value per cell of the
    grid axis ``axis``."""

    axis: ClassVar[int]

    @cached_property
    def shapes(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((f.name, getattr(self, f.name).shape) for f in fields(self))


@dataclass(frozen=True, eq=False)
class DsParams(_GridParams):
    """Two known reference densities on the X grid (w.r.t. mu_X)."""

    axis: ClassVar[int] = 0
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f1", _frozen(self.f1))
        object.__setattr__(self, "f2", _frozen(self.f2))


@dataclass(frozen=True, eq=False)
class WadParams(_GridParams):
    """Weight density omega and its derivative on the treatment grid.

    omega must integrate to 1 under midpoint quadrature and vanish at the
    first and last treatment cell (within 1e-8) so the integration-by-parts
    form of the functional carries no boundary terms.
    """

    axis: ClassVar[int] = 1
    omega: np.ndarray
    omega_prime: np.ndarray

    def __post_init__(self):
        omega = _frozen(self.omega)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "omega_prime", _frozen(self.omega_prime))
        if omega.min() < 0:
            raise PreconditionError("omega must be nonnegative")
        if abs(np.sum(omega) / omega.size - 1.0) > 1e-10:
            raise PreconditionError("omega must integrate to 1 on its grid")
        if max(omega[0], omega[-1]) > 1e-8:
            raise PreconditionError(
                "omega must vanish at the boundary treatment cells (<= 1e-8)"
            )


@dataclass(frozen=True, eq=False)
class ApeParams(_GridParams):
    """Counterfactual transformation as a monotone cell bijection.

    ``perm[i]`` is the image cell of treatment cell i.  On a uniform grid a
    monotone cell bijection (the identity or the reversal) is measure
    consistent, |tau'| == 1, so alpha needs no change-of-variables factor.
    """

    axis: ClassVar[int] = 1
    perm: np.ndarray

    def __post_init__(self):
        perm = _frozen(self.perm, np.int64)
        object.__setattr__(self, "perm", perm)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise PreconditionError("tau must be a bijection of cell indices")
        steps = np.diff(perm)
        if perm.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
            raise PreconditionError("tau must be strictly monotone")


# -----------------------------------------------------------------------------
# the kind table: alpha and m1 per kind, then one record per kind
# -----------------------------------------------------------------------------

def _require_positive(arr: np.ndarray, message: str, strict: float = 0.0) -> None:
    """Raise naming the first atom of ``arr`` not above ``strict`` (NaN too:
    the minimum of an array holding NaN is NaN, which is not above it)."""
    if not np.minimum.reduce(arr, axis=None) > strict:
        bad = np.flatnonzero(~(arr.ravel() > strict))
        raise DegenerateNuisanceError(message, atom=int(bad[0]))


def _propensity_alpha(p: Density, spec: EstimandSpec) -> np.ndarray:
    """alpha(x, d) = d/pi(x) - (1-d)/(1-pi(x)) with pi = P(D=1 | x)."""
    pz = _z_slice_mass(p, spec)
    p_x = _w_sum(pz)
    _require_positive(p_x, "X slice has zero mass")
    pi = pz[:, 1] / p_x
    not_pi = 1.0 - pi
    _require_positive(pi, "propensity hits 0")
    _require_positive(not_pi, "propensity hits 1")
    alpha = np.empty(pi.shape + (2,))
    np.divide(-1.0, not_pi, out=alpha[:, 0])
    np.divide(1.0, pi, out=alpha[:, 1])
    return alpha


def _ecc_alpha(p: Density, spec: EstimandSpec) -> np.ndarray:
    """alpha(x) = E[Y | x]."""
    p_x = _z_slice_mass(p, spec)
    _require_positive(p_x, "X slice has zero mass")
    return _w_sum(p.values[:, :, 1]) / p_x


def _ds_alpha(p: Density, spec: EstimandSpec) -> np.ndarray:
    f = _z_slice_mass(p, spec)
    _require_positive(f, "X marginal hits zero")
    return (spec.params.f2 - spec.params.f1) / f


def _wad_alpha(p: Density, spec: EstimandSpec) -> np.ndarray:
    pz = _z_slice_mass(p, spec)
    w_d = p.space.axes[1].cell_weight
    p_x = pz.sum(axis=1) * w_d
    _require_positive(p_x, "X marginal hits zero")
    cond = pz / p_x[:, None]
    _require_positive(cond, "treatment density hits zero")
    return -spec.params.omega_prime[None, :] / cond


def _ape_alpha(p: Density, spec: EstimandSpec) -> np.ndarray:
    pz = _z_slice_mass(p, spec)
    _require_positive(pz, "treatment slice has zero mass")
    perm = spec.params.perm
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return pz[:, inv] / pz - 1.0


# Per-atom m1 fields: (spec, space, h on the Z grid) -> values broadcastable
# to the observation grid.

def _contrast_m1(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> np.ndarray:
    """m1(o, h) = h(x, 1) - h(x, 0)."""
    return (h[:, 1] - h[:, 0])[:, None, None]


def _ecc_m1(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> np.ndarray:
    """m1(o, h) = y h(x)."""
    return space.coords(2)[None, None, :] * h[:, None, None]


def _ds_m1(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> float:
    """m1(o, h) = int h (f2 - f1) dmu_X, the same for every observation."""
    return float(np.sum(h * (spec.params.f2 - spec.params.f1))
                 * space.axes[0].cell_weight)


def _wad_m1(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> np.ndarray:
    """m1(o, h) = -int h(x, d) omega'(d) dd."""
    w_d = space.axes[1].cell_weight
    return (-(h * spec.params.omega_prime[None, :]).sum(axis=1) * w_d)[:, None, None]


def _ape_m1(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> np.ndarray:
    """m1(o, h) = h(x, tau(d)) - h(x, d)."""
    return (np.take(h, spec.params.perm, axis=1) - h)[:, :, None]


def _ty_offset(space: GridSpace) -> np.ndarray:
    return space.coords(1)[None, :, None] * space.coords(2)[None, None, :]


@dataclass(frozen=True)
class Kind:
    """What differs between estimand kinds; everything else is derived.

    Axis 0 has ``x_cells`` cells and axis 1 ``d_cells`` when continuous; the
    Z axes are the axes whose role is not "w".
    """

    roles: tuple[str, ...]
    continuous: tuple[bool, ...]
    target_axis: int  # the regressed variable: Y, or T for ecc_plm
    alpha: Callable[[Density, EstimandSpec], np.ndarray]
    m1_atoms: Callable[[EstimandSpec, GridSpace, np.ndarray], np.ndarray | float]
    params: type | None = None
    logistic: bool = False  # gamma is the log-odds of E[target | Z]
    sign: int = 1
    offset: Callable[[GridSpace], np.ndarray] | None = None

    @cached_property
    def z_axes(self) -> tuple[int, ...]:
        return tuple(i for i, role in enumerate(self.roles) if role != "w")

    @cached_property
    def w_axes(self) -> tuple[int, ...]:
        return tuple(i for i, role in enumerate(self.roles) if role == "w")

    @cached_property
    def other_w_axes(self) -> tuple[int, ...]:
        """The W axes other than the target, numbered as in the slice that
        fixes the target axis."""
        t = self.target_axis
        return tuple(a - (a > t) for a in self.w_axes if a != t)


KIND_TABLE: dict[str, Kind] = {
    ATE: Kind(("z1", "z2", "w"), (True, False, False), target_axis=2,
              alpha=_propensity_alpha, m1_atoms=_contrast_m1),
    ECC_PLM: Kind(("z1", "w", "w"), (True, False, False), target_axis=1,
                  alpha=_ecc_alpha, m1_atoms=_ecc_m1, sign=-1, offset=_ty_offset),
    DS: Kind(("z1", "w"), (True, False), target_axis=1,
             alpha=_ds_alpha, m1_atoms=_ds_m1, params=DsParams),
    WAD: Kind(("z1", "z2", "w"), (True, True, False), target_axis=2,
              alpha=_wad_alpha, m1_atoms=_wad_m1, params=WadParams),
    APE: Kind(("z1", "z2", "w"), (True, True, False), target_axis=2,
              alpha=_ape_alpha, m1_atoms=_ape_m1, params=ApeParams),
    LOD: Kind(("z1", "z2", "w"), (True, False, False), target_axis=2,
              alpha=_propensity_alpha, m1_atoms=_contrast_m1, logistic=True),
}

AFFINE_KINDS = tuple(k for k in KINDS if not KIND_TABLE[k].logistic)


def _kind(kind: str) -> Kind:
    """The table record of a kind."""
    try:
        return KIND_TABLE[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise PreconditionError(f"unknown estimand kind {kind!r}") from None


@dataclass(frozen=True)
class EstimandSpec:
    kind: str
    params: object | None = None
    overlap: float = 0.05

    def __post_init__(self):
        params = _kind(self.kind).params
        if not 0.0 < self.overlap < 0.5:
            raise PreconditionError("overlap constant must lie in (0, 1/2)")
        if params is not None and not isinstance(self.params, params):
            raise PreconditionError(f"{self.kind} spec needs {params.__name__}")

    @property
    def affine(self) -> bool:
        return not KIND_TABLE[self.kind].logistic


@dataclass(frozen=True)
class NuisanceField:
    """Per-Z-atom values of one nuisance with optional range bounds: the
    input of :func:`estimators.corrupt_nuisance`, which keeps to them."""

    space: GridSpace
    values: np.ndarray
    role: str
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", self.space.check_values(self.values))
        if self.bounds is not None:
            lo, hi = self.bounds
            if self.values.min() < lo - 1e-12 or self.values.max() > hi + 1e-12:
                raise PreconditionError(
                    f"{self.role} field leaves its bounds [{lo}, {hi}]"
                )


# -----------------------------------------------------------------------------
# grid layouts and joint-density factories
# -----------------------------------------------------------------------------

def make_space(kind: str, x_cells: int = 256, d_cells: int = 64) -> GridSpace:
    """The observation grid for a kind (defaults: 256 X cells, 64 D cells)."""
    record = _kind(kind)
    cells = (x_cells, d_cells)
    return GridSpace(tuple(
        continuous(role, cells[i]) if is_continuous else binary(role)
        for i, (role, is_continuous) in enumerate(zip(record.roles, record.continuous))
    ))


def z_axes(kind: str) -> tuple[int, ...]:
    """Indices of the regression axes Z within the observation grid."""
    return _kind(kind).z_axes


def z_space(kind: str, space: GridSpace) -> GridSpace:
    return space.subgrid(z_axes(kind))


def x_density(space: GridSpace, p_x: np.ndarray | None = None) -> np.ndarray:
    """The X marginal p_x (uniform when None) on the X axis, normalized to
    integrate to one."""
    n_x = space.shape[0]
    weights = (np.ones(n_x) if p_x is None
               else space.subgrid((0,)).broadcast(p_x) * np.ones(n_x))
    total = float(np.sum(weights) * space.axes[0].cell_weight)
    if total <= 0:
        raise PreconditionError("cannot normalize a nonpositive weight vector")
    return weights / total


def bernoulli_law(p_z: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """p_z times the Bernoulli(mean) law of a binary last axis: the (..., 2)
    array [p_z (1 - mean), p_z mean] for any p_z and mean that broadcast, so
    a stack in gives a stack out.  The ate/lod, ds, wad and ape anchors and
    the ATE member stacks are all built from it."""
    mean = np.asarray(mean, dtype=float)
    out = np.empty(np.broadcast(p_z, mean).shape + (2,))
    np.multiply(p_z, 1.0 - mean, out=out[..., 0])
    np.multiply(p_z, mean, out=out[..., 1])
    return out


def ate_joint(space: GridSpace, m: np.ndarray, g: np.ndarray,
              p_x: np.ndarray | None = None) -> Density:
    """Joint density p(x,d,y) = p_X(x) m(x)^d (1-m)^{1-d} g(x,d)^y (1-g)^{1-y}.

    ``g`` has shape (n_x, 2) indexed by treatment level.  Also the LOD anchor
    factory (same factorization, binary outcome).  A field that does not
    broadcast to the X grid (m) or the X x D grid (g) raises
    DimensionMismatchError.
    """
    m, g = space.subgrid((0,)).broadcast(m), space.subgrid((0, 1)).broadcast(g)
    return Density(space, bernoulli_law(bernoulli_law(x_density(space, p_x), m), g))


def plm_joint(space: GridSpace, g: np.ndarray, q: np.ndarray, theta: float) -> Density:
    """Partially linear anchor: E[Y|T,X] = f(X) + theta*T with f = q - theta*g."""
    x = space.subgrid((0,))
    g, q = x.broadcast(g), x.broadcast(q)
    f = q - theta * g
    vals = np.empty(space.shape)
    vals[:, 1, 1] = g * (f + theta)
    vals[:, 1, 0] = g * (1.0 - f - theta)
    vals[:, 0, 1] = (1.0 - g) * f
    vals[:, 0, 0] = (1.0 - g) * (1.0 - f)
    if vals.min() < 0:
        raise ConstructionPreconditionError(
            "PLM anchor parameters put a cell probability below zero"
        )
    return Density(space, vals)


def ds_joint(space: GridSpace, q: np.ndarray, p_x: np.ndarray | None = None) -> Density:
    q = space.subgrid((0,)).broadcast(q)
    return Density(space, bernoulli_law(x_density(space, p_x), q))


def dose_joint(space: GridSpace, f_d: np.ndarray, g: np.ndarray,
               p_x: np.ndarray | None = None) -> Density:
    """WAD/APE anchor p(x,d,y) = p_X(x) f(d|x) Bernoulli(g(x,d)) density.

    ``f_d`` is the conditional treatment density, shape (n_x, n_d) or (n_d,);
    it is renormalized per x so that the treatment slice integrates to one
    exactly under midpoint quadrature.
    """
    xd = space.subgrid((0, 1))
    f_d = xd.broadcast(f_d) * np.ones(xd.shape)
    # bernoulli_law would broadcast g itself, but dropping this copy moved the
    # heap: a 256x64 APE population DR scan then took 18x the page faults
    g = xd.broadcast(g) * np.ones(xd.shape)
    w_d = space.axes[1].cell_weight
    f_d = f_d / (f_d.sum(axis=1, keepdims=True) * w_d)
    return Density(space, bernoulli_law(x_density(space, p_x)[:, None] * f_d, g))


def wad_weight(space: GridSpace) -> WadParams:
    """Smooth compactly supported weight: a normalized u^k (1-u)^k profile.

    The exponent k is the smallest for which the normalized profile is below
    1e-9 at the boundary cells (k = 6 on the default 64-cell grid), so the
    boundary-vanishing contract holds on any treatment grid; normalization
    is discrete, making the grid integral of omega exactly 1.
    """
    u = space.coords(1)
    w_d = space.axes[1].cell_weight
    for k in range(6, 64, 1):
        raw = (u ** k) * ((1.0 - u) ** k)
        c = float(np.sum(raw) * w_d)
        if raw[0] / c <= 1e-9:
            raw_prime = k * (u ** (k - 1)) * ((1.0 - u) ** (k - 1)) * (1.0 - 2.0 * u)
            return WadParams(raw / c, raw_prime / c)
    raise PreconditionError("no boundary-vanishing weight profile found")


def ape_reversal(space: GridSpace) -> ApeParams:
    """tau(d) = 1 - d as a cell permutation; the exact monotone bijection."""
    n_d = space.shape[1]
    perm = np.arange(n_d - 1, -1, -1, dtype=np.int64)
    return ApeParams(perm)


# -----------------------------------------------------------------------------
# conditional building blocks
# -----------------------------------------------------------------------------

def check_space(spec: EstimandSpec, space: GridSpace) -> None:
    """Refuse a grid whose axis roles or binary/continuous axis kinds are not
    the spec's kind's, or whose cells do not fit the spec's params."""
    record = _kind(spec.kind)
    if space.roles != record.roles or space.continuous != record.continuous:
        raise DimensionMismatchError(
            f"{spec.kind} expects axis roles {record.roles} with continuous axes "
            f"{record.continuous}, found {space.roles} with {space.continuous}"
        )
    if record.params is not None:
        cells = (space.shape[spec.params.axis],)
        for name, shape in spec.params.shapes:
            if shape != cells:
                raise DimensionMismatchError(
                    f"{spec.kind} param {name} has shape {shape}, but grid axis "
                    f"{spec.params.axis} has {cells[0]} cells"
                )


def z_marginal(p: Density, spec: EstimandSpec) -> Density:
    return marginal(p, z_axes(spec.kind))


def _on_z(spec: EstimandSpec, space: GridSpace, values) -> np.ndarray:
    """A scalar or Z-grid field as a read-only array of the Z grid's shape."""
    return z_space(spec.kind, space).broadcast(values)


def z_to_grid(spec: EstimandSpec, space: GridSpace, values) -> np.ndarray:
    """A field on the Z grid, broadcast over the W axes of the observation grid."""
    z_values = _on_z(spec, space, values)
    return np.broadcast_to(np.expand_dims(z_values, _kind(spec.kind).w_axes),
                           space.shape)


def _z_slice_mass(p: Density, spec: EstimandSpec) -> np.ndarray:
    """Integral of p over W for each Z atom (unnormalized Z density)."""
    return _w_sum(p.values, _kind(spec.kind).w_axes)


def regression_target_mean(p: Density, spec: EstimandSpec) -> np.ndarray:
    """Conditional mean over Z of the regressed variable (Y, or T for ecc),
    as a read-only array computed once per density and kind."""
    record = _kind(spec.kind)

    def compute() -> np.ndarray:
        denom = _z_slice_mass(p, spec)
        _require_positive(denom, "conditional slice has zero mass")
        hits = p.values[(slice(None),) * record.target_axis + (1,)]
        if record.other_w_axes:
            hits = _w_sum(hits, record.other_w_axes)
        mean = hits / denom
        mean.flags.writeable = False
        return mean

    return p.derived(("regression_target_mean", spec.kind), compute)


def _gamma(p: Density, spec: EstimandSpec) -> np.ndarray:
    """gamma(.;P) on the Z grid: the regression target mean, or its log-odds
    for a logistic kind."""
    check_space(spec, p.space)
    gamma = regression_target_mean(p, spec)
    if _kind(spec.kind).logistic:
        _require_positive(gamma, "outcome regression hits 0")
        _require_positive(1.0 - gamma, "outcome regression hits 1")
        gamma = np.log(gamma / (1.0 - gamma))
    return gamma


def nuisances_of(p: Density, spec: EstimandSpec) -> tuple[np.ndarray, np.ndarray]:
    """gamma(.;P) and alpha(.;P), as arrays on the Z grid, evaluated atom-wise
    from conditionals of p; alpha is read-only, computed once per density."""
    gamma = _gamma(p, spec)

    def alpha() -> np.ndarray:
        values = _kind(spec.kind).alpha(p, spec)
        values.flags.writeable = False
        return values

    return gamma, p.derived(("alpha", spec.kind, spec.params), alpha)


# -----------------------------------------------------------------------------
# the linear functional m1, the offset and the target chi
# -----------------------------------------------------------------------------

def m1_atoms(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> np.ndarray | float:
    """m1(o, h) at every atom of the observation grid, for a field h on Z, as
    an array (or scalar) that broadcasts to the grid."""
    check_space(spec, space)
    return _kind(spec.kind).m1_atoms(spec, space, _on_z(spec, space, h))


def m1_population(p: Density, spec: EstimandSpec, h: np.ndarray) -> float:
    """Exact E_P[m1(O, h)] for a test field h on the Z grid."""
    return integrate(p, m1_atoms(spec, p.space, h))


def m1_rows(spec: EstimandSpec, space: GridSpace, h: np.ndarray) -> np.ndarray:
    """m1(o, h) at every atom of the observation grid, in flat order."""
    return np.broadcast_to(m1_atoms(spec, space, h), space.shape).ravel()


def ecc_offset_population(p: Density, spec: EstimandSpec) -> float:
    """E_P[offset(O)]: E[TY] for ecc_plm, the parametric part of the expected
    conditional covariance; 0 for the kinds without an offset."""
    offset = _kind(spec.kind).offset
    if offset is None:
        return 0.0
    return integrate(p, offset(p.space))


def score_sign_offset(spec: EstimandSpec) -> int:
    """chi = offset + sign * (debiased linear functional); -1 for ecc_plm."""
    return _kind(spec.kind).sign


def chi_from_linear(p: Density, spec: EstimandSpec, linear: float) -> float:
    """E_P[offset] + sign * linear, for the linear piece E_P[m1] of chi (or of
    a debiased estimate of it)."""
    return ecc_offset_population(p, spec) + score_sign_offset(spec) * linear


def functional_value(p: Density, spec: EstimandSpec) -> float:
    """Exact chi(P) on the grid."""
    return chi_from_linear(p, spec, m1_population(p, spec, _gamma(p, spec)))


# -----------------------------------------------------------------------------
# the regression score rho and its derivative weights
# -----------------------------------------------------------------------------

def score_rho(spec: EstimandSpec, outcome: float | np.ndarray,
              gamma_val: float | np.ndarray) -> np.ndarray:
    """rho(o, gamma): residual for affine kinds, logistic-weighted for lod.

    ``outcome`` is the regressed variable of the kind: y for ate/ds/wad/ape
    and lod, t for ecc_plm.
    """
    outcome = np.asarray(outcome, dtype=float)
    gamma_val = np.asarray(gamma_val, dtype=float)
    if _kind(spec.kind).logistic:
        lam = 1.0 / (1.0 + np.exp(-gamma_val))
        return (outcome - lam) / (lam * (1.0 - lam))
    return outcome - gamma_val


def rho_rows(spec: EstimandSpec, space: GridSpace, gamma_field: np.ndarray) -> np.ndarray:
    """rho(o, gamma_field(z)) at every atom of the grid, in flat order."""
    check_space(spec, space)
    t = _kind(spec.kind).target_axis
    outcome = np.expand_dims(space.coords(t),
                             tuple(a for a in range(len(space.shape)) if a != t))
    return score_rho(spec, outcome, z_to_grid(spec, space, gamma_field)).ravel()


def rho_bar(p: Density, spec: EstimandSpec, gamma_field: np.ndarray) -> np.ndarray:
    """E_P[rho(O, gamma_field(Z)) | Z = z], exactly, per Z atom."""
    gamma_field = _on_z(spec, p.space, gamma_field)
    return score_rho(spec, regression_target_mean(p, spec), gamma_field)


def upsilon_rho(spec: EstimandSpec, p: Density) -> np.ndarray:
    """The curvature weight upsilon_rho on the Z grid: 0 for the affine kinds,
    1 - 2*E[Y|Z] for lod.  (Its first-order twin nu_rho is -1 for every kind.)"""
    if _kind(spec.kind).logistic:
        return 1.0 - 2.0 * regression_target_mean(p, spec)
    return np.zeros(z_space(spec.kind, p.space).shape)


def riesz_identity_residual(p: Density, spec: EstimandSpec, h: np.ndarray) -> float:
    """E_P[m1(O,h)] - E_P[h * nu_m] with nu_m = -alpha*nu_rho; expected ~ 0."""
    _, nu_m = nuisances_of(p, spec)  # nu_rho == -1 for every kind
    pz = z_marginal(p, spec)
    h_arr = pz.space.broadcast(h)
    return m1_population(p, spec, h_arr) - integrate(pz, h_arr * nu_m)


def mixed_bias_value(p: Density, spec: EstimandSpec) -> float:
    """E_P[rho_0(O) alpha(Z;P)] for affine kinds (the m2 representation).

    For ate/ds/wad/ape this equals chi(P); for ecc_plm it equals the
    auxiliary functional E[Y g(X;P)] = E[TY] - chi(P).
    """
    if not spec.affine:
        raise PreconditionError("mixed-bias representation needs an affine score")
    _, alpha = nuisances_of(p, spec)
    target = regression_target_mean(p, spec)  # rho_0 has E[rho_0|Z] = target
    return integrate(z_marginal(p, spec), target * alpha)
