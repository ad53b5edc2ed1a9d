"""Hard-instance constructions: invariant directions and local alternatives.

The lower-bound recipe needs, at an anchor density, perturbation directions
along which one nuisance is *exactly* unchanged while the target functional
bends at second order.  For ate, wad, ds and lod one slice recipe builds
them: G0 = a(z) p rescales each Z slice and so freezes gamma, and
G1 = (2t - 1) c(z) on the binary regressed variable t leaves p_Z, and so
alpha, unchanged.  With b = c / p_Z and l' the link's derivative (1, or
1 / (m (1 - m)) with m = E[t | z] for lod), the mixed reference

    chi''[G0, G1] = sign * (int m1(o, l' b) dG0 - int l' a b alpha dP_Z)

is read off the kind's record in ``estimands.KIND_TABLE``; a kind only
picks its Z-grid profiles (a, c).  ecc_plm, whose m1 reads the outcome,
keeps its own (u, v) pair.  The module multiplies directions by sign-flip
bumps to generate exponentially many indistinguishable alternatives, and
provides the probes (finite-difference second derivatives, closed-form
curvature integrals, nuisance-invariance checks, uncertainty-set
membership) that certify every construction numerically.  Finite
differences use fixed steps; anchor nuisances and the PLM auxiliary
functional come from :mod:`estimands`.

Families of alternatives come in three shapes:

* ``AteLocalFamily`` - the joint construction for the average treatment
  effect: the propensity moves by eps_m * Delta and the outcome regressions
  co-move so that the lambda-average of the joint densities is the anchor
  atom for atom, the nuisance shifts have exact L2 size, and the ATE of
  every member sits at -2 eps_m eps_g from the anchor.
* ``DirectionFamily`` - the generic two-step family anchor + t*Delta*first +
  s*Delta*second for a DirectionPair.
* ``PlmFamily`` - the partially-linear-model family indexed by (u, v); each
  member is again a PLM law with a tilted slope, the treatment propensity
  moves only with u and the outcome mean only with v.

Conventions: ``Delta`` always lives on the Z1 axis (axis 0) and broadcasts
over the remaining axes; direction pairs are ordered (invariant direction,
companion direction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import estimands as est
from .errors import (
    ConstructionPreconditionError,
    InfeasibleRadiusError,
    NondegeneracyError,
    PairingError,
    PreconditionError,
    SizeLimitError,
    UncertaintyViolationError,
)
from .estimands import EstimandSpec
from .grid import (
    Density,
    GridSpace,
    SignedDensity,
    _w_sum,
    add_scaled,
    check_density_rows,
    check_signed_rows,
    feasible_radius,
    integrate,
    l2_nuisance_distance,
    marginal,
)
from .partition import BumpPartition, all_sign_vectors, bump, bumps, iterated_partition

_ATE = EstimandSpec(est.ATE)
_PLM = EstimandSpec(est.ECC_PLM)
_FD_STEP = 1e-3  # step of the mixed second-derivative finite differences
_MIXTURE_BLOCK = 32  # sign vectors evaluated per stack in mixture_density
_LOD_DELTA1 = 1.0 / 8.0  # the outcome step delta_1 of the LOD construction


# -----------------------------------------------------------------------------
# direction pairs per estimand
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionPair:
    """An invariant direction and its companion, plus the curvature they buy.

    ``first`` leaves the nuisance named by :func:`direction_pair`'s
    ``variant`` exactly unchanged along the whole feasible segment;
    ``mixed_reference`` is the closed-form value of the mixed second
    derivative chi''[first, second] on the grid.
    """

    first: SignedDensity
    second: SignedDensity
    mixed_reference: float


# What a direction builder returns: the direction that freezes gamma, the one
# that freezes alpha, and their mixed second derivative.
_Directions = tuple[np.ndarray, np.ndarray, float]
# What a kind's profile function returns: the fields (a, c) on the Z grid.
_Profiles = tuple[np.ndarray, np.ndarray]


def _slice_directions(anchor: Density, spec: EstimandSpec,
                      profiles: Callable[..., _Profiles]) -> _Directions:
    """G0, G1 and chi''[G0, G1] of the slice recipe (module docstring) for
    the kind's ``profiles`` (a, c); t is the kind's one W axis.  Along
    P + s G0 + u G1 the mean of t given z is m + u b / (1 + s a) and m1 does
    not read t, which gives the formula; G0 has zero mass iff int a dP_Z = 0."""
    record = est.KIND_TABLE[spec.kind]
    space = anchor.space
    pz = est.z_marginal(anchor, spec)
    if pz.values.min() <= 0:
        raise ConstructionPreconditionError("anchor has an empty Z slice")
    a, c = profiles(anchor, spec, pz.values)
    a_atoms = np.expand_dims(a, record.w_axes)
    g0 = a_atoms * anchor.values
    g1 = np.stack([0.0 - c, c], axis=record.target_axis)  # 0.0 - c: zeros stay +0.0

    _, alpha = est.nuisances_of(anchor, spec)
    slope = c / pz.values  # l' b
    if record.logistic:
        m = est.regression_target_mean(anchor, spec)
        slope = slope / (m * (1.0 - m))
    mixed = record.sign * (integrate(anchor, a_atoms * est.m1_atoms(spec, space, slope))
                           - integrate(pz, a * slope * alpha))
    return g0, g1, mixed


def _half_space_sign(space: GridSpace) -> np.ndarray:
    """phi(x) = +1 on the left half of the Z1 axis, -1 on the right."""
    n_x = space.shape[0]
    phi = np.ones(n_x)
    phi[n_x // 2:] = -1.0
    return phi


def _treatment_stencil(scale: float | np.ndarray, pz: np.ndarray) -> np.ndarray:
    """a = (-scale p1./p0., scale): moves the treated and the control slices
    of each x against each other, so P_X stays put."""
    return np.stack([-scale * (pz[:, 1] / pz[:, 0]), scale * np.ones(pz.shape[0])], axis=1)


def _ate_profiles(anchor: Density, spec: EstimandSpec, pz: np.ndarray) -> _Profiles:
    phi = _half_space_sign(anchor.space)
    c = np.stack([np.zeros_like(phi), phi * pz[:, 1]], axis=1)
    return _treatment_stencil(phi, pz), c


def _sign_runs(signs: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each maximal run of equal nonzero entries of
    ``signs``, in order."""
    bounds = [0, *(np.flatnonzero(signs[1:] != signs[:-1]) + 1).tolist(), signs.size]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi and signs[lo] != 0]


def _wad_bump_phi(space: GridSpace, spec: EstimandSpec) -> np.ndarray:
    """Derivative of a cubic bump on the longest grid-aligned interval of
    constant omega' sign, made discretely mean-zero over the treatment axis."""
    n_d = space.shape[1]
    runs = _sign_runs(np.sign(spec.params.omega_prime[1:n_d - 1]))
    start, stop = max(runs, key=lambda run: run[1] - run[0], default=(0, 0))
    lo, hi = start + 1, stop + 1  # interior index i is treatment cell i + 1
    if hi - lo < 4:
        raise ConstructionPreconditionError(
            "omega' has no usable constant-sign run on the treatment grid"
        )
    if (hi - lo) % 2:
        hi -= 1
    d = space.coords(1)
    a = d[lo] - space.axes[1].cell_weight / 2.0
    b_edge = d[hi - 1] + space.axes[1].cell_weight / 2.0
    length = b_edge - a
    v = (d - a) / length
    phi = np.zeros(n_d)
    inside = slice(lo, hi)
    vv = v[inside]
    phi[inside] = 420.0 * vv ** 2 * (1.0 - vv) ** 2 * (1.0 - 2.0 * vv) / length
    phi -= phi.mean()  # exact zero mass under the uniform treatment quadrature
    # unit sup-norm keeps the feasible radius of phi-built directions O(1)
    return phi / np.max(np.abs(phi))


def _wad_profiles(anchor: Density, spec: EstimandSpec, pz: np.ndarray) -> _Profiles:
    phi = _wad_bump_phi(anchor.space, spec)[None, :]
    return phi / pz, phi * pz


def _ds_zeta(f: np.ndarray, spec: EstimandSpec) -> np.ndarray:
    """zeta = 1_A - c 1_B on the first run of length >= 2 where f2 - f1 <
    -1e-12 (where it is > 1e-12 when there is none), A and B the run's two
    halves, with c making int zeta dP_X = 0 for the X density f."""
    diff = spec.params.f2 - spec.params.f1
    signs = (diff > 1e-12).astype(float) - (diff < -1e-12)
    runs = [(lo, hi) for lo, hi in _sign_runs(signs) if hi - lo >= 2]
    if not runs:
        raise ConstructionPreconditionError(
            "f2 - f1 has no constant-sign run of length >= 2")
    start, stop = min(runs, key=lambda run: signs[run[0]])  # the first negative run
    a, b = slice(start, (start + stop) // 2), slice((start + stop) // 2, stop)
    zeta = np.zeros(f.size)
    zeta[a] = 1.0
    zeta[b] = -float(f[a].sum() / f[b].sum())
    return zeta


def _ds_profiles(anchor: Density, spec: EstimandSpec, pz: np.ndarray) -> _Profiles:
    zeta = _ds_zeta(pz, spec)
    return zeta, -zeta


def _lod_region(anchor: Density, spec: EstimandSpec) -> tuple[np.ndarray, np.ndarray]:
    """g(1, x) and the indicator b of where it exceeds 1/2 (of where it is
    below 1/2 when it exceeds it nowhere)."""
    g1x = est.regression_target_mean(anchor, spec)[:, 1]
    region = g1x > 0.5
    if not region.any():
        region = g1x < 0.5
    return g1x, region.astype(float)


def _lod_profiles(anchor: Density, spec: EstimandSpec, pz: np.ndarray) -> _Profiles:
    """ATE's stencil at delta_0 = eta / (8 (1 - eta)), and a companion that
    moves Y | (x, 1) by delta_1 r(x) p(x, 1, 0) on the region r of
    :func:`_lod_region`."""
    p = anchor.values
    if p.min() <= 0:
        raise ConstructionPreconditionError("LOD anchor must be strictly positive")
    _, region = _lod_region(anchor, spec)
    if not region.any():
        raise ConstructionPreconditionError(
            "LOD construction needs g(1, x) != 1/2 on positive mass")
    delta0 = spec.overlap / (8.0 * (1.0 - spec.overlap))
    c = np.stack([np.zeros_like(region), _LOD_DELTA1 * region * p[:, 1, 0]], axis=1)
    return _treatment_stencil(delta0, pz), c


def lod_curvature_reference(anchor: Density, spec: EstimandSpec) -> float:
    """Closed form of chi''[H0, H0] for the LOD construction:
    delta_1^2 * E_X[ b(X) (2 g(1,X) - 1) / g(1,X)^2 ]."""
    g1x, b = _lod_region(anchor, spec)
    return _LOD_DELTA1 ** 2 * integrate(marginal(anchor, [0]),
                                        b * (2.0 * g1x - 1.0) / g1x ** 2)


def _plm_shift(g: np.ndarray, q: np.ndarray, theta: float, u: float,
               v: float) -> np.ndarray:
    """(x, t, y) coefficients of s(x) * Delta in the PLM member at (u, v) with
    slope theta: the propensity moves by u s Delta, the outcome mean by v s Delta."""
    shift = np.empty((g.size, 2, 2))
    shift[:, 1, 1] = u * q - v * g + theta * u * (1 - 2 * g)
    shift[:, 1, 0] = u * (1 - q) + v * g - theta * u * (1 - 2 * g)
    shift[:, 0, 1] = -(u * q + v * (1 - g) + theta * u * (1 - 2 * g))
    shift[:, 0, 0] = u * (q - 1) + v * (1 - g) + theta * u * (1 - 2 * g)
    return shift


def _plm_directions(anchor: Density, spec: EstimandSpec) -> _Directions:
    """Linearized (u, v) directions of the PLM family at the origin."""
    space = anchor.space
    g, q = est.nuisances_of(anchor, spec)
    theta = plm_slope(anchor)
    phi = _half_space_sign(space)
    s_phi = (np.sqrt(g * (1.0 - g)) * phi)[:, None, None]
    u_dir = _plm_shift(g, q, theta, 1.0, 0.0) * s_phi  # moves g, leaves q fixed
    v_dir = _plm_shift(g, q, theta, 0.0, 1.0) * s_phi  # moves q, leaves g fixed

    # curvature of the exposed target E[Cov(T,Y|X)] = E[TY] - E[Y g(X;P)];
    # the auxiliary functional's mixed derivative is the negative of this
    mixed = integrate(est.z_marginal(anchor, spec), g * (1.0 - g) * phi * phi)
    return v_dir, u_dir, mixed


def plm_slope(anchor: Density) -> float:
    """Recover the constant treatment slope of a PLM anchor."""
    p = anchor.values
    y1 = p[:, 1, 1] / _w_sum(p[:, 1])
    y0 = p[:, 0, 1] / _w_sum(p[:, 0])
    slopes = y1 - y0
    if np.max(np.abs(slopes - slopes[0])) > 1e-10:
        raise ConstructionPreconditionError("anchor is not a constant-slope PLM law")
    return float(slopes[0])


# the profile function (anchor, spec, p_Z values) -> (a, c) of each slice kind
_SLICE_PROFILES = {
    est.ATE: _ate_profiles,
    est.WAD: _wad_profiles,
    est.DS: _ds_profiles,
    est.LOD: _lod_profiles,
}


def direction_pair(spec: EstimandSpec, anchor: Density,
                   variant: str = "gamma") -> DirectionPair:
    """The per-kind invariant/companion pair at the anchor.

    ``variant`` selects which nuisance the first direction freezes; the
    companion is the direction that freezes the other one.  The APE kind has
    no packaged adversarial construction (estimation only).
    """
    if variant not in ("gamma", "alpha"):
        raise PreconditionError("variant must be 'gamma' or 'alpha'")
    est.check_space(spec, anchor.space)
    if spec.kind == est.ECC_PLM:
        first, second, mixed = _plm_directions(anchor, spec)
    elif spec.kind in _SLICE_PROFILES:
        first, second, mixed = _slice_directions(anchor, spec, _SLICE_PROFILES[spec.kind])
    else:
        raise PreconditionError(f"no adversarial construction for kind {spec.kind!r}")
    if variant == "alpha":
        first, second = second, first
    return DirectionPair(SignedDensity(anchor.space, first),
                         SignedDensity(anchor.space, second), mixed)


# -----------------------------------------------------------------------------
# invariance checks and derivative probes
# -----------------------------------------------------------------------------

def verify_invariance(anchor: Density, direction: SignedDensity,
                      spec: EstimandSpec, which: str) -> float:
    """Max atom-wise deviation of the named nuisance along anchor + t*dir
    over t in +-{0.01, 0.05}.

    A direction whose feasible radius r is below 0.05 (and above 0) has
    those steps scaled by r/0.1, so the longest is r/2 and every perturbed
    law stays a density.
    """
    if which not in ("gamma", "alpha"):
        raise PreconditionError("which must be 'gamma' or 'alpha'")
    pick = 0 if which == "gamma" else 1
    base = est.nuisances_of(anchor, spec)[pick]
    steps = (-0.05, -0.01, 0.01, 0.05)
    radius = feasible_radius(anchor, direction)
    if 0.0 < radius < steps[-1]:
        steps = tuple(t * (radius / 0.1) for t in steps)
    worst = 0.0
    for t in steps:
        perturbed = add_scaled(anchor, t, direction)
        vals = est.nuisances_of(perturbed, spec)[pick]
        worst = max(worst, float(np.max(np.abs(vals - base))))
    return worst


def bumped_direction(direction: SignedDensity, delta: np.ndarray) -> SignedDensity:
    """Delta(lambda, z1) * direction, atom-wise, for the (n_z1,) bump values
    ``delta``; requires int Delta dG = 0 (to 2e-6 relative to 1 + int |dG|)."""
    return SignedDensity(direction.space, _bumped_rows(direction, delta[None])[0])


def _bumped_rows(direction: SignedDensity, deltas: np.ndarray) -> np.ndarray:
    """:func:`bumped_direction` for each row of the (L, n_z1) bump values
    ``deltas``, as an (L, *shape) array; the first row whose bump does not
    annihilate the direction raises PairingError."""
    space = direction.space
    if deltas.shape[1] != space.shape[0]:
        raise PreconditionError("bump field does not match the Z1 axis")
    rows = deltas.shape[0]
    along_z1 = (rows, -1) + (1,) * (len(space.shape) - 1)
    values = direction.values * deltas.reshape(along_z1)
    scale = 1.0 + float(np.abs(direction.values).sum() * space.atom_weight)
    abs_values = np.abs(values)
    masses = values.reshape(rows, -1).sum(axis=1) * space.atom_weight
    abs_masses = abs_values.reshape(rows, -1).sum(axis=1) * space.atom_weight
    ratio = np.zeros(rows)
    for i, (mass, abs_mass) in enumerate(zip(masses.tolist(), abs_masses.tolist())):
        if abs(mass) > 2e-6 * scale:
            raise PairingError(
                f"bump does not annihilate the direction: int Delta dG = {mass:.3e}"
            )
        if mass != 0.0 and abs_mass > 0.0:
            ratio[i] = mass / abs_mass
    # partition residual dust can exceed the SignedDensity mass contract;
    # remove it proportionally to |values| (relative change <= 2e-6 per atom)
    if ratio.any():
        values = values - ratio.reshape(along_z1) * abs_values
    check_signed_rows(space, values)
    return values


def _radius_error(scale: float, anchor: np.ndarray, step: np.ndarray
                  ) -> InfeasibleRadiusError:
    """The error for an infeasible anchor + step taken at ``scale``: the
    feasible radius is |scale| times the largest c with anchor + c * step >= 0
    at every atom (of every row, for a stack of steps), min(anchor / -step)
    over the negative atoms of step."""
    down = step < 0.0
    c = float(np.min(np.broadcast_to(anchor, step.shape)[down] / -step[down]))
    return InfeasibleRadiusError(scale, abs(scale) * c)


def _mixed_difference(f: Callable[[float, float], float], h: float) -> float:
    """Central mixed finite difference of f at the origin with step h."""
    return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)


def second_derivative_fd(anchor: Density, dir_a: SignedDensity,
                         dir_b: SignedDensity, spec: EstimandSpec) -> float:
    """Central mixed finite difference of (s,t) -> chi(anchor + s a + t b)."""

    def chi_at(s: float, t: float) -> float:
        vals = anchor.values + s * dir_a.values + t * dir_b.values
        if vals.min() < -1e-12:
            raise _radius_error(max(abs(s), abs(t)), anchor.values,
                                s * dir_a.values + t * dir_b.values)
        try:
            return est.functional_value(Density(anchor.space, vals), spec)
        except PreconditionError as exc:
            raise PreconditionError(
                f"functional undefined at offset ({s:g},{t:g}); use shorter directions"
            ) from exc

    return _mixed_difference(chi_at, _FD_STEP)


def nuisance_directional_derivative(anchor: Density, direction: SignedDensity,
                                    spec: EstimandSpec, step: float = 1e-3) -> np.ndarray:
    """Per-atom derivative of gamma along the direction, by central
    differences with one Richardson extrapolation level."""

    def central(h: float) -> np.ndarray:
        up, _ = est.nuisances_of(add_scaled(anchor, h, direction), spec)
        dn, _ = est.nuisances_of(add_scaled(anchor, -h, direction), spec)
        return (up - dn) / (2.0 * h)

    coarse = central(step)
    fine = central(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def closed_form_chi2_H0(anchor: Density, h0: SignedDensity, spec: EstimandSpec) -> float:
    """chi''[H0, H0] via the curvature integral
    -int alpha(z) upsilon_rho(z) (gamma'_P(z)[H0])^2 dP_Z; zero for affine."""
    ups = est.upsilon_rho(spec, anchor)
    if not np.any(ups):
        return 0.0
    _, alpha = est.nuisances_of(anchor, spec)
    gprime = nuisance_directional_derivative(anchor, h0, spec, 1e-4)
    return -integrate(est.z_marginal(anchor, spec), alpha * ups * gprime ** 2)


# -----------------------------------------------------------------------------
# Gram-Schmidt invariant direction for ratio nuisances
# -----------------------------------------------------------------------------

def _z_slice(space: GridSpace, z_atom: int) -> tuple:
    """Index of the W slice of the grid at one flat Z atom."""
    z_idx = [i for i, ax in enumerate(space.axes) if ax.role in ("z1", "z2")]
    z_multi = np.unravel_index(int(z_atom), tuple(space.shape[i] for i in z_idx))
    slicer: list = [slice(None)] * len(space.axes)
    for ax, c in zip(z_idx, z_multi):
        slicer[ax] = int(c)
    return tuple(slicer)


def gram_schmidt_invariant_direction(anchor: Density, f0: np.ndarray,
                                     f1: np.ndarray, z_atom: int,
                                     seed: int = 0) -> np.ndarray:
    """Conditional perturbation g0(.|z) orthogonal to {1, F0 - alpha_z F1}.

    A ratio nuisance alpha(z;P) = E_P[F0|Z=z]/E_P[F1|Z=z] is exactly invariant
    under slice perturbations orthogonal (in the conditional base measure) to
    the constant function and to F0 - alpha_z F1.  The returned array holds
    the conditional density of the perturbation per W atom at the given Z
    atom (to be embedded with :func:`slice_perturbation`): one seeded normal
    draw, projected.  F0's residual off {1, F1} must exceed 1e-6.
    """
    space = anchor.space
    w_idx = [i for i, ax in enumerate(space.axes) if ax.role == "w"]
    if not w_idx:
        raise PreconditionError("anchor space has no W axes")
    f0 = space.broadcast(f0)
    f1 = space.broadcast(f1)

    sl = _z_slice(space, z_atom)
    p_slice = anchor.values[sl].ravel()
    f0_w = f0[sl].ravel()
    f1_w = f1[sl].ravel()
    n_w = f0_w.size
    w_w = space.subgrid(w_idx).atom_weight

    denom = float(np.sum(f1_w * p_slice))
    if abs(denom) < 1e-14:
        raise ConstructionPreconditionError("E[F1 | z] vanishes at the atom")
    alpha_z = float(np.sum(f0_w * p_slice)) / denom
    f_tilde = f0_w - alpha_z * f1_w

    # conditional second-moment floor: min_{a,b} E_mu[(F0 - a F1 - b)^2 | z]
    design = np.stack([f1_w, np.ones(n_w)], axis=1) * np.sqrt(w_w)
    resp = f0_w * np.sqrt(w_w)
    coef = np.linalg.lstsq(design, resp, rcond=None)[0]
    floor = float(np.sum((resp - design @ coef) ** 2))
    if floor <= 1e-6:
        raise NondegeneracyError(
            f"F0 is (nearly) affine in F1 on the slice: residual {floor:.3e}"
        )

    c = float(np.sum(f_tilde) * w_w) / float(n_w * w_w)
    centered = f_tilde - c
    norm_sq = float(np.sum(centered ** 2) * w_w)
    # the projection is zero only when the W space is spanned by {1, F}, and
    # then it is zero for every draw
    trial = np.random.default_rng(seed).standard_normal(n_w)
    g0 = trial.copy()
    g0 -= float(np.sum(trial * centered) * w_w) / norm_sq * centered
    g0 -= float(np.sum(g0) * w_w) / (n_w * w_w)
    if np.max(np.abs(g0)) <= 1e-10:
        raise NondegeneracyError(
            "the seed field orthogonalized to zero: W space spans only {1, F}"
        )
    return g0


def slice_perturbation(anchor: Density, z_atom: int, g0_w: np.ndarray) -> SignedDensity:
    """Embed a per-W conditional perturbation at one Z atom into O."""
    space = anchor.space
    sl = _z_slice(space, z_atom)
    values = np.zeros(space.shape)
    values[sl] = np.asarray(g0_w, dtype=float).reshape(values[sl].shape)
    return SignedDensity(space, values)


# -----------------------------------------------------------------------------
# alternative families
# -----------------------------------------------------------------------------

def uncertainty_membership(p: Density, anchor: Density, spec: EstimandSpec,
                           eps_gamma: float, eps_alpha: float
                           ) -> tuple[bool, tuple[float, float]]:
    """Check the nuisance-distance constraints defining the uncertainty set.

    Distances are L2 under the *candidate's* Z marginal, matching the set
    {P : ||gamma(.;anchor) - gamma(.;P)||_{P_Z,2} <= eps_gamma, same for
    alpha}.
    """
    gam_p, alp_p = est.nuisances_of(p, spec)
    gam_a, alp_a = est.nuisances_of(anchor, spec)
    pz = est.z_marginal(p, spec)
    d_gamma = l2_nuisance_distance(gam_p, gam_a, pz)
    d_alpha = l2_nuisance_distance(alp_p, alp_a, pz)
    member = d_gamma <= eps_gamma + 1e-12 and d_alpha <= eps_alpha + 1e-12
    return member, (d_gamma, d_alpha)


class SignVectorFamily:
    """Alternatives indexed by sign vectors lambda in {-1, +1}^M.

    A family evaluates its formula for a whole (L, M) stack of sign vectors
    at once in ``_values``, which raises the family's typed error when a
    member is infeasible.  ``members`` checks every row of that stack as a
    density; ``member`` wraps its one row in a Density, so the two agree
    bit for bit.  A family's parameters are fixed at construction: its
    lambda-free tables are built once, in ``__init__``, and ``_values`` does
    only the per-lambda arithmetic.
    """

    anchor: Density
    partition: BumpPartition

    @property
    def m_pairs(self) -> int:
        return self.partition.n_pairs

    def members(self, lams: np.ndarray) -> np.ndarray:
        """The member densities for the rows of the (L, M) sign array ``lams``,
        as an (L, *shape) array."""
        return check_density_rows(self.anchor.space, self._values(lams))

    def member(self, lam: Sequence[int]) -> Density:
        return Density(self.anchor.space, self._values(np.reshape(lam, (1, -1)))[0])


class AteLocalFamily(SignVectorFamily):
    """The joint ATE alternatives indexed by sign vectors.

    Built from anchor fields (m_hat, g_hat) with uniform X marginal and a
    partition balancing the weights (1, 2 m_hat - 1):

        m_lam      = m_hat + eps_m Delta
        g_lam(0,.) = g_hat(0,.) + eps_g Delta (1 - m_hat + eps_m Delta)
        g_lam(1,.) = g_hat(1,.) + eps_g Delta (m_hat  - eps_m Delta)

    The lambda-average of the member densities is the anchor exactly; when
    the partition splits no cell, the propensity shift has L2 size exactly
    eps_m and the ATE separation is exactly -2 eps_m eps_g.
    """

    def __init__(self, space: GridSpace, m_hat: np.ndarray, g_hat: np.ndarray,
                 eps_m: float, eps_g: float, partition: BumpPartition):
        n_x = space.shape[0]
        self.space = space
        self.m_hat = np.asarray(m_hat, dtype=float) * np.ones(n_x)
        self.g_hat = np.asarray(g_hat, dtype=float) * np.ones((n_x, 2))
        c = float(min(self.m_hat.min(), 1.0 - self.m_hat.max(),
                      self.g_hat.min(), 1.0 - self.g_hat.max()))
        if eps_m < 0 or eps_g < 0 or eps_m > c or eps_g > c:
            raise UncertaintyViolationError(
                f"eps_m, eps_g must lie in [0, {c:g}] for this anchor"
            )
        self.eps_m = float(eps_m)
        self.eps_g = float(eps_g)
        self.partition = partition
        self.anchor = est.ate_joint(space, self.m_hat, self.g_hat)
        self._p_x = est.x_density(space)

    @classmethod
    def balanced(cls, space: GridSpace, m_hat: np.ndarray, g_hat: np.ndarray, eps_m: float,
                 eps_g: float, m_pairs: int) -> "AteLocalFamily":
        """The family on the partition of the Z1 axis into 2 m_pairs blocks
        that balances (1, 2 m_hat - 1)."""
        weights = [np.ones(space.shape[0]), 2.0 * np.asarray(m_hat) - 1.0]
        part = iterated_partition(weights, m_pairs, space.axes[0])
        return cls(space, m_hat, g_hat, eps_m, eps_g, part)

    def _values(self, lams: np.ndarray) -> np.ndarray:
        delta = bumps(self.partition, lams)
        m_lam = self.m_hat + self.eps_m * delta
        g_lam = np.empty(delta.shape + (2,))
        g_lam[..., 0] = self.g_hat[:, 0] + self.eps_g * delta * (
            1.0 - self.m_hat + self.eps_m * delta
        )
        g_lam[..., 1] = self.g_hat[:, 1] + self.eps_g * delta * (
            self.m_hat - self.eps_m * delta
        )
        return est.ate_joint_product(self.space, self._p_x, m_lam, g_lam)

    def nuisance_shift_norms(self, lam: Sequence[int]) -> tuple[float, float]:
        """(||m_lam - m_hat||_{P_X,2}, max_d ||g_lam(d,.) - g_hat(d,.)||)."""
        delta = bump(self.partition, lam)
        p_x_density = Density(
            self.space.subgrid([0]),
            np.ones(self.space.shape[0]),
        )
        m_shift = l2_nuisance_distance(self.m_hat + self.eps_m * delta,
                                       self.m_hat, p_x_density)
        member = self.member(lam)
        gam, _ = est.nuisances_of(member, _ATE)
        gam0, _ = est.nuisances_of(self.anchor, _ATE)
        g_shift = max(
            l2_nuisance_distance(gam[:, d], gam0[:, d], p_x_density)
            for d in (0, 1)
        )
        return m_shift, g_shift


class DirectionFamily(SignVectorFamily):
    """Generic two-step family anchor + t*Delta*first + s*Delta*second."""

    def __init__(self, anchor: Density, spec: EstimandSpec, pair: DirectionPair,
                 t_first: float, s_second: float, partition: BumpPartition):
        self.anchor = anchor
        self.spec = spec
        self.pair = pair
        self.t_first = float(t_first)
        self.s_second = float(s_second)
        self.partition = partition

    def _values(self, lams: np.ndarray) -> np.ndarray:
        delta = bumps(self.partition, lams)
        first = _bumped_rows(self.pair.first, delta)
        second = _bumped_rows(self.pair.second, delta)
        vals = self.anchor.values + self.t_first * first + self.s_second * second
        if vals.min() < -1e-12:
            raise _radius_error(max(self.t_first, self.s_second), self.anchor.values,
                                self.t_first * first + self.s_second * second)
        return vals


class PlmFamily(SignVectorFamily):
    """The (u, v) partially-linear family over sign vectors.

    Members tilt the slope to theta^{u,v} = (theta + u v) / (1 - u^2) and
    remain exact PLM laws; the treatment propensity moves only with u (by
    u * s(x) * Delta) and the outcome mean only with v.  Requires a
    partition with whole-cell blocks so that Delta^2 == 1 atom-wise.
    """

    def __init__(self, anchor: Density, u: float, v: float,
                 partition: BumpPartition):
        shares = partition.split_shares
        if np.any((shares > 1e-12) & (shares < 1 - 1e-12)):
            raise ConstructionPreconditionError(
                "the PLM family needs a whole-cell partition (Delta^2 == 1)"
            )
        if abs(u) >= 1.0:
            raise UncertaintyViolationError("|u| must be < 1")
        self.anchor = anchor
        self.u = float(u)
        self.v = float(v)
        self.partition = partition
        self.theta_hat = plm_slope(anchor)
        self.g_hat, self.q_hat = est.nuisances_of(anchor, _PLM)
        self.s = np.sqrt(self.g_hat * (1.0 - self.g_hat))
        self._shift = _plm_shift(self.g_hat, self.q_hat, self.theta_uv, self.u, self.v)

    @property
    def theta_uv(self) -> float:
        return (self.theta_hat + self.u * self.v) / (1.0 - self.u ** 2)

    def _values(self, lams: np.ndarray) -> np.ndarray:
        delta = bumps(self.partition, lams)
        vals = self.anchor.values + self._shift * (self.s * delta)[..., None, None]
        if vals.min() < -1e-12:
            raise UncertaintyViolationError("(u, v) too large for this anchor")
        return vals


def plm_cross_derivative_fd(family_at: Callable[[float, float], Density]) -> float:
    """Mixed FD of (u,v) -> E[Y g(X)] along a PLM family constructor; the
    auxiliary functional is the PLM's mixed-bias value."""
    return _mixed_difference(
        lambda u, v: est.mixed_bias_value(family_at(u, v), _PLM), _FD_STEP)


def mixture_density(family) -> Density:
    """Uniform lambda-average of the family members' densities.

    Enumerates all 2^M sign vectors, so M is capped at 16.  Members are
    evaluated in stacks of _MIXTURE_BLOCK and added in lambda order.
    """
    m = family.m_pairs
    if m > 16:
        raise SizeLimitError("mixture over 2^M requires M <= 16")
    lams = all_sign_vectors(m)
    acc = np.zeros(family.anchor.space.shape)
    for start in range(0, len(lams), _MIXTURE_BLOCK):
        for row in family.members(lams[start:start + _MIXTURE_BLOCK]):
            acc += row
    return Density(family.anchor.space, acc / len(lams))


# -----------------------------------------------------------------------------
# weight lists for the generic two-step construction
# -----------------------------------------------------------------------------

def _reduce_to_z1(space: GridSpace, values: np.ndarray) -> np.ndarray:
    """w(z1) = int values dmu(other axes | z1)."""
    other = tuple(range(1, len(space.shape)))
    w_other = space.subgrid(other).atom_weight if other else 1.0
    return values.sum(axis=other) * w_other


def case1_weights(anchor: Density, spec: EstimandSpec,
                  pair: DirectionPair) -> list[np.ndarray]:
    """Z1-reduced weight list whose balance cancels the first-order terms of
    the two-step expansion: {1, nu_m gamma'[G1] p + m1(o,gamma) g1,
    m1(o,gamma) g0, g0, g1}."""
    space = anchor.space
    gamma, nu_m = est.nuisances_of(anchor, spec)  # nu_rho == -1
    gprime = nuisance_directional_derivative(anchor, pair.second, spec)
    m1_at_gamma = est.m1_atoms(spec, space, gamma)
    core_full = est.z_to_grid(spec, space, nu_m * gprime)
    psi_mixed = core_full * anchor.values + m1_at_gamma * pair.second.values
    weights = [
        np.ones(space.shape[0]),
        _reduce_to_z1(space, psi_mixed),
        _reduce_to_z1(space, m1_at_gamma * pair.first.values),
        _reduce_to_z1(space, pair.first.values),
        _reduce_to_z1(space, pair.second.values),
    ]
    return weights
